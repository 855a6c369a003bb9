"""Declarative, JSON-serializable run descriptions with fingerprints.

A :class:`RunSpec` is the unit of work in the experiment runtime: it
names — by registry key and keyword arguments, never by live object —
everything that determines one (mix, policy) simulation:

* the mix (:class:`MixRef`: LC workload, load, batch-type combo,
  replicate, construction seed),
* the policy (:class:`PolicySpec`) and optional partitioning scheme
  (:class:`SchemeSpec`),
* the machine and measurement knobs (core kind, requests, seed,
  UMON noise, warmup fraction).

Because a spec is plain data it pickles cheaply to worker processes,
round-trips through JSON, and has a canonical content *fingerprint*
(SHA-256 of its canonical JSON) that keys the persistent result store:
the same spec always hashes to the same hex string, in every process,
on every run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import Any, ClassVar, Dict, Iterable, List, Mapping, Optional, Tuple

from ..numeric import mean
from ..workloads.names import MIN_TAIL_REQUESTS, batch_type_combos, load_label
from .registry import LC_WORKLOADS, POLICIES, SCHEMES

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "KwargsTuple",
    "PolicySpec",
    "SchemeSpec",
    "MixRef",
    "BaselineSpec",
    "RunSpec",
    "TaskSpec",
    "RunRecord",
    "SweepResult",
    "canonical_json",
    "fingerprint_payload",
    "config_fingerprint",
    "mix_refs",
]

#: Bumped whenever spec/engine semantics change in a way that
#: invalidates stored results; part of every fingerprint.
SPEC_SCHEMA_VERSION = 1

#: Keyword arguments frozen as a sorted tuple of (name, value) pairs.
KwargsTuple = Tuple[Tuple[str, Any], ...]


def _freeze_kwargs(kwargs: Mapping[str, Any]) -> KwargsTuple:
    """Sort kwargs into a hashable tuple; values must be JSON scalars."""
    for key, value in kwargs.items():
        if not isinstance(value, (bool, int, float, str, type(None))):
            raise TypeError(
                f"spec kwarg {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
    return tuple(sorted(kwargs.items()))


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint_payload(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PolicySpec:
    """A policy by registry name plus frozen constructor kwargs."""

    name: str
    kwargs: KwargsTuple = ()
    label: str = ""

    def __post_init__(self) -> None:
        # Registry lookups are case-insensitive; normalize so equal
        # objects get equal fingerprints regardless of caller casing.
        object.__setattr__(self, "name", self.name.lower())

    @classmethod
    def of(cls, name: str, label: str = "", **kwargs: Any) -> "PolicySpec":
        """Build a spec, freezing ``kwargs`` canonically."""
        return cls(name=name, kwargs=_freeze_kwargs(kwargs), label=label)

    @property
    def display(self) -> str:
        """The label used in reports (defaults to the registry name)."""
        return self.label or self.name

    def build(self):
        """Instantiate the policy from the registry."""
        return POLICIES.make(self.name, **dict(self.kwargs))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "kwargs": [list(kv) for kv in self.kwargs],
            "label": self.label,
        }


@dataclass(frozen=True)
class SchemeSpec:
    """A partitioning-scheme model by registry name."""

    name: str
    kwargs: KwargsTuple = ()

    def __post_init__(self) -> None:
        # Match the registry's case-insensitive key equivalence.
        object.__setattr__(self, "name", self.name.lower())

    @classmethod
    def of(cls, name: str, **kwargs: Any) -> "SchemeSpec":
        """Build a spec, freezing ``kwargs`` canonically."""
        return cls(name=name, kwargs=_freeze_kwargs(kwargs))

    def build(self, llc_lines: int):
        """Instantiate the scheme model for an LLC capacity."""
        return SCHEMES.make(self.name, llc_lines=llc_lines, **dict(self.kwargs))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {"name": self.name, "kwargs": [list(kv) for kv in self.kwargs]}


@dataclass(frozen=True)
class MixRef:
    """A six-app mix named by its deterministic construction inputs.

    Mirrors :func:`repro.workloads.mixes.make_mix_specs`: the batch trio
    for combo ``c`` replicate ``r`` is drawn with seed
    ``seed + index(c) * 1000 + r``, so a ref rebuilt in any process
    yields a bit-identical :class:`~repro.workloads.mixes.MixSpec`.
    """

    lc_name: str
    load: float
    combo: str  # three batch-type letters, e.g. "nft"
    rep: int = 0
    seed: int = 2014
    target_mb: float = 2.0

    @property
    def load_label(self) -> str:
        """``lo``/``hi``, matching :class:`MixSpec.load_label`."""
        return load_label(self.load)

    @property
    def mix_id(self) -> str:
        """The id ``make_mix_specs`` would assign this mix."""
        return f"{self.lc_name}-{self.load_label}-{self.combo}.{self.rep}"

    def build(self):
        """Reconstruct the full :class:`MixSpec` (workloads included).

        The LC workload and the batch trio are served from the
        process-wide artifact cache keyed by their deterministic
        construction inputs — both are frozen dataclass graphs, so a
        sweep shares one instance across every spec that names the same
        inputs instead of rebuilding curves and profiles per cell.
        """
        from ..workloads.mixes import MixSpec, make_batch_mix
        from .artifacts import get_artifacts

        combo_labels = ["".join(c) for c in batch_type_combos()]
        try:
            combo_index = combo_labels.index(self.combo)
        except ValueError:
            raise ValueError(
                f"unknown batch combo {self.combo!r} (known: {combo_labels})"
            ) from None
        mix_seed = self.seed + combo_index * 1000 + self.rep
        artifacts = get_artifacts()
        workload = artifacts.get_or_make(
            "lc_workload",
            (self.lc_name, float(self.target_mb)),
            lambda: LC_WORKLOADS.make(self.lc_name, target_mb=self.target_mb),
        )
        batch_apps = artifacts.get_or_make(
            "batch_mix",
            (self.combo, int(mix_seed)),
            lambda: make_batch_mix(tuple(self.combo), mix_seed),
        )
        return MixSpec(
            mix_id=self.mix_id,
            lc_workload=workload,
            load=self.load,
            batch_apps=batch_apps,
            batch_combo=f"{self.combo}.{self.rep}",
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return asdict(self)


@dataclass(frozen=True)
class BaselineSpec:
    """Everything an isolated 2 MB-private baseline run depends on.

    The target allocation is keyed in *lines* (the workload's actual
    quantized allocation), not megabytes, so fingerprints computed from
    a requested size and from a built workload always agree.
    """

    lc_name: str
    load: float
    core_kind: str
    requests: int
    seed: int
    warmup_fraction: float = 0.05
    target_lines: int = 32768  # mb_to_lines(2.0), the paper's target
    #: Content hash of the full CMPConfig (see :func:`config_fingerprint`).
    #: Baselines depend on more than ``core_kind`` (memory latency,
    #: coalescing timeout, LLC geometry); keying on the whole config
    #: keeps differently-parameterized machines from sharing entries.
    config_key: str = ""

    def fingerprint(self) -> str:
        """Stable content hash keying the persistent store."""
        payload = {"kind": "baseline", "v": SPEC_SCHEMA_VERSION}
        payload.update(asdict(self))
        return fingerprint_payload(payload)


def config_fingerprint(config) -> str:
    """Stable content hash of a :class:`CMPConfig` (all fields)."""
    return fingerprint_payload(asdict(config))


@dataclass(frozen=True)
class RunSpec:
    """One (mix, policy, scheme, machine, measurement) simulation."""

    mix: MixRef
    policy: PolicySpec
    scheme: Optional[SchemeSpec] = None
    core_kind: str = "ooo"
    requests: int = 120
    seed: int = 2014
    umon_noise: float = 0.02
    warmup_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.requests < MIN_TAIL_REQUESTS:
            raise ValueError(
                f"need at least {MIN_TAIL_REQUESTS} requests for tail metrics"
            )

    def config(self):
        """The :class:`CMPConfig` this spec runs on."""
        from ..sim.config import CMPConfig

        return CMPConfig(core_kind=self.core_kind)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (canonical field order via keys)."""
        return {
            "mix": self.mix.to_dict(),
            "policy": self.policy.to_dict(),
            "scheme": self.scheme.to_dict() if self.scheme else None,
            "core_kind": self.core_kind,
            "requests": self.requests,
            "seed": self.seed,
            "umon_noise": self.umon_noise,
            "warmup_fraction": self.warmup_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        policy = payload["policy"]
        scheme = payload.get("scheme")
        return cls(
            mix=MixRef(**payload["mix"]),
            policy=PolicySpec(
                name=policy["name"],
                kwargs=tuple((k, v) for k, v in policy.get("kwargs", ())),
                label=policy.get("label", ""),
            ),
            scheme=(
                SchemeSpec(
                    name=scheme["name"],
                    kwargs=tuple((k, v) for k, v in scheme.get("kwargs", ())),
                )
                if scheme
                else None
            ),
            core_kind=payload["core_kind"],
            requests=payload["requests"],
            seed=payload["seed"],
            umon_noise=payload["umon_noise"],
            warmup_fraction=payload["warmup_fraction"],
        )

    def fingerprint(self) -> str:
        """Stable content hash keying the persistent store.

        The policy *label* is deliberately excluded: two specs that
        build the same objects share results regardless of how they are
        captioned in a report.
        """
        payload = {"kind": "run", "v": SPEC_SCHEMA_VERSION}
        payload.update(self.to_dict())
        payload["policy"] = dict(payload["policy"], label="")
        return fingerprint_payload(payload)


@dataclass(frozen=True)
class TaskSpec:
    """Base for declarative non-sweep tasks (scaleout, bandwidth, …).

    A task spec is the :class:`RunSpec` idea generalized: a frozen
    dataclass of JSON scalars (plus nested specs like
    :class:`PolicySpec`) naming everything one deterministic
    computation depends on.  Subclasses set two class attributes —

    * ``kind`` — the store document kind (and fingerprint namespace),
    * ``result_type`` — the frozen dataclass the task returns
      (``None`` means the result is already a JSON-ready dict) —

    and implement :meth:`compute`.  Fingerprinting, store lookup, and
    persistence are inherited, so any task spec rides
    :meth:`~repro.runtime.session.Session.run_many` at any ``jobs`` and
    the persistent store exactly like a sweep spec.
    """

    #: Store document kind; subclasses must override.
    kind: ClassVar[str] = "task"
    #: Result dataclass rebuilt by :meth:`decode` (``None`` = plain dict).
    result_type: ClassVar[Optional[type]] = None

    def payload(self) -> Dict[str, Any]:
        """Fingerprint payload: every field, nested specs flattened.

        Policy labels are blanked (matching :meth:`RunSpec.fingerprint`)
        so relabeled-but-identical tasks share one stored result.
        """
        data = asdict(self)
        policy = data.get("policy")
        if isinstance(policy, dict) and "label" in policy:
            policy["label"] = ""
        data["kind"] = self.kind
        data["v"] = SPEC_SCHEMA_VERSION
        return data

    def fingerprint(self) -> str:
        """Stable content hash keying the persistent store."""
        return fingerprint_payload(self.payload())

    def encode(self, result: Any) -> Dict[str, Any]:
        """JSON-ready representation of a computed result."""
        return asdict(result) if is_dataclass(result) else dict(result)

    @classmethod
    def decode(cls, payload: Mapping[str, Any]) -> Any:
        """Inverse of :meth:`encode`."""
        if cls.result_type is None:
            return dict(payload)
        return cls.result_type(**payload)

    def lookup(self, store) -> Optional[Any]:
        """The stored result for this task, or ``None``."""
        if store is None:
            return None
        doc = store.get(self.fingerprint())
        if doc is None or doc.get("kind") != self.kind:
            return None
        return self.decode(doc["result"])

    def compute(self, store) -> Any:
        """Produce the result from scratch (deterministic in the spec)."""
        raise NotImplementedError

    def execute(self, store=None) -> Any:
        """Serve from the store, else compute and persist."""
        hit = self.lookup(store)
        if hit is not None:
            return hit
        result = self.compute(store)
        if store is not None:
            store.put(
                self.fingerprint(),
                {"kind": self.kind, "result": self.encode(result)},
            )
        return result


@dataclass(frozen=True)
class RunRecord:
    """One (mix, policy) run's metrics — the store's value type."""

    mix_id: str
    lc_name: str
    load_label: str
    policy: str
    tail_degradation: float
    weighted_speedup: float
    lc_tail_cycles: float
    baseline_tail_cycles: float
    deboosts: int = 0
    watermarks: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def relabeled(self, policy: str) -> "RunRecord":
        """A copy reporting under a different policy label."""
        if policy == self.policy:
            return self
        return replace(self, policy=policy)


@dataclass
class SweepResult:
    """All runs of a sweep plus grouped accessors."""

    records: List[RunRecord]

    def for_policy(
        self, policy: str, load_label: Optional[str] = None
    ) -> List[RunRecord]:
        """Records for one policy, optionally filtered by load."""
        return [
            r
            for r in self.records
            if r.policy == policy
            and (load_label is None or r.load_label == load_label)
        ]

    def policies(self) -> List[str]:
        """Policy labels in first-seen order."""
        seen: Dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.policy, None)
        return list(seen)

    def sorted_degradations(self, policy: str, load_label: str):
        """Tail degradations, worst first (paper style)."""
        import numpy as np

        vals = [r.tail_degradation for r in self.for_policy(policy, load_label)]
        return np.sort(np.asarray(vals))[::-1]

    def sorted_speedups(self, policy: str, load_label: str):
        """Weighted speedups, ascending."""
        import numpy as np

        vals = [r.weighted_speedup for r in self.for_policy(policy, load_label)]
        return np.sort(np.asarray(vals))

    def average_speedup(self, policy: str, load_label: str) -> float:
        """Mean weighted speedup for a policy at one load."""
        vals = [r.weighted_speedup for r in self.for_policy(policy, load_label)]
        return mean(vals) if vals else float("nan")

    def per_app(
        self, policy: str, lc_name: str, load_label: str
    ) -> List[RunRecord]:
        """Records for one (policy, LC app, load) cell."""
        return [
            r
            for r in self.for_policy(policy, load_label)
            if r.lc_name == lc_name
        ]


def mix_refs(
    lc_names: Iterable[str],
    loads: Iterable[float],
    combos: Iterable[str],
    mixes_per_combo: int = 1,
    seed: int = 2014,
    target_mb: float = 2.0,
) -> List[MixRef]:
    """The declarative grid matching ``scaled_mix_specs`` ordering.

    Iterates LC names, then loads, then the full 20-combo order
    (filtered to ``combos``) with replicates innermost — exactly the
    order :func:`repro.experiments.common.scaled_mix_specs` produces,
    so sweep records line up with the legacy path record for record.
    """
    keep = set(combos)
    refs: List[MixRef] = []
    for lc_name in lc_names:
        for load in loads:
            for combo_tuple in batch_type_combos():
                combo = "".join(combo_tuple)
                if combo not in keep:
                    continue
                for rep in range(mixes_per_combo):
                    refs.append(
                        MixRef(
                            lc_name=lc_name,
                            load=load,
                            combo=combo,
                            rep=rep,
                            seed=seed,
                            target_mb=target_mb,
                        )
                    )
    return refs

"""Meta-tests: public API completeness and documentation quality."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = [
    "repro",
    "repro.units",
    "repro.numeric",
    "repro.cli",
    "repro.monitor",
    "repro.monitor.miss_curve",
    "repro.monitor.umon",
    "repro.cache",
    "repro.cache.set_assoc",
    "repro.cache.vantage",
    "repro.cache.sharing",
    "repro.cache.schemes",
    "repro.cache.reference",
    "repro.bench",
    "repro.cpu",
    "repro.workloads",
    "repro.workloads.service_time",
    "repro.workloads.arrivals",
    "repro.workloads.latency_critical",
    "repro.workloads.batch",
    "repro.workloads.mixes",
    "repro.workloads.names",
    "repro.workloads.trace",
    "repro.workloads.curve_shapes",
    "repro.server",
    "repro.server.request",
    "repro.server.queueing",
    "repro.server.latency",
    "repro.policies",
    "repro.policies.base",
    "repro.policies.lookahead",
    "repro.policies.lru",
    "repro.policies.ucp",
    "repro.policies.static_lc",
    "repro.policies.onoff",
    "repro.policies.fixed",
    "repro.core",
    "repro.core.transient",
    "repro.core.boost",
    "repro.core.repartition",
    "repro.core.deboost",
    "repro.core.slack",
    "repro.core.ubik",
    "repro.core.reference",
    "repro.runtime",
    "repro.runtime.artifacts",
    "repro.runtime.registry",
    "repro.runtime.spec",
    "repro.runtime.store",
    "repro.runtime.work",
    "repro.runtime.session",
    "repro.sim",
    "repro.sim.config",
    "repro.sim.fill",
    "repro.sim.engine",
    "repro.sim.mix_runner",
    "repro.sim.results",
    "repro.sim.bandwidth",
    "repro.sim.study_runner",
    "repro.sim.reference",
    "repro.experiments",
    "repro.analysis",
    "repro.analysis.stats",
    "repro.analysis.ascii_plot",
    "repro.analysis.queueing_theory",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 20, f"{module_name} docstring too thin"


@pytest.mark.parametrize("module_name", [m for m in MODULES if m != "repro"])
def test_public_items_documented(module_name):
    """Every name a module exports must carry a docstring."""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


RUNTIME_MODULES = [m for m in MODULES if m.startswith("repro.runtime")]


def _undocumented_members(cls):
    """Public methods/properties of ``cls`` lacking a real docstring."""
    missing = []
    for attr, member in vars(cls).items():
        if attr.startswith("_"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            target = member.__func__
        elif inspect.isfunction(member):
            target = member
        elif isinstance(member, property):
            target = member.fget
        else:
            continue  # plain class attribute / ClassVar default
        doc = getattr(target, "__doc__", None)
        if not doc or len(doc.strip()) < 10:
            missing.append(attr)
    return missing


@pytest.mark.parametrize("module_name", RUNTIME_MODULES)
def test_runtime_docstring_coverage(module_name):
    """The runtime package holds itself to a stricter bar: every
    exported name *and every public method, classmethod, staticmethod,
    and property on every exported class* must carry a substantive
    docstring.  (The base check above only covers the exported names
    themselves.)"""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} must declare __all__"
    problems = []
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            if not obj.__doc__ or len(obj.__doc__.strip()) < 10:
                problems.append(name)
            problems.extend(
                f"{name}.{attr}" for attr in _undocumented_members(obj)
            )
        elif inspect.isfunction(obj):
            if not obj.__doc__ or len(obj.__doc__.strip()) < 10:
                problems.append(name)
    assert not problems, (
        f"{module_name} exports lacking docstrings: {problems}"
    )


def test_top_level_api_exports():
    """The headline API is importable from the package root."""
    for name in (
        "UbikPolicy",
        "UCPPolicy",
        "StaticLCPolicy",
        "OnOffPolicy",
        "LRUPolicy",
        "MixRunner",
        "MixResult",
        "CMPConfig",
        "make_mix_specs",
        "make_lc_workload",
        "LC_NAMES",
    ):
        assert hasattr(repro, name), name
        assert name in repro.__all__


def test_version_is_set():
    assert repro.__version__


def test_all_subpackages_reachable():
    """No orphan modules: everything under repro imports cleanly."""
    failures = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append((info.name, exc))
    assert not failures, failures


def test_runtime_modules_are_all_listed():
    """Every module under ``repro.runtime`` is held to the runtime
    docstring bar above, and no module exists outside that list."""
    import repro.runtime

    found = {
        info.name
        for info in pkgutil.walk_packages(
            repro.runtime.__path__, prefix="repro.runtime."
        )
    }
    assert found == set(RUNTIME_MODULES) - {"repro.runtime"}


def test_session_runs_take_no_split_argument():
    """A run is one unit of work: neither the session nor its batch
    entry points accept a way to split it, and the store keeps no
    per-split reclaim hook."""
    from repro.runtime import ResultStore, Session

    for function in (Session.__init__, Session.run, Session.run_many):
        assert "shards" not in inspect.signature(function).parameters
    assert not hasattr(ResultStore, "discard")


def test_one_batch_path(capsys):
    """A session is a store plus a worker count, every batch runs
    through ``run_many(specs)``, and the retired batch engines, their
    options and the CLI's engine flag stay gone."""
    import repro.runtime
    from repro.cli import main
    from repro.runtime import Session

    assert list(inspect.signature(Session.__init__).parameters) == [
        "self",
        "store",
        "jobs",
    ]
    assert list(inspect.signature(Session.run_many).parameters) == ["self", "specs"]
    assert not hasattr(Session, "run_specs")
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = capsys.readouterr().out
    retired = ("SpecScheduler", "AsyncExecutor", "ProgressEvent", "SchedulerCancelled", "EXECUTOR_KINDS", "make_executor", "SerialExecutor", "ParallelExecutor", "default_jobs", "--scheduler")
    assert [n for n in retired if hasattr(repro.runtime, n) or n in help_text] == []


def _unused_imports(tree):
    """``(line, name)`` of each name ``tree``'s imports bind and never read.

    A name counts as read when the module loads it anywhere, an
    annotation included, or lists it in ``__all__``.
    """
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in read
    )


def test_no_module_imports_a_name_it_never_reads():
    """Every name a ``src/`` module imports is read somewhere in it."""
    root = Path(repro.__file__).resolve().parent
    unused = [
        f"{path.relative_to(root.parent)}:{line}: {name}"
        for path in sorted(root.rglob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert unused == []


#: Each ``src/repro`` module that no other module imports, and why it
#: stays.  A package root's imports are re-exports, not reads.
UNREAD_MODULES = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro._lazy": "the package roots' lazy re-exports",
    "repro.cpu.inorder": "a core model, built by name by cpu.make_core_model",
    "repro.cpu.ooo": "a core model, built by name by cpu.make_core_model",
    "repro.experiments.fig10_per_app": "read by benchmarks/",
    "repro.cache.vantage": "oracle: test_substrate_consistency holds FillState to it",
    "repro.monitor.umon": "oracle: test_substrate_consistency holds it to an LRU cache",
    "repro.analysis.queueing_theory": "oracle: M/G/1 closed forms the simulators match",
    "repro.server.queueing": "oracle: FIFO simulator a fixed-partition engine run matches",
    "repro.analysis.stats": "kept for a paper scorecard's tail confidence intervals",
}


def _unread_modules(root):
    """Dotted names of the modules under ``root`` that no module imports.

    A module counts as read when a module that is not a package root
    imports it, a submodule of it, or a name from it.
    """
    modules = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        is_root = parts[-1] == "__init__"
        modules[".".join(parts[:-1] if is_root else parts)] = (path, is_root)
    read = set()
    for name, (path, is_root) in modules.items():
        if is_root:
            continue
        package = name.rpartition(".")[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.rsplit(".", node.level - 1)[0]
                    base = f"{anchor}.{base}" if base else anchor
                targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for target in targets:
                while target:
                    read.add(target)
                    target = target.rpartition(".")[0]
    return sorted(set(modules) - read)


def test_every_module_has_a_reader():
    """A module that no other ``src/`` module imports is dead weight
    unless it is listed in :data:`UNREAD_MODULES` with its reason; a
    listed module that gains a reader leaves the table."""
    unread = _unread_modules(Path(repro.__file__).resolve().parent)
    assert [name for name in unread if name not in UNREAD_MODULES] == []
    assert [name for name in UNREAD_MODULES if name not in unread] == []

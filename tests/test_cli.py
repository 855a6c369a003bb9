"""Tests for the repro CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main


#: Each sweep command and the experiment module that runs it.
SWEEP_MODULES = {
    "fig9": "fig9_distributions",
    "table3": "table3_speedups",
    "fig12": "fig12_slack",
    "fig13": "fig13_schemes",
    "ablations": "ablations",
    "utilization": "utilization",
}

#: Modules only a simulation needs: a served run loads none of them
#: but the two of :data:`SERVED_SIM_MODULES`.
SIMULATOR_MODULES = (
    "repro.sim",
    "repro.core",
    "repro.policies",
    "repro.monitor",
    "repro.workloads.latency_critical",
    "repro.workloads.batch",
)

#: All a served run may load of the simulator package: its lazy root
#: and the config the specs are built from.
SERVED_SIM_MODULES = ("repro.sim", "repro.sim.config")


def _simulator(modules):
    """The watched ``modules`` a served run must not load."""
    return [m for m in modules if m not in SERVED_SIM_MODULES]


@pytest.fixture
def tiny_sweep(monkeypatch, tmp_path):
    """A one-workload, one-load sweep scale over a fresh directory store."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_LC", "masstree")
    monkeypatch.setenv("REPRO_REQUESTS", "40")
    monkeypatch.setenv("REPRO_LOADS", "0.2")


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "table3" in out

    def test_fig1b_subset(self, capsys):
        assert main(["fig1b", "--lc", "masstree"]) == 0
        out = capsys.readouterr().out
        assert "masstree" in out
        assert "p95/mean" in out

    def test_fig2_subset(self, capsys):
        assert main(["fig2", "--lc", "shore"]) == 0
        out = capsys.readouterr().out
        assert "shore" in out
        assert "2MB" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["explode"])

    def test_fig1a_runs_small(self, capsys):
        assert main(["fig1a", "--lc", "masstree", "--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "Tail95" in out

    def test_list_mentions_cache(self, capsys):
        assert main(["list"]) == 0
        assert "cache" in capsys.readouterr().out

    def test_cache_stats_and_clear(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert main(["cache", "--clear"]) == 0
        assert "cleared 0" in capsys.readouterr().out

    def test_jobs_flag_accepted(self, capsys, tiny_sweep):
        assert main(["utilization", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Utilization" in out

    def test_parallel_matches_serial_and_is_served(
        self, capsys, tiny_sweep, forbid_evaluation
    ):
        assert main(["table3", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert "Table 3" in parallel_out
        # A serial re-run is byte-identical and served from the store.
        forbid_evaluation()
        assert main(["table3", "--jobs", "1"]) == 0
        assert capsys.readouterr().out == parallel_out

    def test_seed_reaches_the_sweep(self, capsys, tiny_sweep):
        from repro.experiments import ExperimentScale, run_table3
        from repro.experiments.table3_speedups import format_table3
        from repro.runtime import Session

        assert main(["table3", "--seed", "7"]) == 0
        seeded = capsys.readouterr().out
        scale = ExperimentScale(
            requests=40, lc_names=("masstree",), loads=(0.2,), seed=7
        )
        expected = format_table3(
            run_table3(scale, session=Session(store="memory://", jobs=1))
        )
        assert seeded == expected + "\n"
        assert main(["table3"]) == 0
        assert capsys.readouterr().out != seeded

    @pytest.mark.parametrize("command", list(SWEEP_MODULES))
    def test_seed_flag_reaches_every_sweep_command(self, command, monkeypatch):
        import importlib

        seeds = []

        class Stop(Exception):
            pass

        def capture(scale, session):
            seeds.append(scale.seed)
            raise Stop

        # The command imports its experiment module when it runs.
        module = importlib.import_module(
            f"repro.experiments.{SWEEP_MODULES[command]}"
        )
        monkeypatch.setattr(module, f"run_{command}", capture)
        with pytest.raises(Stop):
            main([command, "--seed", "7"])
        with pytest.raises(Stop):
            main([command])
        assert seeds == [7, 2014]

    def test_list_mentions_run(self, capsys):
        assert main(["list"]) == 0
        assert "one (mix, policy) spec" in capsys.readouterr().out

    def test_cache_prune(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        stale = tmp_path / "ab" / ("ab" * 32 + ".json")
        stale.parent.mkdir(parents=True)
        stale.write_text(json.dumps({"kind": "run", "schema": 0}))
        assert main(["cache", "--prune"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1" in out
        assert not stale.exists()


class TestStorageCLI:
    """The --store flag and the cache command."""

    RUN_ARGS = [
        "run",
        "--lc",
        "masstree",
        "--requests",
        "40",
        "--policy",
        "lru",
    ]

    def _field(self, text, name):
        return [
            line for line in text.splitlines() if line.startswith(name)
        ][0].split()[-1]

    def test_run_with_directory_url_store(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        url = f"directory://{tmp_path}/store"
        assert main(self.RUN_ARGS + ["--store", url]) == 0
        out = capsys.readouterr().out
        fingerprint = self._field(out, "fingerprint")
        document = tmp_path / "store" / fingerprint[:2] / f"{fingerprint}.json"
        assert self._field(out, "store document") == str(document)
        assert document.is_file()
        # Re-running against the same store is a hit on the same record.
        assert main(self.RUN_ARGS + ["--store", url]) == 0
        again = capsys.readouterr().out
        assert self._field(again, "fingerprint") == self._field(
            out, "fingerprint"
        )

    def test_run_store_url_overrides_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "ignored"))
        assert (
            main(self.RUN_ARGS + ["--store", str(tmp_path / "chosen")]) == 0
        )
        assert (tmp_path / "chosen").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize(
        "url, engine", [("directory://{tmp}/env", "directory"), ("memory://", "memory")]
    )
    def test_env_url_selects_backend(self, url, engine, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", url.format(tmp=tmp_path))
        assert main(["cache", "--stats"]) == 0
        rows = dict(
            line.split(None, 1) for line in capsys.readouterr().out.splitlines()
            if line.startswith(("backend", "documents"))
        )
        assert rows["backend"].strip() == engine
        assert rows["documents"].strip() == "0"

    def test_cache_stats_reports_backend_rows(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(self.RUN_ARGS) == 0
        capsys.readouterr()
        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "backend" in out
        assert "directory" in out
        assert "documents" in out
        assert "kind: run" in out
        assert "Artifact cache" in out

    def test_cache_clear_on_explicit_store(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        url = f"directory://{tmp_path}/store"
        assert main(self.RUN_ARGS + ["--store", url]) == 0
        capsys.readouterr()
        assert main(["cache", "--store", url, "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert "cleared 0" not in out

    @pytest.mark.parametrize("engine", ["path", "memory"])
    def test_run_reports_where_its_document_lives(
        self, engine, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        store = str(tmp_path / "store") if engine == "path" else "memory://"
        assert main(self.RUN_ARGS + ["--store", store]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("store document"))
        if engine == "memory":
            assert row.split(None, 2)[2].strip() == "(memory-only store)"
        else:
            fingerprint = self._field(out, "fingerprint")
            document = tmp_path / "store" / fingerprint[:2] / f"{fingerprint}.json"
            assert row.split()[-1] == str(document)
            assert document.is_file()

    @pytest.mark.parametrize("text", ["[]", "1", "null", "{not json"])
    def test_cache_counts_and_prunes_a_non_object_document(
        self, text, capsys, monkeypatch, tmp_path
    ):
        """A document file that is not a JSON object is a corrupt entry:
        ``cache`` reports it, and ``--prune`` reclaims it."""
        monkeypatch.delenv("REPRO_STORE", raising=False)
        root = tmp_path / "store"
        assert main(self.RUN_ARGS + ["--store", str(root)]) == 0
        corrupt = root / "ab" / f"{'ab' * 32}.json"
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_text(text)
        capsys.readouterr()
        assert main(["cache", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert self._field(out, "documents") == "3"
        assert self._field(out, "  kind: corrupt") == "1"
        assert main(["cache", "--store", str(root), "--prune"]) == 0
        assert capsys.readouterr().out == "pruned 1 stale result(s), kept 2 current\n"
        assert not corrupt.exists()

    def test_run_recomputes_over_a_non_object_document(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        store = ["--store", str(tmp_path / "store")]
        assert main(self.RUN_ARGS + store) == 0
        first = capsys.readouterr().out
        document = Path(self._field(first, "store document"))
        document.write_text("[]")
        assert main(self.RUN_ARGS + store) == 0
        assert capsys.readouterr().out == first
        assert json.loads(document.read_text())["kind"] == "run"

    @pytest.mark.parametrize("flag", [["--migrate", "a", "b"], ["--export", "d"]])
    def test_retired_cache_flags_are_usage_errors(self, flag, capsys, tmp_path):
        """A directory store moves as a directory copy; the cache
        command has no corpus-movement flags."""
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "--store", str(tmp_path / "s"), *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_list_mentions_store(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "--store" in out

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_retired_store_url_fails_by_name(self, capsys, monkeypatch, via):
        """A stale network store URL is a usage error naming where it
        came from and the engines that exist, before anything runs."""
        url = "http://127.0.0.1:8377"
        args = list(self.RUN_ARGS)
        if via == "flag":
            monkeypatch.delenv("REPRO_STORE", raising=False)
            args += ["--store", url]
            source = "argument --store"
        else:
            monkeypatch.setenv("REPRO_STORE", url)
            source = "REPRO_STORE"
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"repro: error: {source}: unknown store backend 'http' in "
            f"'{url}' (known: directory, memory)"
        )


class TestBenchCompareCLI:
    def test_compare_two_committed_documents(self, capsys):
        """``bench --compare`` diffs two trajectory documents without
        running any kernel — fast enough for tier-1."""
        perf = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
        assert (
            main(
                [
                    "bench",
                    "--compare",
                    str(perf / "BENCH_pr7.json"),
                    str(perf / "BENCH_pr9.json"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "joint_replay_grid" in out
        assert "floor 2.0x" in out
        assert "only in new: cluster_roundtrip" in out

    def test_compare_rejects_invalid_document(self, tmp_path):
        perf = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError, match="old document"):
            main(
                [
                    "bench",
                    "--compare",
                    str(bad),
                    str(perf / "BENCH_pr9.json"),
                ]
            )

    def test_list_mentions_bench(self, capsys):
        assert main(["list"]) == 0
        assert "bench" in capsys.readouterr().out


#: Every command that evaluates specs through the result store, with
#: the arguments that keep it small.
STORE_BACKED = {
    "run": ["run", "--lc", "masstree", "--requests", "20", "--policy", "lru"],
    "table3": ["table3"],
    "fig12": ["fig12"],
    "fig13": ["fig13"],
    "ablations": ["ablations"],
    "fig9": ["fig9"],
    "utilization": ["utilization"],
    "scaleout": ["scaleout", "--cores", "4"],
    "bandwidth": ["bandwidth"],
}


class TestStoreBackedCommands:
    """Each store-backed command prints the same bytes on every engine,
    and a rerun against a filled store is served, not simulated."""

    @pytest.fixture(autouse=True)
    def _small(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_LC", "masstree")
        monkeypatch.setenv("REPRO_REQUESTS", "20")
        monkeypatch.setenv("REPRO_LOADS", "0.2")

    @staticmethod
    def _url(engine, tmp_path):
        """The ``--store`` value for an engine; ``path`` is a directory
        store named by its bare path."""
        if engine == "directory":
            return f"directory://{tmp_path}/tree"
        if engine == "path":
            return str(tmp_path / "tree")
        return "memory://"

    @pytest.mark.parametrize(
        "command", [name for name in STORE_BACKED if name != "run"]
    )
    def test_output_identical_on_every_engine(self, command, capsys, tmp_path):
        # ``run`` is left out: it prints the store location itself.
        outputs = {}
        for engine in ("directory", "memory"):
            args = STORE_BACKED[command] + ["--store", self._url(engine, tmp_path)]
            assert main(args) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["directory"]
        assert outputs["memory"] == outputs["directory"]

    @pytest.mark.parametrize("engine", ["directory", "path"])
    @pytest.mark.parametrize("command", list(STORE_BACKED))
    def test_rerun_is_served_byte_identical(
        self, command, engine, capsys, monkeypatch, tmp_path
    ):
        from repro.runtime import ResultStore, reset_artifacts
        from repro.sim.engine import MixEngine

        url = self._url(engine, tmp_path)
        args = STORE_BACKED[command] + ["--store", url]
        assert main(args) == 0
        cold = capsys.readouterr().out
        documents = len(ResultStore(url))
        assert documents > 0

        def refuse(self):
            raise AssertionError("a stored result was simulated again")

        # Every simulation, isolated baselines included, runs a MixEngine;
        # an empty artifact cache makes the store the only source.
        monkeypatch.setattr(MixEngine, "run", refuse)
        reset_artifacts()
        assert main(args) == 0
        assert capsys.readouterr().out == cold
        assert len(ResultStore(url)) == documents


class TestCommandList:
    def test_list_rows_are_the_command_choices(self, capsys):
        """``repro list`` documents exactly the commands the parser
        accepts (besides ``list`` itself), in the same order."""
        from repro.cli import COMMANDS

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = [line.split()[0] for line in lines[2:] if line.strip()]
        assert listed == [name for name in COMMANDS if name != "list"]


def test_cli_import_loads_no_pool_machinery(fresh_interpreter):
    """A store-served run never pays for the process pool or the
    simulator: importing the CLI in a fresh interpreter loads no
    asyncio, concurrent.futures or multiprocessing module, no NumPy,
    nothing of ``repro.sim`` but its config, and nothing of the
    policies, Ubik's controller or the workload models."""
    __, loaded = fresh_interpreter(
        "-c",
        "import repro.cli",
        watch=("asyncio", "concurrent", "multiprocessing", "numpy")
        + SIMULATOR_MODULES,
    )
    assert _simulator(loaded) == []


@pytest.mark.parametrize(
    "command", [name for name in STORE_BACKED if name != "fig9"]
)
def test_served_rerun_imports_no_simulator(command, fresh_interpreter, tmp_path):
    """Each store-backed command but ``fig9`` (whose plot resamples
    with NumPy), rerun on a filled directory store, prints the bytes
    of its cold run and imports neither NumPy nor any of the
    simulator but ``repro.sim.config``, and neither does ``repro
    cache`` on that store."""
    env = {
        "REPRO_STORE": f"directory://{tmp_path}",
        "REPRO_LC": "masstree",
        "REPRO_REQUESTS": "20",
        "REPRO_LOADS": "0.2",
    }
    args = STORE_BACKED[command]
    watch = ("numpy",) + SIMULATOR_MODULES
    cold, simulated = fresh_interpreter("-m", "repro", *args, watch=watch, env=env)
    assert {"repro.sim.engine", "numpy"} <= set(simulated)
    served, loaded = fresh_interpreter("-m", "repro", *args, watch=watch, env=env)
    assert served == cold
    assert _simulator(loaded) == []
    __, loaded = fresh_interpreter("-m", "repro", "cache", watch=watch, env=env)
    assert _simulator(loaded) == []


class TestFlagErrors:
    """Out-of-range flags and scale knobs are usage errors naming them."""

    @pytest.mark.parametrize(
        "command",
        [
            "table3 --jobs -1",
            "scaleout --requests 0",
            "run --requests 0",
            "table3 --requests 10",
            "fig13 --requests 19",
            "run --requests 19",
            "scaleout --requests 19",
            "bandwidth --requests 19",
            "run --policy bogus",
            "run --scheme bogus",
            "run --load 1.5",
            "run --combo zzz",
            "run --slack -1",
            "run --slack 0.05 --policy lru",
            "run --slack nan",
            "run --slack inf",
            "run --load 0",
            "run --load nan",
            "run --rep -1",
            "run --lc bogus",
            "fig1a --lc bogus",
            "fig1b --lc masstree,bogus",
            "fig2 --lc bogus",
            "table3 --lc bogus",
            "fig9 --lc bogus",
            "fig12 --lc bogus",
            "fig13 --lc bogus",
            "ablations --lc bogus",
            "utilization --lc bogus",
            "scaleout --cores 6,x",
            "scaleout --cores 5",
            "scaleout --cores 0",
            "scaleout --cores 6,-2",
        ],
    )
    def test_exit_status_2_naming_the_flag(self, command, capsys, monkeypatch):
        """The usage error comes before the command's handler runs."""
        import repro.cli as cli

        argv = command.split()
        reached = []
        monkeypatch.setitem(cli._HANDLERS, argv[0], reached.append)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert reached == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"repro: error: argument {argv[1]}: ")

    @pytest.mark.parametrize(
        "variable, value, command, named",
        [
            ("REPRO_LOADS", "2", "table3", ("REPRO_LOADS",)),
            ("REPRO_MIXES", "-3", "fig13", ("REPRO_MIXES",)),
            ("REPRO_LOADS", "0.6", "utilization", ("loads", "0.4")),
            ("REPRO_REQUESTS", "5", "table3", ("REPRO_REQUESTS",)),
            ("REPRO_LC", "bogus", "table3", ("REPRO_LC", "'bogus'")),
            ("REPRO_LC", "shore,bogus", "fig13", ("REPRO_LC", "'shore,bogus'")),
        ],
    )
    def test_bad_scale_exits_2_before_evaluating(
        self, variable, value, command, named, capsys, monkeypatch, tmp_path,
        forbid_evaluation,
    ):
        """A bad scale knob ends a sweep command with a one-line usage
        error naming it, before any spec is evaluated."""
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(variable, value)
        forbid_evaluation()
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        message = err.splitlines()[-1]
        assert message.startswith("repro: error: ")
        assert all(name in message for name in named), message

    @pytest.mark.parametrize("content", [None, "not json"])
    def test_unreadable_bench_document_exits_2(self, content, capsys, tmp_path):
        path = tmp_path / "BENCH_x.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--compare", str(path), str(path)])
        assert excinfo.value.code == 2
        assert "argument --compare: " in capsys.readouterr().err

    def test_lc_names_are_stripped_and_empty_ones_dropped(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli

        assert main(["fig1b", "--lc", "masstree,"]) == 0
        assert "masstree" in capsys.readouterr().out
        reached = []
        for command in ("table3", "run"):
            monkeypatch.setitem(cli._HANDLERS, command, reached.append)
            assert main([command, "--lc", " shore, ,masstree,"]) == 0
        table3, run = reached
        assert table3.scale.lc_names == ("shore", "masstree")
        assert run.spec.mix.lc_name == "shore"

    @pytest.mark.parametrize(
        "command",
        [
            "table3 --jobs 0",
            "table3 --requests 20",
            "scaleout --requests 20",
            "run --slack 0",
            "run --load 0.95",
            "run --policy LRU",
            "run --scheme vantage_zcache",
            "scaleout --cores 2",
            "cache --store memory://",
            "cache --store 0",
            "run --store directory:///tmp/repro-corpus",
            "table3 --store ~/repro-corpus",
        ],
    )
    def test_boundary_values_reach_the_command(self, command, monkeypatch):
        import repro.cli as cli

        argv = command.split()
        reached = []
        monkeypatch.setitem(cli._HANDLERS, argv[0], reached.append)
        assert main(argv) == 0
        assert len(reached) == 1

    @staticmethod
    def _usage_error(argv, capsys, monkeypatch):
        """The last stderr line of ``main(argv)``, which must exit 2
        before the command's handler runs."""
        import repro.cli as cli

        reached = []
        monkeypatch.setitem(cli._HANDLERS, argv[0], reached.append)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert reached == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.splitlines()[-1]

    @pytest.mark.parametrize("command", [*STORE_BACKED, "cache"])
    def test_retired_store_engine_exits_2(self, command, capsys, monkeypatch):
        """Every command that opens a store refuses a sqlite URL by
        name, with the engines that exist."""
        monkeypatch.delenv("REPRO_STORE", raising=False)
        url = "sqlite:///tmp/corpus/store.db"
        assert self._usage_error(
            [command, "--store", url], capsys, monkeypatch
        ) == (
            f"repro: error: argument --store: unknown store backend 'sqlite' "
            f"in '{url}' (known: directory, memory)"
        )

    @pytest.mark.parametrize(
        "url, message",
        [
            ("bogus://x", "unknown store backend 'bogus' in 'bogus://x'"),
            ("directory://", "store URL 'directory://' is missing its path"),
            ("Directory://  ", "store URL 'Directory://  ' is missing its path"),
            (
                "memory:///tmp/corpus",
                "store URL 'memory:///tmp/corpus' names a location, but a "
                "memory store keeps nothing (a directory goes as "
                "directory:///path)",
            ),
        ],
    )
    def test_bad_store_flag_names_it(self, url, message, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        last = self._usage_error(["cache", "--store", url], capsys, monkeypatch)
        assert last.startswith(f"repro: error: argument --store: {message}")

    @pytest.mark.parametrize("command", [*STORE_BACKED, "cache"])
    def test_bad_env_store_exits_2_naming_it(self, command, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "bogus://x")
        assert self._usage_error([command], capsys, monkeypatch) == (
            "repro: error: REPRO_STORE: unknown store backend 'bogus' "
            "in 'bogus://x' (known: directory, memory)"
        )

    @pytest.mark.parametrize(
        "url, message",
        [
            (
                "sqlite:///tmp/corpus/store.db",
                "unknown store backend 'sqlite' in 'sqlite:///tmp/corpus/store.db' "
                "(known: directory, memory)",
            ),
            ("directory://", "store URL 'directory://' is missing its path"),
            (
                "memory://somewhere",
                "store URL 'memory://somewhere' names a location, but a "
                "memory store keeps nothing (a directory goes as "
                "directory:///path)",
            ),
            (
                "HTTP://127.0.0.1:8377",
                "unknown store backend 'http' in 'HTTP://127.0.0.1:8377' "
                "(known: directory, memory)",
            ),
            (
                "/tmp/corpus",
                "'/tmp/corpus' is neither a store URL nor an off token "
                "(a directory goes in REPRO_CACHE_DIR or as directory:///path)",
            ),
            (
                "1",
                "'1' is neither a store URL nor an off token "
                "(a directory goes in REPRO_CACHE_DIR or as directory:///path)",
            ),
        ],
    )
    def test_bad_env_store_names_the_variable(
        self, url, message, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE", url)
        assert self._usage_error(["cache"], capsys, monkeypatch) == (
            f"repro: error: REPRO_STORE: {message}"
        )

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_store_check_opens_nothing(self, via, monkeypatch, tmp_path):
        """Checking a good location reads it and creates nothing; the
        command's handler opens the store."""
        import repro.cli as cli

        root = tmp_path / "store"
        argv = ["table3"]
        if via == "flag":
            monkeypatch.delenv("REPRO_STORE", raising=False)
            argv += ["--store", f"directory://{root}"]
        else:
            monkeypatch.setenv("REPRO_STORE", f"directory://{root}")
        reached = []
        monkeypatch.setitem(cli._HANDLERS, "table3", reached.append)
        assert main(argv) == 0
        assert len(reached) == 1
        assert not root.exists()

    def test_store_flag_wins_over_a_bad_env_store(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "bogus://x")
        assert main(["cache", "--store", "memory://"]) == 0
        assert "memory" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["list", "fig1b --lc masstree"])
    def test_commands_without_a_store_ignore_it(self, command, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "bogus://x")
        assert main(command.split() + ["--store", "sqlite:///x.db"]) == 0
        assert capsys.readouterr().out

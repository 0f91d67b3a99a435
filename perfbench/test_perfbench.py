"""Tests of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench

The repository's own test suite does not collect these (its testpaths is
``tests``).  Seed 1 is one of the golden seeds, so these runs also compare
every operation's digest with golden.json.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

# operations per workload: enough to reach every operation class once
TINY = {"rewrite-sweep": 5, "big-cube": 40, "enumerate-k4": 30}


@pytest.fixture
def workdir():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(name, workdir, trace=False, count=None):
    return run.run_workload(
        name, 1, 0, trace, workdir, count=count or TINY[name], setup_reps=1
    )


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean(name, workdir):
    detail, result = tiny(name, workdir)
    assert result["failed"] == 0
    assert result["correct"] is True
    assert result["attempted"] == TINY[name] + 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["ops"] == TINY[name]


def test_enumerate_detail_has_the_enumeration_figures(workdir):
    detail, _ = tiny("enumerate-k4", workdir)
    for key in ("count_k4_s", "count_k4_jobs2_s", "stream_tilings_per_s", "sample_steps_per_s"):
        assert detail[key] > 0


def test_traced_run_reports_every_layer_metric(workdir):
    count = 5
    detail, result = tiny("rewrite-sweep", workdir, trace=True, count=count)
    assert result["failed"] == 0
    # the known values, both passes, and the CLI script as subprocesses and in-process
    assert result["attempted"] == 1 + 2 * count + 2 * 25
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.PER_LAYER
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    for name in ("interpreter_ms", "import_ms", "run_ms", "verb_ms"):
        assert metrics[f"cli.{name}"] > 0
    assert metrics["rewrite.apply.calls"] == count * 37
    assert metrics["tiling.is_tiling.calls"] == count * 36
    trace = json.loads((run.ROOT / detail["trace_file"]).read_text())
    ops = {span[0] for span in trace["spans"] if span[4] is None}
    assert len(ops) == count
    assert all(span[4] in ops for span in trace["spans"] if span[4] is not None)


def test_cli_script_runs_clean_and_expects_exact_rejections(workdir):
    workloads, _ = run.load_workload("rewrite-sweep")
    cli = workloads.CliVerbs()
    st = cli.setup(1, workdir)
    rejected = [i for i, argv in enumerate(st.script) if argv[1] in cli.CORRUPTED]
    assert len(rejected) == 3
    for i in rejected:
        code, stdout, stderr = cli.expected(st, i)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: not-a-tiling: ") and "incompatible tiles" in stderr
    ops = run.measure(cli, st, run.NullTracer(), 0, 0, [], count=cli.round_size)
    assert [op.problems for op in ops] == [[]] * cli.round_size


def test_corrupted_golden_digest_fails_an_operation(workdir, monkeypatch):
    import workloads

    golden = copy.deepcopy(workloads.load_golden())
    golden["ops"]["rewrite-sweep"]["1"][2] = "0" * 16
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    _, result = tiny("rewrite-sweep", workdir)
    assert result["correct"] is False
    assert result["failed"] == 1


def test_corrupted_catalogue_digest_fails_every_op_on_that_entry(workdir, monkeypatch):
    import workloads

    golden = copy.deepcopy(workloads.load_golden())
    _, wl = run.load_workload("rewrite-sweep")
    st = wl.setup(1, workdir)
    idx = wl.spec(st, 0)["idx"]
    golden["catalogue3"][idx] = "0" * 16
    golden["ops"] = {}
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    _, result = tiny("rewrite-sweep", workdir)
    assert result["failed"] == 1


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_fails_without_the_library(workdir):
    bare = workdir / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(run.HERE / "golden.json", bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-cube",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Benchmark of usokit: one workload per run, checked outputs, JSON result.

Run from the repository root, without installing the package:

    python3 perfbench/run.py --workload big-cube --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a batch
of operations untraced, as many again traced, and one pass of the CLI verb
script, and reports the per-layer metrics, with the traced/untraced time
ratio as ``trace.overhead_ratio``; its spans go to ``.perfbench-out/`` at
exit.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
record (versions, CPU counts, git SHA) and per-class detail.  A run stops
at the first round boundary after ``--seconds`` seconds and at least 100
operations.  The exit code is 0 when every operation was correct, 1 when
one was not, and 2 when the run could not start (for example when
``src/usokit`` is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("rewrite-sweep", "big-cube", "enumerate-k4")

MIN_OPS = 100
SETUP_REPS = 5
MAX_TRACED_OPS = 1000
CLI_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}

TRANSFORMS = (
    "flip_dimension", "mirror", "partial_swap", "facet",
    "inherited", "product", "phases", "phase_flip",
)
BUSY = (
    ["formats.read_tiling", "formats.write_tiling"]
    + [f"tiling.{f}" for f in ("is_tiling", "uso_from_tiles", "tiles_from_uso", "twins")]
    + ["cube.is_uso", "cube.flippable_edges"]
    + [f"rewrite.{f}" for f in ("apply", "validate", "universality_rule")]
    + [f"transform.{f}" for f in TRANSFORMS]
    + [f"enumeration.{f}" for f in ("count", "count_jobs2", "stream", "sample", "walk")]
)
CALLS = ("tiling.is_tiling", "cube.is_uso", "rewrite.apply", "transform.phases")
COUNTS = {
    "formats.bytes": "bytes",
    "tiling.is_tiling.rejects": "count",
    "tiling.tile_pairs": "count",
    "cube.vertex_pairs": "count",
    "rewrite.tiles_out": "count",
    "transform.phase_classes": "count",
    "enumeration.stream.tilings": "count",
    "enumeration.sample.steps": "count",
}
PER_LAYER = {
    **{f"{name}.busy_s": "s" for name in BUSY},
    **{f"{name}.calls": "count" for name in CALLS},
    **COUNTS,
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.verb_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Seconds the calibration loop takes at the reference speed: its median in
# a 30-second sample on the 2-core x86-64 machine (Python 3.11.7) that the
# baseline in README.md was measured on.  Fixed, so figures stay comparable
# over time.
REFERENCE_CALIBRATION_S = 0.00029

perf_counter = time.perf_counter


def calibration_loop():
    acc = 0
    for a in range(64):
        for b in range(64):
            acc ^= a * b & 0xFF
    return acc


def calibrate() -> float:
    """Seconds the calibration loop takes now (median of three)."""
    times = []
    for _ in range(3):
        start = perf_counter()
        calibration_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Op:
    """One operation; ``seconds`` is its wall time scaled to reference speed.

    The speed of a shared machine drifts by up to a factor of two within
    seconds, and every run sees a different mix of fast and slow periods.
    The calibration loop runs between operations; dividing each wall time
    by the median calibration time of the six samples around it (three
    before, three after) removes that drift.  ``wall`` keeps the unscaled
    time.
    """

    __slots__ = ("index", "cls", "seconds", "wall", "problems", "digest")

    def __init__(self, index, cls, wall, problems, digest):
        self.index = index
        self.cls = cls
        self.seconds = wall
        self.wall = wall
        self.problems = problems
        self.digest = digest


def scale_to_reference(ops, calibrations):
    """Set each op's ``seconds``; calibrations[i] was taken before ops[i]."""
    for i, op in enumerate(ops):
        speed = statistics.median(calibrations[max(0, i - 2):i + 4])
        op.seconds = op.wall * REFERENCE_CALIBRATION_S / speed


def load_workload(name: str):
    """Import usokit through the workloads module; fails without src/usokit."""
    if not (SRC / "usokit" / "__init__.py").is_file():
        raise ImportError(f"no usokit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads, workloads.WORKLOADS[name]()


def timed_setup(name: str, seed: int, workdir: Path):
    """Import plus input generation, timed from before usokit is imported.

    This is wall time.  The runner scales the median of the set-ups by the
    run's speed, the median over its operations of wall time over scaled
    time: a fresh process's own few calibrations tracked set-up time badly.
    """
    start = perf_counter()
    workloads, wl = load_workload(name)
    st = wl.setup(seed, workdir)
    return workloads, wl, st, perf_counter() - start


def setup_in_subprocess(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(wl, st, tracer, seconds, min_ops, golden_ops, first=0, count=None,
            max_ops=None):
    """Run operations first, first + 1, ... and check each one.

    With ``count`` exactly that many run.  Otherwise the loop stops at the
    first round boundary after ``seconds`` seconds and ``min_ops``
    operations, or at one after ``max_ops`` operations.
    """
    ops = []
    calibrations = [calibrate()]
    i = first
    start = perf_counter()
    while True:
        done = i - first
        if count is not None:
            if done >= count:
                break
        elif done % wl.round_size == 0 and (
            (done >= min_ops and perf_counter() - start >= seconds)
            or (max_ops is not None and done >= max_ops)
        ):
            break
        spec = wl.spec(st, i)
        tracer.begin_op(wl.name)
        out = err = None
        t0 = perf_counter()
        try:
            out = wl.run(st, spec, tracer)
        except Exception as exc:  # the check decides: some inputs must be rejected
            err = exc
        elapsed = perf_counter() - t0
        tracer.end_op()
        calibrations.append(calibrate())
        try:
            problems, dig = wl.check(st, spec, out, err)
        except Exception as exc:
            problems, dig = [f"check raised {type(exc).__name__}: {exc}"], None
        if i < len(golden_ops) and dig != golden_ops[i]:
            problems = problems + [f"op {i}: golden digest mismatch ({dig} != {golden_ops[i]})"]
        ops.append(Op(i, wl.op_class(st, spec), elapsed, problems, dig))
        i += 1
    scale_to_reference(ops, calibrations)
    return ops


def timing_metrics(ops):
    times = [op.seconds for op in ops]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1000,
        "op_ms_p90": statistics.quantiles(times, n=10, method="inclusive")[8] * 1000,
    }


def class_detail(ops):
    by_class = {}
    for op in ops:
        by_class.setdefault(op.cls, []).append(op)
    return {
        cls: {
            "n": len(group),
            "median_ms": statistics.median(op.seconds for op in group) * 1000,
            "median_wall_ms": statistics.median(op.wall for op in group) * 1000,
        }
        for cls, group in sorted(by_class.items())
    }


def median_subprocess_ms(argv) -> float:
    times = []
    for _ in range(CLI_REPS):
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, capture_output=True, check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def import_ms(env) -> float:
    code = (
        "import time; t = time.perf_counter(); import usokit.cli; "
        "print(time.perf_counter() - t)"
    )
    values = []
    for _ in range(CLI_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        values.append(float(proc.stdout) * 1000)
    return statistics.median(values)


def cli_in_process(wl, st):
    """Median ms of usokit.cli.run over the script, and the steps that failed."""
    import usokit.cli

    times, failed = [], []
    cwd = os.getcwd()
    os.chdir(st.workdir)
    try:
        for timed in (False, True):  # the first pass warms imports and caches
            for step, argv in enumerate(st.script):
                out, err = io.StringIO(), io.StringIO()
                start = perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = usokit.cli.run(list(argv))
                elapsed = perf_counter() - start
                if timed:
                    times.append(elapsed)
                    if (code, out.getvalue(), err.getvalue()) != wl.expected(st, step):
                        failed.append(f"in-process {' '.join(argv)}: output differs")
    finally:
        os.chdir(cwd)
    return statistics.median(times) * 1000, failed


def cli_layer(workloads, seed, workdir, golden):
    """The CLI layer's figures, its failures and its operation count.

    Every step of the verb script runs once as a subprocess and once
    in-process through ``usokit.cli.run``, each checked against the
    library; the start-up costs are medians of CLI_REPS fresh processes.
    """
    cli = workloads.CliVerbs()
    cli_dir = workdir / "cli"
    cli_dir.mkdir()
    st = cli.setup(seed, cli_dir)
    st.golden = golden
    golden_ops = golden["ops"].get(cli.name, {}).get(str(seed), [])
    ops = measure(cli, st, NullTracer(), 0, 0, golden_ops, count=cli.round_size)
    run_ms, failed = cli_in_process(cli, st)
    metrics = {
        "cli.interpreter_ms": median_subprocess_ms([sys.executable, "-c", "pass"]),
        "cli.import_ms": import_ms(workloads.cli_env()),
        "cli.run_ms": run_ms,
        "cli.verb_ms": statistics.median(op.wall for op in ops) * 1000,
    }
    problems = [f"{cli.name} op {op.index} ({op.cls}): {p}" for op in ops for p in op.problems]
    return metrics, problems + failed, len(ops) + len(st.script)


def run_record():
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=30,
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "platform": platform.platform(),
    }


def report_failures(name, ops, extra):
    problems = [f"{name} op {op.index} ({op.cls}): {p}" for op in ops for p in op.problems]
    problems += [f"{name}: {p}" for p in extra]
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"FAILED ... {len(problems) - 20} more", file=sys.stderr)


def run_workload(name, seed, seconds, trace, workdir, count=None, setup_reps=SETUP_REPS):
    """One benchmark run; returns (detail, result) as printed by main."""
    workloads, wl, st, setup_s = timed_setup(name, seed, workdir)
    wl.warm(st)
    golden = workloads.load_golden()
    st.golden = golden
    golden_ops = golden["ops"].get(name, {}).get(str(seed), [])
    known = wl.known(st)
    detail = {"workload": name, "seed": seed, "trace": trace, "run": run_record()}
    extra_failures = [f"known value: {p}" for p in known]
    extra_attempts = 1
    if not trace:
        start = perf_counter()
        ops = measure(wl, st, NullTracer(), 0, MIN_OPS, golden_ops, count=count)
        # Caches such as the phase cache grow with every operation, so the
        # peak is read at the same point of every run: after the first
        # MIN_OPS operations, in whole rounds.
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if count is None:
            rest = seconds - (perf_counter() - start)
            ops += measure(wl, st, NullTracer(), rest, 0, golden_ops, first=len(ops))
        detail["wall_s"] = perf_counter() - start
        setups = [setup_s] + [setup_in_subprocess(name, seed) for _ in range(setup_reps - 1)]
        speed = statistics.median(op.wall / op.seconds for op in ops)
        metrics = {
            "setup_s": statistics.median(setups) / speed,
            "peak_rss_mb": rss_kb / 1024,
            **timing_metrics(ops),
        }
        metrics = {m: {"value": metrics[m], "unit": unit} for m, unit in END_TO_END.items()}
        detail["setup_runs_s"] = setups
    else:
        plain = measure(wl, st, NullTracer(), seconds / 2, wl.round_size, golden_ops,
                        count=count, max_ops=MAX_TRACED_OPS)
        tracer = Tracer()
        traced = measure(wl, st, tracer, 0, 0, golden_ops, first=plain[-1].index + 1,
                         count=len(plain))
        ops = plain + traced
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (
            sum(op.seconds for op in traced) / sum(op.seconds for op in plain)
        )
        cli_metrics, cli_failures, cli_attempts = cli_layer(workloads, seed, workdir, golden)
        metrics.update(cli_metrics)
        extra_failures += cli_failures
        extra_attempts += cli_attempts
        metrics = {m: {"value": metrics.get(m, 0), "unit": unit} for m, unit in PER_LAYER.items()}
        write_trace(name, seed, detail, tracer, metrics)
    detail["ops"] = len(ops)
    detail["classes"] = class_detail(ops)
    detail.update(wl.summary(ops))
    failed = sum(1 for op in ops if op.problems) + len(extra_failures)
    report_failures(name, ops, extra_failures)
    result = {
        "correct": failed == 0,
        "attempted": len(ops) + extra_attempts,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def layer_metrics(tracer):
    seconds, calls = tracer.busy()
    metrics = {f"{name}.busy_s": seconds.get(name, 0.0) for name in BUSY}
    metrics.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    return metrics


def write_trace(name, seed, detail, tracer, metrics):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    payload = {
        **detail,
        "per_layer": metrics,
        "counts": dict(tracer.counts),
        "span_fields": ["id", "name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload))
    detail["trace_file"] = str(path.relative_to(ROOT))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the set-up median)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.setup_only:
            setup_s = timed_setup(args.workload, args.seed, workdir)[3]
            print(json.dumps({"setup_s": setup_s}))
            return 0
        detail, result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except ImportError as exc:
        print(f"perfbench: cannot import usokit: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

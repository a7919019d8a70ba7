"""qrsim benchmark: seeded CLI workloads, end to end or traced layer by layer.

Run from the repository root:

    python3 bench/run.py --workload bell-point --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each workload drives ``qrsim.cli.main`` in this process from ``src/`` as a
closed loop with one client: the next operation starts when the previous
one has returned and its output has been checked.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs a fixed set of operations once
untraced and once traced and reports the per-layer split.
``--workload all`` runs every workload both ways, each in its own process.
The last line of stdout is one JSON object with the results.  See
bench/README.md for the workloads, the metrics and what they cover.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("bell-point", "joint-disjoint", "joint-overlap", "schmidt-cut")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

MIN_OPS = 100        # so that p90 has at least ten samples beyond it
WARMUP_OPS = 2       # untimed, let lazy imports and first-call set-up finish
SETUP_REPEATS = 11   # fresh-interpreter imports per run; the median is reported
CAL_REF_MS = 3.74    # Calibration loop, median on the reference host (2-vCPU Xeon, KVM)

# name -> unit; the order and names match BENCHMARK.json "end_to_end"
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/ref-s",
    "op_ms_p50": "ref-ms",
    "op_ms_p90": "ref-ms",
    "peak_rss_mb": "MiB",
    "op_success_rate": "ratio",
}


def preflight() -> str | None:
    """Reason the benchmark cannot run here, or None."""
    if "QRS_MAX_DIM" in os.environ:
        return "QRS_MAX_DIM is set; it changes which inputs qrsim accepts, unset it"
    if not (SRC / "qrsim" / "cli.py").is_file():
        return f"no qrsim sources under {SRC}; run from a full checkout"
    return None


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; must run before numpy loads.

    One client runs one call at a time.  With a second OpenBLAS thread the
    helper spins on the other core through the many small products of the
    table kernel: the process then uses two cores, and joint-overlap ran
    about 20% slower than with one thread on a 2-vCPU machine.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _blas_runtime_threads():
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


# A fresh interpreter imports qrsim.cli, then reports how long its remaining
# work took and the second of two calibration loops (the first pays LAPACK's
# first-call set-up).
SETUP_CHILD = """
import time, sys
import qrsim.cli
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import run
calibrate = run.Calibration()
calibrate()
k = calibrate()
print(time.perf_counter() - t, k)
"""


def measure_setup() -> tuple:
    """(reference-host seconds, wall seconds) of starting Python and importing qrsim.cli.

    Medians over fresh interpreters, after one unmeasured start that may
    compile bytecode.  The reference-host figure divides each start by the
    calibration loop timed in the same interpreter, as for operations.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CHILD, str(Path(__file__).resolve().parent)]
    ref_s, wall_s = [], []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
        tail, cal = (float(v) for v in out.split())
        start = time.perf_counter() - t0 - tail
        if k:
            ref_s.append(1e-3 * CAL_REF_MS * start / cal)
            wall_s.append(start)
    return statistics.median(ref_s), statistics.median(wall_s)


def run_op(main, op, check) -> tuple:
    """Run one operation; return (seconds in main, failure message or None).

    A failure is an exception or SystemExit from main, a nonzero return, or
    an output that fails its check.  Only the call to main is timed.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except (Exception, SystemExit):
        return time.perf_counter() - t0, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if rc != 0:
        return elapsed, f"exit code {rc}: {err.getvalue().strip()}"
    try:
        check(op, out.getvalue())
    except Exception as exc:  # any disagreement with the expected output is a failure
        return elapsed, f"output check: {type(exc).__name__}: {exc}"
    return elapsed, None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, failure) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)


class Calibration:
    """Fixed reference work, timed before and after every timed operation.

    On a shared VM the host's CPU speed drifts, by up to 2x over seconds to
    minutes.  This loop mixes the kinds of work an operation does (Python
    dicts, small complex eigh and tensordot, JSON) and slows with the host,
    so an operation's time divided by the loop's time around it cancels the
    drift.  Multiplied by CAL_REF_MS, the loop's time on the reference host,
    the quotient reads as milliseconds on that host ("ref-ms").
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).normal(size=(24, 48)).view(complex)
        self._np = np
        self._h = a + a.conj().T

    def __call__(self) -> float:
        np, h = self._np, self._h
        t0 = time.perf_counter()
        counts = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(20):
            np.linalg.eigh(h)
            np.tensordot(h, h, axes=1).sum()
        json.dumps([[float(i), 0.5] for i in range(300)])
        return time.perf_counter() - t0


def summarize(samples) -> dict:
    """Timing metrics from (operation seconds, calibration seconds) pairs."""
    ref_ms = [CAL_REF_MS * dt / k for dt, k in samples]
    wall_ms = [1e3 * dt for dt, _ in samples]

    def p90(values):
        return statistics.quantiles(values, n=10, method="inclusive")[8]

    return {
        "ops_per_s": 1e3 * len(ref_ms) / sum(ref_ms),
        "op_ms_p50": statistics.median(ref_ms),
        "op_ms_p90": p90(ref_ms),
        "samples": len(samples),
        "wall": {
            "ops_per_s": 1e3 * len(wall_ms) / sum(wall_ms),
            "op_ms_p50": statistics.median(wall_ms),
            "op_ms_p90": p90(wall_ms),
            "calibration_ms": 1e3 * statistics.median(k for _, k in samples),
        },
    }


def measure_end_to_end(main, ops, check, seconds: float, tally: Tally) -> dict:
    """Time calls until they add up to ``seconds`` and number at least MIN_OPS.

    Each call is bracketed by two calibration loops, and its time is paired
    with their mean.
    """
    calibrate = Calibration()
    for op in ops[:WARMUP_OPS]:
        calibrate()
        tally.add(run_op(main, op, check)[1])
    samples, busy = [], 0.0
    before = calibrate()
    while busy < seconds or len(samples) < MIN_OPS:
        dt, failure = run_op(main, ops[len(samples) % len(ops)], check)
        after = calibrate()
        tally.add(failure)
        samples.append((dt, 0.5 * (before + after)))
        busy += dt
        before = after
    return summarize(samples)


def measure_layers(cli, ops, check, tally: Tally, trace_path: Path, header: dict) -> dict:
    """Run each operation untraced and traced back to back; return LAYER_METRICS.

    Which of the pair goes first alternates, so that drift in machine speed
    and warm caches cancel in trace.overhead_ratio.
    """
    from tracer import Tracer

    for op in ops[:WARMUP_OPS]:
        tally.add(run_op(cli.main, op, check)[1])
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    for i, op in enumerate(ops):
        tracer.op = i
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                dt, failure = run_op(cli.main, op, check)
            else:
                tracer.install()
                try:
                    # looked up per call, so the call goes through the wrapper
                    dt, failure = run_op(lambda argv: cli.main(argv), op, check)
                finally:
                    tracer.uninstall()
            tally.add(failure)
            seconds[traced] += dt
    tracer.dump(trace_path, header)
    return tracer.layer_metrics(len(ops), seconds[True] / seconds[False])


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g}  {m['unit']}")


def run_workload(args) -> dict:
    import numpy as np

    import tracer
    import workloads

    env = environment()
    print("# env " + json.dumps(env))
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup()
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        ops = workload.build(np.random.default_rng(args.seed), Path(tmp))
        from qrsim import cli

        tally = Tally()
        if args.trace:
            header = {"workload": args.workload, "seed": args.seed, "env": env}
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            traced_ops = ops[: workloads.TRACE_OPS]
            values = measure_layers(cli, traced_ops, workload.check, tally, path, header)
            metrics = {
                k: {"value": v, "unit": tracer.LAYER_METRICS[k][0]} for k, v in values.items()
            }
            title = f"{args.workload} per layer, averages over {len(traced_ops)} traced ops (spans: {path.name})"
        else:
            values = measure_end_to_end(cli.main, ops, workload.check, args.seconds, tally)
            values["setup_s"] = setup_s
            values["wall"]["setup_s"] = setup_wall_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values["op_success_rate"] = 1.0 - len(tally.failures) / tally.attempted
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            title = f"{args.workload} end to end, {values['samples']} timed ops, seed {args.seed}"
    for failure in tally.failures[:5]:
        print(f"bench: {args.workload}: failed operation: {failure}", file=sys.stderr)
    print_table(title, metrics)
    if not args.trace:
        wall = values["wall"]
        print("# wall clock, not normalized: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    print(f"# attempted {tally.attempted}, failed {len(tally.failures)}")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload untraced then traced, each run in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            if proc.returncode != 0:
                raise SystemExit(f"bench: {name} --trace {trace} exited with {proc.returncode}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}:{key}"] = metric
    return combined


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = preflight()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

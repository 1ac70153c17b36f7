"""Benchmark of causalrating, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this single-threaded process: whole rounds of its
fixed list of operations, each one ``causalrating.cli.main([...])`` call
with stdout captured, until S seconds have passed.  Every output is
checked against ``bench/oracle.py``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Without ``--workload`` every
workload runs in its own process and each metric is printed by name.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2.
"""

import os

# One thread everywhere, set before NumPy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 8  # before the rounds, and as many again after them

# Timed in a fresh interpreter: everything a CLI call pays once per process.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import causalrating, causalrating.cli
print(time.perf_counter() - start)
"""


def measure_setup() -> list:
    """Import times of the package and its CLI, each in a fresh process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(proc.stdout))
    return samples


def call(cli, op):
    """One timed CLI call: (seconds, exit code or None on a crash, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = None
            err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


class Run:
    """Outcome of the rounds of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.correct = True
        self.walls = []  # untraced rounds
        self.traced_walls = []
        self.latencies = []  # of every untraced operation
        self.stdout = {}  # first stdout of each op, later rounds must match
        self.reported = set()
        self.notes = {}  # op index -> a fault seen in a correct output

    def note(self, i, message):
        if i not in self.reported:
            self.reported.add(i)
            op = self.ops[i]
            print(f"[{op.label}] {' '.join(op.argv)}: {message}", file=sys.stderr)

    def record(self, i, rc, out, err):
        op = self.ops[i]
        self.attempted += 1
        if rc != op.expect_rc:
            self.failed += 1
            tail = err.strip().splitlines()[-1:] or ["(no stderr)"]
            self.note(i, f"exit {rc}, expected {op.expect_rc}: {tail[0]}")
            return
        try:
            problem = op.check(out)
        except Exception:
            problem = "output could not be checked:\n" + traceback.format_exc()
        if isinstance(problem, workloads.Note):
            if i not in self.notes:
                self.notes[i] = str(problem)
                print(f"[{op.label}] {' '.join(op.argv)}: note: {problem}", file=sys.stderr)
            problem = None
        if problem is None and self.stdout.setdefault(i, out) != out:
            problem = "stdout differs from the first round"
        if problem is not None:
            self.correct = False
            self.note(i, problem)


def run_rounds(cli, ops, seconds: int, trace: bool, tracer):
    """Whole rounds until ``seconds`` pass; with tracing, rounds alternate
    untraced and traced (at least one of each)."""
    run = Run(ops)
    stop = time.perf_counter() + seconds
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        restore = spans.install(tracer) if traced else None
        wall, lat, pending = 0.0, [], []
        try:
            for i, op in enumerate(ops):
                dt, rc, out, err = call(cli, op)
                wall += dt
                lat.append(dt)
                pending.append((i, rc, out, err))
                if rounds > 0:
                    run.record(*pending.pop())
        finally:
            if restore:
                restore()
        if traced:
            run.traced_walls.append(wall)
        else:
            run.walls.append(wall)
            run.latencies += lat
        if rounds == 0:
            # Read before the first round's checks, whose buffers are the
            # benchmark's, not the program's.  Later rounds reuse freed
            # heap, so their peak depends on how many rounds fit in the run.
            run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for item in pending:
                run.record(*item)
        rounds += 1
        if time.perf_counter() >= stop and (not trace or rounds >= 2):
            return run


def layer_metrics(spec, run, tracer) -> dict:
    """Per-layer metrics, per traced round, named as in BENCHMARK.json."""
    per_round = {k: v / len(run.traced_walls) for k, v in tracer.summary().items()}
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            value = statistics.median(run.traced_walls) - statistics.median(run.walls)
        elif name.endswith(".calls_per_op"):
            value = per_round.get(name.removesuffix("_per_op"), 0) / len(run.ops)
        else:
            value = per_round.get(name, 0)
        if not name.endswith("_s") and float(value).is_integer():
            value = int(value)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run_workload(args) -> int:
    if not (SRC / "causalrating" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import causalrating.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "causalrating":
        print(f"error: imported {cli.__file__}, not the checkout's source", file=sys.stderr)
        return 2
    work = HERE / f".work-{os.getpid()}"
    work.mkdir()
    # A terminated run still removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tracer = spans.Tracer()
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, work, SRC)
        run = run_rounds(cli, ops, args.seconds, args.trace == 1, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Imports from both ends of the run, so a slow spell of a few seconds
    # on a shared host moves the median less.
    setup += measure_setup()

    if args.trace:
        metrics = layer_metrics(spec, run, tracer)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(run.walls),
            "op_p50_ms": 1000.0 * statistics.median(run.latencies),
            "peak_rss_mib": run.peak_rss_mib,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=len(run.walls) + len(run.traced_walls),
                  setup_samples_s=setup, round_walls_s=run.walls, traced_round_walls_s=run.traced_walls,
                  op_labels=[op.label for op in ops],
                  notes={" ".join(ops[i].argv): note for i, note in sorted(run.notes.items())},
                  spans=tracer.spans)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; every metric by name and unit."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            status = proc.returncode
            continue
        res = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:44s} {m['value']:>14.6g} {m['unit']}")
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

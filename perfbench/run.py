"""permdeg benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  A run makes passes over the workload's requests for about
--seconds, each pass in a fresh worker process
so that nothing the program keeps in memory carries from one pass to the
next.  Workers time everything on a ``refclock.RefClock``, which factors
out the speed changes of a shared host.  Every output is checked against
``expected.json``.  The last line printed is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``; with ``--trace 1`` the passes alternate untraced and
traced, and the per-layer metrics are reported, tracing overhead included.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock  # HERE is on sys.path
from workloads import WORKLOADS
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 120
MAX_PROBLEMS = 20

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- worker side: one process per set-up probe, warm-up or pass -------------


def import_permdeg():
    """Import permdeg from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import permdeg
    import permdeg.cli  # noqa: F401  (the batch workloads and the tracer use it)
    if Path(permdeg.__file__).resolve().parent != (SRC / "permdeg").resolve():
        sys.exit(f"run.py: imported permdeg from {permdeg.__file__}, not {SRC}")
    return permdeg


def run_pass(pd, workload, clock: RefClock, index: int, seed: int,
             traced: bool) -> dict:
    """Issue every request once, in an order drawn from (seed, index)."""
    n = len(workload.requests)
    order = random.Random(f"{seed}/{index}").sample(range(n), n)
    tracer = spans.Tracer(clock.now) if traced else None
    run = workload.run
    if traced:
        tracer.install(pd)
        if workload.span_name:
            run = tracer.span(workload.span_name, run)
    latencies = [0.0] * n
    units = failed = 0
    problems: list[str] = []
    gc.collect()
    try:
        for op, i in enumerate(order):
            request = workload.requests[i]
            if traced:
                tracer.op = op
            t0 = clock.now()
            try:
                result = run(request)
            except Exception:
                failed += 1
                problems.append(f"{request}: {traceback.format_exc()}")
                continue
            finally:
                latencies[i] = (clock.now() - t0) * 1000.0
            if traced:
                tracer.paused = True
            try:
                done, found, counts = workload.check(request, result)
            except Exception:
                done, found, counts = 0, [traceback.format_exc()], {}
            finally:
                if traced:
                    tracer.paused = False
            units += done
            if found:
                failed += 1
                problems += found
            if traced:
                for key, k in counts.items():
                    tracer.bump(key, k)
    finally:
        if traced:
            tracer.uninstall()
    times, counts = tracer.summary() if traced else ({}, {})
    return {"latencies_ms": latencies, "units": units, "attempted": n,
            "failed": failed, "problems": problems[:MAX_PROBLEMS],
            "times": times, "counts": counts,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def worker(args) -> dict:
    clock = RefClock().start()
    try:
        t0 = clock.now()
        pd = import_permdeg()
        with open(args.expected, encoding="utf-8") as fh:
            expected = json.load(fh)
        workload = WORKLOADS[args.workload](pd, expected, args.seed,
                                            args.workdir)
        if args.role == "setup":
            return {"setup_s": clock.now() - t0}
        if args.role == "warm-up":
            workload.warm_up()
            return {}
        return run_pass(pd, workload, clock, args.pass_index, args.seed,
                        bool(args.trace))
    finally:
        clock.stop()


# -- parent side -------------------------------------------------------------


def spawn(args, role: str, index: int = 0, traced: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--expected", str(args.expected), "--workdir", str(args.workdir),
           "--pass-index", str(index), "--trace", str(int(traced))]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0 or not out.stdout.strip():
        raise WorkerFailed(f"{role} worker exited {out.returncode}:\n"
                           f"{out.stderr[-4000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def measure(args) -> tuple[list[float], list[dict]]:
    """(set-up times, pass results).  Passes go on while the next one is
    expected to end within --seconds of the first.  A traced run, which
    alternates untraced and traced passes, makes at least 2."""
    setups = [spawn(args, "setup")["setup_s"]
              for _ in range(0 if args.trace else SETUP_PROBES)]
    if WORKLOADS[args.workload].needs_warm_up:
        spawn(args, "warm-up")
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        passes.append(spawn(args, "pass", index, traced) | {"traced": traced})
        elapsed = time.perf_counter() - start
        if (len(passes) >= (2 if args.trace else 1)
                and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            return setups, passes


def end_to_end(setups: list[float], passes: list[dict]) -> dict[str, float]:
    """Each request's latency is its median over the passes."""
    typical = [statistics.median(lat)
               for lat in zip(*(p["latencies_ms"] for p in passes))]
    wall_s = sum(typical) / 1000.0
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "ops_per_s": min(p["units"] for p in passes) / wall_s,
        "op_p50_ms": percentile(typical, 0.50),
        "op_p90_ms": percentile(typical, 0.90),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    out = spans.median_times([p["times"] for p in traced])
    out.update(traced[0]["counts"])

    def wall(group):
        return statistics.median(sum(p["latencies_ms"]) / 1000.0 for p in group)

    out["trace.overhead_s"] = wall(traced) - wall(
        [p for p in passes if not p["traced"]])
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_hit")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="expected-answers file (default: expected.json here)")
    # used between the parent and its worker processes
    ap.add_argument("--role", choices=("setup", "warm-up", "pass"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "permdeg" / "__init__.py").is_file():
        print(f"run.py: no permdeg sources under {SRC}", file=sys.stderr)
        return 1
    if args.role:
        print(json.dumps(worker(args)))
        return 0

    # on SIGTERM, unwind so that the running worker is killed and waited for
    # and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args.workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    args.workdir.mkdir(parents=True)
    try:
        setups, passes = measure(args)
    except (WorkerFailed, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            args.workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    problems = [s for p in passes for s in p["problems"]]
    traced_counts = [p["counts"] for p in passes if p["traced"]]
    if any(c != traced_counts[0] for c in traced_counts):
        problems.append("per-layer counts differ between traced passes")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values, units = per_layer(passes), None
    else:
        values, units = end_to_end(setups, passes), END_TO_END
    metrics = {k: {"value": v, "unit": units[k] if units else layer_unit(k)}
               for k, v in values.items()}

    for problem in problems[:MAX_PROBLEMS]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} requests={attempted} failed={failed} "
          f"error_rate={failed / attempted:.4f} "
          f"ops={WORKLOADS[args.workload].unit}")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""matrixlie benchmark harness.

    python3 bench/run.py --workload exact-reps --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

Run from the root of a checkout.  The harness builds the workload's inputs
and expected answers from the seed (bench/workloads.py), measures import
time in fresh processes, runs one worker process (bench/worker.py) that
drives matrixlie in-process, checks every outcome against the oracles,
proves each oracle rejects a corrupted outcome, and prints a summary
followed by one JSON result line.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS/OpenMP thread in this process and in every process it starts;
# set before numpy loads.  Threaded BLAS on the small matrices here only
# adds contention.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import derive  # noqa: E402

T_START = time.perf_counter()
SETUP_SAMPLES = 10
# a run also lasts until this many requests have completed, so that its
# p90 latency has at least 10 samples beyond it
MIN_REQUESTS = 100
# A run must end within 180 s.  The worker stops at a deadline that leaves
# this much of the whole run's time for the set-up samples still to come,
# and CHECK_S for checking outcomes; so a much slower program reports its
# numbers instead of timing out.  The worker is killed KILL_GRACE_S after
# its deadline.
BUDGET_S = 165
CHECK_S = 15
KILL_GRACE_S = 10
# CPU seconds of the import, then eight timings of the reference kernel,
# in one fresh process
IMPORT_SNIPPET = (
    "import json, sys; sys.path.insert(0, {bench!r}); from clock import cpu_time; "
    "t = cpu_time(); import matrixlie, matrixlie.cli; t = cpu_time() - t; "
    "import calibrate; print(json.dumps([t, [calibrate.measure() for _ in range(8)]]))"
)
# throughput is the median over segments of at least this much timed work
SEGMENT_S = 1.0
# a request is normalized by the kernel timings within this much timed work
# of it (see normalized_latency)
NORMALIZE_WINDOW_S = 0.05


def _env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def measure_setup(root: Path, samples: int) -> list:
    """Import time of matrixlie and matrixlie.cli in fresh processes, in
    reference seconds: CPU seconds scaled by the mean reference kernel
    time, timed right after the import in the same process."""
    out = []
    code = IMPORT_SNIPPET.format(bench=str(BENCH))
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=_env(root),
                              capture_output=True, text=True, timeout=60, check=True)
        t, refs = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(t * calibrate.REFERENCE_S / statistics.mean(refs))
    return out


def run_worker(root: Path, job: dict) -> dict:
    """Run the worker and collect its stream of messages.  Returns the
    worker's result with ``records``: per-request arrays, and ``outcomes``,
    request index -> outcome, for the requests whose outcome was sent."""
    blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], cwd=root,
                            env=_env(root), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    killer = threading.Timer(job["deadline_s"] + KILL_GRACE_S, proc.kill)
    killer.start()
    records = {name: [] for name in ("round", "pos", "latency", "wall", "traced")}
    outcomes, result = {}, None
    try:
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.write(blob)
            proc.stdin.close()
        while result is None:
            try:
                tag, body = pickle.load(proc.stdout)
            except EOFError:
                break
            if tag == "done":
                result = body
            else:
                outcomes.update(body.pop("outcomes"))
                for name, values in body.items():
                    records[name].extend(values)
    finally:
        killer.cancel()
        if result is None:
            proc.kill()
        proc.wait()
    if result is None or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode} before its result")
    result.update(records=records, outcomes=outcomes)
    return result


def percentile(values, p):
    return float(np.percentile(np.asarray(values), p, method="linear"))


def check_outcomes(rounds, result):
    """Check every request against its oracle.  A request whose outcome
    was not sent repeated its input's first outcome exactly, and gets the
    first outcome's verdict.

    Returns (pass/fail per record, relative errors, failure samples, and
    per request kind whether its oracle rejects a corrupted outcome).
    """
    rel, failures, ok = [], [], []
    first = {}  # (round, position) -> verdict of the first outcome
    probes = {}
    rec, outcomes = result["records"], result["outcomes"]
    for i, key in enumerate(zip(rec["round"], rec["pos"])):
        outcome = outcomes.get(i)
        if outcome is None:
            ok.append(first[key])
            continue
        req = rounds[key[0]][key[1]]
        good, err, why = wl.check(req, outcome)
        good = bool(good)
        if err is not None:
            rel.append(err)
        if not good:
            label = " (repeat)" if key in first else ""
            failures.append(f"{req.kind} round {key[0]} #{key[1]}{label}: {why}")
        elif req.kind not in probes:
            probes[req.kind] = not wl.check(req, wl.corrupt(req, outcome))[0]
        first.setdefault(key, good)
        ok.append(good)
    return ok, rel, failures, probes


def normalized_latency(result) -> list:
    """Each request's CPU time in reference seconds.

    The machine's speed changes about every 0.1 s, by up to 2x, so each
    request is scaled by the kernel timings nearest to it: the mean of
    those within NORMALIZE_WINDOW_S of timed work before and after the
    request, or within half the request's own length if that is longer,
    and at least the last one before and the first one after it.  A mean,
    not a median, because a long request runs through several speeds.
    """
    lat = np.asarray(result["records"]["latency"])
    end = np.cumsum(lat)  # positions on the axis of timed work
    start = end - lat
    # kernel k ran after request ref_at[k] - 1 completed
    pos = np.concatenate([[0.0], end])[np.asarray(result["ref_at"])]
    ref = np.asarray(result["ref_kernel"])
    csum = np.concatenate([[0.0], np.cumsum(ref)])
    half = np.maximum(NORMALIZE_WINDOW_S, lat / 2)
    lo = np.searchsorted(pos, start - half, side="left")
    hi = np.searchsorted(pos, end + half, side="right")
    lo = np.minimum(lo, np.searchsorted(pos, start, side="right") - 1).clip(0)
    hi = np.maximum(hi, np.searchsorted(pos, end, side="left") + 1).clip(max=len(ref))
    mean = (csum[hi] - csum[lo]) / (hi - lo)
    return (lat * calibrate.REFERENCE_S / mean).tolist()


def segments(rec, lat, ok) -> tuple:
    """Medians over segments of whole rounds holding at least SEGMENT_S of
    timed work each, so that a burst of contention from other processes
    moves them little: correct requests per second of ``lat``, and wall
    time over CPU time of the calls."""
    rates, ratios = [], []
    done = spent = wall = cpu = 0.0
    n = len(lat)
    for i in range(n):
        done += ok[i]
        spent += lat[i]
        wall += rec["wall"][i]
        cpu += rec["latency"][i]
        round_ends = i + 1 == n or rec["pos"][i + 1] == 0
        if (round_ends and spent >= SEGMENT_S) or (i + 1 == n and not rates):
            rates.append(done / spent)
            ratios.append(wall / cpu)
            done = spent = wall = cpu = 0.0
    return statistics.median(rates), statistics.median(ratios)


def accuracy(rel) -> dict:
    """Relative Frobenius errors of the floating results, for the summary.

    Not end-to-end metrics: over the seeds their spread is wider than any
    bound the benchmark could hold (see bench/README.md), and exact-reps
    has no floating results.
    """
    if not rel:
        return {}
    eps = float(np.finfo(float).eps)
    return {
        "max_rel_err": max(rel),
        "rel_err_p99": percentile(rel, 99),
        "rel_err_gmean": float(np.exp(np.mean(np.log(np.maximum(rel, eps))))),
    }


def environment(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            models = (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    src = sorted((root / "src" / "matrixlie").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path,
        pool_rounds=None, min_requests=MIN_REQUESTS, quiet=False):
    workload = wl.WORKLOADS[workload_name]
    t0 = time.perf_counter()
    rounds = wl.build(workload, seed, pool_rounds)
    build_s = time.perf_counter() - t0
    later_setup_s = 0.0
    if not trace:
        measure_setup(root, 1)  # writes the bytecode caches; not counted
        t = time.perf_counter()
        setup = measure_setup(root, SETUP_SAMPLES // 2)
        later_setup_s = time.perf_counter() - t
    job = {
        "rounds": [[(r.call, r.args) for r in rnd] for rnd in rounds],
        "seconds": seconds,
        "min_requests": min_requests,
        "deadline_s": max(1.0, BUDGET_S - (time.perf_counter() - T_START)
                          - later_setup_s - CHECK_S),
        "trace_rounds": workload.trace_rounds if trace else None,
    }
    result = run_worker(root, job)
    if not trace:
        # half the set-up samples before the run and half after, so that
        # they span the run's time rather than one moment of it
        setup += measure_setup(root, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    ok, rel, failures, probes = check_outcomes(rounds, result)
    attempted, failed = len(ok), len(ok) - sum(ok)
    rec = result["records"]
    info = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        **accuracy(rel),
        "oracle_rejects_corruption": probes,
        "input_build_s": build_s,
        "worker_import_s": result["import_s"],
        "stopped_at_deadline": result["stopped_at_deadline"],
        **environment(root),
    }
    correct = failed == 0 and all(probes.values())
    if trace:
        n = result["traced_passes"]
        traced = np.asarray(rec["traced"], dtype=bool)
        metrics = derive(result["spans"], float(np.asarray(rec["wall"])[traced].sum()), n)
        # normalized like every other time, as the machine's speed drifts
        # between passes; the first pair ran cold and is left out when there
        # is another
        lat = np.asarray(normalized_latency(result))
        per_pass = int(traced.sum()) // n
        warm = np.arange(len(lat)) >= (2 * per_pass if n > 1 else 0)
        metrics["trace.overhead_ratio"] = float(
            lat[traced & warm].sum() / lat[~traced & warm].sum() - 1.0)
        info.update(traced_passes=n, traced_requests_per_pass=per_pass)
    else:
        lat = normalized_latency(result)
        p = workload.tail_percentile
        tail = percentile(lat, p)
        beyond = sum(1 for x in lat if x > tail)
        throughput, wall_cpu = segments(rec, lat, ok)
        metrics = {
            "throughput_ops_per_s": throughput,
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "wall_cpu_ratio": wall_cpu,
        }
        cpu, wall = rec["latency"], rec["wall"]
        info.update(tail_percentile=p, tail_samples_beyond=beyond, samples=len(lat),
                    reference_kernel_s=statistics.median(result["ref_kernel"]),
                    cpu_latency_p50_ms=percentile(cpu, 50) * 1e3,
                    cpu_throughput_ops_per_s=sum(ok) / sum(cpu),
                    wall_latency_p50_ms=percentile(wall, 50) * 1e3,
                    wall_throughput_ops_per_s=sum(ok) / sum(wall), setup_samples_s=setup)
    units = {k: _unit(k) for k in metrics}
    if not quiet:
        for line in failures[:20]:
            print("FAIL", line)
        print("info", json.dumps(info, sort_keys=True))
        for k in sorted(metrics):
            print(f"  {k:48s} {metrics[k]:.6g} {units[k]}")
    summary = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }
    return summary, probes


def _unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def self_check(root: Path) -> int:
    """Each workload at tiny size: one round, a short run, every oracle
    shown to reject a corrupted outcome."""
    status = 0
    for name in wl.WORKLOADS:
        res, probes = run(name, seed=0, seconds=0.0, trace=False, root=root, pool_rounds=1,
                          min_requests=1, quiet=True)
        print(name, "attempted", res["attempted"], "failed", res["failed"],
              "correct", res["correct"])
        for kind, rejected in sorted(probes.items()):
            print(f"  oracle for {kind:18s} rejects a corrupted outcome: {rejected}")
        status |= 0 if res["correct"] else 1
    print("self-check", "passed" if status == 0 else "FAILED")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "matrixlie" / "__init__.py").is_file():
        print("error: run from the root of a matrixlie checkout (src/matrixlie not found)",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(root)
    if args.workload is None:
        ap.error("--workload is required")
    res, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

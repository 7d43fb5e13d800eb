"""Workload process: one closed-loop client driving matrixlie in-process.

Run by bench/run.py with PYTHONPATH pointing at the checkout's src/.  It
reads a pickled job from stdin:

job = {"rounds": [[(call, args), ...], ...], "seconds": float,
       "min_requests": int, "deadline_s": float, "trace_rounds": int or None}

Without ``trace_rounds`` it cycles through the rounds in order, one
request at a time, and stops at the first round boundary after
``seconds`` of wall time and at least ``min_requests`` requests, or at the
first request boundary after ``deadline_s``, whichever comes first.  With
``trace_rounds`` = K it repeats pairs of passes over the first K rounds,
one untraced and one traced, until ``seconds`` have passed and at least
two pairs ran, or one pair ran and ``deadline_s`` has passed.

It writes a stream of pickled messages to stdout: ("chunk", records) after
every FLUSH_EVERY requests, and ("done", result) at the end.  A chunk
holds the per-request records of its requests, and the full outcome of
every request whose outcome differs from the first outcome of its input,
first outcomes included.  The worker itself keeps only a digest of each
input's first outcome, so its memory, and so ``peak_rss_mb``, does not
grow with the number of requests it completes.

Only the call itself is timed, by the CPU clock of clock.py and by the
wall clock.  Capturing the outcome, comparing it with the first outcome of
the same input, sending records, and running the reference kernel of
calibrate.py (after every CALIBRATE_EVERY_S of timed work) happen between
timed intervals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pickle
import resource
import sys
import time
from array import array

T_IMPORT = time.perf_counter()
import matrixlie  # noqa: E402
import matrixlie.cli  # noqa: E402
from matrixlie.errors import LieError  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT

import calibrate  # noqa: E402
from clock import cpu_time  # noqa: E402

# run the reference kernel after this much timed work; the machine's speed
# changes about every 0.1 s
CALIBRATE_EVERY_S = 0.025
# requests per chunk of records sent to the harness
FLUSH_EVERY = 2048


def _resolve(call: str):
    mod, fn = call.split(".")
    return getattr(sys.modules[f"matrixlie.{mod}"], fn)


def _run_one(fn, call, args):
    """(CPU seconds, wall seconds, outcome) of one call."""
    buf = io.StringIO() if call == "cli.main" else None
    c0 = cpu_time()
    t0 = time.perf_counter()
    try:
        if buf is None:
            outcome = ("ok", fn(*args))
        else:
            with contextlib.redirect_stdout(buf):
                rc = fn(*args)
            outcome = ("ok", (rc, buf.getvalue()))
    except LieError as e:
        names = [c.__name__ for c in type(e).__mro__ if issubclass(c, LieError)]
        outcome = ("error", names, str(e))
    except Exception as e:  # any other exception is a failed request
        outcome = ("unexpected", f"{type(e).__name__}: {e}")
    wall = time.perf_counter() - t0
    return cpu_time() - c0, wall, outcome


def _digest(outcome) -> bytes:
    """Equal digests mean equal pickles, and so equal outcomes.  Equal
    outcomes may still pickle differently (e.g. another array layout);
    such a repeat is sent in full and checked on its own."""
    return hashlib.blake2b(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL),
                           digest_size=16).digest()


class Recorder:
    """Latency of every request, sent to the harness in chunks, and the
    outcome of every request that differs from its input's first."""

    def __init__(self, out):
        self.out = out
        self.requests = 0
        self.ref_at = array("i")  # requests completed when the kernel ran
        self.ref_kernel = array("d")  # CPU seconds of calibrate's kernel
        self._since_ref = 0.0
        self.digests = {}  # (round, position) -> digest of the first outcome
        self._new_chunk()

    def _new_chunk(self):
        self.chunk = {"round": array("i"), "pos": array("i"), "latency": array("d"),
                      "wall": array("d"), "traced": array("b"),
                      "outcomes": {}}  # request index -> outcome

    def send(self, tag, body):
        pickle.dump((tag, body), self.out, protocol=pickle.HIGHEST_PROTOCOL)

    def flush(self):
        if self.chunk["round"]:
            self.send("chunk", self.chunk)
            self._new_chunk()

    def run_pass(self, rounds, indices, tracer=None, deadline=None):
        """Run the rounds ``indices``; return whether the pass stopped early
        at ``deadline`` (perf_counter)."""
        fns = {}
        c = self.chunk
        for r in indices:
            for p, (call, args) in enumerate(rounds[r]):
                fn = fns.get(call)
                if fn is None:
                    fn = fns[call] = _resolve(call)
                if tracer is not None:
                    tracer.begin_request(self.requests)
                dt, wall, outcome = _run_one(fn, call, args)
                self._since_ref += dt
                digest = _digest(outcome)
                first = self.digests.setdefault((r, p), digest)
                if first is digest or first != digest:
                    c["outcomes"][self.requests] = outcome
                c["round"].append(r)
                c["pos"].append(p)
                c["latency"].append(dt)
                c["wall"].append(wall)
                c["traced"].append(tracer is not None)
                self.requests += 1
                if self.requests % FLUSH_EVERY == 0:
                    self.flush()
                    c = self.chunk
                if self._since_ref >= CALIBRATE_EVERY_S:
                    self.calibrate()
                if deadline is not None and time.perf_counter() >= deadline:
                    return True
        return False

    def calibrate(self):
        self.ref_at.append(self.requests)
        self.ref_kernel.append(calibrate.measure())
        self._since_ref = 0.0


def main():
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # stdout carries only the pickled messages
    job = pickle.load(sys.stdin.buffer)
    rounds = job["rounds"]
    t0 = time.perf_counter()
    end = t0 + job["seconds"]
    deadline = t0 + job["deadline_s"]
    rec = Recorder(out)
    result = {"import_s": IMPORT_S, "stopped_at_deadline": False}
    rec.calibrate()
    if job.get("trace_rounds"):
        from tracer import Tracer

        k = min(job["trace_rounds"], len(rounds))
        tracer = Tracer()
        pairs = 0
        # at least two pairs: the first pair warms the allocator and caches
        # and is left out of the overhead ratio
        while True:
            rec.run_pass(rounds, range(k))
            tracer.install()
            try:
                rec.run_pass(rounds, range(k), tracer)
            finally:
                tracer.uninstall()
            pairs += 1
            now = time.perf_counter()
            if now >= deadline or (pairs >= 2 and now >= end):
                break
        result.update(traced_passes=pairs, spans=tracer.export(),
                      stopped_at_deadline=pairs < 2)
    else:
        r = 0
        while True:
            late = rec.run_pass(rounds, [r % len(rounds)], deadline=deadline)
            r += 1
            if late:
                result["stopped_at_deadline"] = True
                break
            if time.perf_counter() >= end and rec.requests >= job["min_requests"]:
                break
    rec.calibrate()
    # read before the last chunk and the result are pickled
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec.flush()
    result.update(ref_at=rec.ref_at, ref_kernel=rec.ref_kernel)
    rec.send("done", result)
    out.flush()


if __name__ == "__main__":
    main()

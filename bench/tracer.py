"""Span tracing of matrixlie from outside the package.

``Tracer.install()`` wraps every public function of the ten traced modules
(the names in each module's ``__all__``, plus ``cli.main``) and rebinds the
wrapper under every name that refers to the original in any loaded
``matrixlie`` module, since modules such as ``repsl2`` call functions they
imported with ``from .matcore import ...``.  ``uninstall()`` restores the
originals.  Functions held in containers (``cli._BASES``) are not rebound;
those are the basis constructors, whose cost is negligible.

Spans are kept in flat arrays (function id, start, end, parent span,
request id, error flag) and handed to the harness at the end; ``derive``
turns them into per-layer self times and counts.  A span's self time is
its duration minus the durations of its direct children, so object-array
arithmetic (``@``, ``+`` on ``Fraction`` arrays) counts as self time of the
function that performs it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from time import perf_counter

import numpy as np

MODULES = ("cli", "matcore", "expmlog", "groups", "liealg", "bch", "su2so3",
           "repcore", "repsl2", "repsl3")

# functions reported one by one (all public functions are traced and count
# toward their module's totals)
FUNCTIONS = {
    "matcore": ("rational_rref", "rational_nullspace", "rational_solve", "rdot",
                "matrix_from_json", "matrix_to_json"),
    "liealg": ("bracket", "ad_matrix", "structure_constants", "in_algebra"),
    "expmlog": ("mat_exp", "mat_log"),
    "groups": ("is_member", "polar_decompose_sl"),
    "bch": ("g_operator", "bch_integral"),
    "su2so3": ("so3_lift",),
    "repcore": ("verify_relations", "rep_to_json", "rep_from_json"),
    "repsl2": ("sl2_decompose",),
    "repsl3": ("sl3_highest_weight_irrep",),
    "cli": ("main",),
}

# error flag of a span: raised an exception it originated, or passed one on
RAISED, PASSED = 1, 2


def _rref_probe(counters, args, result):
    M = args[0]
    counters["matcore.rational_rref.entries"] += M.size
    counters["matcore.rational_rref.nonzero"] += sum(1 for x in M.flat if x != 0)


def _nullspace_probe(counters, args, result):
    counters["matcore.rational_nullspace.nonempty"] += 1 if len(result) else 0


def _bracket_probe(counters, args, result):
    X = args[0]
    if isinstance(X, np.ndarray) and X.dtype == object:
        counters["liealg.bracket.exact_calls"] += 1


PROBES = {
    "matcore.rational_rref": _rref_probe,
    "matcore.rational_nullspace": _nullspace_probe,
    "liealg.bracket": _bracket_probe,
}

COUNTER_NAMES = ("matcore.rational_rref.entries", "matcore.rational_rref.nonzero",
                 "matcore.rational_nullspace.nonempty", "liealg.bracket.exact_calls")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.err = array("b")
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.request = -1
        self._stack = [-1]
        self._last_exc = None
        self._wrappers: dict = {}  # original function -> traced wrapper

    def begin_request(self, request_id: int):
        self.request = request_id
        self._last_exc = None

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        fid, start, end, parent, req, err = (self.fid, self.start, self.end,
                                             self.parent, self.req, self.err)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = len(fid)
            fid.append(idx)
            parent.append(stack[-1])
            req.append(self.request)
            err.append(0)
            end.append(0.0)
            stack.append(s)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                end[s] = perf_counter()
                err[s] = PASSED if e is self._last_exc else RAISED
                self._last_exc = e
                raise
            finally:
                stack.pop()
            end[s] = perf_counter()
            if probe is not None:
                probe(self.counters, args, result)
            return result

        return traced

    def install(self):
        if not self._wrappers:
            for mod_name in MODULES:
                mod = importlib.import_module(f"matrixlie.{mod_name}")
                public = ("main",) if mod_name == "cli" else mod.__all__
                for attr in public:
                    fn = getattr(mod, attr)
                    if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                        self._wrappers[fn] = self._wrap(f"{mod_name}.{attr}", fn)
        self._rebind(self._wrappers)

    def uninstall(self):
        self._rebind({w: fn for fn, w in self._wrappers.items()})

    @staticmethod
    def _rebind(mapping):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in mapping:
                    setattr(mod, attr, mapping[value])

    def export(self) -> dict:
        return {
            "names": self.names,
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "req": np.frombuffer(self.req, dtype=np.int32).copy(),
            "err": np.frombuffer(self.err, dtype=np.int8).copy(),
            "counters": dict(self.counters),
        }


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "matrixlie" or n.startswith("matrixlie."))]


def derive(spans: dict, request_seconds: float, passes: int) -> dict:
    """Per-layer metrics from exported spans, per traced pass.

    The spans cover ``passes`` traced passes over the same requests, so
    counts and times are divided by ``passes``.  Span times are wall-clock.
    ``request_seconds`` is the summed wall latency of the traced requests;
    the durations of top-level spans should add up to nearly all of it.
    """
    names = spans["names"]
    fid, parent, err = spans["fid"], spans["parent"], spans["err"]
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    n_fn = len(names)
    calls = np.bincount(fid, minlength=n_fn) // passes
    self_by_fn = np.bincount(fid, weights=self_s, minlength=n_fn) / passes
    raised_by_fn = np.bincount(fid, weights=(err == RAISED), minlength=n_fn) / passes
    module_of = [n.split(".")[0] for n in names]
    out = {}
    for mod in MODULES:
        idx = [i for i, m in enumerate(module_of) if m == mod]
        out[f"{mod}.calls"] = int(calls[idx].sum())
        out[f"{mod}.self_ms"] = float(self_by_fn[idx].sum() * 1e3)
        out[f"{mod}.errors"] = int(round(raised_by_fn[idx].sum()))
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            i = names.index(f"{mod}.{fn}")
            out[f"{mod}.{fn}.calls"] = int(calls[i])
            out[f"{mod}.{fn}.self_ms"] = float(self_by_fn[i] * 1e3)
    c = {k: v / passes for k, v in spans["counters"].items()}
    entries = c["matcore.rational_rref.entries"]
    nullspace_calls = out["matcore.rational_nullspace.calls"]
    out["matcore.rational_rref.entries"] = int(round(entries))
    out["matcore.rational_rref.nonzero_ratio"] = (
        c["matcore.rational_rref.nonzero"] / entries if entries else 0.0)
    out["matcore.rational_nullspace.useful_ratio"] = (
        c["matcore.rational_nullspace.nonempty"] / nullspace_calls if nullspace_calls else 0.0)
    out["liealg.bracket.exact_calls"] = int(round(c["liealg.bracket.exact_calls"]))
    top = float(dur[~has_parent].sum())
    out["trace.coverage_ratio"] = top / request_seconds if request_seconds > 0 else 0.0
    return out

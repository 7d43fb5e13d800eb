"""Reference kernel for machine-speed normalization.

The benchmark runs on shared virtual machines whose speed changes about
every 0.1 s, by up to 2x, for reasons that have nothing to do with the
program.  The worker therefore times a short fixed kernel between requests
and scales each request's CPU time by REFERENCE_S / (kernel CPU time
measured next to it).  Timings are then in *reference seconds*: CPU seconds on a
machine where the kernel takes exactly REFERENCE_S.

The kernel mixes the two kinds of work the program does: exact
``Fraction`` arithmetic and small complex numpy products.  It imports
nothing from matrixlie, so no change to the program changes it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from clock import cpu_time

# CPU seconds of the kernel on the machine the benchmark was built on (a
# 2-vCPU Xeon virtual machine); the unit of every normalized time.
REFERENCE_S = 0.0015

_FRACTIONS = [Fraction(i + 1, 3 * i + 7) for i in range(40)]
_MATRICES = [np.arange(n * n, dtype=complex).reshape(n, n) / (5 * n * n) for n in (2, 3, 4, 8)]


def _kernel():
    s = Fraction(0)
    for x in _FRACTIONS[:10]:
        for y in _FRACTIONS[:16]:
            s += x * y
    total = 0.0
    for _ in range(7):
        for M in _MATRICES:
            E = np.eye(M.shape[0], dtype=complex)
            for _ in range(4):
                E = E @ M + np.asarray(M, dtype=complex)
            total += float(np.linalg.norm(E, "fro"))
    return s, total


def measure() -> float:
    """CPU seconds of one call of the kernel."""
    c = cpu_time()
    _kernel()
    return cpu_time() - c

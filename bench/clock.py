"""The benchmark's CPU clock.

Imports nothing but the standard library, so that timing an import of
``matrixlie`` with it does not load numpy early.
"""

from __future__ import annotations

import resource
import time


def cpu_time() -> float:
    """CPU seconds of this process (every thread) plus those of its child
    processes that have ended and been waited for.  Work handed to a child
    process therefore still counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime

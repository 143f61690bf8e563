"""A fixed calibration kernel that measures how fast this machine runs now.

The benchmark's machine is a share of a host whose speed drifts: the same
``invert`` call takes 7 ms in one minute and 13 ms a few minutes later, with
CPU time equal to wall time.  This kernel slows down in about the same
proportion, so the workers time it between operations and scale every
reported time to the speed at which one sample takes :data:`REFERENCE_S`.
The kernel uses no hominv code, so a change to hominv moves the scaled
figures exactly as it moves the raw ones.

The kernel is an interpreted Python loop and vectorised numpy passes over a
few thousand rows, in about the proportion (one third to two thirds of its
time) that best tracked the total time of a fixed round of ``invert`` calls
over 277 rounds and 200 seconds: ten-second medians of the scaled time stayed
within 5 % while the raw ones moved by 15 %.  A loop of numpy calls on
3-vectors tracked worse than either and is left out.  The kernel allocates
no array of its own size and runs once untimed before each timed pass, so
that what the operation before it left in the caches does not move it: a
change to hominv's memory use must not move the scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: one sample's time at the reference speed; a scaled time is in seconds at
#: that speed.  About the median sample on the 2-core machine the README's
#: figures come from.
REFERENCE_S = 4.0e-4

_ROWS = np.random.default_rng(20130524).standard_normal((2000, 3))
_SQUARES = np.empty_like(_ROWS)
_NORMS = np.empty(len(_ROWS))


def _python_loop() -> int:
    s = 0
    for i in range(1500):
        s += i * i
    return s


def _batch_numpy() -> float:
    for _ in range(4):
        np.multiply(_ROWS, _ROWS, out=_SQUARES)
        np.sum(_SQUARES, axis=1, out=_NORMS)
        _NORMS.sort()
    return float(_NORMS[0])


def _kernel() -> None:
    _python_loop()
    _batch_numpy()


def sample() -> float:
    """Time one warm pass of the kernel, in seconds."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Multiply a time measured while ``samples`` were taken by this to get
    it at the reference speed (the median sample guards against a stall)."""
    return REFERENCE_S / statistics.median(samples)

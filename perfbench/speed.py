"""Machine-speed reference that timings are normalised by.

On a shared virtual machine the speed of a vCPU drifts by tens of percent
over seconds to minutes, whatever this process does. The probe is a fixed,
benchmark-owned piece of work of the same character as the library's hot
paths (fraction-free integer elimination, then Fraction back substitution;
and a Fraction power series with growing numerators and denominators, as in
p-adic logarithms), timed right before and after every job. A job's reported time is its wall
time scaled by NOMINAL_S / (mean of the two probe times): the time it would
have taken at the speed at which the probe takes NOMINAL_S. The library
never runs inside the probe, so a change to the library cannot move it.
"""

from __future__ import annotations

import time

from fractions import Fraction

from .gen import grid
from .oracle import integer_solve, reduced_laplacian

# Probe time on a 2-vCPU Intel Xeon VM at 2.0 GHz with Python 3.11.7; it only
# sets the scale of the reported times.
NOMINAL_S = 0.0046

_N, _PAIRS = grid(5)
_, _MATRIX = reduced_laplacian(_N, _PAIRS, 0)
_COLS = [[(i * 7 + k) % 5 - 2 for i in range(len(_MATRIX))] for k in range(3)]
_X = Fraction(101 * 12345, 67891)


def probe() -> float:
    """Seconds taken by one run of the reference work."""
    start = time.perf_counter()
    integer_solve([row[:] for row in _MATRIX], _COLS)
    total, term = Fraction(0), _X
    for k in range(1, 81):
        total += term / k
        term *= _X
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor turning a wall time measured between two probes into
    reference-speed time."""
    return NOMINAL_S / ((before + after) / 2)

"""The calibration computation that measures the machine's current speed.

Float and Fraction forward iterations from `reference.py`: fixed work of
the same kind as fragchain's, which fragchain's changes cannot speed up.
"""

import time
from fractions import Fraction

import reference

FLOAT_RATES = [None, 0.1, 0.12, 0.09, 0.15, 0.11, 0.13, 0.08]
EXACT_RATES = [None] + [Fraction(k, 997) for k in (80, 90, 100, 110, 85, 95)]


def calibrate():
    """Run the computation once; returns the seconds taken."""
    t0 = time.perf_counter()
    reference.forward(FLOAT_RATES, 7, 6)
    reference.forward(EXACT_RATES, 6, 5)
    return time.perf_counter() - t0

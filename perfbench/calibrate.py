"""Reference kernel that measures how much the machine slows this process.

On a shared VM, neighbours' load slows every item of a run by 15-50 % for
minutes at a time, and CPU time grows with wall time, so no statistic of
the item times alone separates the program's cost from the machine's
state.  A fixed stdlib-only kernel timed between items slows by the same
factor: it does the same kind of work as the program (exact ``Fraction``
term-map products, like ``polyexpr``, and an RK4 loop over float tuples,
like ``characteristics``) and never calls ``sgma``.  A change to the
program therefore moves item times but not the kernel's time.

``scale(samples)`` turns the kernel's median time around a measurement
into the factor that maps it to the kernel's uncontended time,
REFERENCE_MS, which is its time on an idle core of the 2-vCPU Xeon VM
(CPython 3.11) this benchmark was tuned on.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import oracles

REFERENCE_MS = 1.4


def _terms(rng: random.Random) -> dict:
    return {(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 4)):
            Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(20)}


_RNG = random.Random("perfbench-reference")
_A, _B = _terms(_RNG), _terms(_RNG)


def _rhs(q):
    return (q[1], -q[0] * q[2], q[0] * q[1] - 0.1 * q[2])


def reference_kernel():
    """Fixed work: one exact 20x20-term product and 60 RK4 steps in floats."""
    product = oracles.term_mul(_A, _B)
    q, h = (0.1, 0.2, 0.3), 1e-3
    for _ in range(60):
        k1 = _rhs(q)
        k2 = _rhs(tuple(a + 0.5 * h * b for a, b in zip(q, k1)))
        k3 = _rhs(tuple(a + 0.5 * h * b for a, b in zip(q, k2)))
        k4 = _rhs(tuple(a + h * b for a, b in zip(q, k3)))
        q = tuple(a + h / 6.0 * (b + 2.0 * c + 2.0 * d + e)
                  for a, b, c, d, e in zip(q, k1, k2, k3, k4))
    return product, q


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor mapping times measured alongside ``samples`` to uncontended time."""
    return REFERENCE_MS * 1e-3 / statistics.median(samples)

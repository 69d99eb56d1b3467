"""Fixed exact-rational reference kernel that every timed metric is divided by.

The kernel multiplies two fixed sparse polynomials whose monomials are
exponent tuples and whose coefficients are ``Fraction`` values, accumulating
the product in a dict: the same kind of work (tuple keys, Fraction gcds, dict
updates) that dominates tauforge.  It lives in the parent process, which never
imports tauforge, so no change to the program can make it faster or slower;
only the machine can.  Running it beside every case and dividing the case's
wall time by it cancels most of the drift of a shared machine.

    python3 perfbench/refkernel.py      # prints the kernel's own time
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

#: Kernel time, in ms, that normalised figures are rescaled to.  It is the
#: median of ``python3 perfbench/refkernel.py`` on the machine the reference
#: figures in README.md were taken on (2 cores, Python 3.11.7), so that
#: normalised and raw figures read alike there.
NOMINAL_MS = 4.0

_VARS = 6
_TERMS = 24


def _operand(rng: random.Random) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    while len(out) < _TERMS:
        mono = tuple(rng.randint(0, 3) for _ in range(_VARS))
        out[mono] = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
    return out


_RNG = random.Random(20190123)
_A = _operand(_RNG)
_B = _operand(_RNG)


def _product() -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for ma, ca in _A.items():
        for mb, cb in _B.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            c = ca * cb
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc += c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return out


_EXPECTED = sum(_product().values())


def run_ms() -> float:
    """Run the kernel once and return its wall time in ms.

    The product's coefficient sum is compared with the one computed at import,
    which both consumes the result inside the timed region and guards the
    kernel against silent change.
    """
    t0 = time.perf_counter()
    total = sum(_product().values())
    elapsed = (time.perf_counter() - t0) * 1000.0
    if total != _EXPECTED:
        raise RuntimeError("reference kernel result changed")
    return elapsed


if __name__ == "__main__":
    times = [run_ms() for _ in range(200)]
    q1, q2, q3 = statistics.quantiles(times, n=4)
    print(f"reference kernel: median {q2:.3f} ms, quartiles {q1:.3f} / {q3:.3f} ms"
          f" over {len(times)} calls (nominal {NOMINAL_MS} ms)")

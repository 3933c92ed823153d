"""A fixed reference computation that gauges how fast the machine runs now.

On a shared VM the same code runs up to about 1.6 times slower while
other tenants are busy, in stretches from milliseconds to minutes.  A
run therefore times this kernel every few ops and scales each op's time
by ``REFERENCE_S`` over the kernel's median time around that op: a slow
stretch that stretches the engine and the kernel alike cancels out, and
a change to the engine does not move the kernel.

The kernel is the benchmark's own code and never changes with the
engine.  It mixes two kinds of work that busy neighbours slow by
different amounts: the Jacobi check of gl3 over Q on short coefficient
lists (like short divisions) and exact elimination of a sparse matrix
over Q on dict rows with fill-in (like truncations and long reductions).
Over a 15-minute probe of six op kinds, scaling by (larger versions of)
the two together cut the drift of each kind's fastest time per minute
(standard deviation over the minutes) from 8-14% to 4-7%, about as well
as the better of the two alone did for each kind.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import corpus

# The kernel's time on the 2-vCPU VM the baseline was taken on, in a quiet
# stretch; scaled times read as seconds on that machine at that speed.
REFERENCE_S = 0.010

_LIE = corpus.gl(3, "Q")


def _sparse_rows(n, per_row, seed):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        row = {i: Fraction(1)}
        for _ in range(per_row):
            row[rng.randrange(n)] = Fraction(rng.randrange(-3, 4) or 1, rng.choice((1, 1, 2)))
        rows.append(row)
    return rows


_ROWS = _sparse_rows(40, 3, seed=7)


def eliminate(rows):
    """Rank of ``rows`` ({column: coeff} dicts) by reduction on the
    largest column; a row reducing to zero adds nothing."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = 1 / row[col]
                pivots[col] = {k: v * inv for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivot.items():
                value = row.get(k, 0) - factor * v
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    return len(pivots)


def kernel():
    """The fixed work: one gl3/Q Jacobi check and one sparse elimination."""
    if _LIE.jacobi_violations():
        raise AssertionError("reference kernel: gl3 must satisfy Jacobi")
    return eliminate(_ROWS)


def timed():
    """Seconds one kernel call takes."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start

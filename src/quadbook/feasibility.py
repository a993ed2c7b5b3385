"""Exact face predicate: is the origin in the convex hull of a set of vectors?

This is the single geometric predicate behind weak hyperbolicity and the dual
complex: a phase-one simplex over Fraction arithmetic with Bland's
smallest-index rule, so every answer is exact and every run deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .configuration import ConfigurationError, OracleMismatchError, as_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tab: list[list[Fraction]], row: int, col: int) -> None:
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i, current in enumerate(tab):
        if i == row:
            continue
        factor = current[col]
        if factor:
            base = tab[row]
            tab[i] = [x - factor * y for x, y in zip(current, base)]


def _phase_one(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> bool:
    """Feasibility of {Ax = b, x >= 0} for b >= 0 by a phase-one simplex with Bland's rule."""
    m = len(rows)
    width = len(rows[0])
    tab = [list(row) + [b] for row, b in zip(rows, rhs)]
    basis = list(range(width, width + m))  # artificial variables
    while True:
        art = [i for i in range(m) if basis[i] >= width]
        entering = None
        for j in range(width):
            # reduced cost of column j for min(sum of artificials) is
            # -sum over artificial rows; Bland: first negative wins
            if sum(tab[i][j] for i in art) > 0:
                entering = j
                break
        if entering is None:
            return sum(tab[i][width] for i in art) == 0
        leave = None
        best = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][width] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise OracleMismatchError("phase-one simplex found an unbounded direction")
        _pivot(tab, leave, entering)
        basis[leave] = entering


def origin_in_convex_hull(vectors: Iterable[Sequence]) -> bool:
    """True iff some convex combination of the vectors is the origin."""
    vecs = [tuple(as_rational(x) for x in v) for v in vectors]
    if not vecs:
        raise ConfigurationError("origin_in_convex_hull needs a nonempty vector list")
    k = len(vecs[0])
    if any(len(v) != k for v in vecs):
        raise ConfigurationError("vectors of mixed lengths")
    rows = [[v[r] for v in vecs] for r in range(k)]
    rows.append([_ONE] * len(vecs))
    rhs = [_ZERO] * k + [_ONE]
    return _phase_one(rows, rhs)

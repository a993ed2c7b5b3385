"""Exact face predicate: is the origin in the convex hull of a set of vectors?

The single geometric predicate behind weak hyperbolicity and the dual complex.
It takes integer vectors only, the primitive rays of
`Configuration.class_rays`, and runs a phase-one simplex with fraction-free
integer pivoting and Bland's rule: exact and deterministic.
`hull_support` also returns the support of the point it finds; the class-face
search resumes each phase one from an earlier one's final state.
"""

from __future__ import annotations

from typing import Sequence

from .configuration import ConfigurationError, OracleMismatchError


def _phase_one(tab: list[list[int]], basis: list[int], d: int = 1,
               barred: int = 0) -> tuple[tuple[int, ...] | None, int]:
    """Find x >= 0 with Ax = b and the barred columns (bit j for column j) zero, by Bland's rule.

    `tab` is D * B^-1 [A | b] for the feasible basis B in `basis` (a column
    past A is its row's artificial), D = det B > 0; a fresh start is [A | b],
    b >= 0, on the artificial basis with D = 1.  Both are left in their final
    state and D is returned, so that a later solve over the same columns may
    resume there with other columns barred.  The objective row sums the rows
    whose basic variable is artificial or barred, or all rows if none is
    barred (a real basic column keeps D there until a pivot, if need be a
    null one, takes its row out).  Barred columns never enter: the result is
    None iff no feasible point has them all zero, else the columns of the
    positive basic variables at the end, ascending.  Signs and ratios are
    those of B^-1 [A | b], so the pivots are the rational simplex's.  D
    becomes each pivot p and entries stay integers: a row's division by the
    previous D is exact, and so is the objective row's, a sum of rows in
    which the leaving row's term (p * base - p * base) / D cancels.
    """
    m = len(tab)
    width = len(tab[0]) - 1
    allowed = [j for j in range(width) if not barred >> j & 1] if barred else range(width)
    rows = [row for row, j in zip(tab, basis) if j >= width or barred >> j & 1] if barred else tab
    tab.append([sum(column) for column in zip(*rows)] if rows else [0] * (width + 1))
    while True:
        objective = tab[m]
        # Bland: the first column with a negative reduced cost enters
        entering = next((j for j in allowed if objective[j] > 0), None)
        if entering is None:
            tab.pop()
            if objective[width]:
                return None, d
            return tuple(sorted(basis[i] for i in range(m) if basis[i] < width and tab[i][width] > 0)), d
        leave = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio b_i / a against the best b / a, by cross-multiplication
                cross = tab[i][width] * tab[leave][entering] - tab[leave][width] * a
                if cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise OracleMismatchError("phase-one simplex found an unbounded direction")
        base = tab[leave]
        p = base[entering]
        for i, current in enumerate(tab):
            if i != leave:
                f = current[entering]
                tab[i] = [(p * x - f * y) // d for x, y in zip(current, base)]
        d = p
        basis[leave] = entering


def _fresh_start(rays: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """A fresh phase one on these rays: [A | b], a row of ones last, on its artificial basis."""
    tab = [[*column, 0] for column in zip(*rays)] + [[1] * (len(rays) + 1)]
    return tab, list(range(len(rays), len(rays) + len(tab)))


def hull_support(rays: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Positions of integer vectors whose hull holds the origin, or None if the hull misses it.

    The positions are the support of the convex combination at which the phase
    one stops: the vectors there alone hold the origin in their hull.
    """
    if not rays:
        raise ConfigurationError("the convex hull test needs a nonempty vector list")
    if len(set(map(len, rays))) > 1:
        raise ConfigurationError("vectors of mixed lengths")
    return _phase_one(*_fresh_start(rays))[0]

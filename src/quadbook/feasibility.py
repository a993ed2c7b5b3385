"""Exact face predicate: is the origin in the convex hull of a set of vectors?

The single geometric predicate behind weak hyperbolicity and the dual complex.
It takes integer vectors only, the primitive rays of
`Configuration.class_rays`, and runs a phase-one simplex with fraction-free
integer pivoting and Bland's rule: exact and deterministic.  The objective row
is kept apart from the tableau, and a pivot rewrites only the rows it changes.
`hull_support` also returns the support of the point it finds; `validate`'s
top-size walk builds each tableau from columns set up once per walk
(`_fresh_start`), and the class-face search resumes each phase one from an
earlier one's final state.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .configuration import ConfigurationError, OracleMismatchError


def _phase_one(tab: list[list[int]], basis: list[int], d: int = 1, barred: int = 0,
               objective: list[int] | None = None) -> tuple[tuple[int, ...] | None, int]:
    """Find x >= 0 with Ax = b and the barred columns (bit j for column j) zero, by Bland's rule.

    `tab` is D * B^-1 [A | b] for the feasible basis B in `basis` (a column
    past A is its row's artificial), D = det B > 0; a fresh start is [A | b],
    b >= 0, on the artificial basis with D = 1.  Both are left in their final
    state and D is returned, so that a later solve over the same columns may
    resume there with other columns barred.  The objective row, kept apart
    from `tab`, sums the rows whose basic variable is artificial or barred,
    or all rows if none is barred (a real basic column keeps D there until a
    pivot, if need be a null one, takes its row out); a fresh start may pass
    it, its column sums, instead.  Barred columns never enter: the result is
    None iff no feasible point has them all zero, else the columns of the
    positive basic variables at the end, ascending.  Signs and ratios are
    those of B^-1 [A | b], so the pivots are the rational simplex's.  D
    becomes each pivot p and entries stay integers: a row's division by the
    previous D is exact, and so is the objective row's, a sum of rows in
    which the leaving row's term (p * lead - p * lead) / D cancels.  A row
    with a 0 in the entering column is left as it is while p = D, and no
    division is made while D = 1.
    """
    width = len(tab[0]) - 1
    if objective is None:
        rows = [row for row, j in zip(tab, basis) if j >= width or barred >> j & 1] if barred else tab
        objective = [sum(column) for column in zip(*rows)] if rows else [0] * (width + 1)
    allowed = [j for j in range(width) if not barred >> j & 1] if barred else range(width)
    while True:
        # Bland: the first column with a negative reduced cost enters
        for entering in allowed:
            if objective[entering] > 0:
                break
        else:
            if objective[width]:
                return None, d
            return tuple(sorted([j for j, row in zip(basis, tab) if j < width and row[width] > 0])), d
        leave = None
        for i, row in enumerate(tab):
            a = row[entering]
            if a > 0:
                if leave is None:
                    leave, lead = i, row
                    continue
                # ratio b_i / a against the best b / a, by cross-multiplication
                cross = row[width] * lead[entering] - lead[width] * a
                if cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                    leave, lead = i, row
        if leave is None:
            raise OracleMismatchError("phase-one simplex found an unbounded direction")
        p = lead[entering]
        for i, row in enumerate(tab):
            f = row[entering]
            if i == leave or (not f and p == d):
                continue
            if d == 1:
                tab[i] = [p * x - f * y for x, y in zip(row, lead)]
            else:
                tab[i] = [(p * x - f * y) // d for x, y in zip(row, lead)]
        f = objective[entering]
        if d == 1:
            objective = [p * x - f * y for x, y in zip(objective, lead)]
        else:
            objective = [(p * x - f * y) // d for x, y in zip(objective, lead)]
        d = p
        basis[leave] = entering


def _fresh_start(rays: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], tuple]:
    """Fresh phase ones on subsets of these rays, with their columns set up once.

    The result maps positions s to the arguments of `_phase_one` for the rays
    at s: [A | b] with a row of ones last, so that b = (0, ..., 0, 1), its
    artificial basis, and its objective row, the column sums.
    """
    columns = [(*ray, 1) for ray in rays]
    sums = [sum(column) for column in columns]
    b = (0,) * len(rays[0]) + (1,)

    def start(s: Sequence[int]) -> tuple[list[list[int]], list[int], int, int, list[int]]:
        tab = list(map(list, zip(*map(columns.__getitem__, s), b)))
        return tab, list(range(len(s), len(s) + len(b))), 1, 0, [*map(sums.__getitem__, s), 1]

    return start


def hull_support(rays: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Positions of integer vectors whose hull holds the origin, or None if the hull misses it.

    The positions are the support of the convex combination at which the phase
    one stops: the vectors there alone hold the origin in their hull.
    """
    if not rays:
        raise ConfigurationError("the convex hull test needs a nonempty vector list")
    if len(set(map(len, rays))) > 1:
        raise ConfigurationError("vectors of mixed lengths")
    return _phase_one(*_fresh_start(rays)(range(len(rays))))[0]

"""Exact face predicate: is the origin in the convex hull of a set of vectors?

The single geometric predicate behind weak hyperbolicity and the dual complex.
It runs on integer vectors (primitive rays), by a phase-one simplex with
fraction-free integer pivoting and Bland's rule: exact and deterministic.
`hull_support` also returns the support of the point it finds, which the
class-face search reuses as a witness for other class sets.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .configuration import ConfigurationError, OracleMismatchError, as_rational, primitive_ray


def _phase_one(tab: list[list[int]]) -> tuple[int, ...] | None:
    """Solve {Ax = b, x >= 0} for the integer tableau [A | b], b >= 0, by Bland's rule.

    Returns the columns of the positive basic variables at the feasible point
    where the simplex stops, in increasing order, or None if there is none.

    The tableau holds D * B^-1 [A | b] for the current basis B, with D = det B
    > 0 (it starts at 1 on the artificial basis and becomes each pivot, which
    the ratio test takes positive).  Signs and ratios are those of B^-1 [A | b],
    so the pivots are those of the rational simplex, and every entry stays an
    integer: the division by the previous D is exact.
    """
    m = len(tab)
    width = len(tab[0]) - 1
    basis = list(range(width, width + m))  # artificial variables
    # the sum of the artificial rows: minus the reduced costs of min(sum of
    # artificials), and the objective value; pivots keep it that sum
    tab.append([sum(column) for column in zip(*tab)])
    d = 1
    while True:
        objective = tab[m]
        # Bland: the first column with a negative reduced cost enters
        entering = next((j for j in range(width) if objective[j] > 0), None)
        if entering is None:
            if objective[width]:
                return None
            return tuple(sorted(basis[i] for i in range(m) if basis[i] < width and tab[i][width] > 0))
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


def hull_support(rays: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Positions of integer vectors whose hull holds the origin, or None if the hull misses it.

    The positions are the support of the convex combination at which the phase
    one stops: the vectors there alone hold the origin in their hull.
    """
    if not rays:
        raise ConfigurationError("the convex hull test needs a nonempty vector list")
    if len(set(map(len, rays))) > 1:
        raise ConfigurationError("vectors of mixed lengths")
    rows = [[*column, 0] for column in zip(*rays)]
    rows.append([1] * (len(rays) + 1))
    return _phase_one(rows)


def origin_in_convex_hull(vectors: Iterable[Sequence]) -> bool:
    """True iff some convex combination of the vectors is the origin.

    Entries may be ints, Fractions or rational strings; a vector that is not
    all ints is replaced by its primitive integer ray, which changes no answer.
    """
    vecs = [v if all(type(x) is int for x in v) else primitive_ray([as_rational(x) for x in v])
            for v in vectors]
    return hull_support(vecs) is not None

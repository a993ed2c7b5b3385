"""The dual complex of a configuration, Smith normal form, and integral homology.

A complex is a sorted, downward-closed list of face bitmasks, bit i for
vertex i + 1; the engine reads it on ray classes, listed by one walk over
the vertices of the class polytope (`_class_faces`).  The coordinate faces
follow by the wedge rule, expanded on demand inside the coordinates asked
for: all of them for `dual_face_masks`, those in J for `pair_homology`, the
coordinate-level side of the doubling check.  Homology cancels a complex to
its Morse core and reads the core's boundary matrices, in lexicographic
vertex orientation, off one Smith normal form routine.  Reduced homology is indexed from degree -1
with two fixed conventions: the void complex (no faces at all) and the
complex whose only face is the empty one both have a single Z in degree -1.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, Sequence

from .configuration import (MEMO_SIZE, Configuration, ConfigurationError, OracleMismatchError, _fresh_start,
                            _phase_one, _pivot, require_valid)


# ---------------------------------------------------------------------------
# finitely generated abelian groups, graded by degree


def invariant_chain(values: Iterable[int]) -> tuple[int, ...]:
    """Normalise torsion coefficients to a divisibility chain d1 | d2 | ...

    One sweep replaces each pair (d_i, d_j), i < j, by (gcd, lcm).  After row
    i every later entry is a multiple of d_i, and gcd and lcm keep each
    prime's multiset of exponents, so the result is the invariant factor
    chain, in ascending order; it is returned without 1s.
    """
    vals = [abs(int(v)) for v in values if abs(int(v)) > 1]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            a, b = vals[i], vals[j]
            g = gcd(a, b)
            vals[i], vals[j] = g, a // g * b
    return tuple(v for v in vals if v > 1)


@dataclass(frozen=True)
class GradedGroup:
    """Integral homology bookkeeping: free rank and torsion chain per degree."""

    groups: tuple[tuple[int, int, tuple[int, ...]], ...]

    @staticmethod
    def from_parts(ranks: Mapping[int, int], torsion: Mapping[int, Iterable[int]] | None = None) -> "GradedGroup":
        torsion = torsion or {}
        degrees = set(ranks) | set(torsion)
        rows = []
        for d in sorted(degrees):
            r = int(ranks.get(d, 0))
            if r < 0:
                raise ConfigurationError(f"negative rank {r} in degree {d}")
            chain = invariant_chain(torsion.get(d, ()))
            if r or chain:
                rows.append((d, r, chain))
        return GradedGroup(tuple(rows))

    @staticmethod
    def zero() -> "GradedGroup":
        return GradedGroup(())

    @staticmethod
    def single(degree: int, rank: int = 1) -> "GradedGroup":
        return GradedGroup.from_parts({degree: rank})

    @staticmethod
    def sum(groups: Iterable["GradedGroup"]) -> "GradedGroup":
        ranks: dict[int, int] = {}
        torsion: dict[int, list[int]] = {}
        for g in groups:
            for d, r, chain in g.groups:
                ranks[d] = ranks.get(d, 0) + r
                if chain:
                    torsion.setdefault(d, []).extend(chain)
        return GradedGroup.from_parts(ranks, torsion)

    def __add__(self, other: "GradedGroup") -> "GradedGroup":
        return GradedGroup.sum((self, other))

    def rank(self, degree: int) -> int:
        for d, r, _ in self.groups:
            if d == degree:
                return r
        return 0

    def torsion(self, degree: int) -> tuple[int, ...]:
        for d, _, chain in self.groups:
            if d == degree:
                return chain
        return ()

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _, _ in self.groups)

    @property
    def is_zero(self) -> bool:
        return not self.groups

    @property
    def max_degree(self) -> int | None:
        return self.groups[-1][0] if self.groups else None

    def shift(self, offset: int) -> "GradedGroup":
        return GradedGroup(tuple((d + offset, r, chain) for d, r, chain in self.groups))

    def betti(self, top: int | None = None) -> tuple[int, ...]:
        """Free ranks in degrees 0..top (top defaults to the largest degree)."""
        hi = self.max_degree if top is None else top
        if hi is None:
            hi = -1
        return tuple(self.rank(d) for d in range(0, hi + 1))

    def euler(self) -> int:
        return sum((-1) ** d * r for d, r, _ in self.groups if d >= 0)

    @property
    def torsion_free(self) -> bool:
        return all(not chain for _, _, chain in self.groups)

    def describe(self, degree: int) -> str:
        r = self.rank(degree)
        chain = self.torsion(degree)
        parts = []
        if r == 1:
            parts.append("Z")
        elif r > 1:
            parts.append(f"Z^{r}")
        parts.extend(f"Z/{t}" for t in chain)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        if not self.groups:
            return "0"
        return ", ".join(f"H_{d} = {self.describe(d)}" for d, _, _ in self.groups)


# ---------------------------------------------------------------------------
# Smith normal form

def _snf_diagonal(matrix: list[list[int]]) -> list[int]:
    """Nonzero diagonal (positive, unordered) of an integer matrix diagonalised by unimodular steps.

    Their count is the rank, and `invariant_chain` of them is the torsion of
    the cokernel.  Each step pivots on a least nonzero entry and clears its
    row and column by remainders.
    """
    m = [row[:] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    diag: list[int] = []
    for t in range(min(n_rows, n_cols)):
        entries = [(abs(m[i][j]), i, j) for i in range(t, n_rows) for j in range(t, n_cols) if m[i][j]]
        if not entries:
            break
        _, bi, bj = min(entries)
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]
        while True:
            moved = False
            for i in range(t + 1, n_rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        moved = True
            for j in range(t + 1, n_cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        moved = True
            if not moved:
                break
        diag.append(abs(m[t][t]))
    return diag


# ---------------------------------------------------------------------------
# homology of bitmask face lists


def _morse_reduce(faces: Sequence[int]) -> list[int]:
    """Cancel cells in fill-free pairs; the survivors carry the same homology.

    A cell whose boundary meets the surviving set in exactly one cell, or that
    lies in exactly one surviving coface, forms a unit pivot whose elimination
    only deletes entries of the restricted boundary matrix (the pivot row or
    column is a singleton, so the Schur update is empty).  Incidences of the
    surviving cells keep their original coefficients, so the remaining matrix
    is the plain restriction.  The wave started by the empty cell under each
    vertex typically eats all of a sphere-like complex except its homology
    generators.
    """
    universe = 0
    for f in faces:
        universe |= f
    table_size = (universe << 1) | 1 if universe else 1
    present = bytearray(table_size + 1)
    for f in faces:
        present[f] = 1
    bnd = bytearray(table_size + 1)
    cof = bytearray(table_size + 1)
    for f in faces:  # each present facet counts f as one of its cofaces
        bits = f
        while bits:
            low = bits & -bits
            bits ^= low
            if present[f ^ low]:
                bnd[f] += 1
                cof[f ^ low] += 1
    # the cancellation wave must run breadth first; depth first starves it on
    # sphere-like complexes and leaves a huge core
    queue = deque(f for f in faces if bnd[f] == 1 or cof[f] == 1)
    while queue:
        c = queue.popleft()
        if not present[c]:
            continue
        partner = -1
        if bnd[c] == 1:
            bits = c
            while bits:
                low = bits & -bits
                bits ^= low
                if present[c ^ low]:
                    partner = c ^ low
                    break
        elif cof[c] == 1:
            rest = universe & ~c
            while rest:
                low = rest & -rest
                rest ^= low
                if present[c | low]:
                    partner = c | low
                    break
        else:
            continue
        if partner < 0:
            continue
        present[c] = 0
        present[partner] = 0
        for cell in (c, partner):
            bits = cell
            while bits:
                low = bits & -bits
                bits ^= low
                h = cell ^ low
                if present[h]:
                    cof[h] -= 1
                    if cof[h] == 1 or bnd[h] == 1:
                        queue.append(h)
            rest = universe & ~cell
            while rest:
                low = rest & -rest
                rest ^= low
                x = cell | low
                if present[x]:
                    bnd[x] -= 1
                    if bnd[x] == 1 or cof[x] == 1:
                        queue.append(x)
    return [f for f in faces if present[f]]


def _homology_from_masks(faces: Sequence[int]) -> GradedGroup:
    """Reduced integral homology of a downward-closed bitmask face list: a Morse core, then one SNF.

    `_morse_reduce` cancels the complex down to a small core, and each boundary
    matrix of the core goes to `_snf_diagonal` as dense rows.  The empty list
    is the void complex and yields Z in degree -1, matching the stated
    convention.
    """
    if not faces:
        return GradedGroup.single(-1, 1)
    # The Morse core is chain homotopy equivalent, with boundary the plain
    # restriction of the original incidences, so counts and ranks of the core
    # alone give the homology.
    core = _morse_reduce(faces)
    by_size: dict[int, list[int]] = {}
    for f in core:
        by_size.setdefault(f.bit_count(), []).append(f)
    max_size = max(by_size) if by_size else 0
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for s in range(1, max_size + 1):
        sources = by_size.get(s, [])
        targets = by_size.get(s - 1, [])
        if not sources or not targets:
            continue
        index = {mask: pos for pos, mask in enumerate(targets)}
        rows = []
        for f in sources:
            row = [0] * len(targets)
            sign = 1
            bits = f
            while bits:
                low = bits & -bits
                pos = index.get(f ^ low)
                if pos is not None:
                    row[pos] = sign
                sign = -sign
                bits ^= low
            rows.append(row)
        diagonal = _snf_diagonal(rows)
        ranks[s], torsion[s] = len(diagonal), invariant_chain(diagonal)
    rank_by_degree: dict[int, int] = {}
    torsion_by_degree: dict[int, tuple[int, ...]] = {}
    for d in range(-1, max_size):
        cells = len(by_size.get(d + 1, ()))
        r = cells - ranks.get(d + 1, 0) - ranks.get(d + 2, 0)
        if r:
            rank_by_degree[d] = r
        chain = torsion.get(d + 2, ())
        if chain:
            torsion_by_degree[d] = chain
    return GradedGroup.from_parts(rank_by_degree, torsion_by_degree)


# ---------------------------------------------------------------------------
# the dual complex of a configuration


def _mask(coordinates: Iterable[int]) -> int:
    """Bitmask of 1-based coordinates: bit i-1 for coordinate i."""
    return sum(1 << (i - 1) for i in coordinates)


def class_face_masks(cfg: Configuration) -> tuple[int, ...]:
    """The dual complex on the ray classes, as bitmasks (bit c for class c + 1)."""
    require_valid(cfg)
    return _class_faces(cfg.class_rays)[0]


@lru_cache(maxsize=MEMO_SIZE)
def _class_faces(rays: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The class faces and minimal non-faces of rays in this order, as sorted masks.

    Labels, scale and multiplicity drop out.  A class set T is a face iff
    some point x of the class polytope P = {x >= 0 : sum x_c (ray_c, 1) =
    (0, 1)} is zero on T, and then a vertex of P is, so the faces are the
    class sets that some vertex is zero on.  On a weakly hyperbolic input
    every point of P has k + 1 or more positive coordinates, so each vertex
    has exactly k + 1 (P is simple) and its neighbours are found by one
    ratio test each, with no tie (Avis-Fukuda, A pivoting algorithm for
    convex hulls and vertex enumeration, 1992).  One phase one on all the
    rays finds a first vertex, and each unseen neighbour costs one pivot
    (`_pivot`): V - 1 pivots for V vertices.  A basic value of 0 at the
    first vertex or a ratio tie means the input is not weakly hyperbolic
    and raises OracleMismatchError.

    The faces are then listed in increasing mask order, each set T extended
    by the classes below its least one, with the vertices zero on T as one
    bitmask: a child is a face iff that set meets the vertices zero on its
    new class.  A child T | c that is no face is a minimal non-face unless
    it holds one found before; since T is a face, such a one holds c, its
    least class, and was found at a subset of T, earlier in the order.  The
    empty polytope has no face and the empty set as its one minimal
    non-face.
    """
    tab, basis, objective = _fresh_start(rays)(range(len(rays)))
    found, d = _phase_one(tab, basis, objective)
    if found is None:
        return (), (0,)
    if len(found) < len(basis):
        raise OracleMismatchError(f"the class polytope has a vertex on {len(found)} classes, "
                                  f"not {len(basis)}: the rays are not weakly hyperbolic")
    width = len(rays)
    keys = [sum(1 << j for j in basis)]  # per vertex: its basis, as a class mask
    seen = set(keys)
    pending = [(tab, basis, d, keys[0])]
    while pending:
        tab, basis, d, key = pending.pop()
        for entering in range(width):
            if key >> entering & 1:
                continue
            leave, tie = None, False
            for i, row in enumerate(tab):
                a = row[entering]
                if a > 0:
                    if leave is None:
                        leave, lead = i, row
                        continue
                    # ratio b_i / a against the best b / a, by cross-multiplication
                    cross = row[width] * lead[entering] - lead[width] * a
                    if cross < 0:
                        leave, lead, tie = i, row, False
                    elif cross == 0:
                        tie = True
            if leave is None or tie:
                raise OracleMismatchError("a ratio test found no row or a tie on the class polytope: "
                                          "the rays are not weakly hyperbolic")
            step = key ^ 1 << basis[leave] ^ 1 << entering
            if step not in seen:
                seen.add(step)
                keys.append(step)
                tab_next, basis_next = tab[:], basis[:]
                d_next = _pivot(tab_next, basis_next, leave, entering, d)
                pending.append((tab_next, basis_next, d_next, step))
    # per class: the vertices zero on it, bit v for vertex v
    on = [sum(1 << v for v, key in enumerate(keys) if not key >> c & 1) for c in range(width)]
    faces, missing = [], []
    lowest: list[list[int]] = [[] for _ in rays]  # per class: the minimal non-faces found with it least
    stack = [(0, (1 << len(keys)) - 1, width)]  # a face, the vertices zero on it, and its least class
    while stack:
        t, at, least = stack.pop()
        faces.append(t)
        for c in reversed(range(least)):  # popped in increasing order
            child = t | 1 << c
            below = at & on[c]
            if below:
                stack.append((child, below, c))
            elif not any(m & child == m for m in lowest[c]):
                lowest[c].append(child)
                missing.append(child)
    return tuple(faces), tuple(sorted(missing))


def dual_face_masks(cfg: Configuration) -> tuple[int, ...]:
    """All index sets with a nonempty face, as sorted bitmasks (bit i-1 for coordinate i)."""
    require_valid(cfg)
    return tuple(sorted(_coordinate_faces(cfg, (1 << cfg.n) - 1)))


def pair_homology(cfg: Configuration, J: Iterable[int]) -> GradedGroup:
    """H(P, P_J): the reduced homology of the dual complex on J, shifted up by one.

    An empty restriction gives Z in degree 0, matching the homology of the
    contractible polytope itself.  This reads the coordinate faces inside J,
    not the class complex with the wedge shift, on purpose: it is the
    independent side of the doubling check in `cross-validate`, which would
    prove nothing if both sides ran through the wedge shift.
    """
    require_valid(cfg)
    Jset = frozenset(J)
    for j in Jset:
        if not 1 <= j <= cfg.n:
            raise ConfigurationError(f"index {j} out of range 1..{cfg.n}")
    return _homology_from_masks(sorted(_coordinate_faces(cfg, _mask(Jset)))).shift(1)


def _coordinate_faces(cfg: Configuration, within: int) -> list[int]:
    """The coordinate faces inside the bitmask `within`, unsorted, by the wedge rule.

    A coordinate set is a face iff the classes it contains whole form a class
    face, so each class face T expands to itself plus any proper part of
    every class outside T.  Inside `within`, a class face holding a class
    not wholly inside gives nothing, and the proper parts of the other
    classes are drawn from their members inside.
    """
    choices = []  # per class: the whole class if it lies inside, and its proper parts inside
    for members in cfg.classes:
        inside = [i for i in members if within >> (i - 1) & 1]
        choices.append(([_mask(members)] if len(inside) == len(members) else [],
                        [_mask(part) for size in range(min(len(inside), len(members) - 1) + 1)
                         for part in itertools.combinations(inside, size)]))
    out: list[int] = []
    for t in _class_faces(cfg.class_rays)[0]:
        layer = [0]
        for c, (whole, proper) in enumerate(choices):
            layer = [f | s for f in layer for s in (whole if t >> c & 1 else proper)]
        out.extend(layer)
    return out

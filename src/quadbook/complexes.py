"""The dual complex of a configuration, Smith normal form, and integral homology.

A complex is a sorted, downward-closed list of face bitmasks, bit i for
vertex i + 1; the engine reads it on ray classes, and the coordinate faces
follow by the wedge rule.  Homology cancels a complex to its Morse core and
reads the core's boundary matrices, in lexicographic vertex orientation, off
one Smith normal form routine.  Reduced homology is indexed from degree -1
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

from .configuration import MEMO_SIZE, Configuration, ConfigurationError, require_valid
from .feasibility import _fresh_start, _phase_one


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

    Labels, scale and multiplicity drop out.  A class set T is a face iff the
    origin lies in the convex hull of the rays outside T.  The search decides
    all faces of one size before the next, each candidate a face extended
    past its top class, so the minimal non-faces are found in size order.  A
    candidate has only faces as facets iff it holds none found so far, and
    since its parent is a face, only those with its top class on top can lie
    in it; a candidate holding one is skipped.  Each face keeps a witness,
    the classes of one hull point outside it; a candidate that the witness
    of its parent or of a facet misses is a face with that witness.  Only
    the rest run a phase one, whose support is the new witness.  Every
    candidate tested has only faces as facets, so the phase ones that fail are
    exactly the minimal non-faces, which are returned beside the faces; the
    empty polytope has no face and the empty set as its one minimal
    non-face.  Phase ones run on the tableau of all rays, the candidate's
    classes barred; one that finds a point keeps its final state under its
    witness, and a candidate resumes from its parent's: one or two pivots in
    general position, not k + 1.
    """
    def support(t: int, tab: list[list[int]], basis: list[int], d: int) -> int | None:
        tab, basis = tab[:], basis[:]  # pivots replace rows, never edit them
        found, d = _phase_one(tab, basis, d, t)
        if found is None:
            return None
        witness = sum(1 << c for c in found)
        states[witness] = tab, basis, d
        return witness

    def facet_witnesses(child: int, t: int):
        """The witnesses of the facets of child other than its parent t, in class order."""
        while t:
            low = t & -t
            t ^= low
            yield level[child ^ low]

    states: dict[int, tuple] = {}  # per witness: the final tableau, basis and D
    witness = support(0, *_fresh_start(rays), 1)
    if witness is None:
        return (), (0,)
    out, missing = [0], []
    topped: list[list[int]] = [[] for _ in rays]  # per class: the minimal non-faces found with it on top
    level = {0: witness}  # the faces of one size, each with its witness
    while level:
        nxt: dict[int, int] = {}
        for t, seen in level.items():
            for c in range(t.bit_length(), len(rays)):
                child = t | 1 << c
                for m in topped[c]:
                    if m & child == m:
                        break  # a facet of child is no face
                else:
                    if seen & child:
                        reuse = next((w for w in facet_witnesses(child, t) if not w & child), None)
                        witness = support(child, *states[seen]) if reuse is None else reuse
                    else:
                        witness = seen
                    if witness is None:
                        missing.append(child)
                        topped[c].append(child)
                    else:
                        nxt[child] = witness
        out.extend(nxt)
        level = nxt
        states = {w: states[w] for w in level.values()}  # the next candidates resume from these
    return tuple(sorted(out)), tuple(sorted(missing))


def dual_face_masks(cfg: Configuration) -> tuple[int, ...]:
    """All index sets with a nonempty face, as bitmasks (bit i-1 for coordinate i).

    The wedge rule: a coordinate set is a face iff the classes it contains
    whole form a class face.  So each class face expands to itself plus any
    proper part of every class outside it.
    """
    require_valid(cfg)
    return _dual_faces(cfg.class_rays, cfg.classes)


@lru_cache(maxsize=MEMO_SIZE)
def _dual_faces(rays: tuple[tuple[int, ...], ...],
                classes: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """`dual_face_masks` keyed on the class signature, so labels, scale and marking drop out."""
    # per class: the whole class, and every proper part of it
    choices = [([_mask(members)], [_mask(part) for size in range(len(members))
                                   for part in itertools.combinations(members, size)])
               for members in classes]
    out: list[int] = []
    for t in _class_faces(rays)[0]:
        layer = [0]
        for c, (whole, proper) in enumerate(choices):
            layer = [f | s for f in layer for s in (whole if t >> c & 1 else proper)]
        out.extend(layer)
    return tuple(sorted(out))

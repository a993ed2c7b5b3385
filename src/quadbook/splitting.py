"""Homology of the varieties via the subset splitting over the quotient polytope.

H(Z) splits as a direct sum over index subsets J of the pair homologies
H(P, P_J); the half manifold drops the summands whose J contains the
distinguished coordinate, and the complex variety shifts each summand by |J|.
Pair homology is computed through the nerve model: P_J is homotopy equivalent
to the full subcomplex of the dual complex on J.

Only unions of ray classes contribute, and each is read off the class complex
K with the wedge shift.  Classes whose facet is empty (ghosts) are no vertex
of K and change no restriction.  On its vertices V, K is the boundary of a
simplicial polytope, a d-sphere, so combinatorial Alexander duality gives the
restriction to S from the one to V - S, in degree d - 1 - i for ranks and
d - 2 - i for torsion.  A restriction K_S is a cone on any vertex of S that
lies in no minimal non-face inside S, so only unions of minimal non-faces
can carry homology (Hochster's formula; Buchstaber-Panov, Toric Topology,
ch. 3).  Only those unions on at most half of V are reduced, each built from
S and the minimal non-faces inside it.  K_V must have the reduced homology
of a d-sphere, read on the smaller of K_V and its Alexander dual; any other
outcome is an OracleMismatchError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .complexes import (GradedGroup, _class_faces, _homology_from_masks, _mask,
                        class_face_masks, dual_face_masks)
from .configuration import (
    MEMO_SIZE,
    Configuration,
    ConfigurationError,
    OracleMismatchError,
    SizeCapError,
    require_valid,
)

DEFAULT_SUBSET_CAP = 20


@lru_cache(maxsize=MEMO_SIZE)
def _pair_table(rays, classes) -> tuple[tuple[tuple[int, ...], GradedGroup], ...]:
    """Nonzero pair homologies H(P, P_J) in Z-degrees, sorted by size then content of J.

    Keyed on the class signature of a valid configuration, its class rays and
    classes, so labels, scale and the distinguished coordinate drop out.

    Only unions J of ray classes can contribute: if J splits a class, the
    restricted dual complex is a cone on any included copy whose twin was left
    out, hence acyclic.  For J the union of a class set T, the restriction is
    the simplicial wedge of the class complex K on T, which suspends it once
    per extra copy: H(P, P_J) is the reduced homology of K_T shifted by
    1 + sum over c in T of (|c| - 1).

    The classes whose singleton is a face are the vertices V; the others
    (ghosts, empty facets) are the minimal non-faces of size one and carry no
    face, so K_T = K_S with S = T & V.  A nonempty K_S is a cone, hence
    acyclic, unless S is the union of the minimal non-faces inside it, so
    only those unions with |S| <= |V| // 2 and the empty set are read; the
    faces of K_S are the subsets of S that contain none of them.  With r <= 2
    of them, K_S has just Z in degree |S| - 1 - r and is not reduced: it is
    empty, the boundary of the simplex on S, or the Alexander dual in S of
    the disjoint simplices S - M1 and S - M2.  K_V is the boundary of the
    simplicial polytope dual to the (simple) class polytope, a sphere of
    dimension d = m - k - 2 for m classes (ghosts included) in R^k: a valid
    configuration with a nonempty polytope has rank k, since otherwise at
    most k of its vectors would hold the origin (Caratheodory), so the class
    polytope has dimension m - k - 1.  Alexander duality gives every larger
    restriction from its complement: H_i(K_S) has the rank of
    H_{d-1-i}(K_{V-S}) and the torsion of H_{d-2-i}(K_{V-S}), all
    reduced.  The sphere property is checked once, on K_V or on its
    Alexander dual {V - T : T on V no face}, whichever has fewer faces: K_V
    is a homology d-sphere iff the dual has just Z in degree |V| - d - 3.
    With V empty, K_V = {empty set} is kept, since duality needs a vertex.
    Anything but a sphere raises OracleMismatchError.
    """
    class_faces, non_faces = _class_faces(rays)
    if not class_faces:
        return ()  # empty polytope: empty variety, no cells
    d = len(classes) - len(rays[0]) - 2
    v_mask = ((1 << len(classes)) - 1) ^ sum(m for m in non_faces if m.bit_count() == 1)
    # ghosts are in no face, so the class faces are K_V; its dual has the other 2^|V| - |K_V| sets
    if v_mask and (1 << v_mask.bit_count()) - len(class_faces) < len(class_faces):
        side, degree = _alexander_dual(v_mask, non_faces), v_mask.bit_count() - d - 3
    else:
        side, degree = class_faces, d
    group = _homology_from_masks(side)
    if group != GradedGroup.single(degree):
        raise OracleMismatchError(f"the class complex on its vertices is not a {d}-sphere: reduced homology "
                                  f"{group} on the {len(side)} faces read, not Z in degree {degree}")

    half = v_mask.bit_count() // 2
    base = {m for m in non_faces if 1 < m.bit_count() <= half}
    unions, frontier = {0} | base, base
    while frontier:
        frontier = {u | m for u in frontier for m in base
                    if (u | m).bit_count() <= half and u | m not in unions}
        unions |= frontier
    small: dict[int, GradedGroup] = {}
    for s in unions:
        inside = [m for m in base if m & ~s == 0]
        if len(inside) <= 2:  # a sphere: see the docstring
            small[s] = GradedGroup.single(s.bit_count() - 1 - len(inside))
            continue
        # K_S on the positions of S, keeping the engine's tables as small as S
        where = [c for c in range(len(classes)) if s >> c & 1]
        inside = [sum(1 << i for i, c in enumerate(where) if m >> c & 1) for m in inside]
        small[s] = _homology_from_masks([q for q in range(1 << len(where))
                                         if not any(q & m == m for m in inside)])
    restrictions = dict(small)
    for rest, group in small.items():
        s = v_mask ^ rest
        if s not in small and not group.is_zero:  # duality maps zero to zero
            restrictions[s] = GradedGroup.from_parts(
                {d - 1 - i: group.rank(i) for i in group.degrees},
                {d - 2 - i: group.torsion(i) for i in group.degrees})

    ghost_sets = [0]
    for c in range(len(classes)):
        if not v_mask >> c & 1:
            ghost_sets += [g | 1 << c for g in ghost_sets]
    entries = []
    for s, group in restrictions.items():
        if group.is_zero:
            continue
        for g in ghost_sets:
            chosen = [members for c, members in enumerate(classes) if (s | g) >> c & 1]
            J = tuple(sorted(itertools.chain(*chosen)))
            entries.append((J, group.shift(1 + len(J) - len(chosen))))
    return tuple(sorted(entries, key=lambda entry: (len(entry[0]), entry[0])))


def _alexander_dual(v_mask: int, non_faces: Iterable[int]) -> list[int]:
    """The faces V - T of the Alexander dual of K_V, for T on V no face, as sorted masks.

    T is no face iff it holds a minimal non-face M on V (one of size >= 2), so
    the dual is generated by the sets V - M.
    """
    dual = set()
    for m in non_faces:
        if m.bit_count() > 1:
            top = s = v_mask ^ m
            while s:
                dual.add(s)
                s = (s - 1) & top
            dual.add(0)
    return sorted(dual)


def pair_homology(cfg: Configuration, J: Iterable[int]) -> GradedGroup:
    """H(P, P_J): the reduced homology of the dual complex on J, shifted up by one.

    An empty restriction gives Z in degree 0, matching the homology of the
    contractible polytope itself.  This reads the coordinate faces, not the
    class complex with the wedge shift, on purpose: it is the independent
    side of the doubling check in `cross-validate`, which would prove nothing
    if both sides ran through the wedge shift.
    """
    require_valid(cfg)
    Jset = frozenset(J)
    for j in Jset:
        if not 1 <= j <= cfg.n:
            raise ConfigurationError(f"index {j} out of range 1..{cfg.n}")
    j_mask = _mask(Jset)
    faces = [f for f in dual_face_masks(cfg) if f & ~j_mask == 0]
    return _homology_from_masks(faces).shift(1)


def homology_Z(cfg: Configuration, *, cap: int = DEFAULT_SUBSET_CAP) -> GradedGroup:
    """Integral homology of the real variety: the sum of all pair homologies."""
    return splitting_ledger(cfg, "Z", cap=cap).total


def homology_Zplus(cfg: Configuration, *, cap: int = DEFAULT_SUBSET_CAP) -> GradedGroup:
    """Integral homology of the half manifold: only subsets avoiding the distinguished coordinate."""
    return splitting_ledger(cfg, "Zplus", cap=cap).total


def homology_ZC(cfg: Configuration, *, cap: int = DEFAULT_SUBSET_CAP) -> GradedGroup:
    """Integral homology of the complex variety: pair homologies shifted by |J|."""
    return splitting_ledger(cfg, "ZC", cap=cap).total


def euler_cellcount(cfg: Configuration) -> int:
    """Euler characteristic of the real variety from its reflected cell decomposition.

    Each nonempty face with |L| pinned facets has dimension n-k-1-|L| and
    2^(n-|L|) reflected copies, so chi(Z) = (-1)^(n-k-1) times the sum over
    faces of the product over coordinates of -1 (pinned) or 2 (free).  By the
    wedge rule the faces over a class face T pin each class of T whole and any
    proper part of each other class c; summing over those parts gives
    (2 - 1)^|c| - (-1)^|c|, so the sum runs over class faces alone.
    """
    require_valid(cfg)
    classes = cfg.classes
    odd = sum(1 << c for c, members in enumerate(classes) if len(members) % 2)
    even = ((1 << len(classes)) - 1) ^ odd
    # an even class outside T gives the factor 0, an odd one 2, an odd one inside -1
    total = sum((-1) ** (t & odd).bit_count() << (odd & ~t).bit_count()
                for t in class_face_masks(cfg) if not even & ~t)
    return (-1) ** (cfg.n - cfg.k - 1) * total


@dataclass(frozen=True)
class SplittingLedger:
    """Per-subset contributions backing a homology computation.

    `entries` lists every subset with a nonzero contribution, in final degrees
    (already shifted for the complex variety), sorted by size then content.
    """

    entries: tuple[tuple[tuple[int, ...], GradedGroup], ...]
    total: GradedGroup


def splitting_ledger(cfg: Configuration, space: str = "Z", *,
                     cap: int = DEFAULT_SUBSET_CAP) -> SplittingLedger:
    """The full contributing-subsets ledger for one of the three spaces."""
    require_valid(cfg)
    if cfg.n > cap:
        raise SizeCapError(f"n = {cfg.n} exceeds the subset cap {cap}")
    if space not in ("Z", "Zplus", "ZC"):
        raise ConfigurationError(f"unknown space {space!r}; expected Z, Zplus or ZC")
    rows = tuple((J, group.shift(len(J)) if space == "ZC" else group)
                 for J, group in _pair_table(cfg.class_rays, cfg.classes)
                 if not (space == "Zplus" and cfg.distinguished in J))
    return SplittingLedger(rows, GradedGroup.sum(g for _, g in rows))

"""Homology of the varieties via the subset splitting over the quotient polytope.

H(Z) splits as a direct sum over index subsets J of the pair homologies
H(P, P_J); the half manifold drops the summands whose J contains the
distinguished coordinate, and the complex variety shifts each summand by |J|.
Pair homology is computed through the nerve model: P_J is homotopy equivalent
to the full subcomplex of the dual complex on J, which
`complexes.pair_homology` reads off the coordinate faces.

Only unions of ray classes contribute, and each is read off the class complex
K with the wedge shift.  Classes whose facet is empty (ghosts) are no vertex
of K and change no restriction.  On its vertices V, K is the boundary of a
simplicial polytope, a d-sphere, so combinatorial Alexander duality gives the
restriction to S from the one to V - S, in degree d - 1 - i for ranks and
d - 2 - i for torsion.  A restriction K_S is a cone on any vertex of S that
lies in no minimal non-face inside S, so only unions of minimal non-faces
can carry homology (Hochster's formula; Buchstaber-Panov, Toric Topology,
ch. 3).  Only those unions on at most half of V are reduced, each from the
minimal non-faces inside it: the Alexander dual of K_S in the boundary of
the simplex on S is the union of the simplices on S - M, so by the nerve
lemma (Bjorner, Topological methods, 1995) it has the homotopy type of the
nerve {I : the union of I is not S} of those M.  A union of r <= 2 of them
is a sphere in closed form, one of 3 <= r < |S| is read on that nerve, and
any other on K_S.  K_V must have the reduced homology of a d-sphere, read on
the nerve of its r minimal non-faces when 2^r is below the face counts of
K_V and of its Alexander dual, else on the smaller of those two; any other
outcome is an OracleMismatchError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .complexes import GradedGroup, _class_faces, _homology_from_masks, class_face_masks
from .configuration import (
    MEMO_SIZE,
    Configuration,
    ConfigurationError,
    OracleMismatchError,
    SizeCapError,
    _fresh_start,
    _phase_one,
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
    the disjoint simplices S - M1 and S - M2 (the nerve is {empty set} or two
    points).  With 3 <= r < |S|, the nerve N_S of the r sets, at most 2^r
    faces against the 2^|S| subsets scanned for K_S, is reduced instead, by
    Alexander duality in the boundary of the simplex on S: H_i(K_S) has the
    rank of H_{|S|-3-i}(N_S) and the torsion of H_{|S|-4-i}(N_S), all
    reduced.  Otherwise K_S is reduced.  K_V is the boundary of the
    simplicial polytope dual to the (simple) class polytope, a sphere of
    dimension d = m - k - 2 for m classes (ghosts included) in R^k: a valid
    configuration with a nonempty polytope has rank k, since otherwise at
    most k of its vectors would hold the origin (Caratheodory), so the class
    polytope has dimension m - k - 1.  Alexander duality gives every larger
    restriction from its complement: H_i(K_S) has the rank of
    H_{d-1-i}(K_{V-S}) and the torsion of H_{d-2-i}(K_{V-S}), all
    reduced.  The sphere property is checked once.  With B the r minimal
    non-faces of size >= 2, the Alexander dual {V - T : T on V no face} of
    K_V is the union of the simplices on V - M, M in B, so it has the
    homotopy type of the nerve N = {I within B : the union of I is not V}.  K_V
    is a homology d-sphere iff the dual, or N, has just Z in degree
    |V| - d - 3.  N is reduced when its bound 2^r is below both |K_V| and
    the 2^|V| - |K_V| faces of the dual; otherwise the smaller of K_V and
    the dual is.  With B empty (V empty among them), K_V is a simplex or
    {empty set} and is kept, since duality needs a non-face.  Anything but
    a sphere raises OracleMismatchError, naming the side read.
    """
    class_faces, non_faces = _class_faces(rays)
    if not class_faces:
        return ()  # empty polytope: empty variety, no cells
    d = len(classes) - len(rays[0]) - 2
    v_mask = ((1 << len(classes)) - 1) ^ sum(m for m in non_faces if m.bit_count() == 1)
    base = sorted(m for m in non_faces if m.bit_count() > 1)
    # ghosts are in no face, so the class faces are K_V; its dual has the other 2^|V| - |K_V| sets
    dual_count = (1 << v_mask.bit_count()) - len(class_faces)
    if base and 1 << len(base) < min(len(class_faces), dual_count):
        side, degree, name = _nerve(base, v_mask), v_mask.bit_count() - d - 3, f"nerve of {len(base)} non-faces"
    elif base and dual_count < len(class_faces):
        side, degree, name = _alexander_dual(v_mask, base), v_mask.bit_count() - d - 3, "Alexander dual"
    else:
        side, degree, name = class_faces, d, "class faces"
    group = _homology_from_masks(side)
    if group != GradedGroup.single(degree):
        raise OracleMismatchError(f"the class complex on its vertices is not a {d}-sphere: reduced homology "
                                  f"{group} read on the {name} ({len(side)} faces), not Z in degree {degree}")

    half = v_mask.bit_count() // 2
    base = [m for m in base if m.bit_count() <= half]
    unions, frontier = {0, *base}, set(base)
    while frontier:
        frontier = {u | m for u in frontier for m in base
                    if (u | m).bit_count() <= half and u | m not in unions}
        unions |= frontier
    small: dict[int, GradedGroup] = {}
    for s in unions:
        inside = [m for m in base if m & ~s == 0]
        if len(inside) <= 2:  # a sphere: see the docstring
            small[s] = GradedGroup.single(s.bit_count() - 1 - len(inside))
        elif len(inside) < s.bit_count():
            small[s] = _nerve_restriction(s, inside)
        else:  # K_S on the positions of S, keeping the engine's tables as small as S
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


def _nerve(sets: Sequence[int], full: int) -> list[int]:
    """The nerve {I : the union of the sets in I is not full}, as sorted masks, bit j for sets[j].

    Each union extends the one without its top set, so one pass lists all 2^len(sets).
    """
    unions = [0]
    for m in sets:
        unions += [u | m for u in unions]
    return [i for i, u in enumerate(unions) if u != full]


def _nerve_restriction(s: int, inside: Sequence[int]) -> GradedGroup:
    """Reduced homology of K_S from the nerve of the minimal non-faces inside S, their union.

    The Alexander dual of K_S in the boundary of the simplex on S is covered by
    the simplices on S - M, so it has the homotopy type of the nerve, and
    H_i(K_S) has the rank of H_{n-3-i} and the torsion of H_{n-4-i} of it, n = |S|.
    """
    n, group = s.bit_count(), _homology_from_masks(_nerve(inside, s))
    return GradedGroup.from_parts({n - 3 - i: group.rank(i) for i in group.degrees},
                                  {n - 4 - i: group.torsion(i) for i in group.degrees})


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


def _require_cap(n: int, cap: int = DEFAULT_SUBSET_CAP) -> None:
    """SizeCapError unless a ledger over n coordinates is within the subset cap."""
    if n > cap:
        raise SizeCapError(f"n = {n} exceeds the subset cap {cap}")


def splitting_ledger(cfg: Configuration, space: str = "Z", *,
                     cap: int = DEFAULT_SUBSET_CAP) -> SplittingLedger:
    """The full contributing-subsets ledger for one of the three spaces.

    Over the subset cap, one phase one on all the class rays decides whether
    the polytope is empty; an empty variety has the empty ledger, which costs
    nothing, and any other input is refused before a face is listed.
    """
    require_valid(cfg)
    if space not in ("Z", "Zplus", "ZC"):
        raise ConfigurationError(f"unknown space {space!r}; expected Z, Zplus or ZC")
    rays = cfg.class_rays
    if cfg.n > cap and _phase_one(*_fresh_start(rays)(range(len(rays))))[0] is None:
        return SplittingLedger((), GradedGroup.zero())
    _require_cap(cfg.n, cap)
    rows = tuple((J, group.shift(len(J)) if space == "ZC" else group)
                 for J, group in _pair_table(rays, cfg.classes)
                 if not (space == "Zplus" and cfg.distinguished in J))
    return SplittingLedger(rows, GradedGroup.sum(g for _, g in rows))

"""Homology of the varieties via the subset splitting over the quotient polytope.

H(Z) splits as a direct sum over index subsets J of the pair homologies
H(P, P_J); the half manifold drops the summands whose J contains the
distinguished coordinate, and the complex variety shifts each summand by |J|.
Pair homology is computed through the nerve model: P_J is homotopy equivalent
to the full subcomplex of the dual complex on J.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .complexes import GradedGroup, _homology_from_masks, _mask, class_face_masks, dual_face_masks
from .configuration import (
    Configuration,
    ConfigurationError,
    SizeCapError,
    coordinate_classes,
    require_valid,
)

DEFAULT_SUBSET_CAP = 20


@lru_cache(maxsize=None)
def _pair_table(cfg: Configuration) -> tuple[tuple[tuple[int, ...], GradedGroup], ...]:
    """Nonzero pair homologies H(P, P_J) in Z-degrees, sorted by size then content of J.

    Only unions J of ray classes can contribute: if J splits a class, the
    restricted dual complex is a cone on any included copy whose twin was left
    out, hence acyclic.  For J the union of a class set T, the restriction is
    the simplicial wedge of the class complex on T, which suspends it once per
    extra copy: H(P, P_J) is the reduced homology of the class complex on T
    shifted by 1 + sum over c in T of (|c| - 1).
    """
    class_faces = class_face_masks(cfg)
    if not class_faces:
        return ()  # empty polytope: empty variety, no cells
    classes = coordinate_classes(cfg)
    entries = []
    for t in range(1 << len(classes)):
        chosen = [members for c, members in enumerate(classes) if t >> c & 1]
        sub = [f for f in class_faces if f & ~t == 0]
        group = _homology_from_masks(sub).shift(1 + sum(len(members) - 1 for members in chosen))
        if not group.is_zero:
            entries.append((tuple(sorted(itertools.chain(*chosen))), group))
    return tuple(sorted(entries, key=lambda entry: (len(entry[0]), entry[0])))


def pair_homology(cfg: Configuration, J: Iterable[int]) -> GradedGroup:
    """H(P, P_J): the reduced homology of the dual complex on J, shifted up by one.

    An empty restriction gives Z in degree 0, matching the homology of the
    contractible polytope itself.
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


def homology_Zplus(cfg: Configuration, *, distinguished: int | None = None,
                   cap: int = DEFAULT_SUBSET_CAP) -> GradedGroup:
    """Integral homology of the half manifold: only subsets avoiding the marked coordinate."""
    return splitting_ledger(cfg, "Zplus", distinguished=distinguished, cap=cap).total


def homology_ZC(cfg: Configuration, *, cap: int = DEFAULT_SUBSET_CAP) -> GradedGroup:
    """Integral homology of the complex variety: pair homologies shifted by |J|."""
    return splitting_ledger(cfg, "ZC", cap=cap).total


def euler_cellcount(cfg: Configuration) -> int:
    """Euler characteristic of the real variety from its reflected cell decomposition.

    Each nonempty face with |L| pinned facets has dimension n-k-1-|L| and
    2^(n-|L|) reflected copies.
    """
    require_valid(cfg)
    n, k = cfg.n, cfg.k
    total = 0
    for f in dual_face_masks(cfg):
        size = f.bit_count()
        total += (-1) ** (n - k - 1 - size) * (1 << (n - size))
    return total


@dataclass(frozen=True)
class SplittingLedger:
    """Per-subset contributions backing a homology computation.

    `entries` lists every subset with a nonzero contribution, in final degrees
    (already shifted for the complex variety), sorted by size then content.
    """

    space: str
    entries: tuple[tuple[tuple[int, ...], GradedGroup], ...]
    total: GradedGroup

    def contributions(self, degree: int) -> tuple[tuple[int, ...], ...]:
        return tuple(J for J, g in self.entries if g.rank(degree) or g.torsion(degree))


def splitting_ledger(cfg: Configuration, space: str = "Z", *,
                     distinguished: int | None = None,
                     cap: int = DEFAULT_SUBSET_CAP) -> SplittingLedger:
    """The full contributing-subsets ledger for one of the three spaces."""
    require_valid(cfg)
    if cfg.n > cap:
        raise SizeCapError(
            f"n = {cfg.n} exceeds the subset cap {cap}; raise the cap explicitly to proceed"
        )
    if space not in ("Z", "Zplus", "ZC"):
        raise ConfigurationError(f"unknown space {space!r}; expected Z, Zplus or ZC")
    dist = cfg.distinguished if distinguished is None else distinguished
    if not 1 <= dist <= cfg.n:
        raise ConfigurationError(f"distinguished coordinate {dist} out of range")
    rows = tuple((J, group.shift(len(J)) if space == "ZC" else group)
                 for J, group in _pair_table(cfg) if not (space == "Zplus" and dist in J))
    return SplittingLedger(space, rows, GradedGroup.sum(g for _, g in rows))

"""Odd cyclic normal forms for k = 2 and the closed-form diffeomorphism types.

For k = 2 every weakly hyperbolic configuration with nonempty polytope is, up
to the relevant combinatorics, the vertex set of a regular odd polygon with
multiplicities.  The class multiplicities in cyclic order classify the real
and complex varieties as a triple sphere product or a connected sum of sphere
products, with hypothesis flags where the real statement needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from typing import Sequence

from .complexes import GradedGroup, _class_faces
from .configuration import (
    MEMO_SIZE,
    Configuration,
    ConfigurationError,
    NormalFormError,
    OracleMismatchError,
    require_valid,
)


@dataclass(frozen=True)
class CyclicPartition:
    """An odd tuple of positive multiplicities, canonical up to rotation and reflection."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", canonical_cycle(_odd_parts(self.parts)))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def ell(self) -> int:
        return (len(self.parts) - 1) // 2

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _odd_parts(partition: CyclicPartition | Sequence[int]) -> tuple[int, ...]:
    """The parts of a partition; ConfigurationError unless an odd number (>= 3) of positive ones."""
    parts = partition.parts if isinstance(partition, CyclicPartition) else tuple(int(p) for p in partition)
    if len(parts) < 3 or len(parts) % 2 == 0 or any(p < 1 for p in parts):
        raise ConfigurationError(f"not an odd cyclic partition: {parts}")
    return parts


def _canonical_order(parts: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
    """Least rotation or reflection of the parts, with the source index of each position.

    Among equal representatives the first found wins, rotations before the
    reflection, so the order is deterministic.
    """
    m = len(parts)
    best = None
    for idx in (list(range(m)), list(range(m))[::-1]):
        for r in range(m):
            order = idx[r:] + idx[:r]
            cand = tuple(parts[i] for i in order)
            if best is None or cand < best[0]:
                best = (cand, order)
    return best


def canonical_cycle(parts: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least representative over rotations and the reflection."""
    return _canonical_order(tuple(parts))[0]


def rotate_parts(parts: Sequence[int], class_index: int) -> tuple[int, ...]:
    """Rotate so the given class (1-based) comes first; cyclic order is kept."""
    parts = tuple(parts)
    if not 1 <= class_index <= len(parts):
        raise ConfigurationError(f"class index {class_index} out of range 1..{len(parts)}")
    r = class_index - 1
    return parts[r:] + parts[:r]


def double_partition(parts: Sequence[int]) -> tuple[int, ...]:
    """The partition of 2n-1 whose half manifold models the complex page."""
    parts = _odd_parts(parts)
    return (2 * parts[0] - 1,) + tuple(2 * p for p in parts[1:])


def d_values(partition: CyclicPartition | Sequence[int]) -> tuple[int, ...]:
    """Sums of ell cyclically consecutive multiplicities, one per starting class."""
    parts = _odd_parts(partition)
    m = len(parts)
    ell = (m - 1) // 2
    return tuple(sum(parts[(i + t) % m] for t in range(ell)) for i in range(m))


# ---------------------------------------------------------------------------
# angular combinatorics


def _half(d: tuple[int, int]) -> int:
    x, y = d
    return 0 if y > 0 or (y == 0 and x > 0) else 1


def _cross(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _ray_cmp(u: tuple[int, int], v: tuple[int, int]) -> int:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = _cross(u, v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def normal_form_labelled(cfg: Configuration) -> tuple[CyclicPartition, tuple[tuple[int, ...], ...]]:
    """Normal form plus the coordinate classes aligned with the canonical parts.

    Classes are split wherever the counterclockwise walk between consecutive
    directions crosses an antipodal direction of some configuration vector.
    The result is cross-checked against the minimal non-faces of the input's
    own class complex; a mismatch raises rather than silently misclassifying.
    """
    if cfg.k != 2:
        raise NormalFormError(f"cyclic normal forms require k = 2, got k = {cfg.k}")
    require_valid(cfg)
    return _normal_form(cfg.class_rays, cfg.classes)


@lru_cache(maxsize=MEMO_SIZE)
def _normal_form(rays, classes) -> tuple[CyclicPartition, tuple[tuple[int, ...], ...]]:
    """The angular sweep and self-check of a valid k = 2 configuration, once per class signature.

    Keyed on the class rays and classes, so labels, scale and the
    distinguished coordinate drop out.  The sweep groups class indices; the
    canonical groups are mapped to their sorted coordinates once.  A raise is
    not kept, so a configuration without a normal form sweeps again.
    """
    antipodes = {(-x, -y) for (x, y) in rays}
    if antipodes & set(rays):
        raise OracleMismatchError("antipodal pair survived validation")
    events = sorted([(r, c) for c, r in enumerate(rays)] + [(a, None) for a in antipodes],
                    key=cmp_to_key(lambda a, b: _ray_cmp(a[0], b[0])))
    first_anti = next(pos for pos, (_, c) in enumerate(events) if c is None)
    groups: list[list[int]] = []
    fresh = True
    for _, c in events[first_anti:] + events[:first_anti]:
        if c is None:
            fresh = True
        elif fresh:
            groups.append([c])
            fresh = False
        else:
            groups[-1].append(c)
    if len(groups) < 3:
        raise NormalFormError(
            "fewer than three direction classes: the variety is empty and has no "
            "odd cyclic normal form"
        )
    if len(groups) % 2 == 0:
        raise OracleMismatchError("even class count contradicts weak hyperbolicity")
    found_parts = tuple(sum(len(classes[c]) for c in group) for group in groups)
    _self_check(rays, found_parts, [sum(1 << c for c in group) for group in groups])
    # canonicalise, keeping the classes aligned with the chosen representative
    parts, order = _canonical_order(found_parts)
    coordinates = tuple(tuple(sorted(x for c in groups[src] for x in classes[c])) for src in order)
    return CyclicPartition(parts), coordinates


def _self_check(rays, parts: tuple[int, ...], class_masks: Sequence[int]) -> None:
    """Raise unless the odd polygon with these parts has the class complex of rays.

    Group p, the classes of mask p, becomes part p of the polygon.  A complex
    is fixed by its minimal non-faces.  The rays of a set of parts hold the
    origin in their hull iff no cyclic gap between them reaches ell + 1
    steps.  A set of parts is a face iff the parts outside it hold the
    origin, so it is a non-face iff it contains ell cyclically consecutive
    parts, and the polygon's minimal non-faces are its m runs of ell
    consecutive parts.  Pulled back to their classes, these runs must be
    exactly the minimal non-faces of the class complex of rays.
    """
    m, ell = len(parts), (len(parts) - 1) // 2
    runs = {sum(class_masks[(p + t) % m] for t in range(ell)) for p in range(m)}
    if runs != set(_class_faces(rays)[1]):
        raise OracleMismatchError(
            f"normal form self-check failed: dual complex of {parts} realisation "
            "does not match the configuration"
        )


def normal_form(cfg: Configuration) -> CyclicPartition:
    """The odd cyclic normal form of a k = 2 configuration."""
    return normal_form_labelled(cfg)[0]


@lru_cache(maxsize=MEMO_SIZE)
def _polygon_vertices(m: int) -> tuple[tuple[int, int], ...]:
    """Integer direction approximants of a regular odd m-gon, exactly verified.

    The float seed only picks candidate integer vectors; the cyclic order and
    the interleaving of antipodes (one antipode strictly between each pair of
    consecutive vertices) are then established in exact arithmetic, which pins
    the whole face combinatorics to that of the exact polygon.
    """
    scale = 10 ** 6
    verts = []
    for j in range(m):
        angle = 2 * math.pi * j / m
        verts.append((round(scale * math.cos(angle)), round(scale * math.sin(angle))))
    ell = (m - 1) // 2
    for j in range(m):
        u, v = verts[j], verts[(j + 1) % m]
        if _cross(u, v) <= 0:
            raise OracleMismatchError(f"polygon approximant for m={m} lost cyclic order")
        # -v_j must land strictly between v_{j+ell} and v_{j+ell+1}
        anti = (-verts[j][0], -verts[j][1])
        a, b = verts[(j + ell) % m], verts[(j + ell + 1) % m]
        if not (_cross(a, anti) > 0 and _cross(anti, b) > 0 and _cross(a, b) > 0):
            raise OracleMismatchError(f"polygon approximant for m={m} lost antipode interleaving")
    return tuple(verts)


# the largest total n a partition may ask for: a few digits of a part denote
# any n, and the configuration holds one vector per coordinate
MAX_PARTITION_N = 10 ** 6


def partition_configuration(partition: CyclicPartition | Sequence[int], *,
                            distinguished: int = 1) -> Configuration:
    """The polygon configuration realising a partition: class i with multiplicity n_i.

    Coordinates are grouped class by class in cyclic order, so coordinate 1
    lies in class 1.  A total n above MAX_PARTITION_N is refused before any
    vector is built.
    """
    parts = _odd_parts(partition)
    if sum(parts) > MAX_PARTITION_N:
        raise ConfigurationError(f"partition total n = {sum(parts)} exceeds the bound {MAX_PARTITION_N}")
    verts = _polygon_vertices(len(parts))
    vectors = []
    for mult, vert in zip(parts, verts):
        vectors.extend([vert] * mult)
    return Configuration(2, tuple(vectors), (), distinguished)


# ---------------------------------------------------------------------------
# symbolic manifold descriptions


@dataclass(frozen=True)
class SphereProduct:
    """A product of spheres S^{d_1} x ... x S^{d_r}."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 0 for d in dims):
            raise ConfigurationError(f"negative sphere dimension in {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return sum(self.dims)

    def ranks(self) -> dict[int, int]:
        acc = {0: 1}
        for d in self.dims:
            # S^0 is two points: rank two in degree zero
            sphere = {0: 2} if d == 0 else {0: 1, d: 1}
            nxt: dict[int, int] = {}
            for deg, r in acc.items():
                for sd, sr in sphere.items():
                    nxt[deg + sd] = nxt.get(deg + sd, 0) + r * sr
            acc = nxt
        return acc

    def render(self) -> str:
        return " x ".join(f"S^{d}" for d in self.dims)


@dataclass(frozen=True)
class ManifoldDescription:
    """Symbolic closed-manifold type: one sphere product or a connected sum of them.

    `flags` records the hypotheses the formula was read under.
    """

    summands: tuple[SphereProduct, ...]
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.summands:
            raise ConfigurationError("empty description")
        dims = {s.dim for s in self.summands}
        if len(dims) > 1:
            raise ConfigurationError(f"summands of mixed dimension: {sorted(dims)}")

    @property
    def kind(self) -> str:
        return "sphere-product" if len(self.summands) == 1 else "connected-sum"

    @property
    def dim(self) -> int:
        return self.summands[0].dim

    def render(self) -> str:
        if len(self.summands) == 1:
            return self.summands[0].render()
        if len(set(self.summands)) == 1:
            return f"#_{len(self.summands)}({self.summands[0].render()})"
        return " # ".join(f"({s.render()})" for s in self.summands)

    def annotation(self) -> str | None:
        # a connected sum of g tori is the orientable genus-g surface
        if (len(self.summands) > 1 and self.dim == 2
                and all(s.dims == (1, 1) for s in self.summands)):
            return f"genus {len(self.summands)} surface"
        if len(self.summands) == 1 and all(d == 0 for d in self.summands[0].dims):
            return f"{2 ** len(self.summands[0].dims)} points"
        return None


def _dimension_flags(actual: int, required: int) -> list[str]:
    """The flags of a real statement stated for dimension at least `required`."""
    if actual >= required:
        return [f"dim {actual} >= {required}"]
    return [f"dim {actual} < {required}", "outside-stated-hypotheses"]


def classify_real(partition: CyclicPartition) -> ManifoldDescription:
    """Diffeomorphism type of the real variety.

    For one window the product formula is unconditional.  For more windows the
    connected-sum formula carries the stated hypotheses; the flags record what
    was checked (homological proxies) and what is assumed (simple connectivity).
    """
    parts = partition.parts
    n = partition.n
    if partition.ell == 1:
        return ManifoldDescription((SphereProduct((parts[0] - 1, parts[1] - 1, parts[2] - 1)),))
    summands = tuple(SphereProduct((d - 1, n - d - 2)) for d in d_values(partition))
    factor_dims = [dim for s in summands for dim in s.dims]
    flags = ["h1!=0" if 1 in factor_dims else "h1=0"] + _dimension_flags(n - 3, 5)
    if min(factor_dims) < 2:
        flags.append("pi1-unverified: diffeomorphism type assumes simple connectivity")
    return ManifoldDescription(summands, tuple(flags))


def classify_complex(partition: CyclicPartition) -> ManifoldDescription:
    """Diffeomorphism type of the complex variety; unconditional in every case.

    Z^C is the real variety of the doubled configuration, whose partition
    doubles every part, so the real formula applies without its hypotheses.
    """
    real = classify_real(CyclicPartition(tuple(2 * p for p in partition.parts)))
    return ManifoldDescription(real.summands, ("complex-case: unconditional",))


def expected_homology(description: ManifoldDescription) -> GradedGroup:
    """Integral homology of a symbolic closed type.

    Sphere products by rank convolution; connected sums by summing reduced
    homology strictly between the bottom and top degrees.  Pieces with
    boundary are not accepted here; those belong to the page calculus.
    """
    if not isinstance(description, ManifoldDescription):
        raise ConfigurationError(
            "expected_homology takes a closed ManifoldDescription; page pieces "
            "with boundary have their own homology rules"
        )
    if len(description.summands) == 1:
        return GradedGroup.from_parts(description.summands[0].ranks())
    dim = description.dim
    ranks = {0: 1, dim: 1}
    for summand in description.summands:
        full = summand.ranks()
        if full.get(0) != 1:
            raise ConfigurationError(
                f"connected-sum summand {summand.render()} is not connected"
            )
        for deg, r in full.items():
            if 0 < deg < dim:
                ranks[deg] = ranks.get(deg, 0) + r
    return GradedGroup.from_parts(ranks)

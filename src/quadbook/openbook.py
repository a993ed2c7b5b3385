"""Open book structures and the symbolic topology of their pages.

The real variety of a configuration with a duplicated coordinate fibers as an
open book with trivial monodromy: the binding is the variety with the
duplicated vector removed twice, the page is the half manifold of the variety
with it removed once.  The complex variety does the same at any coordinate.
For k = 2 the page is described case by case (a-d, selected by the window
count and the multiplicity of the distinguished class), with exact summand
dimensions, and the exterior of a standard sphere-product embedding appears
as a symbolic summand with known free homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .classify import (
    CyclicPartition,
    ManifoldDescription,
    SphereProduct,
    _dimension_flags,
    _odd_parts,
    d_values,
    double_partition,
    expected_homology,
    normal_form_labelled,
    rotate_parts,
)
from .complexes import GradedGroup
from .configuration import (
    Configuration,
    ConfigurationError,
    NormalFormError,
    OpenBookError,
    complexify,
    delete_coordinate,
    require_valid,
)
from .splitting import euler_cellcount, homology_Z, homology_Zplus


# ---------------------------------------------------------------------------
# page pieces


@dataclass(frozen=True)
class ProductPiece:
    """A product of spheres and one disk, factors in render order: (("S", p), ("D", q)) is S^p x D^q."""

    factors: tuple[tuple[str, int], ...]

    @property
    def dim(self) -> int:
        return sum(d for _, d in self.factors)

    def reduced_ranks(self) -> dict[int, int]:
        full = SphereProduct(tuple(d for kind, d in self.factors if kind == "S")).ranks()
        full[0] -= 1
        return {d: r for d, r in full.items() if r}

    def boundary(self) -> SphereProduct | None:
        """D^q becomes S^(q-1) in place; None for a closed piece (q = 0)."""
        (q,) = [d for kind, d in self.factors if kind == "D"]
        if q < 1:
            return None
        return SphereProduct(tuple(d - (kind == "D") for kind, d in self.factors))

    def render(self) -> str:
        return " x ".join(f"{kind}({d})" for kind, d in self.factors)


@dataclass(frozen=True)
class PuncturedProduct:
    """S^p x S^q with an open top disk removed."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ConfigurationError("punctured product needs positive sphere dimensions")

    @property
    def dim(self) -> int:
        return self.p + self.q

    def reduced_ranks(self) -> dict[int, int]:
        ranks = {self.p: 1}
        ranks[self.q] = ranks.get(self.q, 0) + 1
        return ranks

    def boundary(self) -> SphereProduct:
        return SphereProduct((self.dim - 1,))

    def render(self) -> str:
        return f"PP({self.p},{self.q};{self.dim})"


@dataclass(frozen=True)
class ExteriorSpace:
    """The exterior of the standard S^p x S^q inside S^m, m > p + q.

    Its boundary is S^p x S^q x S^(m-p-q-1) and its homology is free, generated
    in degrees 0, m-p-q-1, m-q-1 and m-p-1 by the classes the boundary loses in
    the tubular neighbourhood.
    """

    p: int
    q: int
    m: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ConfigurationError("negative sphere dimension")
        if self.m <= self.p + self.q:
            raise ConfigurationError(
                f"exterior needs m > p + q, got m = {self.m}, p + q = {self.p + self.q}"
            )

    @property
    def dim(self) -> int:
        return self.m

    @property
    def lemma_applies(self) -> bool:
        """Whether the simple-connectivity regime of the recognition lemma holds."""
        return self.p >= 2 and self.q >= 2 and self.m - self.p - self.q - 1 >= 2

    def reduced_ranks(self) -> dict[int, int]:
        ranks: dict[int, int] = {}
        for d in (self.m - self.p - self.q - 1, self.m - self.q - 1, self.m - self.p - 1):
            ranks[d] = ranks.get(d, 0) + 1
        return ranks

    def boundary(self) -> SphereProduct:
        return SphereProduct((self.p, self.q, self.m - self.p - self.q - 1))

    def render(self) -> str:
        return f"E({self.p},{self.q};{self.m})"


PagePiece = ProductPiece | PuncturedProduct | ExteriorSpace


def exterior_homology(p: int, q: int, m: int) -> GradedGroup:
    """Free homology of the exterior E^m_{p,q}: degrees 0, m-p-q-1, m-q-1, m-p-1."""
    return GradedGroup.single(0) + GradedGroup.from_parts(ExteriorSpace(p, q, m).reduced_ranks())


# ---------------------------------------------------------------------------
# page descriptions (cases a-d)


@dataclass(frozen=True)
class PageDescription:
    """Symbolic page: a product (case a) or a boundary connected sum (cases b-d)."""

    case: str
    pieces: tuple[PagePiece, ...]
    dim: int
    partition: tuple[int, ...]
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for piece in self.pieces:
            if piece.dim != self.dim:
                raise ConfigurationError(
                    f"piece {piece.render()} has dimension {piece.dim}, page has {self.dim}"
                )

    def render(self) -> str:
        if self.case == "a":
            return self.pieces[0].render()
        return " #b ".join(piece.render() for piece in self.pieces)


def page_topology(partition: CyclicPartition | Iterable[int], class_index: int = 1, *,
                  complex_case: bool = False) -> PageDescription:
    """The page over the given distinguished class, with exact summand dimensions.

    Case selection: (a) one window; (b) more windows, distinguished multiplicity
    above one; (c) multiplicity one with at least three windows; (d)
    multiplicity one with exactly two windows.  The complex page is the real
    page of the doubled partition, without the real case's hypotheses.
    """
    parts = rotate_parts(_odd_parts(partition), class_index)
    m = len(parts)
    real = double_partition(parts) if complex_case else parts
    ell = (m - 1) // 2
    n = sum(real)
    ds = d_values(real)

    def nn(i: int) -> int:
        return real[(i - 1) % m]

    def dd(i: int) -> int:
        return ds[(i - 1) % m]

    def product(i: int, first: str, second: str) -> ProductPiece:
        return ProductPiece(((first, dd(i) - 1), (second, n - dd(i) - 2)))

    pieces: list[PagePiece] = []
    if ell == 1:
        case = "a"
        pieces.append(ProductPiece((("S", nn(2) - 1), ("S", nn(3) - 1), ("D", nn(1) - 1))))
    elif real[0] > 1:
        case = "b"
        pieces += [product(i, "S", "D") for i in range(2, ell + 3)]
        pieces += [product(i, "D", "S") for i in [*range(ell + 3, m + 1), 1]]
    elif ell > 2:
        case = "c"
        pieces += [product(i, "S", "D") for i in range(3, ell + 2)]
        pieces += [product(i, "D", "S") for i in [*range(ell + 3, m + 1), 1]]
        pieces.append(PuncturedProduct(dd(2) - 1, dd(ell + 2) - 1))
    else:
        case = "d"
        pieces.append(PuncturedProduct(dd(2) - 1, dd(4) - 1))
        pieces.append(ExteriorSpace(nn(2) - 1, nn(5) - 1, n - 3))

    flags: list[str] = []
    if not complex_case and ell > 1:
        flags.append("pi1: assumes the variety and its boundary slice simply connected")
        flags += _dimension_flags(n - 3, 6)
    for piece in pieces:
        if isinstance(piece, ExteriorSpace) and not piece.lemma_applies:
            flags.append(
                f"exterior {piece.render()} outside the recognition lemma regime "
                "(needs p, q, m-p-q-1 >= 2)"
            )
    return PageDescription(case, tuple(pieces), n - 3, parts, tuple(flags))


def page_homology(page: PageDescription) -> GradedGroup:
    """Homology of the page: Z in degree 0 plus each piece's reduced homology.

    A boundary connected sum is a wedge up to homotopy, so the reduced groups
    simply add; the single product piece of case a gives the same rule.
    """
    pieces = [GradedGroup.from_parts(piece.reduced_ranks()) for piece in page.pieces]
    return GradedGroup.sum([GradedGroup.single(0)] + pieces)


# ---------------------------------------------------------------------------
# open book structures


@dataclass(frozen=True)
class OpenBookStructure:
    """Binding, page and (trivial) monodromy of an open book on the total variety.

    `page_model` is the configuration whose half manifold is the page: for a
    real book the variety with the duplicated coordinate removed once, for a
    complex book the input with every coordinate but the binding's doubled,
    None without a symbolic page.  A binding of None means the binding is
    empty.
    """

    total: Configuration
    binding: Configuration | None
    page: PageDescription | None
    page_model: Configuration | None
    page_label: str
    monodromy: str = "trivial"

    @property
    def total_dim(self) -> int:
        # the complex book stores the doubled coordinate model as its total
        return self.total.dim_Z

    @property
    def binding_dim(self) -> int:
        return self.total_dim - 2

    @property
    def page_dim(self) -> int:
        return self.total_dim - 1


def _deleted_or_empty(cfg: Configuration, i: int) -> Configuration | None:
    """Delete coordinate i; None when the result is an empty variety.

    That happens when n - 1 <= k: the remaining vectors are at most k, and a
    weakly hyperbolic configuration has no such set with the origin in its hull.
    """
    return delete_coordinate(cfg, i) if cfg.n - 1 >= cfg.k + 1 else None


def _partition_page(cfg: Configuration, coordinate: int,
                    complex_case: bool) -> PageDescription | None:
    """The symbolic page at a coordinate through the k = 2 normal form, or None."""
    if cfg.k != 2:
        return None
    try:
        partition, classes = normal_form_labelled(cfg)
    except NormalFormError:
        return None
    class_index = next(c + 1 for c, members in enumerate(classes) if coordinate in members)
    return page_topology(partition, class_index, complex_case=complex_case)


def open_book_real(cfg: Configuration, i: int) -> OpenBookStructure:
    """Open book on the real variety of a configuration with coordinate i duplicated.

    A twin is any other coordinate on the same ray, a positive multiple of
    lambda_i included, since scaling a vector leaves the variety unchanged.
    The binding removes the duplicated vector twice, the page is the half
    manifold of the variety with it removed once, and the monodromy is trivial.
    """
    require_valid(cfg)
    if not 1 <= i <= cfg.n:
        raise ConfigurationError(f"coordinate {i} out of range 1..{cfg.n}")
    ray_class = next(members for members in cfg.classes if i in members)
    twins = [j for j in ray_class if j != i]
    if not twins:
        raise OpenBookError(f"coordinate {i} is not part of a duplicated pair; duplicate it first")
    partner = next((j for j in (i - 1, i + 1) if j in twins), twins[0])
    underlying = delete_coordinate(cfg, i)
    partner_pos = partner if partner < i else partner - 1
    underlying = underlying.with_distinguished(partner_pos)
    binding = _deleted_or_empty(underlying, partner_pos)
    page = _partition_page(underlying, partner_pos, complex_case=False)
    label = f"interior of the half manifold at {underlying.labels[partner_pos - 1]} >= 0"
    return OpenBookStructure(cfg, binding, page, underlying, label)


def open_book_complex(cfg: Configuration, i: int) -> OpenBookStructure:
    """Open book on the complex variety with binding at coordinate i.

    The binding is the complex variety of the configuration without lambda_i,
    which is weakly hyperbolic because every subset of it is one of the input.
    """
    require_valid(cfg)
    if not 1 <= i <= cfg.n:
        raise ConfigurationError(f"coordinate {i} out of range 1..{cfg.n}")
    deleted = _deleted_or_empty(cfg, i)
    total = complexify(cfg)
    binding = complexify(deleted) if deleted is not None else None
    page = _partition_page(cfg, i, complex_case=True)
    # the page is the half manifold at i of the input with every other coordinate doubled
    model = delete_coordinate(total, 2 * i).with_distinguished(2 * i - 1) if page is not None else None
    label = f"interior of the complex half manifold at {cfg.labels[i - 1]}"
    return OpenBookStructure(total, binding, page, model, label)


# ---------------------------------------------------------------------------
# consistency checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


def _page_boundary(page: PageDescription) -> ManifoldDescription | str | None:
    """The boundary of a described page as a closed type.

    Returns "empty" for a closed page, None when the boundary has a
    disconnected piece (an S^0 factor) and the connected-sum rule does not
    apply.
    """
    boundaries = []
    for piece in page.pieces:
        b = piece.boundary()
        if b is None:
            return "empty" if len(page.pieces) == 1 else None
        boundaries.append(b)
    if any(0 in b.dims for b in boundaries):
        return None
    return ManifoldDescription(tuple(boundaries))


def boundary_consistency(structure: OpenBookStructure) -> tuple[CheckResult, ...]:
    """Cross-checks between binding, page and their Euler characteristics.

    Mismatches are reported as findings, never raised.
    """
    results: list[CheckResult] = []

    def check(name: str, ok: bool | None, detail: str) -> None:
        """Record one check; ok is None for a skip."""
        results.append(CheckResult(name, "skip" if ok is None else "pass" if ok else "fail", detail))

    binding, page, model = structure.binding, structure.page, structure.page_model
    binding_group = homology_Z(binding) if binding is not None else GradedGroup.zero()
    binding_euler = euler_cellcount(binding) if binding is not None else 0
    if structure.binding_dim % 2 == 1:
        check("binding-euler-zero", binding_euler == 0, f"odd-dimensional binding has chi = {binding_euler}")
    else:
        check("binding-euler-zero", None, "binding dimension is even")

    if model is None:  # both constructors set a model whenever they set a page
        check("page-double-euler", None, "no page model")
        check("page-boundary-betti", None, "no symbolic page")
        return tuple(results)

    # without a symbolic description, the half manifold of the model IS the page
    page_euler = (page_homology(page) if page is not None else homology_Zplus(model)).euler()
    if structure.page_dim % 2 == 0:
        double_euler = euler_cellcount(model)
        check("page-double-euler", double_euler == 2 * page_euler,
              f"chi(double) = {double_euler}, 2 chi(page) = {2 * page_euler}")
    else:
        check("page-double-euler", None, "page dimension is odd")

    if page is None:
        check("page-boundary-betti", None, "no symbolic page")
        return tuple(results)
    boundary = _page_boundary(page)
    if boundary == "empty":
        check("page-boundary-betti", binding_group.is_zero, "closed page requires an empty binding")
    elif boundary is None:
        check("page-boundary-betti", None,
              "boundary has a disconnected factor; connected-sum rule not applicable")
    else:
        check("page-boundary-betti", expected_homology(boundary) == binding_group,
              f"boundary {boundary.render()} vs binding homology")
    return tuple(results)

import collections
import random
from fractions import Fraction

import pytest

import quadbook as qb
from quadbook import CyclicPartition, GradedGroup
from quadbook.reporting import load_document

import helpers
from test_golden import _explicit_inputs


PENTAGON = qb.partition_configuration((1, 1, 1, 1, 1))
TRIANGLE = qb.partition_configuration((1, 1, 1))


# ---------------------------------------------------------------------------
# exterior spaces


def test_exterior_homology_golden():
    assert helpers.betti(qb.exterior_homology(1, 1, 6), 6) == (1, 0, 0, 1, 2, 0, 0)
    assert qb.exterior_homology(1, 1, 6).torsion_free


def test_exterior_degenerate_regime():
    group = qb.exterior_homology(0, 0, 5)
    assert helpers.betti(group, 5) == (1, 0, 0, 0, 3, 0)
    assert not qb.ExteriorSpace(0, 0, 5).lemma_applies
    assert qb.ExteriorSpace(2, 2, 9).lemma_applies


def test_exterior_requires_codimension():
    with pytest.raises(qb.ConfigurationError):
        qb.exterior_homology(2, 3, 5)


def test_exterior_boundary_euler():
    # boundary is a sphere product; chi vanishes whenever a factor is odd
    space = qb.ExteriorSpace(1, 1, 6)
    boundary = space.boundary()
    assert boundary.dims == (1, 1, 3)
    table = helpers.kunneth_sphere_ranks(boundary.dims)
    assert sum((-1) ** d * r for d, r in table.items()) == 0


def test_page_piece_refusals():
    assert (qb.PuncturedProduct(2, 3).dim, qb.PuncturedProduct(2, 3).render()) == (5, "PP(2,3;5)")
    with pytest.raises(qb.ConfigurationError, match="positive sphere dimensions"):
        qb.PuncturedProduct(0, 3)
    with pytest.raises(qb.ConfigurationError, match="negative sphere dimension"):
        qb.ExteriorSpace(-1, 2, 9)
    with pytest.raises(qb.ConfigurationError, match="has dimension 5, page has 6"):
        qb.PageDescription("c", (qb.PuncturedProduct(2, 3),), 6, (1, 1, 1, 1, 1, 1, 1))


# ---------------------------------------------------------------------------
# page topology


def test_product_piece_ranks_and_boundary():
    closed = qb.ProductPiece((("S", 0), ("S", 0), ("D", 0)))
    assert (closed.dim, closed.render()) == (0, "S(0) x S(0) x D(0)")
    assert closed.reduced_ranks() == {0: 3}  # four points
    assert closed.boundary() is None
    sphere_disk = qb.ProductPiece((("S", 3), ("D", 5)))
    assert (sphere_disk.dim, sphere_disk.reduced_ranks()) == (8, {3: 1})
    assert sphere_disk.boundary() == qb.SphereProduct((3, 4))
    disk_sphere = qb.ProductPiece((("D", 4), ("S", 4)))
    assert disk_sphere.render() == "D(4) x S(4)"
    assert disk_sphere.boundary() == qb.SphereProduct((3, 4))  # the disk's factor stays first


def test_page_case_selection_is_total_and_exclusive():
    for parts in helpers.partitions_up_to(8):
        for class_index in range(1, len(parts) + 1):
            rotated = qb.rotate_parts(parts, class_index)
            ell = (len(parts) - 1) // 2
            page = qb.page_topology(parts, class_index)
            if ell == 1:
                assert page.case == "a"
                assert len(page.pieces) == 1
            elif rotated[0] > 1:
                assert page.case == "b"
                assert len(page.pieces) == 2 * ell + 1
            elif ell > 2:
                assert page.case == "c"
                assert len(page.pieces) == 2 * ell
            else:
                assert page.case == "d"
                assert len(page.pieces) == 2


def test_page_pentagon_real_case_d():
    page = qb.page_topology((1, 1, 1, 1, 1), 1)
    assert page.case == "d"
    assert page.render() == "PP(1,1;2) #b E(0,0;2)"
    assert any("outside-stated-hypotheses" in f for f in page.flags)
    # the golden value: a torus minus four disks
    assert helpers.betti(qb.page_homology(page), 2) == (1, 5, 0)


def test_page_pentagon_complex_case_d():
    page = qb.page_topology((1, 1, 1, 1, 1), 1, complex_case=True)
    assert page.case == "d"
    assert page.render() == "PP(3,3;6) #b E(1,1;6)"
    # complex pages carry no simple-connectivity hypotheses, only the
    # informational note that this exterior sits outside the lemma regime
    assert not any("pi1" in f or "dim" in f for f in page.flags)
    assert any("lemma" in f for f in page.flags)
    assert helpers.betti(qb.page_homology(page), 6) == (1, 0, 0, 3, 2, 0, 0)


def test_page_222_complex_case_a():
    page = qb.page_topology((2, 2, 2), 1, complex_case=True)
    assert page.case == "a"
    assert page.render() == "S(3) x S(3) x D(2)"
    assert helpers.betti(qb.page_homology(page), 6) == (1, 0, 0, 2, 0, 0, 1)


def test_page_21111_real_case_b():
    page = qb.page_topology((2, 1, 1, 1, 1), 1)
    assert page.case == "b"
    assert helpers.betti(qb.page_homology(page), 3) == (1, 5, 0, 0)
    engine = qb.homology_Zplus(qb.partition_configuration((2, 1, 1, 1, 1)))
    assert qb.page_homology(page) == engine


def test_page_12222_real_case_d():
    page = qb.page_topology((1, 2, 2, 2, 2), 1)
    assert page.case == "d"
    assert page.render() == "PP(3,3;6) #b E(1,1;6)"
    got = qb.page_homology(page)
    assert helpers.betti(got, 6) == (1, 0, 0, 3, 2, 0, 0)
    assert got == qb.homology_Zplus(qb.partition_configuration((1, 2, 2, 2, 2)))


def test_complex_page_equals_real_page_of_doubled_partition():
    for parts in helpers.partitions_up_to(6):
        for class_index in range(1, len(parts) + 1):
            rotated = qb.rotate_parts(parts, class_index)
            complex_page = qb.page_topology(parts, class_index, complex_case=True)
            doubled_page = qb.page_topology(qb.double_partition(rotated), 1)
            assert complex_page.case == doubled_page.case
            assert complex_page.pieces == doubled_page.pieces


def test_page_oracle_small():
    for parts in helpers.partitions_up_to(6):
        cfg = qb.partition_configuration(parts)
        for class_index in range(1, len(parts) + 1):
            rotated = qb.rotate_parts(parts, class_index)
            marker = sum(parts[:class_index - 1]) + 1
            real = qb.page_homology(qb.page_topology(rotated, 1))
            assert real == qb.homology_Zplus(cfg.with_distinguished(marker)), (parts, class_index)


# ---------------------------------------------------------------------------
# open book structures


def test_open_book_real_pentagon():
    doubled = qb.duplicate_coordinate(PENTAGON, 1)
    book = qb.open_book_real(doubled, doubled.distinguished)
    assert book.monodromy == "trivial"
    assert book.total_dim == 3
    assert book.binding is not None
    assert book.binding.n == 4
    assert qb.normal_form(book.binding) == CyclicPartition((1, 2, 1))
    assert helpers.betti(qb.homology_Z(book.binding), 1) == (4, 4)
    assert book.page.case == "d"
    assert helpers.betti(qb.page_homology(book.page), 2) == (1, 5, 0)
    assert book.binding_dim == book.total_dim - 2
    assert book.page_dim == book.total_dim - 1


def test_open_book_real_triangle():
    doubled = qb.duplicate_coordinate(TRIANGLE, 1)
    book = qb.open_book_real(doubled, doubled.distinguished)
    assert book.binding is None  # boundary slice is empty
    assert qb.page_homology(book.page) == GradedGroup.from_parts({0: 4})


def test_open_book_real_takes_a_positive_multiple_twin():
    exact = qb.open_book_real(qb.duplicate_coordinate(PENTAGON, 1), 2)
    vectors = list(PENTAGON.lambdas)
    vectors.insert(1, tuple(3 * x for x in PENTAGON.vector(1)))
    scaled = qb.open_book_real(qb.make_configuration(vectors), 2)
    assert scaled.binding.lambdas == exact.binding.lambdas
    assert scaled.page == exact.page
    assert qb.boundary_consistency(scaled) == qb.boundary_consistency(exact)


def test_open_book_real_strict_mode():
    with pytest.raises(qb.OpenBookError):
        qb.open_book_real(PENTAGON, 1)


def test_open_book_coordinate_out_of_range_is_refused():
    doubled = qb.duplicate_coordinate(PENTAGON, 1)
    for coordinate in (0, doubled.n + 1):
        with pytest.raises(qb.ConfigurationError, match="out of range"):
            qb.open_book_real(doubled, coordinate)
    for coordinate in (0, PENTAGON.n + 1):
        with pytest.raises(qb.ConfigurationError, match="out of range"):
            qb.open_book_complex(PENTAGON, coordinate)


def test_open_book_cap_falls_on_the_binding_ledger():
    from quadbook.reporting import open_book_report

    # the complex book's doubled binding has 2(n - 1) coordinates, the real book's binding n - 2
    for parts, variant, n in (((4, 4, 3), "complex", 20), ((10, 6, 6), "real", 20)):
        report = open_book_report(qb.partition_configuration(parts), 1, variant=variant)
        assert report["binding"]["n"] == n
        assert all(check["status"] != "fail" for check in report["consistency"]), parts
    for parts, variant, n in (((4, 4, 4), "complex", 22), ((10, 7, 6), "real", 21)):
        with pytest.raises(qb.SizeCapError, match=rf"^n = {n} exceeds the subset cap 20$"):
            open_book_report(qb.partition_configuration(parts), 1, variant=variant)


def test_open_book_refuses_before_building_a_model(monkeypatch):
    import quadbook.openbook

    def no_model(*args):
        raise AssertionError("a model was built before the cap check")

    monkeypatch.setattr(quadbook.openbook, "complexify", no_model)
    with pytest.raises(qb.SizeCapError, match="n = 40 exceeds"):
        qb.open_book_complex(qb.partition_configuration((1,) * 21), 1)
    monkeypatch.setattr(quadbook.openbook, "delete_coordinate", no_model)
    with pytest.raises(qb.SizeCapError, match="n = 21 exceeds"):
        qb.open_book_real(qb.partition_configuration((10, 7, 6)), 1)
    # with no symbolic page (k != 2) the checks read the page model's ledger, n - 1,
    # also where the binding is empty (the simplex of k = 20 with a twin, n = k + 2)
    k3 = qb.duplicate_coordinate(helpers.random_valid_configuration(random.Random(3), 3, 21), 1)
    simplex = [tuple(int(r == c) for c in range(20)) for r in range(20)] + [(-1,) * 20]
    k20 = qb.duplicate_coordinate(qb.make_configuration(simplex), 1)
    for cfg in (k3, k20):
        with pytest.raises(qb.SizeCapError, match=r"^n = 21 exceeds the subset cap 20$"):
            qb.open_book_real(cfg, cfg.distinguished)


def test_the_complex_book_builds_three_configurations(monkeypatch):
    # the input doubled, the page model and the binding deleted from it
    built = []
    post_init = qb.Configuration.__post_init__
    monkeypatch.setattr(qb.Configuration, "__post_init__", lambda self: built.append(post_init(self)))
    qb.open_book_complex(PENTAGON, 1)
    assert len(built) == 3


def test_the_binding_is_distinguished_at_its_first_coordinate():
    cfg = qb.partition_configuration((1, 1, 1, 2, 2)).with_distinguished(3)
    doubled = qb.duplicate_coordinate(cfg, 4)
    for i in (1, 4, 7):
        binding = qb.open_book_complex(cfg, i).binding
        assert binding.lambdas == qb.complexify(qb.delete_coordinate(cfg, i)).lambdas
        assert binding.distinguished == 1
    assert doubled.distinguished == 5
    assert qb.open_book_real(doubled, 4).binding.distinguished == 1


def test_open_book_complex_triangle():
    book = qb.open_book_complex(TRIANGLE, 1)
    assert book.binding is None
    assert book.page.case == "a"
    assert book.page.render() == "S(1) x S(1) x D(0)"
    assert helpers.betti(qb.page_homology(book.page), 2) == (1, 2, 1)
    checks = {c.name: c.status for c in qb.boundary_consistency(book)}
    assert checks["page-boundary-betti"] == "pass"


def test_open_book_complex_pentagon():
    book = qb.open_book_complex(PENTAGON, 1)
    assert book.total_dim == 7
    assert book.binding is not None
    assert book.binding.n == 8  # complexified four-vector configuration
    assert book.page.case == "d"
    results = qb.boundary_consistency(book)
    assert all(c.status == "pass" for c in results), results


def test_open_book_complex_222():
    cfg = qb.partition_configuration((2, 2, 2))
    book = qb.open_book_complex(cfg, 1)
    assert book.page.case == "a"
    assert book.page.render() == "S(3) x S(3) x D(2)"
    results = qb.boundary_consistency(book)
    assert all(c.status == "pass" for c in results), results


def test_boundary_consistency_pentagon_real():
    doubled = qb.duplicate_coordinate(PENTAGON, 1)
    book = qb.open_book_real(doubled, doubled.distinguished)
    by_name = {c.name: c for c in qb.boundary_consistency(book)}
    assert by_name["binding-euler-zero"].status == "pass"
    # chi of the double equals twice the page's chi: -8 = 2 * (-4)
    assert by_name["page-double-euler"].status == "pass"
    assert "2 chi(page) = -8" in by_name["page-double-euler"].detail
    # the degenerate exterior boundary is disconnected, so the Betti
    # comparison is reported as skipped rather than guessed
    assert by_name["page-boundary-betti"].status == "skip"


def test_real_book_checks_read_the_page_euler_off_the_model_for_k_3_and_4():
    # no symbolic page for k >= 3: the page's Euler characteristic is that of the model's half manifold
    rng = random.Random(37)
    parities = set()
    for k in (3, 4):
        for n in range(k + 1, k + 5):
            cfg = qb.duplicate_coordinate(helpers.random_valid_configuration(rng, k, n), 1)
            book = qb.open_book_real(cfg, cfg.distinguished)
            assert book.page is None and book.page_model is not None
            checks = {c.name: c for c in qb.boundary_consistency(book)}
            if book.page_dim % 2:
                assert checks["page-double-euler"].detail == "page dimension is odd"
                assert checks["page-double-euler"].status == checks["binding-euler-zero"].status == "skip"
            else:  # the binding dimension is odd
                assert checks["page-double-euler"].status == "pass", checks
                assert checks["binding-euler-zero"].status == "pass", checks
            parities.add(book.page_dim % 2)
    assert parities == {0, 1}
    # a symbolic page of odd dimension skips the Euler check too
    book = qb.open_book_real(qb.partition_configuration((3, 1, 1)), 1)
    assert book.page is not None and book.page_dim == 1
    checks = {c.name: c for c in qb.boundary_consistency(book)}
    assert checks["page-double-euler"] == qb.CheckResult("page-double-euler", "skip", "page dimension is odd")


def test_every_book_on_small_partitions_passes_its_checks():
    # the complex book at every coordinate, and the real book of the input with that coordinate doubled
    passed = {"complex": collections.Counter(), "real": collections.Counter()}
    for parts in helpers.partitions_up_to(8):
        cfg = qb.partition_configuration(parts)
        for i in range(1, cfg.n + 1):
            doubled = qb.duplicate_coordinate(cfg, i)
            for variant, book in (("complex", qb.open_book_complex(cfg, i)),
                                  ("real", qb.open_book_real(doubled, doubled.distinguished))):
                checks = {c.name: c.status for c in qb.boundary_consistency(book)}
                assert "fail" not in checks.values(), (parts, i, variant, checks)
                if checks["page-boundary-betti"] == "pass":
                    passed[variant][book.page.case] += 1
    # every case's page boundary meets its binding in both variants; the real
    # books of cases a and d skip the rest for an S^0 factor in the boundary
    assert passed == {"complex": {"a": 378, "b": 259, "c": 49, "d": 175},
                      "real": {"a": 102, "b": 259, "c": 49, "d": 25}}


def test_open_book_page_model_matches_page():
    # the model configuration's half manifold is the page, complex case
    book = qb.open_book_complex(PENTAGON, 1)
    assert book.page_model is not None
    assert qb.normal_form(book.page_model) == CyclicPartition((1, 2, 2, 2, 2))
    assert qb.homology_Zplus(book.page_model) == qb.page_homology(book.page)


def _assert_complex_page_model(cfg, i):
    """The model is the input with every coordinate but i doubled, with the page's Euler count."""
    book = qb.open_book_complex(cfg, i)
    model = book.page_model
    assert model.n == 2 * cfg.n - 1
    assert model.lambdas == tuple(vec for j, vec in enumerate(cfg.lambdas, start=1)
                                  for _ in range(1 if j == i else 2))
    assert model.distinguished == 2 * i - 1
    polygon = qb.partition_configuration(qb.double_partition(book.page.partition))
    assert helpers.reference_euler_cellcount(model) == helpers.reference_euler_cellcount(polygon)


def test_complex_page_model_on_partitions():
    for parts in helpers.partitions_up_to(7):
        cfg = qb.partition_configuration(parts)
        for i in range(1, cfg.n + 1):
            _assert_complex_page_model(cfg, i)


def test_complex_page_model_on_repeated_and_scaled_rays():
    rng = random.Random(31)
    merged = 0
    for _ in range(40):
        vectors = list(helpers.random_valid_configuration(rng, 2, rng.randint(3, 6)).lambdas)
        for _ in range(rng.randint(1, 2)):
            scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            vectors.append(tuple(scale * x for x in rng.choice(vectors)))
        rng.shuffle(vectors)
        cfg = qb.make_configuration(vectors, k=2)
        _, classes = qb.normal_form_labelled(cfg)
        # a part of the normal form may hold several ray classes of the input
        merged += len(classes) < len(cfg.classes)
        for i in range(1, cfg.n + 1):
            _assert_complex_page_model(cfg, i)
    assert merged


@pytest.mark.parametrize("name", ["k3-n7", "k4-n7"])
def test_complex_page_model_is_none_without_a_symbolic_page(name):
    cfg = load_document(_explicit_inputs()[name])
    book = qb.open_book_complex(cfg, 1)
    assert book.page is None
    assert book.page_model is None


def test_open_book_dimension_invariants():
    for parts in ((1, 1, 1), (2, 2, 2), (1, 1, 1, 1, 1), (2, 1, 1, 1, 1)):
        cfg = qb.partition_configuration(parts)
        book = qb.open_book_complex(cfg, 1)
        assert book.total_dim == cfg.dim_ZC
        assert book.page.dim == book.page_dim
        if book.binding is not None:
            assert book.binding.dim_Z == book.binding_dim

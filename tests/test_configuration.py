import random

import pytest
from hypothesis import given, settings, strategies as st

import quadbook as qb
from quadbook import ConfigurationError
from quadbook.configuration import as_rational

import helpers


TRIANGLE = qb.partition_configuration((1, 1, 1))
PENTAGON = qb.partition_configuration((1, 1, 1, 1, 1))


def test_rational_parsing():
    assert as_rational("3/5") == as_rational(3) / 5
    assert as_rational("-7") == -7
    assert as_rational("0.25") == as_rational("1/4")
    with pytest.raises(ConfigurationError):
        as_rational(0.25)
    with pytest.raises(ConfigurationError):
        as_rational("1/0")


def test_construction_guards():
    with pytest.raises(ConfigurationError):
        qb.make_configuration([(1, 0), (0, 1)], k=2)  # n < k + 1
    with pytest.raises(ConfigurationError):
        qb.make_configuration([(1, 0), (0, 1), (1,)], k=2)  # ragged
    with pytest.raises(ConfigurationError):
        qb.make_configuration([(1, 0), (0, 1), (1, 1)], k=2, distinguished=7)
    cfg = qb.make_configuration([(1, 0), (0, 1), (1, 1)], k=2)
    assert cfg.labels == ("x1", "x2", "x3")
    assert cfg.dim_Z == 0 and cfg.dim_ZC == 3


def test_validate_antipodal_witness():
    cfg = qb.make_configuration([(1, 0), (-1, 0), (0, 1)], k=2)
    report = qb.validate(cfg)
    assert not report.ok
    assert report.witness == (1, 2)


def test_validate_lexicographic_witness():
    cfg = qb.make_configuration([(1, 0), (2, 0), (-1, 0)], k=2)
    report = qb.validate(cfg)
    # both {1,3} and {2,3} violate; lexicographic order picks {1,3}
    assert report.witness == (1, 3)


def test_validate_triangle_and_pentagon_against_brute_force():
    import itertools
    for cfg in (TRIANGLE, PENTAGON):
        assert qb.validate(cfg).ok
        for size in range(1, cfg.k + 1):
            for J in itertools.combinations(range(1, cfg.n + 1), size):
                assert not helpers.brute_origin_in_hull([cfg.vector(i) for i in J])


def test_delete_coordinate_binding_partition():
    binding = qb.delete_coordinate(PENTAGON, 1)
    assert binding.n == 4
    assert qb.normal_form(binding) == qb.CyclicPartition((1, 2, 1))


def test_delete_coordinate_guards():
    with pytest.raises(ConfigurationError):
        qb.delete_coordinate(TRIANGLE, 2)  # n - 1 < k + 1
    with pytest.raises(ConfigurationError):
        qb.delete_coordinate(PENTAGON, 9)


def test_delete_then_duplicate_inverse():
    doubled = qb.duplicate_coordinate(PENTAGON, 1)
    assert doubled.n == 6
    assert doubled.distinguished == 2
    back = qb.delete_coordinate(doubled, 2)
    assert back.lambdas == PENTAGON.lambdas


def test_duplicate_labels_and_normal_form():
    doubled = qb.duplicate_coordinate(TRIANGLE, 1)
    assert doubled.labels[:2] == ("x1a", "x1b")
    assert qb.normal_form(doubled) == qb.CyclicPartition((2, 1, 1))
    assert qb.validate(doubled).ok


def test_duplicate_twice_commutes():
    once = qb.duplicate_coordinate(PENTAGON, 2)
    twice_a = qb.duplicate_coordinate(once, 2)
    twice_b = qb.duplicate_coordinate(once, 3)
    assert twice_a.lambdas == twice_b.lambdas


def test_duplicate_preserves_validity_random():
    rng = random.Random(7)
    for _ in range(25):
        cfg = helpers.random_valid_configuration(rng, rng.choice((2, 3)), rng.randint(4, 6),
                                                 require_nonempty=False)
        i = rng.randint(1, cfg.n)
        assert qb.validate(qb.duplicate_coordinate(cfg, i)).ok


def test_complexify_counts_and_distinguished():
    doubled = qb.complexify(PENTAGON)
    assert doubled.n == 10
    assert doubled.lambdas[0] == doubled.lambdas[1]
    assert doubled.distinguished == 1
    again = qb.complexify(doubled)
    assert again.n == 20
    for vec in set(PENTAGON.lambdas):
        assert sum(1 for w in again.lambdas if w == vec) == 4


def test_complexify_triangle_is_triple_torus():
    doubled = qb.complexify(TRIANGLE)
    assert qb.normal_form(doubled) == qb.CyclicPartition((2, 2, 2))
    assert helpers.betti(qb.homology_Z(doubled), 3) == (1, 3, 3, 1)


@given(st.permutations(list(range(5))))
@settings(max_examples=20, deadline=None)
def test_validate_invariant_under_permutation(perm):
    vecs = [PENTAGON.vector(i + 1) for i in perm]
    cfg = qb.make_configuration(vecs, k=2)
    assert qb.validate(cfg).ok


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_validate_invariant_under_linear_maps(a, b, c, d):
    if a * d - b * c == 0:
        return
    vecs = [(a * x + b * y, c * x + d * y) for x, y in PENTAGON.lambdas]
    cfg = qb.make_configuration(vecs, k=2)
    assert qb.validate(cfg).ok
    bad = qb.make_configuration([(1, 0), (-1, 0), (0, 1)], k=2)
    vecs = [(a * x + b * y, c * x + d * y) for x, y in bad.lambdas]
    assert not qb.validate(qb.make_configuration(vecs, k=2)).ok


def test_coordinate_classes():
    doubled = qb.complexify(TRIANGLE)
    classes = doubled.classes
    assert classes == ((1, 2), (3, 4), (5, 6))
    # a positive multiple shares the ray of its vector; the antipode does not
    cfg = qb.make_configuration([(1, 0), (-1, 1), ("5/2", 0), (2, -2), (-1, -1), (-3, "3/2")])
    assert cfg.classes == ((1, 3), (2,), (4,), (5,), (6,))
    assert cfg.rays[5] == (-2, 1)


def _count_predicate_calls(monkeypatch, module, limit=None, name="hull_support"):
    """Route the predicate `module.<name>` through a counter; returns the count list."""
    original = getattr(module, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        assert limit is None or calls[0] <= limit, f"more than {limit} predicate calls"
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_valid_input_tests_only_its_top_size_class_subsets(monkeypatch):
    import quadbook.feasibility

    cfg = qb.partition_configuration((2000, 1, 1))
    qb.configuration._first_failure.cache_clear()  # the triangle's rays, shared with other tests
    calls = _count_predicate_calls(monkeypatch, quadbook.feasibility, limit=3)
    assert qb.validate(cfg).ok
    # three classes, k = 2: the three pairs; a singleton holding the origin would fail a pair
    assert calls[0] == 3


def test_validate_witness_is_built_in_linear_time(monkeypatch):
    import quadbook.feasibility

    # the witness starts late: every tuple of two early coordinates holds up
    N = 2000
    cfg = qb.make_configuration([(1, 0)] * N + [(0, 1)] * N + [(0, -1)])
    qb.configuration._first_failure.cache_clear()
    calls = _count_predicate_calls(monkeypatch, quadbook.feasibility, limit=6)
    assert qb.validate(cfg).witness == (N + 1, 2 * N + 1)
    # the class walk and the mapping back test each of the six class subsets at most once
    assert calls[0] <= 6


def test_validate_walk_is_shared_by_equal_geometry(monkeypatch):
    import quadbook.feasibility

    # a linear image of the pentagon that no other test builds, and an invalid extension
    good = qb.make_configuration([(5 * x - 2 * y, 3 * x + 4 * y) for x, y in PENTAGON.lambdas])
    bad = qb.make_configuration(list(good.lambdas) + [[-x for x in good.vector(3)]])
    reports = {cfg: qb.validate(cfg) for cfg in (good, bad)}
    assert reports[good].ok and reports[bad].witness == (3, 6)
    calls = _count_predicate_calls(monkeypatch, quadbook.feasibility)
    for cfg, report in reports.items():
        labels = tuple(f"y{i}" for i in range(1, cfg.n + 1))
        relabelled = qb.Configuration(cfg.k, cfg.lambdas, labels)
        rescaled = qb.make_configuration([[3 * x for x in vec] for vec in cfg.lambdas])
        for other in (cfg.with_distinguished(2), relabelled, rescaled):
            assert qb.validate(other) == report
        doubled = qb.validate(qb.complexify(cfg))
        assert doubled.ok == report.ok
        assert doubled.witness == (None if report.ok else tuple(2 * i - 1 for i in report.witness))
    assert calls[0] == 0


def test_class_complex_search_is_shared_by_equal_geometry(monkeypatch):
    import quadbook.complexes

    # a linear image of the pentagon that no other test builds
    cfg = qb.make_configuration([(7 * x + 3 * y, 2 * x + 5 * y) for x, y in PENTAGON.lambdas])
    relabelled = qb.Configuration(cfg.k, cfg.lambdas, tuple(f"y{i}" for i in range(1, 6)))
    rescaled = qb.make_configuration([[3 * x for x in vec] for vec in cfg.lambdas])
    copies = (qb.complexify(cfg), cfg.with_distinguished(2), relabelled, rescaled)
    for other in (cfg,) + copies:
        assert qb.validate(other).ok
    calls = _count_predicate_calls(monkeypatch, quadbook.complexes, name="_phase_one")
    first = quadbook.complexes.class_face_masks(cfg)
    searched = calls[0]
    assert searched > 0
    for other in copies:
        assert quadbook.complexes.class_face_masks(other) == first
    assert calls[0] == searched


def test_equal_rationals_give_equal_configurations():
    from fractions import Fraction

    configs = [qb.Configuration(2, ((half, 0), (0, 1), (-1, -1))) for half in ("1/2", "2/4", Fraction(1, 2))]
    assert configs[0] == configs[1] == configs[2]
    assert len({hash(cfg) for cfg in configs}) == 1
    assert configs[0].rays == ((1, 0), (0, 1), (-1, -1))
    # a positive multiple lies on the same ray but is another configuration
    scaled = qb.Configuration(2, ((1, 0), (0, 1), (-1, -1)))
    assert scaled.rays == configs[0].rays and scaled != configs[0]


def test_labels_and_distinguished_separate_configurations():
    relabelled = qb.Configuration(PENTAGON.k, PENTAGON.lambdas, tuple("abcde"))
    marked = PENTAGON.with_distinguished(2)
    assert relabelled.rays == marked.rays == PENTAGON.rays
    assert len({PENTAGON, relabelled, marked, relabelled.with_distinguished(2)}) == 4
    assert relabelled != PENTAGON and marked != PENTAGON


def test_derived_configurations_equal_fresh_ones():
    base = qb.make_configuration([(1, 0), ("2/3", "4/3"), (-1, 1), (-3, -3), (0, "-1/2")],
                                 labels="pqrst", distinguished=3)
    derived = [qb.complexify(base), base.with_distinguished(5)]
    derived += [qb.delete_coordinate(base, i) for i in range(1, 6)]
    derived += [qb.duplicate_coordinate(base, i) for i in range(1, 6)]
    for cfg in derived:
        # built from scratch: every rational read again from its string
        fresh = qb.Configuration(cfg.k, tuple(tuple(str(x) for x in vec) for vec in cfg.lambdas),
                                 cfg.labels, cfg.distinguished)
        assert cfg == fresh and hash(cfg) == hash(fresh), cfg
        assert cfg.rays == fresh.rays


def test_scaled_and_relabelled_copies_hit_the_ray_keyed_memos():
    from quadbook import complexes, configuration, splitting

    memos = (configuration._first_failure, complexes._dual_faces, splitting._pair_table)
    # a linear image of (2, 1, 2) that no other test builds
    cfg = qb.make_configuration([(4 * x - y, x + 6 * y)
                                 for x, y in qb.partition_configuration((2, 1, 2)).lambdas])
    copies = (qb.Configuration(cfg.k, cfg.lambdas, tuple(f"z{i}" for i in range(1, cfg.n + 1))),
              qb.make_configuration([[5 * x for x in vec] for vec in cfg.lambdas], distinguished=2))

    def run(c):
        return (qb.validate(c), (c.class_rays, c.classes), complexes.dual_face_masks(c),
                qb.homology_Z(c))

    first = run(cfg)
    before = [memo.cache_info() for memo in memos]
    for other in copies:
        assert run(other) == first
    after = [memo.cache_info() for memo in memos]
    assert [info.misses for info in after] == [info.misses for info in before]
    assert all(a.hits > b.hits for a, b in zip(after, before))


def test_every_package_memo_is_bounded():
    """Walks the package's modules the way the benchmark finds the caches it clears."""
    import sys

    import quadbook.cli  # noqa: F401  (imports every module of the package)

    memos = {}
    for name, module in list(sys.modules.items()):
        if name == "quadbook" or name.startswith("quadbook."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    memos[value.__wrapped__.__qualname__] = value
    assert {"_first_failure", "_class_faces", "_pair_table", "_dual_faces", "_parse_input"} <= set(memos)
    assert [name for name, memo in memos.items() if memo.cache_parameters()["maxsize"] is None] == []


def _planted_configuration(rng, k):
    """Random vectors plus planted positive multiples, antipodes and a zero vector."""
    vectors = helpers.random_vectors(rng, k, rng.randint(2, 4))
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("multiple", "multiple", "antipode", "zero"))
        if kind == "zero":
            vec = (0,) * k
        else:
            scale = rng.randint(1, 3) * (1 if kind == "multiple" else -1)
            vec = tuple(scale * x for x in rng.choice(vectors))
        vectors.insert(rng.randint(0, len(vectors)), vec)
    while len(vectors) < k + 1:
        vectors.append(tuple(2 * x for x in rng.choice(vectors)))
    return qb.make_configuration(vectors, k=k)


def test_validate_witness_is_least_with_repeated_rays():
    import itertools

    rng = random.Random(11)
    mapped = 0
    for _ in range(120):
        cfg = _planted_configuration(rng, rng.choice((2, 3, 4)))
        tuples = itertools.chain.from_iterable(
            itertools.combinations(range(1, cfg.n + 1), size) for size in range(1, cfg.k + 1))
        least = min((J for J in tuples
                     if helpers.brute_origin_in_hull([cfg.vector(i) for i in J])), default=None)
        assert qb.validate(cfg).witness == least
        mapped += least is not None and len(cfg.classes) < cfg.n
    # most draws repeat a ray and fail, so the witness is mapped back from classes
    assert mapped >= 60


def _engine_walk(monkeypatch, rays):
    """The engine's class witness for these rays, uncached, and the phase ones it ran."""
    import quadbook.feasibility

    calls = _count_predicate_calls(monkeypatch, quadbook.feasibility)
    witness = qb.configuration._first_failure.__wrapped__(rays)
    monkeypatch.undo()
    return witness, calls[0]


def test_validate_walk_matches_the_full_reference_walk(monkeypatch):
    from math import comb

    rng = random.Random(29)
    seen = {"valid": 0, "top size": 0, "smaller": 0}
    for _ in range(120):
        cfg = _planted_configuration(rng, rng.choice((2, 3, 4)))
        rays = cfg.class_rays
        least, tested = helpers.reference_first_failure(rays, cfg.k)
        witness, calls = _engine_walk(monkeypatch, rays)
        assert witness == least, cfg
        assert calls <= tested + 1, cfg
        top = min(len(rays), cfg.k)
        if least is None:
            seen["valid"] += 1
            assert calls == comb(len(rays), top), cfg  # the top-size sets alone
        else:
            seen["top size" if len(least) == top else "smaller"] += 1
    # every branch of the walk is reached
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("vectors, witness, calls", [
    # k = 3: the top-size walk stops at (1, 2, 3), and the pair before it is the witness
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 2), 3),
    # k = 4: a zero vector holds the origin alone, but (1, 2) comes before (2,)
    ([(1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], (1, 2), 3),
    # two classes at k = 3, so the top size is m = 2: one phase one decides
    ([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 3, 0)], None, 1),
    # its class witness (1, 2) maps to coordinates (1, 2, 3), which come before (1, 3)
    ([(1, 0, 0), (2, 0, 0), (-1, 0, 0), (-3, 0, 0)], (1, 2, 3), 2),
], ids=["k3-pair", "k4-zero", "two-classes-valid", "two-classes-antipodal"])
def test_validate_walk_on_explicit_cases(monkeypatch, vectors, witness, calls):
    cfg = qb.make_configuration(vectors)
    least, tested = helpers.reference_first_failure(cfg.class_rays, cfg.k)
    assert _engine_walk(monkeypatch, cfg.class_rays) == (least, calls)
    assert calls <= tested + 1
    assert qb.validate(cfg).witness == witness


@pytest.mark.parametrize("m, k", [(0, 2), (4, 0), (5, 1), (5, 3), (6, 6), (3, 5)])
def test_lex_subsets_is_the_tuple_order_of_the_small_subsets(m, k):
    import itertools

    from quadbook.configuration import _lex_subsets

    # the witness pass stops at the first top-size failure by tuple comparison
    expected = sorted(itertools.chain.from_iterable(
        itertools.combinations(range(m), size) for size in range(1, k + 1)))
    assert list(_lex_subsets(m, k)) == expected


def test_construction_refusals_name_their_cause():
    with pytest.raises(ConfigurationError, match=r"not an exact rational: 1\.5"):
        as_rational(1.5)  # floats never reach a predicate
    with pytest.raises(ConfigurationError, match="k must be a positive integer, got 0"):
        qb.Configuration(0, ((1,), (2,)))
    with pytest.raises(ConfigurationError, match="1 labels for 3 coordinates"):
        qb.Configuration(2, ((1, 0), (0, 1), (-1, -1)), ("a",))
    with pytest.raises(ConfigurationError, match="empty configuration"):
        qb.make_configuration([])
    with pytest.raises(ConfigurationError, match=r"coordinate 0 out of range 1\.\.5"):
        PENTAGON.vector(0)
    with pytest.raises(ConfigurationError, match=r"coordinate 0 out of range 1\.\.5"):
        qb.duplicate_coordinate(PENTAGON, 0)

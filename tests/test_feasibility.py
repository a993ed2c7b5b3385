import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import quadbook as qb
from quadbook.complexes import dual_face_masks
from quadbook.feasibility import _fresh_start, _phase_one, hull_support

import helpers


PENTAGON = qb.partition_configuration((1, 1, 1, 1, 1))
TRIANGLE = qb.partition_configuration((1, 1, 1))

# the pentagon polytope is itself a pentagon; its vertices sit on the facet
# pairs that are NOT cyclically adjacent in the vector configuration
PENTAGON_VERTEX_PAIRS = {(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)}


def _mask(indices) -> int:
    return sum(1 << (i - 1) for i in indices)


def _face_oracle(cfg, pinned) -> bool:
    """The face pinning these facets is nonempty iff the other vectors span the origin."""
    rest = [cfg.vector(i) for i in range(1, cfg.n + 1) if i not in pinned]
    return helpers.brute_origin_in_hull(rest)


def _rays(vectors) -> tuple[tuple[int, ...], ...]:
    """The primitive rays the constructor makes of rational vectors; copies of the first pad n to k + 1."""
    k = len(vectors[0])
    return qb.Configuration(k, [*vectors, *[vectors[0]] * k]).rays[:len(vectors)]


def test_origin_in_convex_hull_examples():
    assert hull_support([(1, 0)]) is None
    assert hull_support([(1, 0), (-1, 0)]) is not None
    assert hull_support(PENTAGON.rays) is not None
    for pair in itertools.combinations(PENTAGON.rays, 2):
        assert hull_support(pair) is None
        assert not helpers.brute_origin_in_hull(pair)


def test_hull_support_refuses_empty_and_mixed_lengths():
    with pytest.raises(qb.ConfigurationError, match="nonempty"):
        hull_support([])
    with pytest.raises(qb.ConfigurationError, match="mixed lengths"):
        hull_support([(1, 0), (-1, 0, 0)])


def test_origin_in_convex_hull_matches_brute_force():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.choice((2, 3))
        vectors = helpers.random_vectors(rng, k, rng.randint(1, k + 2))
        assert (hull_support(_rays(vectors)) is not None) == helpers.brute_origin_in_hull(vectors)


def _degenerate_vectors(rng, k, scale):
    """A few random vectors plus zero, repeated, multiple, antipodal and collinear ones."""
    base = [tuple(rng.randint(-3, 3) * scale + rng.randint(-1, 1) for _ in range(k))
            for _ in range(rng.randint(1, 3))]
    vectors = list(base)
    for _ in range(rng.randint(1, 4)):
        u, v = rng.choice(base), rng.choice(base)
        kind = rng.choice(("zero", "repeat", "multiple", "antipode", "collinear"))
        if kind == "zero":
            w = (0,) * k
        elif kind == "repeat":
            w = u
        elif kind == "collinear":  # on the line through u and v
            w = tuple(2 * b - a for a, b in zip(u, v))
        else:
            w = tuple((1 if kind == "multiple" else -1) * rng.randint(1, 3) * a for a in u)
        vectors.insert(rng.randint(0, len(vectors)), w)
    return vectors


def test_origin_in_convex_hull_degenerate_inputs():
    rng = random.Random(29)
    found = 0
    for _ in range(240):
        k = rng.choice((2, 3, 4))
        vectors = _degenerate_vectors(rng, k, rng.choice((1, 10 ** 40)))
        expected = helpers.brute_origin_in_hull(vectors)
        found += expected
        # the support is a real witness: its vectors alone hold the origin
        support = hull_support(vectors)
        assert (support is not None) == expected, vectors
        assert support is None or helpers.brute_origin_in_hull([vectors[i] for i in support])
        # positive rational rescaling, given as Fractions and as strings, changes no ray and no answer
        rays = _rays(vectors)
        assert (hull_support(rays) is not None) == expected, vectors
        scaled = [[Fraction(a, d) for a in v] for v, d in
                  zip(vectors, (rng.randint(1, 10 ** 6) for _ in vectors))]
        assert _rays(scaled) == rays
        assert _rays([[str(a) for a in v] for v in scaled]) == rays
    assert hull_support(_rays([(0, 0)])) is not None
    assert hull_support(_rays([("1/3", "-2/7"), ("-5/3", "10/7")])) is not None
    assert hull_support(_rays([("1/3", "-2/7"), ("5/3", "-10/7")])) is None
    assert 40 < found < 200  # both answers are well represented


@st.composite
def _resumed_solves(draw):
    """Small integer rays (zero, repeated, antipodal and collinear ones come up often) and two barred masks."""
    k = draw(st.integers(2, 4))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=7))
    masks = st.integers(0, (1 << len(rays)) - 1)
    return rays, draw(masks), draw(masks)


@given(_resumed_solves())
@settings(max_examples=300, deadline=None)
def test_resumed_phase_one_matches_a_fresh_solve(data):
    rays, first, second = data
    # a kept state: the final tableau, basis and D of a solve with the first mask
    # barred, which may have failed and may hold artificials basic at zero
    tab, basis = _fresh_start(rays)  # on the artificial basis
    _, d = _phase_one(tab, basis, 1, first)
    support, _ = _phase_one(tab[:], basis[:], d, second)
    unbarred = [i for i in range(len(rays)) if not second >> i & 1]
    fresh = hull_support([rays[i] for i in unbarred]) if unbarred else None
    assert (support is None) == (fresh is None)
    if support is not None:
        assert all(not second >> i & 1 for i in support)
        assert helpers.brute_origin_in_hull([rays[i] for i in support])


def test_face_nonempty_empty_subset():
    assert 0 in dual_face_masks(PENTAGON)
    assert 0 in dual_face_masks(TRIANGLE)


def test_pentagon_vertex_pairs():
    masks = set(dual_face_masks(PENTAGON))
    pairs = {pair for pair in itertools.combinations(range(1, 6), 2) if _mask(pair) in masks}
    assert pairs == PENTAGON_VERTEX_PAIRS
    for pair in itertools.combinations(range(1, 6), 2):
        assert _face_oracle(PENTAGON, pair) == (pair in PENTAGON_VERTEX_PAIRS)


def test_triangle_facets_all_empty():
    for i in range(1, 4):
        assert _mask([i]) not in dual_face_masks(TRIANGLE)
        assert not _face_oracle(TRIANGLE, [i])


def test_face_monotonicity():
    rng = random.Random(23)
    for _ in range(40):
        cfg = helpers.random_valid_configuration(rng, 2, rng.randint(4, 6))
        masks = set(dual_face_masks(cfg))
        L = frozenset(rng.sample(range(1, cfg.n + 1), rng.randint(0, cfg.n - 1)))
        if _mask(L) not in masks:
            extra = rng.choice([i for i in range(1, cfg.n + 1) if i not in L])
            assert _mask(L | {extra}) not in masks


def test_defining_system_matches_face_masks():
    rng = random.Random(5)
    for _ in range(30):
        cfg = helpers.random_valid_configuration(rng, rng.choice((2, 3)), rng.randint(4, 7))
        L = frozenset(rng.sample(range(1, cfg.n + 1), rng.randint(0, cfg.n)))
        assert (_mask(L) in dual_face_masks(cfg)) == _face_oracle(cfg, L)
    # higher k, where facet pruning and witness reuse decide most faces: every subset
    for k in (4, 5):
        cfg = helpers.random_valid_configuration(rng, k, 8)
        masks = set(dual_face_masks(cfg))
        for size in range(cfg.n + 1):
            for L in itertools.combinations(range(1, cfg.n + 1), size):
                assert (_mask(L) in masks) == _face_oracle(cfg, L), (cfg, L)
    # positive-multiple copies share a ray class; every subset is checked
    for _ in range(10):
        k = rng.choice((2, 3))
        base = helpers.random_valid_configuration(rng, k, rng.randint(k + 1, 5))
        copies = []
        for _ in range(rng.randint(1, 2)):
            factor = rng.randint(1, 4)
            copies.append(tuple(factor * x for x in base.vector(rng.randint(1, base.n))))
        cfg = qb.make_configuration(list(base.lambdas) + copies, k=k)
        assert len(cfg.classes) < cfg.n
        masks = set(dual_face_masks(cfg))
        for size in range(cfg.n + 1):
            for L in itertools.combinations(range(1, cfg.n + 1), size):
                assert (_mask(L) in masks) == _face_oracle(cfg, L), (cfg, L)

import functools
import itertools
import json
import math
import random

import pytest

import quadbook as qb
from quadbook import GradedGroup
from quadbook.complexes import dual_face_masks

import helpers


PENTAGON = qb.partition_configuration((1, 1, 1, 1, 1))
TRIANGLE = qb.partition_configuration((1, 1, 1))
T222 = qb.partition_configuration((2, 2, 2))


def test_pair_homology_empty_subset():
    assert qb.pair_homology(PENTAGON, []) == GradedGroup.single(0)
    assert qb.pair_homology(TRIANGLE, []) == GradedGroup.single(0)


def test_pair_homology_pentagon_pairs():
    # facets of cyclically adjacent classes are disjoint, so the pair carries
    # homology one degree up; a polytope vertex pair is contractible
    assert qb.pair_homology(PENTAGON, [1, 2]) == GradedGroup.single(1)
    assert qb.pair_homology(PENTAGON, [1, 3]).is_zero


def test_pair_homology_nonclass_subsets_are_trivial():
    doubled = qb.complexify(TRIANGLE)
    # {1} splits the class {1,2}: restriction is a cone, contribution zero
    assert qb.pair_homology(doubled, [1]).is_zero
    assert qb.pair_homology(doubled, [1, 3, 4]).is_zero
    assert qb.pair_homology(doubled, [1, 2]) == GradedGroup.single(1)


def test_homology_Z_goldens():
    assert helpers.betti(qb.homology_Z(PENTAGON), 2) == (1, 10, 1)
    assert qb.homology_Z(TRIANGLE) == GradedGroup.from_parts({0: 8})
    assert helpers.betti(qb.homology_Z(T222), 3) == (1, 3, 3, 1)
    for cfg in (PENTAGON, TRIANGLE, T222):
        assert qb.homology_Z(cfg).torsion_free


def test_homology_Zplus_goldens():
    assert helpers.betti(qb.homology_Zplus(PENTAGON), 2) == (1, 5, 0)
    assert qb.homology_Zplus(TRIANGLE) == GradedGroup.from_parts({0: 4})
    assert helpers.betti(qb.homology_Zplus(T222), 2) == (1, 2, 1)


def test_homology_Zplus_contributing_subsets():
    ledger = qb.splitting_ledger(PENTAGON, "Zplus")
    degree_one = [J for J, g in ledger.entries if g.rank(1) or g.torsion(1)]
    assert set(degree_one) == {(2, 3), (3, 4), (4, 5), (2, 3, 4), (3, 4, 5)}
    assert ledger.total == qb.homology_Zplus(PENTAGON)


def test_homology_ZC_goldens():
    assert helpers.betti(qb.homology_ZC(TRIANGLE), 3) == (1, 3, 3, 1)
    assert helpers.betti(qb.homology_ZC(PENTAGON), 7) == (1, 0, 0, 5, 5, 0, 0, 1)


def test_doubling_oracle_small():
    for parts in ((1, 1, 1), (1, 1, 1, 1, 1), (2, 2, 2), (2, 1, 1, 1, 1)):
        cfg = qb.partition_configuration(parts)
        assert qb.homology_ZC(cfg) == qb.homology_Z(qb.complexify(cfg))


def test_euler_cellcount_examples():
    assert qb.euler_cellcount(PENTAGON) == -8
    assert qb.euler_cellcount(TRIANGLE) == 8
    assert qb.euler_cellcount(T222) == 0


def test_euler_matches_homology_random():
    rng = random.Random(17)
    for _ in range(15):
        cfg = helpers.random_valid_configuration(rng, rng.choice((2, 3)), rng.randint(4, 6))
        assert qb.homology_Z(cfg).euler() == qb.euler_cellcount(cfg)


def test_ledger_totals_and_order():
    ledger = qb.splitting_ledger(PENTAGON, "Z")
    assert ledger.total == qb.homology_Z(PENTAGON)
    degree_one = [J for J, g in ledger.entries if g.rank(1) or g.torsion(1)]
    assert len(degree_one) == 10
    sizes = [len(J) for J, _ in ledger.entries]
    assert sizes == sorted(sizes)
    # degreewise sum of entries equals the total
    for degree in ledger.total.degrees:
        assert sum(g.rank(degree) for _, g in ledger.entries) == ledger.total.rank(degree)


def test_zplus_is_degreewise_subsum():
    rng = random.Random(29)
    for _ in range(10):
        cfg = helpers.random_valid_configuration(rng, 2, rng.randint(4, 7))
        total = qb.homology_Z(cfg)
        half = qb.homology_Zplus(cfg)
        for degree in range(cfg.dim_Z + 1):
            assert half.rank(degree) <= total.rank(degree)


def test_poincare_duality_for_complex_variety():
    # Z^C is a closed orientable manifold: ranks pair i with N - i, torsion i with N - 1 - i
    cases = [qb.partition_configuration(parts) for parts in helpers.partitions_up_to(6)]
    for cfg in cases + [helpers.rp2_configuration()]:
        group = qb.homology_ZC(cfg)
        top = cfg.dim_ZC
        for degree in range(top + 1):
            assert group.rank(degree) == group.rank(top - degree), cfg
            assert group.torsion(degree) == group.torsion(top - 1 - degree), cfg


def test_rp2_input_has_torsion():
    """The first input with torsion in a pair group: its Alexander dual moves torsion by d - 2 - i."""
    cfg = helpers.rp2_configuration()
    assert (cfg.n, cfg.k) == (16, 10) and qb.validate(cfg).ok
    torsion = {space: {d: g.torsion(d) for d in g.degrees if g.torsion(d)}
               for space, g in (("Z", qb.homology_Z(cfg)), ("ZC", qb.homology_ZC(cfg)))}
    assert torsion == {"Z": {2: (2, 2)}, "ZC": {8: (2,), 12: (2,)}}


def test_subset_cap():
    with pytest.raises(qb.SizeCapError):
        qb.homology_Z(PENTAGON, cap=4)
    with pytest.raises(qb.SizeCapError):
        qb.homology_ZC(qb.complexify(PENTAGON), cap=9)
    with pytest.raises(qb.SizeCapError):
        qb.splitting_ledger(PENTAGON, "Z", cap=3)


def test_empty_variety_has_zero_homology():
    # all vectors in an open half plane: weakly hyperbolic but the polytope is empty
    cfg = qb.make_configuration([(1, 0), (1, 1), (0, 1)], k=2)
    assert qb.validate(cfg).ok
    assert not dual_face_masks(cfg)
    assert qb.homology_Z(cfg).is_zero
    assert qb.homology_ZC(cfg).is_zero
    assert qb.euler_cellcount(cfg) == 0


@pytest.mark.parametrize("distinguished", [0, PENTAGON.n + 1])
def test_distinguished_out_of_range_is_refused(distinguished):
    with pytest.raises(qb.ConfigurationError):
        PENTAGON.with_distinguished(distinguished)


def _ledger_corpus():
    configs = [qb.partition_configuration(p) for p in helpers.partitions_up_to(6)]
    configs += [qb.duplicate_coordinate(PENTAGON, i) for i in range(1, 6)]
    configs += [qb.duplicate_coordinate(TRIANGLE, 2), qb.complexify(TRIANGLE)]
    # positive multiples of one ray are distinct vectors but share a ray class
    configs.append(qb.make_configuration(
        [(1, 0), (2, 0), (-1, 1), ("-1/2", "1/2"), (-1, -1), (-3, -3)], distinguished=2))
    return configs


def test_ledger_matches_brute_force_pair_sums():
    for cfg in _ledger_corpus():
        subsets = [J for size in range(cfg.n + 1)
                   for J in itertools.combinations(range(1, cfg.n + 1), size)]
        pairs = {J: qb.pair_homology(cfg, J) for J in subsets}
        expected = {
            "Z": pairs,
            "ZC": {J: g.shift(len(J)) for J, g in pairs.items()},
            "Zplus": {J: g for J, g in pairs.items() if cfg.distinguished not in J},
        }
        for space, contributions in expected.items():
            ledger = qb.splitting_ledger(cfg, space)
            nonzero = {J: g for J, g in contributions.items() if not g.is_zero}
            # every ledger entry is the pair homology of its subset, and every
            # subset absent from the ledger contributes nothing
            assert dict(ledger.entries) == nonzero, (cfg, space)
            assert ledger.total == GradedGroup.sum(contributions.values()), (cfg, space)


@pytest.fixture
def reductions(monkeypatch):
    """The face lists `_pair_table` hands to the homology engine, in order."""
    from quadbook import splitting

    engine = splitting._homology_from_masks
    calls = []
    monkeypatch.setattr(splitting, "_homology_from_masks",
                        lambda faces: calls.append(faces) or engine(faces))
    splitting._pair_table.cache_clear()
    yield calls
    splitting._pair_table.cache_clear()


def _nerve_masks(sets, full):
    """The sets I of positions in `sets` whose union is not full, as sorted masks (bit j for sets[j])."""
    return sorted(sum(1 << j for j in I) for size in range(len(sets) + 1)
                  for I in itertools.combinations(range(len(sets)), size)
                  if functools.reduce(int.__or__, (sets[j] for j in I), 0) != full)


def _expected_reductions(cfg):
    """The face lists `_pair_table` should reduce, each with the name of its route, by the rule restated here.

    The sphere guard comes first.  With B the r minimal non-faces of size at
    least two, it reads the nerve of B when 2^r is below both |K_V| and the
    2^|V| - |K_V| faces of the Alexander dual, and otherwise the smaller of
    K_V and the dual.  Then each union S of minimal non-faces on at most half
    of V is read by the r_S minimal non-faces inside it: r_S <= 2 is a sphere
    and no reduction, r_S < |S| the nerve of those, and otherwise K_S on the
    positions of S.  Returns the guard and the restrictions as (route, faces)
    pairs, faces None for a sphere.
    """
    from quadbook.complexes import class_face_masks

    faces = sorted(class_face_masks(cfg))
    if not faces:
        return None, []
    m = len(cfg.classes)
    non_faces = helpers.minimal_non_faces(faces, m)
    vertices = [c for c in range(m) if 1 << c not in non_faces]
    v_mask = sum(1 << c for c in vertices)
    base = sorted(n for n in non_faces if n.bit_count() > 1)
    face_set = set(faces)
    dual = sorted(v_mask ^ t for t in range(1 << m) if not t & ~v_mask and t not in face_set)
    if base and 2 ** len(base) < min(len(faces), len(dual)):
        guard = ("nerve", _nerve_masks(base, v_mask))
    elif base and len(dual) < len(faces):
        guard = ("dual", dual)
    else:
        guard = ("faces", faces)
    routes = []
    for size in range(len(vertices) // 2 + 1):
        for S in itertools.combinations(vertices, size):
            s = sum(1 << c for c in S)
            inside = [n for n in base if n & ~s == 0]
            if functools.reduce(int.__or__, inside, 0) != s:
                continue  # a cone on a vertex of S in no non-face inside it
            if len(inside) <= 2:
                routes.append(("sphere", None))
            elif len(inside) < size:
                routes.append(("nerve", _nerve_masks(inside, s)))
            else:
                routes.append(("scan", sorted(sum(1 << i for i, c in enumerate(S) if f >> c & 1)
                                              for f in faces if f & ~s == 0)))
    return guard, routes


def test_pair_table_matches_direct_restrictions(reductions):
    from quadbook import splitting
    from quadbook.complexes import class_face_masks

    saw_ghost = saw_large_class = False
    walked = reduced = 0
    sides, routes = set(), set()
    for cfg in helpers.duality_corpus():
        faces = set(class_face_masks(cfg))
        classes = cfg.classes
        saw_ghost |= bool(faces) and any(1 << c not in faces for c in range(len(classes)))
        saw_large_class |= any(len(members) >= 2 for members in classes)
        reductions.clear()
        assert splitting._pair_table(cfg.class_rays, cfg.classes) == helpers.reference_pair_table(cfg), cfg
        # the reductions made are the ones the rule names, so the routes seen are the routes taken
        guard, expected = _expected_reductions(cfg)
        made = sorted(map(sorted, reductions))
        assert made == sorted([guard[1]] + [f for _, f in expected if f] if guard else []), cfg
        sides |= {guard[0]} if guard else set()
        routes |= {route for route, _ in expected}
        if cfg.n >= 10 and len(classes) == cfg.n:  # the general-position inputs
            vertices = sum(1 for c in range(len(classes)) if 1 << c in faces)
            walked += sum(math.comb(vertices, j) for j in range(vertices // 2 + 1))
            reduced += len(reductions) - 1
    # the corpus reaches every shortcut the table takes over the direct sum,
    # the contractible one on most restrictions of the general-position inputs,
    # each side of the sphere guard and each way of reading a restriction
    assert saw_ghost and saw_large_class
    assert reduced < walked / 10
    assert sides == {"faces", "dual", "nerve"}
    assert routes == {"sphere", "nerve", "scan"}


@pytest.mark.parametrize("cfg, count", [
    (qb.partition_configuration((1,) * 11), 1),
    (qb.partition_configuration((1,) * 15), 1),
    (helpers.random_valid_configuration(random.Random(7), 4, 11), 37),
], ids=["ones-11", "ones-15", "dense-k4"])
def test_pair_table_work_bound(reductions, cfg, count):
    from quadbook import splitting

    splitting._pair_table(cfg.class_rays, cfg.classes)
    # the sphere guard first, on the nerve of the minimal non-faces, K_V or its
    # Alexander dual; then each restriction to at most half the vertices that is
    # the union of at least three minimal non-faces inside it, of the 1,024,
    # 16,384 and 1,024 restrictions of that size, on the nerve of those or on
    # K_S; the empty set and unions of one or two are spheres read without a
    # reduction
    assert len(reductions) == count
    guard, routes = _expected_reductions(cfg)
    assert sorted(reductions[0]) == guard[1]
    assert sorted(map(sorted, reductions[1:])) == sorted(faces for _, faces in routes if faces)
    # no K_S read is a simplex or a cone; a nerve may be one, when K_S is acyclic but no cone
    assert not [faces for route, faces in [guard] + routes
                if route in ("faces", "dual", "scan") and helpers.is_cone(faces)]


def test_unions_of_at_most_two_minimal_non_faces_are_spheres():
    from quadbook import splitting
    from quadbook.complexes import _homology_from_masks, class_face_masks

    configs = helpers.duality_corpus() + [qb.partition_configuration((1,) * m) for m in (7, 9, 11)]
    seen = set()
    for cfg in configs:
        faces = class_face_masks(cfg)
        if not faces:
            continue
        classes = cfg.classes
        non_faces = [m for m in helpers.minimal_non_faces(faces, len(classes)) if m.bit_count() > 1]
        table = dict(splitting._pair_table(cfg.class_rays, cfg.classes))
        for s in {0} | {a | b for a in non_faces for b in non_faces}:
            r = sum(1 for m in non_faces if m & ~s == 0)
            if r > 2:
                continue
            seen.add(r)
            sphere = GradedGroup.single(s.bit_count() - 1 - r)
            assert _homology_from_masks([f for f in faces if f & ~s == 0]) == sphere, (cfg, s)
            # the table holds the same group, wedge-shifted, on the coordinates of S
            J = tuple(sorted(itertools.chain(*(classes[c] for c in range(len(classes)) if s >> c & 1))))
            assert table[J] == sphere.shift(1 + len(J) - s.bit_count()), (cfg, s)
    assert seen == {0, 1, 2}


def test_nerve_route_moves_torsion_by_n_minus_4_minus_i():
    from quadbook import splitting

    # the ten triangles of the 6-vertex RP^2 are the vertices of S, and the
    # non-face M_v holds the five triangles that miss the RP^2 vertex v.  Some
    # triangle is in no member of a set of them iff it holds their vertices,
    # so their nerve is RP^2 itself, whose Z/2 in degree 1 lands in degree
    # |S| - 4 - 1 = 5 of K_S
    triangles = helpers.RP2_TRIANGLES
    inside = [sum(1 << t for t, triangle in enumerate(triangles) if v not in triangle) for v in range(1, 7)]
    s = (1 << len(triangles)) - 1
    assert splitting._nerve(inside, s) == helpers.closure_masks(triangles)
    faces = [q for q in range(s + 1) if not any(q & m == m for m in inside)]  # K_S, as the scan lists it
    assert len(faces) == 872
    z2 = GradedGroup.from_parts({}, {5: (2,)})
    assert splitting._nerve_restriction(s, inside) == z2
    assert splitting._homology_from_masks(faces) == z2


# a disk (one filled triangle, the other two classes ghosts) and two points
# plus an edge, read on the class faces, and the join of two pairs of points
# and a fifth vertex, a cone read on the nerve of its two minimal non-faces
# {1, 2} and {3, 4}: none is a sphere.  The disk has no minimal non-face of
# size two, so its dual is void, which reads as Z in degree -1 = |V| - d - 3
# and would pass
@pytest.mark.parametrize("faces, non_faces, side", [
    ((0, 1, 2, 3, 4, 5, 6, 7), (8, 16), "class faces (8 faces)"),
    ((0, 1, 2, 4, 8, 12), (), "class faces (6 faces)"),
    (tuple(t for t in range(32) if t & 3 != 3 and t & 12 != 12), (3, 12), "nerve of 2 non-faces (4 faces)"),
], ids=["disk", "points-and-edge", "cone"])
def test_sphere_guard(monkeypatch, capsys, faces, non_faces, side):
    from quadbook import splitting
    from quadbook.cli import main
    from quadbook.reporting import load_document

    monkeypatch.setattr(splitting, "_class_faces", lambda rays: (faces, non_faces))
    splitting._pair_table.cache_clear()
    try:
        with pytest.raises(qb.OracleMismatchError):
            qb.homology_Z(PENTAGON)
        code = main(["homology", "--partition", "1,1,1,1,1", "--format", "structured"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert "Traceback" not in captured.err
        message, document = captured.err.splitlines()
        assert "not a 1-sphere" in message and f"read on the {side}," in message
        # the input follows as one JSON line, so that --config replays the failure
        assert load_document(json.loads(document)) == qb.partition_configuration((1,) * 5)
    finally:
        splitting._pair_table.cache_clear()


def test_sphere_guard_sides_agree():
    from quadbook import splitting
    from quadbook.complexes import _homology_from_masks, class_face_masks

    configs = helpers.duality_corpus() + [qb.partition_configuration((1,) * m) for m in (15, 17)]
    smaller = set()
    for cfg in configs:
        faces = class_face_masks(cfg)
        non_faces = helpers.minimal_non_faces(faces, len(cfg.classes))
        v_mask = ((1 << len(cfg.classes)) - 1) ^ sum(m for m in non_faces if m.bit_count() == 1)
        if not faces or not v_mask:  # the empty polytope, and the triangle's K_V = {empty set}
            continue
        dual = splitting._alexander_dual(v_mask, non_faces)
        face_set = set(faces)
        assert dual == sorted(v_mask ^ t for t in range(v_mask + 1)
                              if not t & ~v_mask and t not in face_set), cfg
        d = max(f.bit_count() for f in faces) - 1
        assert _homology_from_masks(faces) == GradedGroup.single(d), cfg
        dual_sphere = GradedGroup.single(v_mask.bit_count() - d - 3)
        assert _homology_from_masks(dual) == dual_sphere, cfg
        # the nerve of the minimal non-faces has the homotopy type of the dual
        base = sorted(m for m in non_faces if m.bit_count() > 1)
        assert _homology_from_masks(splitting._nerve(base, v_mask)) == dual_sphere, cfg
        smaller.add(len(dual) < len(faces))
    assert smaller == {False, True}  # each of K_V and the dual is the smaller somewhere in the corpus


def test_sphere_dimension_reads_off_the_class_and_vector_counts():
    # a nonempty polytope has rank k, so the class polytope has dimension m - k - 1
    # and the class complex on its vertices is a sphere of dimension m - k - 2
    from quadbook.complexes import class_face_masks

    configs = helpers.duality_corpus() + [qb.partition_configuration(p) for p in helpers.odd_compositions(9)]
    for cfg in configs:
        faces = class_face_masks(cfg)
        assert faces, cfg
        assert max(f.bit_count() for f in faces) - 1 == len(cfg.classes) - cfg.k - 2, cfg


def test_sphere_guard_on_the_dual_side(reductions, monkeypatch, capsys):
    from quadbook import splitting
    from quadbook.cli import main

    # a solid tetrahedron beside a point: not a sphere, with 17 faces on the
    # pentagon's five classes against its dual's 15, the boundary of a tetrahedron
    faces = tuple(range(16)) + (16,)
    non_faces = (17, 18, 20, 24)
    monkeypatch.setattr(splitting, "_class_faces", lambda rays: (faces, non_faces))
    with pytest.raises(qb.OracleMismatchError):
        qb.homology_Z(PENTAGON)
    assert reductions == [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]]
    splitting._pair_table.cache_clear()
    code = main(["homology", "--partition", "1,1,1,1,1", "--format", "structured"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert "Traceback" not in captured.err
    assert "not a 1-sphere" in captured.err and "read on the Alexander dual (15 faces)," in captured.err


def test_euler_cellcount_matches_coordinate_sum():
    configs = [qb.partition_configuration(p) for p in helpers.partitions_up_to(9)]
    rng = random.Random(53)
    for k in (2, 3, 4):
        for _ in range(8):
            cfg = helpers.random_valid_configuration(rng, k, rng.randint(k + 2, 8),
                                                     require_nonempty=False)
            configs.append(helpers.with_repeated_rays(rng, cfg, rng.randint(0, 3)))
    for cfg in configs:
        assert qb.euler_cellcount(cfg) == helpers.reference_euler_cellcount(cfg), cfg


def test_subset_and_space_refusals():
    with pytest.raises(qb.ConfigurationError, match=r"index 0 out of range 1\.\.5"):
        qb.pair_homology(PENTAGON, [0])
    with pytest.raises(qb.ConfigurationError, match="unknown space 'Q'; expected Z, Zplus or ZC"):
        qb.splitting_ledger(PENTAGON, "Q")


def test_an_empty_polytope_over_the_cap_has_the_empty_ledger(monkeypatch):
    from quadbook import splitting

    # 22 rays in an open half-plane, over the cap of 20: one phase one finds no
    # point, so the ledger is empty and no face is listed
    cfg = qb.make_configuration([(1, 0)] + [(1, j) for j in range(21)])

    def no_faces(rays):
        raise AssertionError("faces listed for an empty polytope")

    monkeypatch.setattr(splitting, "_class_faces", no_faces)
    for space in ("Z", "Zplus", "ZC"):
        assert qb.splitting_ledger(cfg, space) == splitting.SplittingLedger((), GradedGroup.zero())
    with pytest.raises(qb.SizeCapError, match="n = 23 exceeds the subset cap 21"):
        qb.splitting_ledger(qb.make_configuration([(1, 0)] * 21 + [(-1, 1), (0, -1)]), cap=21)

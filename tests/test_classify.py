import random
from fractions import Fraction

import pytest

import quadbook as qb
from quadbook import CyclicPartition, GradedGroup
from quadbook.classify import _self_check, canonical_cycle
from quadbook.cli import main
from quadbook.reporting import classify_report, odd_partitions

import helpers


PENTAGON = qb.partition_configuration((1, 1, 1, 1, 1))


def test_cyclic_partition_canonicalisation():
    assert CyclicPartition((1, 2, 1)).parts == (1, 1, 2)
    assert CyclicPartition((2, 1, 1, 1, 1)) == CyclicPartition((1, 1, 1, 1, 2))
    assert CyclicPartition((1, 2, 3, 4, 5)) == CyclicPartition((5, 4, 3, 2, 1))
    with pytest.raises(qb.ConfigurationError):
        CyclicPartition((1, 1))  # even
    with pytest.raises(qb.ConfigurationError):
        CyclicPartition((3,))
    with pytest.raises(qb.ConfigurationError):
        CyclicPartition((1, 0, 1))


def test_canonical_cycle_respects_cyclic_structure():
    # rotations and the reflection all land on the same representative
    base = (1, 2, 3, 1, 4)
    for r in range(5):
        rotated = base[r:] + base[:r]
        assert canonical_cycle(rotated) == canonical_cycle(base)
        assert canonical_cycle(rotated[::-1]) == canonical_cycle(base)


def test_d_values():
    assert qb.d_values(CyclicPartition((1, 1, 1, 1, 1))) == (2, 2, 2, 2, 2)
    assert qb.d_values(CyclicPartition((2, 2, 2))) == (2, 2, 2)
    assert qb.d_values((1, 2, 3, 4, 5)) == (3, 5, 7, 9, 6)


def test_d_values_invariants():
    for parts in helpers.partitions_up_to(9):
        partition = CyclicPartition(parts)
        ds = qb.d_values(partition)
        assert sum(ds) == partition.ell * partition.n
        assert all(d < partition.n for d in ds)


@pytest.mark.parametrize("call, parts", [
    (qb.d_values, (2, 2)),
    (qb.d_values, (1, 0, -3)),
    (qb.double_partition, ()),
    (qb.double_partition, (1, 2, 0)),
])
def test_partition_helpers_refuse_what_is_no_odd_cyclic_partition(call, parts):
    with pytest.raises(qb.ConfigurationError, match="not an odd cyclic partition"):
        call(parts)


def test_normal_form_pentagon():
    assert qb.normal_form(PENTAGON) == CyclicPartition((1, 1, 1, 1, 1))


def test_normal_form_doubled_vertex():
    cfg = qb.duplicate_coordinate(PENTAGON, 1)
    assert qb.normal_form(cfg) == CyclicPartition((2, 1, 1, 1, 1))


def test_normal_form_already_normal():
    assert qb.normal_form(qb.partition_configuration((2, 2, 2))) == CyclicPartition((2, 2, 2))


def test_normal_form_roundtrip_all_small_partitions():
    for parts in helpers.partitions_up_to(7):
        cfg = qb.partition_configuration(parts)
        assert qb.normal_form(cfg) == CyclicPartition(parts), parts


def test_normal_form_rotation_invariance():
    base = (1, 2, 2, 1, 3)
    for r in range(5):
        cfg = qb.partition_configuration(qb.rotate_parts(base, r + 1))
        assert qb.normal_form(cfg) == CyclicPartition(base)


def test_normal_form_labelled_classes():
    partition, classes = qb.normal_form_labelled(qb.duplicate_coordinate(PENTAGON, 1))
    assert partition == CyclicPartition((2, 1, 1, 1, 1))
    assert sorted(len(c) for c in classes) == [1, 1, 1, 1, 2]
    doubled = next(c for c in classes if len(c) == 2)
    assert doubled == (1, 2)


def test_normal_form_requires_k2_and_nonempty():
    k3 = qb.make_configuration([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], k=3)
    with pytest.raises(qb.NormalFormError):
        qb.normal_form(k3)
    half_plane = qb.make_configuration([(1, 0), (1, 1), (0, 1)], k=2)
    with pytest.raises(qb.NormalFormError):
        qb.normal_form(half_plane)
    invalid = qb.make_configuration([(1, 0), (-1, 0), (0, 1)], k=2)
    with pytest.raises(qb.InvalidConfigurationError):
        qb.normal_form(invalid)


def _groupings(cfg, found, rng):
    """Groupings of whole ray classes: the found one, two groups swapped, one class
    moved to another group, three groups merged into one, and one group split in three."""
    classes = cfg.classes
    out = [list(found)]
    i, j = rng.sample(range(len(found)), 2)
    swapped = list(found)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    out.append(swapped)
    movable = [(g, members) for g, group in enumerate(found) for members in classes
               if set(members) < set(group)]
    if movable:
        g, members = rng.choice(movable)
        target = rng.choice([h for h in range(len(found)) if h != g])
        moved = [[x for x in group if x not in members] for group in found]
        moved[target] += members
        out.append(moved)
    if len(found) >= 5:
        out.append([found[0] + found[1] + found[2], *found[3:]])
    whole = [[members for members in classes if set(members) <= set(group)] for group in found]
    wide = [g for g, parts in enumerate(whole) if len(parts) >= 3]
    if wide:
        g = rng.choice(wide)
        first, second, *rest = whole[g]
        out.append([*found[:g], list(first), list(second), sum(rest, ()), *found[g + 1:]])
    return out


def test_self_check_matches_coordinate_reference():
    rng = random.Random(23)
    verdicts = []
    for _ in range(60):
        vectors = list(helpers.random_valid_configuration(rng, 2, rng.randint(3, 8)).lambdas)
        for _ in range(rng.randint(1, 3)):  # repeated and scaled rays
            scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            vectors.append(tuple(scale * x for x in rng.choice(vectors)))
        rng.shuffle(vectors)
        cfg = qb.make_configuration(vectors, k=2)
        _, found = qb.normal_form_labelled(cfg)
        for groups in _groupings(cfg, found, rng):
            parts = tuple(len(group) for group in groups)
            class_masks = [sum(1 << c for c, members in enumerate(cfg.classes) if set(members) <= set(group))
                           for group in groups]
            try:
                _self_check(cfg.class_rays, class_masks)
                verdict = True
            except qb.OracleMismatchError:
                verdict = False
            assert verdict == helpers.reference_self_check(cfg, parts, groups), (cfg, groups)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# a polygon with two more or two fewer classes has other minimal non-faces
# than the pentagon, so the runs of the pentagon's grouping cannot match them
@pytest.mark.parametrize("wrong", [lambda parts: parts + (1, 1), lambda parts: parts[:-2]],
                         ids=["more-classes", "fewer-classes"])
def test_self_check_raises_on_a_mismatched_realisation(wrong, monkeypatch, capsys):
    import quadbook.classify

    wrong_polygon = qb.partition_configuration(wrong((1, 1, 1, 1, 1)))
    wrong_faces = quadbook.classify._class_faces(wrong_polygon.class_rays)
    monkeypatch.setattr(quadbook.classify, "_class_faces", lambda rays: wrong_faces)
    quadbook.classify._sweep.cache_clear()  # an earlier test's sweep would skip the check
    with pytest.raises(qb.OracleMismatchError, match="self-check failed"):
        qb.normal_form(PENTAGON)
    assert main(["classify", "--partition", "1,1,1,1,1", "--format", "structured"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "self-check failed" in captured.err and "Traceback" not in captured.err


def test_classify_real_product_case():
    desc = qb.classify_real(CyclicPartition((2, 2, 2)))
    assert desc.kind == "sphere-product"
    assert desc.summands[0].dims == (1, 1, 1)
    assert desc.render() == "S^1 x S^1 x S^1"
    assert desc.flags == ()


def test_classify_real_pentagon():
    desc = qb.classify_real(CyclicPartition((1, 1, 1, 1, 1)))
    assert desc.render() == "#_5(S^1 x S^1)"
    assert desc.annotation() == "genus 5 surface"
    flags = desc.flags
    assert any("dim 2 < 5" in f for f in flags)
    assert any(f.startswith("pi1-unverified") for f in flags)


def test_classify_real_high_dimensional():
    desc = qb.classify_real(CyclicPartition((3, 3, 3, 3, 3)))
    assert desc.render() == "#_5(S^5 x S^7)"
    assert "h1=0" in desc.flags
    assert not any(f.startswith("pi1-unverified") for f in desc.flags)
    assert "dim 12 >= 5" in desc.flags


def test_classify_complex_examples():
    assert qb.classify_complex(CyclicPartition((1, 1, 1))).render() == "S^1 x S^1 x S^1"
    assert qb.classify_complex(CyclicPartition((1, 1, 1, 1, 1))).render() == "#_5(S^3 x S^4)"
    desc = qb.classify_complex(CyclicPartition((2, 1, 1, 1, 1)))
    # d = (3,2,2,2,3) gives two S^5 x S^4 summands and three S^3 x S^6
    dims = sorted(s.dims for s in desc.summands)
    assert dims == [(3, 6), (3, 6), (3, 6), (5, 4), (5, 4)]
    assert qb.expected_homology(desc) == qb.homology_ZC(qb.partition_configuration((2, 1, 1, 1, 1)))


def test_expected_homology_examples():
    torus3 = qb.ManifoldDescription((qb.SphereProduct((1, 1, 1)),))
    assert helpers.betti(qb.expected_homology(torus3), 3) == (1, 3, 3, 1)
    five_34 = qb.classify_complex(CyclicPartition((1, 1, 1, 1, 1)))
    assert helpers.betti(qb.expected_homology(five_34), 7) == (1, 0, 0, 5, 5, 0, 0, 1)
    genus5 = qb.classify_real(CyclicPartition((1, 1, 1, 1, 1)))
    assert helpers.betti(qb.expected_homology(genus5), 2) == (1, 10, 1)


def test_expected_homology_matches_independent_kunneth():
    rng = random.Random(13)
    for _ in range(20):
        dims = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
        desc = qb.ManifoldDescription((qb.SphereProduct(dims),))
        expected = helpers.kunneth_sphere_ranks(dims)
        got = qb.expected_homology(desc)
        assert {d: got.rank(d) for d in got.degrees} == expected


def test_expected_homology_connected_sum_oracle():
    for parts in helpers.partitions_up_to(7):
        partition = CyclicPartition(parts)
        if partition.ell == 1:
            continue
        desc = qb.classify_complex(partition)
        dim = desc.dim
        expected = helpers.connected_sum_ranks([s.dims for s in desc.summands], dim)
        got = qb.expected_homology(desc)
        assert {d: got.rank(d) for d in got.degrees} == expected


def test_description_kind_is_read_off_the_summands():
    one = qb.ManifoldDescription((qb.SphereProduct((1, 1, 1)),))
    five = qb.classify_real(CyclicPartition((1, 1, 1, 1, 1)))
    assert (one.kind, len(five.summands), five.kind) == ("sphere-product", 5, "connected-sum")


def test_description_refusals():
    with pytest.raises(qb.ConfigurationError, match="empty description"):
        qb.ManifoldDescription(())
    with pytest.raises(qb.ConfigurationError, match="mixed dimension"):
        qb.ManifoldDescription((qb.SphereProduct((1, 1)), qb.SphereProduct((1, 2))))
    with pytest.raises(qb.ConfigurationError, match="negative sphere dimension"):
        qb.SphereProduct((2, -1))
    with pytest.raises(qb.ConfigurationError, match="page pieces"):
        qb.expected_homology(qb.PuncturedProduct(1, 2))
    # S^0 x S^2 is two spheres, so it cannot be a connected summand
    with pytest.raises(qb.ConfigurationError, match="is not connected"):
        qb.expected_homology(qb.ManifoldDescription((qb.SphereProduct((0, 2)),) * 2))


def test_complex_description_has_no_annotation():
    # a complex sphere factor has dimension >= 1 and a complex connected sum dimension >= 7
    for parts in odd_partitions(9):
        assert "annotation" not in classify_report(qb.partition_configuration(parts))["complex"], parts


def test_partition_configuration_structure():
    cfg = qb.partition_configuration((1, 2, 2))
    assert cfg.n == 5 and cfg.k == 2
    assert cfg.lambdas[1] == cfg.lambdas[2]
    assert cfg.lambdas[3] == cfg.lambdas[4]
    assert cfg.distinguished == 1
    with pytest.raises(qb.ConfigurationError):
        qb.partition_configuration((1, 2))


def test_rotate_parts_refuses_a_class_out_of_range():
    with pytest.raises(qb.ConfigurationError, match=r"class index 0 out of range 1\.\.3"):
        qb.rotate_parts((1, 2, 2), 0)


def test_one_sweep_per_configuration(monkeypatch):
    import quadbook.classify
    from quadbook.reporting import open_book_report

    calls = []
    monkeypatch.setattr(quadbook.classify, "_self_check",
                        lambda rays, class_masks: calls.append(rays) or _self_check(rays, class_masks))
    cfg = qb.partition_configuration((1, 2, 2))
    quadbook.classify._sweep.cache_clear()
    classify_report(cfg)
    for i in range(1, cfg.n + 1):
        open_book_report(cfg, i)
    assert calls == [cfg.class_rays]


def test_normal_form_is_one_sweep_per_class_signature():
    import quadbook.classify

    cfg = qb.make_configuration([(2, 0), (0, 1), (-1, 1), (-1, -1), (1, -3), (4, 0)], k=2)
    same_signature = [
        cfg,
        cfg.with_distinguished(4),
        qb.make_configuration(cfg.lambdas, labels=[f"y{i}" for i in range(cfg.n)]),
        qb.make_configuration([tuple(3 * x for x in vec) for vec in cfg.lambdas]),
        qb.delete_coordinate(qb.duplicate_coordinate(cfg, 2), 2),
    ]
    assert len(set(same_signature)) == 5
    quadbook.classify._sweep.cache_clear()
    forms = [qb.normal_form_labelled(c) for c in same_signature]
    assert quadbook.classify._sweep.cache_info().misses == 1
    assert forms == [forms[0]] * 5


def test_memoised_normal_form_equals_a_fresh_one():
    import quadbook.classify

    for parts in odd_partitions(9):
        cfg = qb.partition_configuration(parts)
        labelled = qb.normal_form_labelled(cfg)
        memoised = quadbook.classify._sweep(cfg.class_rays)
        assert qb.normal_form_labelled(cfg) == labelled, parts
        assert quadbook.classify._sweep(cfg.class_rays) is memoised, parts
        quadbook.classify._sweep.cache_clear()
        assert qb.normal_form_labelled(cfg) == labelled, parts
        assert quadbook.classify._sweep(cfg.class_rays) == memoised, parts

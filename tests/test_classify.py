import random
from fractions import Fraction

import pytest

import quadbook as qb
from quadbook import CyclicPartition, GradedGroup
from quadbook.classify import _self_check
from quadbook.cli import main

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
        assert qb.canonical_cycle(rotated) == qb.canonical_cycle(base)
        assert qb.canonical_cycle(rotated[::-1]) == qb.canonical_cycle(base)


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
    classes = qb.coordinate_classes(cfg)
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
            try:
                _self_check(cfg, parts, groups)
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
    non_faces = quadbook.classify.class_minimal_non_faces(wrong_polygon)
    monkeypatch.setattr(quadbook.classify, "class_minimal_non_faces", lambda cfg: non_faces)
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
    assert not desc.hypotheses.pi1_unverified


def test_classify_real_pentagon():
    desc = qb.classify_real(CyclicPartition((1, 1, 1, 1, 1)))
    assert desc.render() == "#_5(S^1 x S^1)"
    assert desc.annotation() == "genus 5 surface"
    flags = desc.hypotheses.flags()
    assert any("dim 2 < 5" in f for f in flags)
    assert desc.hypotheses.pi1_unverified


def test_classify_real_high_dimensional():
    desc = qb.classify_real(CyclicPartition((3, 3, 3, 3, 3)))
    assert desc.render() == "#_5(S^5 x S^7)"
    assert desc.hypotheses.h1_zero
    assert not desc.hypotheses.pi1_unverified
    assert desc.hypotheses.dim_actual == 12


def test_classify_complex_examples():
    assert qb.classify_complex(CyclicPartition((1, 1, 1))).render() == "S^1 x S^1 x S^1"
    assert qb.classify_complex(CyclicPartition((1, 1, 1, 1, 1))).render() == "#_5(S^3 x S^4)"
    desc = qb.classify_complex(CyclicPartition((2, 1, 1, 1, 1)))
    # d = (3,2,2,2,3) gives two S^5 x S^4 summands and three S^3 x S^6
    dims = sorted(s.dims for s in desc.summands)
    assert dims == [(3, 6), (3, 6), (3, 6), (5, 4), (5, 4)]
    assert qb.expected_homology(desc) == qb.homology_ZC(qb.partition_configuration((2, 1, 1, 1, 1)))


def test_expected_homology_examples():
    torus3 = qb.ManifoldDescription(
        "sphere-product", (qb.SphereProduct((1, 1, 1)),))
    assert helpers.betti(qb.expected_homology(torus3), 3) == (1, 3, 3, 1)
    five_34 = qb.classify_complex(CyclicPartition((1, 1, 1, 1, 1)))
    assert helpers.betti(qb.expected_homology(five_34), 7) == (1, 0, 0, 5, 5, 0, 0, 1)
    genus5 = qb.classify_real(CyclicPartition((1, 1, 1, 1, 1)))
    assert helpers.betti(qb.expected_homology(genus5), 2) == (1, 10, 1)


def test_expected_homology_matches_independent_kunneth():
    rng = random.Random(13)
    for _ in range(20):
        dims = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
        desc = qb.ManifoldDescription("sphere-product", (qb.SphereProduct(dims),))
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


def test_partition_configuration_structure():
    cfg = qb.partition_configuration((1, 2, 2))
    assert cfg.n == 5 and cfg.k == 2
    assert cfg.lambdas[1] == cfg.lambdas[2]
    assert cfg.lambdas[3] == cfg.lambdas[4]
    assert cfg.distinguished == 1
    with pytest.raises(qb.ConfigurationError):
        qb.partition_configuration((1, 2))

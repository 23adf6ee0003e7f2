"""Root systems, subsystems and complement groups."""

import pytest

from reflharm import groups, linalg, rootdata
from reflharm.errors import DomainError, UsageError
from reflharm.rootdata import (
    SUBSYSTEM_PRESETS,
    build_root_datum,
    complement_group,
    parse_subsystem_spec,
    root_datum_from_label,
    subsystem,
    subsystem_preset,
)
from reflharm.scalars import QQ, CycloScalar

ROOT_COUNTS = [
    ("A", 1, 2),
    ("A", 2, 6),
    ("A", 3, 12),
    ("A", 4, 20),
    ("B", 2, 8),
    ("B", 3, 18),
    ("B", 4, 32),
    ("C", 2, 8),
    ("C", 3, 18),
    ("D", 2, 4),
    ("D", 3, 12),
    ("D", 4, 24),
    ("G2", 2, 12),
]


@pytest.mark.parametrize("wtype,rank,nroots", ROOT_COUNTS)
def test_root_counts(wtype, rank, nroots):
    datum = build_root_datum(wtype, rank)
    assert len(datum.roots) == nroots
    assert datum.npositive == nroots // 2
    assert datum.npositive == datum.group.reflection_count
    assert len(datum.simples) == rank
    for s in datum.simples:
        assert s in datum.positives


def test_c2_roots_explicit():
    datum = build_root_datum("C", 2)
    assert set(datum.positives) == {(1, -1), (1, 1), (2, 0), (0, 2)}
    assert datum.simples == ((1, -1), (0, 2))
    assert datum.label == "C2"


def test_b2_c2_same_group_different_roots():
    b = build_root_datum("B", 2)
    c = build_root_datum("C", 2)
    assert b.group.order == c.group.order == 8
    assert (1, 0) in b.positives and (2, 0) not in b.positives
    assert (2, 0) in c.positives and (1, 0) not in c.positives


def test_g2_roots():
    datum = build_root_datum("G2", 2)
    assert set(datum.positives) == {
        (1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)}
    assert datum.simples == ((1, 0), (0, 1))


def test_reflection_of_lands_in_group():
    datum = build_root_datum("C", 3)
    for root in datum.roots:
        mat = datum.reflection_of(root)
        assert datum.group.contains_matrix(mat)
        image = tuple(-x for x in root)
        from reflharm.rootdata import _apply
        assert _apply(mat, root) == image


def test_apply_needs_a_rational_matrix():
    datum = build_root_datum("C", 2)
    z3 = CycloScalar.root_of_unity(3)
    zero = CycloScalar.rational(0)
    with pytest.raises(DomainError):
        rootdata._apply([[z3, zero], [zero, z3]], datum.simples[0])
    half = CycloScalar.rational(QQ(1, 2))
    assert rootdata._apply([[half, zero], [zero, half * 3]],
                           (QQ(2, 3), 5)) == (QQ(1, 3), QQ(15, 2))


def test_reflection_of_negative_matches_positive():
    datum = build_root_datum("B", 3)
    for r in datum.positives:
        neg = tuple(-x for x in r)
        assert datum.reflection_of(r) == datum.reflection_of(neg)


def test_reflection_of_rejects_non_root():
    datum = build_root_datum("C", 2)
    with pytest.raises(UsageError):
        datum.reflection_of((5, 5))
    assert not datum.contains_root((5, 5))
    assert datum.contains_root((2, 0))


def test_unsupported_type_rejected():
    with pytest.raises(UsageError):
        build_root_datum("E", 6)
    with pytest.raises(UsageError):
        root_datum_from_label("X9")


def test_subsystem_long_a1a1_in_c2():
    datum = build_root_datum("C", 2)
    sub = subsystem(datum, [(2, 0), (0, 2)])
    assert sub.nprime == 2
    assert set(sub.roots) == {(2, 0), (0, 2), (-2, 0), (0, -2)}
    assert set(sub.simples) == {(2, 0), (0, 2)}
    assert sub.group.order == 4


def test_subsystem_closure_from_partial_seeds():
    # seeding with a single short root of C2 drags in its whole orbit
    datum = build_root_datum("C", 2)
    sub = subsystem(datum, [(1, -1), (1, 1)])
    assert sub.nprime == 2
    assert set(sub.simples) == {(1, -1), (1, 1)}
    assert sub.group.order == 4


def test_subsystem_full_is_whole_system():
    datum = build_root_datum("C", 3)
    sub = subsystem(datum, datum.simples)
    assert sub.nprime == datum.npositive == 9
    assert set(sub.roots) == set(datum.roots)
    assert set(sub.simples) == set(datum.simples)
    assert sub.group.order == datum.group.order == 48


def test_subsystem_a1c2_in_c3():
    sub = subsystem_preset("C3:A1C2")
    assert sub.datum.label == "C3"
    assert sub.nprime == 5
    assert set(sub.simples) == {(2, 0, 0), (0, 1, -1), (0, 0, 2)}
    assert sub.group.order == 16
    assert set(sub.positives) == {
        (2, 0, 0), (0, 1, -1), (0, 1, 1), (0, 2, 0), (0, 0, 2)}


def test_subsystem_long_a2_in_g2():
    datum = build_root_datum("G2", 2)
    sub = subsystem(datum, [(1, 0), (1, 3)])
    assert sub.nprime == 3
    assert set(sub.positives) == {(1, 0), (1, 3), (2, 3)}
    assert sub.group.order == 6


def test_subsystem_rejects_bad_seed():
    datum = build_root_datum("C", 2)
    with pytest.raises(UsageError):
        subsystem(datum, [(3, 3)])
    with pytest.raises(UsageError):
        subsystem(datum, [])


def test_complement_of_long_a1a1():
    datum = build_root_datum("C", 2)
    sub = subsystem(datum, [(2, 0), (0, 2)])
    c = complement_group(datum, sub)
    assert c.order == 2
    swap = [[0, 1], [1, 0]]
    assert c.contains_matrix(swap)


def test_complement_of_a1c2_is_trivial():
    sub = subsystem_preset("C3:A1C2")
    c = complement_group(sub.datum, sub)
    assert c.order == 1


def test_complement_of_full_subsystem_is_trivial():
    datum = build_root_datum("B", 3)
    sub = subsystem(datum, datum.simples)
    assert complement_group(datum, sub).order == 1


def test_complement_of_long_a2_in_g2():
    datum = build_root_datum("G2", 2)
    sub = subsystem(datum, [(1, 0), (1, 3)])
    c = complement_group(datum, sub)
    assert c.order == 2
    # the nontrivial element is the short simple reflection
    assert c.contains_matrix(datum.reflection_of((0, 1)))


def test_complement_group_makes_no_matrix_products(monkeypatch):
    """The normaliser and C meet W' are counted on W's indices."""
    datum = build_root_datum("B", 3)
    sub = subsystem(datum, [(1, -1, 0)])
    calls = []
    real = linalg.mat_mul

    def counting(*args, **kwargs):
        calls.append("mat_mul")
        return real(*args, **kwargs)

    def normalised(*args, **kwargs):
        calls.append("is_normalized_by")
        return True

    for module in (linalg, groups, rootdata):
        monkeypatch.setattr(module, "mat_mul", counting)
    monkeypatch.setattr(groups.ReflectionGroup, "is_normalized_by",
                        normalised)
    assert complement_group(datum, sub).order == 4
    assert calls == []


def test_complement_requires_matching_datum():
    d1 = build_root_datum("C", 2)
    d2 = build_root_datum("C", 2)
    sub = subsystem(d1, [(2, 0), (0, 2)])
    with pytest.raises(UsageError):
        complement_group(d2, sub)


def test_presets_and_spec_parsing():
    assert set(SUBSYSTEM_PRESETS) == {"C2:long-A1A1", "C3:A1C2"}
    sub = subsystem_preset("C2:long-A1A1")
    assert sub.nprime == 2 and sub.datum.label == "C2"
    full = subsystem_preset("G2:full")
    assert full.nprime == 6
    with pytest.raises(UsageError):
        subsystem_preset("C2:bogus")

    via_dict = parse_subsystem_spec(
        {"datum": "G2", "seeds": [[1, 0], [1, 3]]})
    assert via_dict.nprime == 3
    assert parse_subsystem_spec("C3:A1C2").group.order == 16
    with pytest.raises(UsageError):
        parse_subsystem_spec(42)

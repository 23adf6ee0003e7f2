"""Split and twisted counting polynomials."""

import itertools

import pytest

from reflharm.errors import CapError, DomainError, UsageError
from reflharm.harmonics import (action_trace, fixed_point_basis,
                                harmonic_basis, invariant_degrees)
from reflharm.linalg import mat_inv, mat_mul
from reflharm.mpoly import coerce_matrix
from reflharm.rootdata import (
    _apply,
    build_root_datum,
    complement_group,
    root_datum_from_label,
    subsystem,
    subsystem_preset,
)
from reflharm.scalars import QQ, CycloScalar, RatPoly
from reflharm.weyl import (
    TwistData,
    count_split,
    count_twisted,
    f_classes,
    split_report,
    stabilizes_ambient_simples,
    twisted_report,
)

IDENT2 = [[1, 0], [0, 1]]
SWAP2 = [[0, 1], [1, 0]]


@pytest.fixture(scope="module")
def c2_long():
    datum = build_root_datum("C", 2)
    return datum, subsystem(datum, [(2, 0), (0, 2)])


@pytest.fixture(scope="module")
def c3_a1c2():
    sub = subsystem_preset("C3:A1C2")
    return sub.datum, sub


def test_split_c2_long(c2_long):
    datum, sub = c2_long
    poly = count_split(datum, sub)
    assert poly == RatPoly.monomial(4)


def test_split_c2_short(c2_long):
    datum, _ = c2_long
    sub = subsystem(datum, [(1, -1), (1, 1)])
    assert count_split(datum, sub) == RatPoly.monomial(4)


def test_split_c3_a1c2(c3_a1c2):
    datum, sub = c3_a1c2
    poly = count_split(datum, sub)
    assert poly == RatPoly([0, 0, 0, 0, 1, 0, 1, 0, 1])
    assert poly(1) == 3


def test_split_g2_long_a2():
    datum = build_root_datum("G2", 2)
    sub = subsystem(datum, [(1, 0), (1, 3)])
    assert count_split(datum, sub) == RatPoly.monomial(6)


def test_split_full_subsystem():
    datum = build_root_datum("C", 2)
    sub = subsystem(datum, datum.simples)
    assert count_split(datum, sub) == RatPoly([1])


def test_split_value_at_one_counts_cosets(c3_a1c2):
    # at q=1 the polynomial counts |W| / |W'C|
    datum, sub = c3_a1c2
    assert count_split(datum, sub)(1) == QQ(datum.group.order, 16)


# Subsystems with trivial complement C, counted by hand: in A2 the three A1
# and A2 itself; in A3 the four A2 and A3; in B3 and C3 the three A1 x B2 or
# A1 x C2 and the whole system; in G2 the three A1 x A1 (Sylow 2-subgroups
# of the dihedral group of order 12, so self-normalising) and G2.  Every
# other subsystem of these data has a nontrivial C.
TRIVIAL_COMPLEMENT_COUNTS = [
    ("A1", 1), ("A2", 4), ("A3", 5), ("B2", 1),
    ("B3", 4), ("C2", 1), ("C3", 4), ("G2", 4),
]


def _all_subsystems(datum):
    """Every subsystem generated by at most rank positive roots, one per
    root set; a simple system has at most rank members, so none is missed."""
    found = {}
    for k in range(1, datum.rank + 1):
        for seeds in itertools.combinations(datum.positives, k):
            sub = subsystem(datum, seeds)
            found.setdefault(frozenset(sub.roots), sub)
    return list(found.values())


def _degree_product(group):
    out = RatPoly([1])
    for d in invariant_degrees(group):
        out = out * (RatPoly.monomial(d) - 1)
    return out


@pytest.mark.parametrize("label,expected", TRIVIAL_COMPLEMENT_COUNTS)
def test_split_matches_lang_count_when_complement_trivial(label, expected):
    # With C trivial, N_G(L) = L and the split count is |G^F| / |L^F|
    # = q^(N-N') prod(q^d_i - 1) / prod(q^d'_i - 1).  The degrees come from
    # Molien series, which never touch the harmonic bases count_split uses.
    datum = root_datum_from_label(label)
    trivial = [sub for sub in _all_subsystems(datum)
               if complement_group(datum, sub).order == 1]
    assert len(trivial) == expected
    for sub in trivial:
        lang = (RatPoly.monomial(datum.npositive - sub.nprime)
                * _degree_product(datum.group)).exact_div(
                    _degree_product(sub.group))
        assert count_split(datum, sub) == lang, sub.simples
    if label == "C3":
        preset = frozenset(subsystem_preset("C3:A1C2").roots)
        assert preset in {frozenset(sub.roots) for sub in trivial}


def _complement_by_matrices(datum, sub):
    """complement_group's former matrix method: the simple-system
    stabiliser by _apply, the normaliser of W' by is_normalized_by, and the
    stabiliser's intersection with W' by contains_matrix."""
    group, wprime = datum.group, sub.group
    simple_set = set(sub.simples)
    stab = [w for w in group.elements
            if {_apply(w, s) for s in simple_set} == simple_set]
    normalizer = sum(1 for w, wi in zip(group.elements, group.inverses)
                     if wprime.is_normalized_by(w, wi))
    in_both = sum(1 for w in stab if wprime.contains_matrix(w))
    return stab, normalizer, in_both


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
def test_complement_group_matches_matrix_oracle(label):
    datum = root_datum_from_label(label)
    for sub in _all_subsystems(datum):
        stab, normalizer, in_both = _complement_by_matrices(datum, sub)
        assert in_both == 1, sub.simples
        assert normalizer == len(stab) * sub.group.order, sub.simples
        comp = complement_group(datum, sub)
        assert comp.order == len(stab)
        assert all(comp.contains_matrix(w) for w in stab)


def test_split_report_fields(c2_long):
    datum, sub = c2_long
    report = split_report(datum, sub)
    assert report["datum"] == "C2"
    assert report["N"] == 4 and report["Nprime"] == 2
    assert report["C_order"] == 2
    assert RatPoly.from_json(report["polynomial"]) == RatPoly.monomial(4)


def test_twisted_identity_weight_one_equals_split(c2_long):
    datum, sub = c2_long
    twist = TwistData(IDENT2)
    assert count_twisted(datum, sub, twist) == count_split(datum, sub)


def test_twisted_identity_indicators(c2_long):
    datum, sub = c2_long
    half = QQ(1, 2)
    plus = count_twisted(datum, sub, TwistData.indicator(IDENT2, IDENT2))
    minus = count_twisted(datum, sub, TwistData.indicator(IDENT2, SWAP2))
    assert plus == RatPoly([0, 0, half, 0, half])
    assert minus == RatPoly([0, 0, -half, 0, half])
    assert plus + minus == count_split(datum, sub)


def test_twisted_swap_frobenius(c2_long):
    datum, sub = c2_long
    assert count_twisted(datum, sub, TwistData(SWAP2)) == RatPoly.monomial(4)
    half = QQ(1, 2)
    at_swap = count_twisted(datum, sub, TwistData.indicator(SWAP2, SWAP2))
    at_id = count_twisted(datum, sub, TwistData.indicator(SWAP2, IDENT2))
    assert at_swap == RatPoly([0, 0, half, 0, half])
    assert at_id == RatPoly([0, 0, -half, 0, half])
    assert at_swap + at_id == RatPoly.monomial(4)


def test_twisted_explicit_values_match_indicator(c2_long):
    datum, sub = c2_long
    values = [(IDENT2, 1), (SWAP2, 0)]
    twist = TwistData(IDENT2, "values", values)
    assert count_twisted(datum, sub, twist) == \
        count_twisted(datum, sub, TwistData.indicator(IDENT2, IDENT2))


def test_twisted_nonrational_weight_rejected(c2_long):
    datum, sub = c2_long
    values = [(IDENT2, 1), (SWAP2, CycloScalar.root_of_unity(4))]
    with pytest.raises(DomainError):
        count_twisted(datum, sub, TwistData(IDENT2, "values", values))


def test_twisted_values_must_cover_complement(c2_long):
    datum, sub = c2_long
    with pytest.raises(UsageError):
        count_twisted(datum, sub,
                      TwistData(IDENT2, "values", [(IDENT2, 1)]))


def test_twisted_indicator_must_lie_in_complement(c2_long):
    datum, sub = c2_long
    flip = [[-1, 0], [0, 1]]
    with pytest.raises(UsageError):
        count_twisted(datum, sub, TwistData.indicator(IDENT2, flip))


def test_twist_requires_simple_system_stability(c2_long):
    datum, sub = c2_long
    # inside W' itself, but moves (2,0) to (-2,0)
    flip = [[-1, 0], [0, 1]]
    with pytest.raises(UsageError):
        count_twisted(datum, sub, TwistData(flip))


def test_twist_requires_normalizing(c2_long):
    datum, sub = c2_long
    # order two, but reflects across a line outside the group's geometry
    skew = [[QQ(3, 5), QQ(4, 5)], [QQ(4, 5), QQ(-3, 5)]]
    with pytest.raises(UsageError):
        count_twisted(datum, sub, TwistData(skew))


def test_twist_requires_finite_order(c2_long):
    # F0 = Id + (swap)/2 commutes with W(D2) = {+-Id, +-swap}, fixes the
    # simple root (1, -1) and has eigenvalue 2 on (1, 1): it passes every
    # normalising check, and no power of it lies in C
    d2 = build_root_datum("D", 2)
    stretch = TwistData([[QQ(3, 2), QQ(1, 2)], [QQ(1, 2), QQ(3, 2)]])
    with pytest.raises(CapError):
        count_twisted(d2, subsystem(d2, [(1, -1)]), stretch)
    # a shear of infinite order does not normalise W, and that is reported
    # first
    datum, sub = c2_long
    shear = TwistData([[1, 1], [0, 1]])
    with pytest.raises(UsageError, match="does not normalize the Weyl group"):
        count_twisted(datum, sub, shear)


def test_twisted_values_match_elements_by_index(c2_long):
    # an element written with an entry at conductor 4 is still the identity
    datum, sub = c2_long
    one_at_4 = {"order": 4, "coeffs": [1, 0]}
    twist = TwistData.from_json({
        "F0": IDENT2,
        "g": {"values": [{"element": [[one_at_4, 0], [0, 1]], "value": 1},
                         {"element": SWAP2, "value": 0}]},
    })
    assert count_twisted(datum, sub, twist) == \
        RatPoly([0, 0, QQ(1, 2), 0, QQ(1, 2)])


def test_twisted_values_reject_conflicts(c2_long):
    datum, sub = c2_long
    listed = [(IDENT2, 1), (SWAP2, 0)]
    # the same value twice, once as "0/3", is allowed
    same = TwistData(IDENT2, "values", listed + [(SWAP2, "0/3")])
    assert count_twisted(datum, sub, same) == \
        RatPoly([0, 0, QQ(1, 2), 0, QQ(1, 2)])
    for extra in ([(SWAP2, 1)], [(SWAP2, 1), (SWAP2, 0)]):
        with pytest.raises(UsageError, match="two different values"):
            count_twisted(datum, sub,
                          TwistData(IDENT2, "values", listed + extra))


def test_twist_kind_validation():
    with pytest.raises(UsageError):
        TwistData(IDENT2, "mystery")


def test_twist_from_json(c2_long):
    datum, sub = c2_long
    twist = TwistData.from_json({"F0": IDENT2})
    assert twist.g_kind == "one"
    twist = TwistData.from_json({"F0": SWAP2, "g": {"indicator": SWAP2}})
    assert count_twisted(datum, sub, twist) == \
        RatPoly([0, 0, QQ(1, 2), 0, QQ(1, 2)])
    twist = TwistData.from_json({
        "F0": IDENT2,
        "g": {"values": [{"element": IDENT2, "value": 1},
                         {"element": SWAP2, "value": 0}]},
    })
    assert count_twisted(datum, sub, twist) == \
        RatPoly([0, 0, QQ(1, 2), 0, QQ(1, 2)])
    with pytest.raises(UsageError):
        TwistData.from_json({"g": "one"})
    with pytest.raises(UsageError):
        TwistData.from_json({"F0": IDENT2, "g": {"mystery": 1}})


def test_f_classes_of_abelian_complement(c2_long):
    datum, sub = c2_long
    from reflharm.rootdata import complement_group
    cgroup = complement_group(datum, sub)
    ident = [[CycloScalar.rational(1), CycloScalar.rational(0)],
             [CycloScalar.rational(0), CycloScalar.rational(1)]]
    classes = f_classes(cgroup, ident)
    assert len(classes) == 2
    assert all(len(cls) == 1 for cls in classes)


def _f_classes_by_matrices(cgroup, f0):
    """The F-classes by brute force: the orbits of c -> x c F(x)^-1 over
    every x in C, with F(x) = F0 x F0^-1 formed by matrices, sorted by
    their first member."""
    f0_inv = mat_inv(f0)
    moves = [(x, mat_inv(mat_mul(mat_mul(f0, x), f0_inv)))
             for x in cgroup.elements]
    classes, seen = [], set()
    for start in range(cgroup.order):
        if start in seen:
            continue
        orbit, stack = {start}, [start]
        while stack:
            c = cgroup.element(stack.pop())
            for x, fx_inv in moves:
                j = cgroup.index_of(mat_mul(mat_mul(x, c), fx_inv))
                assert j is not None
                if j not in orbit:
                    orbit.add(j)
                    stack.append(j)
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


@pytest.mark.parametrize("label", ["B3", "C3"])
def test_f_classes_match_matrix_oracle(label):
    # Every element of C normalises W' and fixes its simple system, so
    # each one is a valid F0; the order-6 and order-8 complements are not
    # abelian, so their twisted classes differ from their conjugacy classes.
    datum = root_datum_from_label(label)
    for sub in _all_subsystems(datum):
        cgroup = complement_group(datum, sub)
        for f0 in cgroup.elements:
            assert f_classes(cgroup, f0) == \
                _f_classes_by_matrices(cgroup, f0), sub.simples


def test_f_classes_match_matrix_oracle_under_swap(c2_long):
    datum, sub = c2_long
    cgroup = complement_group(datum, sub)
    swap = coerce_matrix(SWAP2)
    assert f_classes(cgroup, swap) == _f_classes_by_matrices(cgroup, swap)


@pytest.mark.parametrize("label", ["B3", "C3"])
def test_coset_traces_are_constant_on_inverse_twist_classes(label):
    """tr(c F0^-1 | H(W)^W'_d) is constant on the classes of
    c ~ x c F^-1(x)^-1, which f_classes(C, F0^-1) returns, for every
    subsystem and every F0 in C; the classes under F0 itself mix traces
    for two of the pairs."""
    datum = root_datum_from_label(label)
    H = harmonic_basis(datum.group)
    pairs = mixed_under_f0 = 0
    for sub in _all_subsystems(datum):
        cgroup = complement_group(datum, sub)
        fixed = fixed_point_basis(H, sub.group)
        for f0 in cgroup.elements:
            f0_inv = mat_inv(f0)
            traces = [tuple(action_trace(fixed, d, mat_mul(c, f0_inv))
                            for d in sorted(fixed.degrees))
                      for c in cgroup.elements]
            for cls in f_classes(cgroup, f0_inv):
                assert len({traces[i] for i in cls}) == 1, sub.simples
            pairs += 1
            mixed_under_f0 += any(len({traces[i] for i in cls}) > 1
                                  for cls in f_classes(cgroup, f0))
    assert (pairs, mixed_under_f0) == (116, 2)


@pytest.fixture(scope="module")
def b3_order_three_twist():
    """B3 over the subsystem with simples e1, e2, e3, whose complement has
    order 6, and an F0 of order 3 in it, so F0^2 != 1; with the classes
    of F0 and of F0^-1, as sets of indices."""
    datum = root_datum_from_label("B3")
    sub = subsystem(datum, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    cgroup = complement_group(datum, sub)
    assert cgroup.order == 6
    f0 = next(cgroup.element(i) for i in range(cgroup.order)
              if cgroup.element_order(i) == 3)
    under_f0 = f_classes(cgroup, f0)
    under_f0_inv = f_classes(cgroup, mat_inv(f0))
    assert under_f0 != under_f0_inv
    return datum, sub, cgroup, f0, under_f0, under_f0_inv


def _identity_class_weight(cgroup, classes):
    """Explicit values: 1 on the class of the identity, 0 elsewhere."""
    ident = next(cls for cls in classes if 0 in cls)
    return [(cgroup.element(i), 1 if i in ident else 0)
            for i in range(cgroup.order)]


def test_twisted_weight_constant_on_inverse_twist_classes(
        b3_order_three_twist):
    datum, sub, cgroup, f0, _, under_f0_inv = b3_order_three_twist
    values = _identity_class_weight(cgroup, under_f0_inv)
    got = count_twisted(datum, sub, TwistData(f0, "values", values))
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert got == count_twisted(datum, sub, TwistData.indicator(f0, ident))


def test_twisted_weight_constant_on_twist_classes_only_is_refused(
        b3_order_three_twist):
    datum, sub, cgroup, f0, under_f0, _ = b3_order_three_twist
    values = _identity_class_weight(cgroup, under_f0)
    with pytest.raises(UsageError, match="not constant"):
        count_twisted(datum, sub, TwistData(f0, "values", values))


def test_twisted_report_metadata(c2_long):
    datum, sub = c2_long
    report = twisted_report(datum, sub, TwistData(SWAP2))
    assert report["N"] == 4 and report["Nprime"] == 2
    assert report["C_order"] == 2
    assert "coset_action" in report
    # the swap permutes the subsystem's simples but not the ambient ones
    assert report["stabilizes_ambient_simples"] is False
    ident_report = twisted_report(datum, sub, TwistData(IDENT2))
    assert ident_report["stabilizes_ambient_simples"] is True
    assert stabilizes_ambient_simples(datum, SWAP2) is False

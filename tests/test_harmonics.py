import pytest

from reflharm import harmonics
from reflharm.errors import DomainError, UsageError, VerificationError
from reflharm.groups import ReflectionGroup, catalog, registry_names
from reflharm.harmonics import (
    GradedBasis,
    action_matrix,
    fixed_point_basis,
    free_generators,
    harmonic_basis,
    ideal_component,
    invariant_basis,
    invariant_degrees,
    molien,
    project_to_H,
    reynolds,
)
from reflharm.linalg import SpanSolver, mat_inv, rref
from reflharm.mpoly import (
    CONTRAVARIANT,
    COVARIANT,
    MPoly,
    diff_apply,
    monomials_of_degree,
)
from reflharm.rootdata import complement_group, subsystem_preset
from reflharm.scalars import CycloScalar, RatPoly, RatSeries, qq

ONE = CycloScalar.rational(1)


def P(nvars, *terms):
    return MPoly(CONTRAVARIANT, nvars,
                 {tuple(e): CycloScalar.coerce(c) for e, c in terms})


def test_reynolds_b2():
    b2 = catalog("weyl:B:2")
    x2 = P(2, ((2, 0), 1))
    avg = reynolds(b2, x2)
    assert avg == P(2, ((2, 0), qq("1/2")), ((0, 2), qq("1/2")))
    assert reynolds(b2, avg) == avg
    assert reynolds(b2, P(2, ((1, 0), 1))).is_zero()


def test_molien_oracles():
    ident = ReflectionGroup([[[ONE, ONE * 0], [ONE * 0, ONE]]])
    series = molien(ident, 6)
    assert list(series.coeffs) == [d + 1 for d in range(7)]

    mu5 = catalog("cyclic:5")
    series = molien(mu5, 12)
    assert list(series.coeffs) == [1 if d % 5 == 0 else 0 for d in range(13)]

    b2 = catalog("weyl:B:2")
    series = molien(b2, 8)
    # 1/((1-t^2)(1-t^4)) by direct expansion
    want = RatSeries([1], 8)
    want = want.divide(RatSeries([1, 0, -1], 8))          # 1 - t^2
    want = want.divide(RatSeries([1, 0, 0, 0, -1], 8))    # 1 - t^4
    assert list(series.coeffs) == list(want.coeffs)


def _textbook_degrees(name):
    kind, *args = name.split(":")
    if kind == "cyclic":
        return [int(args[0])]
    if kind == "gmpn":
        m, p, n = map(int, args)
        return sorted([m * k for k in range(1, n)] + [n * m // p])
    family, rank = args[0], int(args[1])
    if family == "A":
        return list(range(2, rank + 2))
    if family in ("B", "C"):
        return list(range(2, 2 * rank + 1, 2))
    if family == "D":
        return sorted(list(range(2, 2 * rank - 1, 2)) + [rank])
    assert family == "G2"
    return [2, 6]


def test_invariant_degrees():
    # textbook degrees, and Molien against prod 1/(1 - t^d_i) up to 2 max d;
    # covers monomial groups and the non-monomial weyl:A:* and weyl:G2:2
    names = registry_names(192)
    assert len(names) == 62
    for name in names:
        group = catalog(name)
        want = _textbook_degrees(name)
        assert invariant_degrees(group) == want, name
        trunc = 2 * max(want)
        expected = RatSeries([1], trunc)
        for d in want:
            expected = expected.divide(RatSeries([1] + [0] * (d - 1) + [-1],
                                                 trunc))
        series = molien(group, trunc)
        assert list(series.coeffs) == list(expected.coeffs), name


def test_invariant_basis_fixtures():
    b2 = catalog("weyl:B:2")
    assert invariant_basis(b2, 2) == [P(2, ((2, 0), 1), ((0, 2), 1))]
    assert invariant_basis(b2, 1) == []
    mu4 = catalog("cyclic:4")
    assert invariant_basis(mu4, 4) == [P(1, ((4,), 1))]
    cov = invariant_basis(b2, 2, COVARIANT)
    assert len(cov) == 1 and cov[0].space == COVARIANT
    assert [e for e, _ in cov[0].sorted_terms()] == [(2, 0), (0, 2)]


def test_free_generators():
    b2 = catalog("weyl:B:2")
    gens = free_generators(b2)
    assert [g.homogeneous_degree() for g in gens] == [2, 4]
    assert gens[0] == P(2, ((2, 0), 1), ((0, 2), 1))
    mu6 = catalog("cyclic:6")
    assert free_generators(mu6) == [P(1, ((6,), 1))]
    g312 = catalog("gmpn:3:1:2")
    assert [g.homogeneous_degree() for g in free_generators(g312)] == [3, 6]
    d4 = catalog("weyl:D:4")
    assert [g.homogeneous_degree() for g in free_generators(d4)] == [2, 4, 4, 6]


def test_ideal_component_fixtures():
    b2 = catalog("weyl:B:2")
    f3 = ideal_component(b2, 3)
    assert f3 == [P(2, ((3, 0), 1), ((1, 2), 1)),
                  P(2, ((2, 1), 1), ((0, 3), 1))]
    assert ideal_component(b2, 0) == []
    mu5 = catalog("cyclic:5")
    assert ideal_component(mu5, 5) == [P(1, ((5,), 1))]
    # dim F_d + dim H_d = dim S_d
    H = harmonic_basis(b2)
    for d in range(5):
        assert len(ideal_component(b2, d)) + H.dim(d) == d + 1


def test_harmonics_b2():
    b2 = catalog("weyl:B:2")
    for method in ("perp", "derivative"):
        H = harmonic_basis(b2, method)
        assert [H.dim(d) for d in range(5)] == [1, 2, 2, 2, 1]
        assert H.dimension() == 8
        deg3 = H.basis(3)
        want = [P(2, ((3, 0), 1), ((1, 2), -3)),
                P(2, ((2, 1), 1), ((0, 3), qq("-1/3")))]
        assert deg3 == want
    assert list(harmonic_basis(b2).poincare().coeffs) == [1, 2, 2, 2, 1]


def test_harmonics_cyclic():
    mu6 = catalog("cyclic:6")
    H = harmonic_basis(mu6)
    for d in range(6):
        assert H.basis(d) == [P(1, ((d,), 1))]
    assert H.dimension() == 6


def test_perp_matches_derivative_small():
    for name in ["weyl:B:2", "cyclic:6", "gmpn:3:1:2", "gmpn:3:3:2",
                 "weyl:A:2", "weyl:G2:2", "weyl:D:2", "gmpn:4:2:2",
                 "gmpn:1:1:3"]:
        g = catalog(name)
        assert harmonic_basis(g, "perp") == harmonic_basis(g, "derivative"), name


def test_harmonics_covariant_side():
    b2 = catalog("weyl:B:2")
    Hc = harmonic_basis(b2, "perp", COVARIANT)
    assert [Hc.dim(d) for d in range(5)] == [1, 2, 2, 2, 1]
    assert Hc == harmonic_basis(b2, "derivative", COVARIANT)
    assert next(iter(Hc.basis(1))).space == COVARIANT


def test_harmonic_dimension_is_group_order():
    for name in ["weyl:A:3", "gmpn:4:1:2", "gmpn:2:2:3", "weyl:G2:2"]:
        g = catalog(name)
        H = harmonic_basis(g)
        assert H.dimension() == g.order, name
        degs = invariant_degrees(g)
        want = RatPoly([1])
        for d in degs:
            want = want * RatPoly([1] * d)
        assert H.poincare() == want, name


def test_harmonics_killed_by_invariant_operators():
    for name in ["weyl:B:2", "gmpn:3:1:2"]:
        g = catalog(name)
        H = harmonic_basis(g)
        gens = free_generators(g, COVARIANT)
        x = MPoly.variable(COVARIANT, g.dim, 0)
        for d in range(H.max_degree + 1):
            for h in H.basis(d):
                for f in gens:
                    assert diff_apply(f, h).is_zero()
                    assert diff_apply(f * x, h).is_zero()


def test_project_to_H_b2():
    b2 = catalog("weyl:B:2")
    p = P(2, ((3, 0), 1), ((1, 2), -1))           # X^3 - X Y^2
    h, f = project_to_H(b2, p)
    assert h == P(2, ((3, 0), qq("1/2")), ((1, 2), qq("-3/2")))
    assert f == P(2, ((3, 0), qq("1/2")), ((1, 2), qq("1/2")))
    assert h + f == p

    harm = P(2, ((2, 1), 3), ((0, 3), -1))        # 3 X^2 Y - Y^3
    assert project_to_H(b2, harm) == (harm, MPoly.zero(CONTRAVARIANT, 2))

    inv = P(2, ((2, 0), 1), ((0, 2), 1))
    h, f = project_to_H(b2, inv)
    assert h.is_zero() and f == inv


@pytest.mark.parametrize("space", [CONTRAVARIANT, COVARIANT])
@pytest.mark.parametrize("name", ["weyl:B:3", "weyl:G2:2", "gmpn:3:1:2",
                                  "cyclic:6"])
def test_project_to_H_matches_ideal_oracle(name, space):
    """project_to_H (pairing Gram system over the derivative route) agrees
    with the perp harmonics and the generator-built ideal_component."""
    g = catalog(name)
    n_top = g.skew_degree()
    perp = harmonic_basis(g, "perp", space)
    for d in range(n_top + 2):
        monos = monomials_of_degree(g.dim, d)
        h_span = SpanSolver([b.coeff_vector(monos) for b in perp.basis(d)])
        f_span = SpanSolver([b.coeff_vector(monos)
                             for b in ideal_component(g, d, space)])
        for exps in monos:
            p = MPoly.monomial(space, exps)
            h, f = project_to_H(g, p)
            assert h + f == p
            if d > n_top:
                assert h.is_zero()
            else:
                assert h_span.contains(h.coeff_vector(monos)), (exps, h)
            assert f_span.contains(f.coeff_vector(monos)), (exps, f)


def test_projection_checks_fill_and_overlap(monkeypatch):
    b2 = catalog("weyl:B:2")
    x = MPoly.variable(COVARIANT, 2, 0)
    real = harmonic_basis

    def broken(dual_degree_1):
        def fake(group, method="derivative", space=CONTRAVARIANT):
            basis = real(group, method, space)
            if space == COVARIANT:
                degrees = dict(basis.degrees)
                degrees[1] = dual_degree_1
                basis = GradedBasis(space, basis.nvars, degrees)
            return basis
        return fake

    monkeypatch.setattr(harmonics, "harmonic_basis", broken([x]))
    with pytest.raises(DomainError, match="do not fill"):
        project_to_H(b2, P(2, ((1, 0), 1)))
    monkeypatch.setattr(harmonics, "harmonic_basis", broken([x, x]))
    with pytest.raises(DomainError, match="overlap"):
        project_to_H(b2, P(2, ((1, 0), 1)))
    monkeypatch.undo()
    h, f = project_to_H(b2, P(2, ((1, 0), 1)))
    assert h == P(2, ((1, 0), 1)) and f.is_zero()


def test_fixed_point_basis_fixtures():
    b2 = catalog("weyl:B:2")
    H = harmonic_basis(b2)
    rx = [[-ONE, ONE * 0], [ONE * 0, ONE]]
    ry = [[ONE, ONE * 0], [ONE * 0, -ONE]]
    sub = b2.subgroup_from_matrices([rx, ry])
    fixed = fixed_point_basis(H, sub)
    assert fixed.dim(0) == 1
    assert fixed.basis(2) == [P(2, ((2, 0), 1), ((0, 2), -1))]
    assert fixed.dimension() == b2.order // sub.order

    mu12 = catalog("cyclic:12")
    mu4 = catalog("cyclic:4")
    fixed = fixed_point_basis(harmonic_basis(mu12), mu4)
    assert [d for d in sorted(fixed.degrees)] == [0, 4, 8]

    top = fixed_point_basis(H, b2)
    assert top.dimension() == 1 and top.dim(0) == 1


def _reynolds_fixed(graded, subgroup):
    """Reference fixed space: every basis polynomial averaged over every
    element of the subgroup, then row-reduced."""
    out = {}
    for d, basis in graded.degrees.items():
        monos = monomials_of_degree(graded.nvars, d)
        ech, _ = rref([reynolds(subgroup, p).coeff_vector(monos)
                       for p in basis])
        if ech:
            out[d] = [MPoly.from_vector(graded.space, monos, r) for r in ech]
    return GradedBasis(graded.space, graded.nvars, out)


def _normalizer_pair(preset):
    """(W, W'C, W', C) for a subsystem preset."""
    sub = subsystem_preset(preset)
    w = sub.datum.group
    cgroup = complement_group(sub.datum, sub)
    wc = w.subgroup_from_matrices(
        list(sub.group.generators) + list(cgroup.elements))
    return w, wc, sub.group, cgroup


def _fixed_point_pairs():
    b3 = catalog("weyl:B:3")
    g313 = catalog("gmpn:3:1:3")
    pairs = [
        ("weyl:B:3", b3, b3.reflection_subgroup([0, 1])),
        ("gmpn:3:1:3", g313, g313.reflection_subgroup([0, 1])),
        ("cyclic:12", catalog("cyclic:12"), catalog("cyclic:4")),
    ]
    for preset in ("C2:long-A1A1", "C3:A1C2"):
        w, wc, _, _ = _normalizer_pair(preset)
        pairs.append((preset, w, wc))
    return pairs


@pytest.mark.parametrize("space", [CONTRAVARIANT, COVARIANT])
def test_fixed_point_basis_matches_reynolds_average(space):
    for label, group, sub in _fixed_point_pairs():
        assert sub.is_subgroup_of(group), label
        H = harmonic_basis(group, space=space)
        fixed = fixed_point_basis(H, sub)
        assert fixed == _reynolds_fixed(H, sub), label
        assert fixed.dimension() == group.order // sub.order, label


@pytest.mark.parametrize("preset", ["C2:long-A1A1", "C3:A1C2"])
def test_fixed_points_in_two_steps(preset):
    w, wc, wprime, cgroup = _normalizer_pair(preset)
    H = harmonic_basis(w)
    assert fixed_point_basis(fixed_point_basis(H, wprime), cgroup) == \
        fixed_point_basis(H, wc)


def test_fixed_point_basis_rejects_non_normalizing_group():
    b2 = catalog("weyl:B:2")
    # order 3, integral, and it does not preserve X^2 + Y^2
    g = [[ONE * 0, -ONE], [ONE, -ONE]]
    rot3 = ReflectionGroup([g])
    assert rot3.order == 3
    assert not b2.is_normalized_by(g, mat_inv(g))
    with pytest.raises(VerificationError,
                       match="does not stabilize the degree-2 piece"):
        fixed_point_basis(harmonic_basis(b2), rot3)


def test_fixed_poincare_equals_molien_ratio():
    b2 = catalog("weyl:B:2")
    rx = [[-ONE, ONE * 0], [ONE * 0, ONE]]
    ry = [[ONE, ONE * 0], [ONE * 0, -ONE]]
    sub = b2.subgroup_from_matrices([rx, ry])
    nn = b2.skew_degree() - sub.skew_degree()
    ratio = molien(sub, nn).divide(molien(b2, nn))
    fixed = fixed_point_basis(harmonic_basis(b2), sub)
    assert list(ratio.coeffs) == list(fixed.poincare().coeffs) + [0] * (
        nn + 1 - len(fixed.poincare().coeffs))


def test_action_matrix():
    b2 = catalog("weyl:B:2")
    H = harmonic_basis(b2)
    swap = [[ONE * 0, ONE], [ONE, ONE * 0]]
    mat = action_matrix(H, 1, swap)
    assert mat == [[ONE * 0, ONE], [ONE, ONE * 0]]
    shear = [[ONE, ONE], [ONE * 0, ONE]]
    with pytest.raises(VerificationError):
        action_matrix(H, 2, shear)
    # degree 1 is all of S_1, so the shear acts: contragrediently on
    # S(V*), directly on S(V)
    assert action_matrix(H, 1, shear) == [[ONE, -ONE], [ONE * 0, ONE]]
    Hc = harmonic_basis(b2, space=COVARIANT)
    assert action_matrix(Hc, 1, shear) == [[ONE, ONE * 0], [ONE, ONE]]
    assert action_matrix(Hc, 1, swap) == mat


@pytest.mark.parametrize("basis", [
    [P(2, ((1, 0), 1), ((0, 1), 1)), P(2, ((1, 0), 1), ((0, 1), -1))],
    [P(2, ((1, 0), 2))],
    [P(2, ((0, 1), 1)), P(2, ((1, 0), 1))],
])
def test_action_matrix_needs_reduced_echelon_basis(basis):
    # a basis read from JSON is outside input: checked on first use
    data = {"degrees": {"1": [p.to_json() for p in basis]}}
    swap = [[ONE * 0, ONE], [ONE, ONE * 0]]
    with pytest.raises(UsageError, match="reduced echelon"):
        action_matrix(GradedBasis.from_json(data), 1, swap)
    with pytest.raises(UsageError, match="reduced echelon"):
        fixed_point_basis(GradedBasis.from_json(data), catalog("weyl:B:2"))


def test_piece_echelon_form_is_derived_once(monkeypatch):
    graded = GradedBasis.from_json(harmonic_basis(catalog("weyl:B:2")).to_json())
    calls = []
    real = harmonics.rref

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(harmonics, "rref", counting)
    swap = [[ONE * 0, ONE], [ONE, ONE * 0]]
    first = action_matrix(graded, 2, swap)
    assert action_matrix(graded, 2, swap) == first
    assert calls == [2]


def test_graded_basis_json_roundtrip():
    b2 = catalog("weyl:B:2")
    H = harmonic_basis(b2)
    data = H.to_json()
    assert set(data) == {"degrees"}
    back = GradedBasis.from_json(data)
    assert back == H


def test_degree_extraction_rejects_non_reflection_group():
    zi = CycloScalar.root_of_unity(4)
    g = ReflectionGroup([[[zi, ONE * 0], [ONE * 0, zi]]])  # scalar i, no reflections
    with pytest.raises(DomainError):
        invariant_degrees(g)

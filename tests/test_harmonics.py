import hashlib
import json
import pathlib

import pytest

from reflharm import harmonics, linalg
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
from reflharm.linalg import (SpanSolver, echelon_coordinates, mat_inv, mat_mul,
                             rref)
from reflharm.mpoly import (
    CONTRAVARIANT,
    COVARIANT,
    MPoly,
    coerce_matrix,
    diff_apply,
    monomials_of_degree,
)
from reflharm.rootdata import complement_group, subsystem_preset
from reflharm.scalars import QQ, CycloScalar, RatPoly, qq

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


def _inverse_degree_product(degrees, trunc):
    """prod_i 1/(1 - t^d_i) up to t^trunc: each factor is the geometric
    series, a running sum with step d_i."""
    out = [QQ(1)] + [QQ(0)] * trunc
    for d in degrees:
        for k in range(d, trunc + 1):
            out[k] += out[k - d]
    return out


def test_molien_oracles():
    ident = ReflectionGroup([[[ONE, ONE * 0], [ONE * 0, ONE]]])
    series = molien(ident, 6)
    assert list(series) == [d + 1 for d in range(7)]

    mu5 = catalog("cyclic:5")
    series = molien(mu5, 12)
    assert list(series) == [1 if d % 5 == 0 else 0 for d in range(13)]

    b2 = catalog("weyl:B:2")
    series = molien(b2, 8)
    # 1/((1-t^2)(1-t^4)) by direct expansion
    assert list(series) == _inverse_degree_product([2, 4], 8)
    assert list(series) == [1, 0, 1, 0, 2, 0, 2, 0, 3]


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
        series = molien(group, trunc)
        assert list(series) == _inverse_degree_product(want, trunc), name


def test_invariant_basis_fixtures():
    b2 = catalog("weyl:B:2")
    assert invariant_basis(b2, 2) == [P(2, ((2, 0), 1), ((0, 2), 1))]
    assert invariant_basis(b2, 1) == []
    mu4 = catalog("cyclic:4")
    assert invariant_basis(mu4, 4) == [P(1, ((4,), 1))]
    cov = invariant_basis(b2, 2, COVARIANT)
    assert len(cov) == 1 and cov[0].space == COVARIANT
    assert [e for e, _ in cov[0].sorted_terms()] == [(2, 0), (0, 2)]


def _over_zeta3(name):
    """catalog(name) conjugated by diag(1, ..., 1, zeta_3): the same group
    written over Q(zeta_3), with a non-rational skew product and
    non-rational invariants; monomial exactly when catalog(name) is."""
    group = catalog(name)
    n = group.dim
    zeta = CycloScalar.root_of_unity(3)

    def diag(last):
        return [[(last if i == n - 1 else ONE) if i == j else ONE * 0
                 for j in range(n)] for i in range(n)]

    conj, conj_inv = diag(zeta), diag(zeta.inv())
    return ReflectionGroup([mat_mul(mat_mul(conj, g), conj_inv)
                            for g in group.generators])


def _fresh(name):
    """A new group object, so no invariant basis is cached on it."""
    if name.endswith(" over zeta_3"):
        return _over_zeta3(name.split()[0])
    return ReflectionGroup(list(catalog(name).generators))


def _reynolds_invariants(group, d, space):
    """Reference S^G_d: the rref of the Reynolds averages of every degree-d
    monomial."""
    monos = monomials_of_degree(group.dim, d)
    ech, _ = rref([reynolds(group, MPoly.monomial(space, m)).coeff_vector(monos)
                   for m in monos])
    return [MPoly.from_vector(space, monos, r) for r in ech]


# rational and not monomial, twice; complex and monomial, twice (the second
# with non-rational entries); complex and not monomial
_INVARIANT_ORACLE_GROUPS = ["weyl:A:3", "weyl:G2:2", "gmpn:3:1:2",
                            "weyl:B:2 over zeta_3", "weyl:A:2 over zeta_3"]


@pytest.mark.parametrize("space", [CONTRAVARIANT, COVARIANT])
@pytest.mark.parametrize("name", _INVARIANT_ORACLE_GROUPS)
def test_invariant_basis_matches_reynolds_oracle(name, space):
    group = _fresh(name)
    for d in range(max(invariant_degrees(group)) + 1):
        assert invariant_basis(group, d, space) == \
            _reynolds_invariants(group, d, space), d


@pytest.mark.parametrize("name", ["weyl:A:3", "weyl:A:2 over zeta_3"])
def test_invariant_basis_takes_no_group_average(monkeypatch, name):
    """S^G_d is read off fixed_point_basis: no Reynolds average and no span
    solver."""
    def refuse(*args):
        raise AssertionError("invariant_basis averaged or solved a span")

    group = _fresh(name)
    want = {(d, space): _reynolds_invariants(group, d, space)
            for d in range(max(invariant_degrees(group)) + 1)
            for space in (CONTRAVARIANT, COVARIANT)}
    monkeypatch.setattr(harmonics, "reynolds", refuse)
    monkeypatch.setattr(harmonics, "SpanSolver", refuse)
    got = {(d, space): invariant_basis(group, d, space) for d, space in want}
    assert got == want


INVARIANT_DIGESTS = pathlib.Path(__file__).parent / "invariant_digests.json"


def test_registry_invariant_rings_match_stored_digests():
    """Per registry group of order <= 200, the SHA-256 of the invariant
    bases up to the top degree and of the free generators, the
    contravariant side then the covariant one, as recorded when S^G_d was
    still built from products of invariants and Reynolds averages.  The
    same texts fed to one hash, in registry order, give the combined
    digest."""
    stored = json.loads(INVARIANT_DIGESTS.read_text())
    names = registry_names(200)
    combined = hashlib.sha256()
    wrong = []
    for name in names:
        group = catalog(name)
        per_group = hashlib.sha256()
        for space in (CONTRAVARIANT, COVARIANT):
            text = json.dumps({
                "invariants": [[p.to_json()
                                for p in invariant_basis(group, d, space)]
                               for d in range(max(invariant_degrees(group)) + 1)],
                "free": [p.to_json() for p in free_generators(group, space)],
            }, sort_keys=True)
            combined.update(text.encode())
            per_group.update(text.encode())
        if per_group.hexdigest() != stored.get(name):
            wrong.append(name)
    assert names == list(stored)
    assert wrong == []
    assert combined.hexdigest() == \
        "f651006f6595bb4576a32d348bdd29db3088c3e7264e17688daec6df043fcdb2"


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


@pytest.mark.parametrize("space", [CONTRAVARIANT, COVARIANT])
def test_perp_matches_derivative_small(space):
    """gmpn:3:1:2 and gmpn:3:1:3 split the perp kernel by complex
    diagonal characters, complex conjugate on the two variable sides."""
    for name in ["weyl:B:2", "cyclic:6", "gmpn:3:1:2", "gmpn:3:3:2",
                 "weyl:A:2", "weyl:G2:2", "weyl:D:2", "gmpn:4:2:2",
                 "gmpn:1:1:3", "gmpn:3:1:3"]:
        g = catalog(name)
        assert harmonic_basis(g, "perp", space) == \
            harmonic_basis(g, "derivative", space), name


_REFERENCE = pathlib.Path(__file__).parents[1] / "bench" / "reference.json"


def _matches_stored_perp_digest(name, basis):
    """The benchmark reference stores the perp basis digest (in the layout
    of `reflharm harmonics`) under the derivative request of each group."""
    stored = json.loads(_REFERENCE.read_text())
    text = json.dumps({"dimension": basis.dimension(),
                       "degrees": {str(d): [p.to_json() for p in basis.basis(d)]
                                   for d in sorted(basis.degrees)}},
                      indent=2, sort_keys=True) + "\n"
    ref = stored["harmonic_basis %s derivative" % name]
    return hashlib.sha256(text.encode()).hexdigest() == ref["sha256"]


@pytest.mark.parametrize("name", ["weyl:A:4", "weyl:D:4"])
def test_perp_basis_matches_stored_digest(name):
    assert _matches_stored_perp_digest(name, harmonic_basis(catalog(name), "perp"))


@pytest.mark.parametrize("name", ["weyl:A:4", "gmpn:3:1:3"])
def test_rational_derivative_route_stays_on_integers(monkeypatch, name):
    """A rational skew product is carried down on integer rows: the
    derivative route calls neither rref nor a CycloScalar product, and
    still gives the stored perp basis."""
    group = catalog(name)
    # group data first, so the refusals see only the route itself
    group.skew_contravariant()

    def refuse(*args):
        raise AssertionError("the integer derivative route left the integers")

    with monkeypatch.context() as patch:
        for owner in (linalg, harmonics):
            patch.setattr(owner, "rref", refuse)
        patch.setattr(CycloScalar, "__mul__", refuse)
        patch.setattr(CycloScalar, "__rmul__", refuse)
        basis = harmonic_basis(group, "derivative")
        assert _matches_stored_perp_digest(name, basis)
    assert basis.dimension() == group.order


@pytest.mark.parametrize("name", ["weyl:B:2", "gmpn:3:1:2"])
def test_perp_route_needs_no_skew_product(monkeypatch, name):
    """The perp route stays independent of the derivative route: it builds
    with the skew product and the derivative solver both refusing."""
    def refuse(*args):
        raise AssertionError("the perp route reached the derivative route")

    monkeypatch.setattr(harmonics, "_harmonic_degrees_derivative", refuse)
    monkeypatch.setattr(ReflectionGroup, "_skew_product", refuse)
    group = catalog(name)
    assert harmonic_basis(group, "perp").dimension() == group.order


@pytest.mark.parametrize("name", ["weyl:A:3", "gmpn:3:1:2"])
def test_derivative_route_needs_no_diff_apply(monkeypatch, name):
    """The derivative route takes its first derivatives inline, so it
    shares no differentiation code with the perp route's diff_apply."""
    def refuse(*args):
        raise AssertionError("the derivative route reached diff_apply")

    group = catalog(name)
    with monkeypatch.context() as patch:
        patch.setattr(harmonics, "diff_apply", refuse)
        H = harmonic_basis(group, "derivative")
    assert H.dimension() == group.order
    assert H == harmonic_basis(group, "perp")


def test_harmonics_covariant_side():
    b2 = catalog("weyl:B:2")
    Hc = harmonic_basis(b2, "perp", COVARIANT)
    assert [Hc.dim(d) for d in range(5)] == [1, 2, 2, 2, 1]
    assert Hc == harmonic_basis(b2, "derivative", COVARIANT)
    assert next(iter(Hc.basis(1))).space == COVARIANT


@pytest.mark.parametrize("space", [CONTRAVARIANT, COVARIANT])
def test_routes_agree_on_cyclotomic_rows(monkeypatch, space):
    """weyl:B:2 conjugated by diag(1, zeta_3) has a non-rational skew
    product and non-rational invariants, so both routes send their rows
    through the field loop of rref rather than the integer one."""
    b2 = catalog("weyl:B:2")
    group = _over_zeta3("weyl:B:2")
    # group data first, so the spy sees only the routes' own rows
    group.skew_contravariant()
    group.skew_covariant()
    for side in (CONTRAVARIANT, COVARIANT):
        free_generators(group, side)
    field_rows = []
    real = linalg._rref_field

    def spy(mat):
        field_rows.append(len(mat))
        return real(mat)

    monkeypatch.setattr(linalg, "_rref_field", spy)
    H = harmonic_basis(group, "derivative", space)
    assert field_rows
    top = H.basis(H.max_degree)[0]
    assert not all(c.is_rational() for c in top.terms.values())
    field_rows.clear()
    assert H == harmonic_basis(group, "perp", space)
    assert field_rows
    assert H.dimension() == 8
    assert H.poincare() == harmonic_basis(b2, "derivative", space).poincare()


def test_derivative_route_eliminates_first_derivatives_only(monkeypatch):
    """H_N is the skew product's one row, and H_d is spanned by the first
    derivatives of H_(d+1), written on all degree-d monomials, so the
    integer elimination runs once per degree, on at most
    ell * dim H_(d+1) rows in degree d < N."""
    group = catalog("weyl:A:4")
    ell, n_top = group.dim, group.skew_degree()
    degree_of = {len(monomials_of_degree(ell, d)): d for d in range(n_top + 1)}
    rows_in = {}
    real = harmonics.rref_integer

    def recording(rows):
        d = degree_of[len(rows[0])]
        assert d not in rows_in, d
        rows_in[d] = len(rows)
        return real(rows)

    monkeypatch.setattr(harmonics, "rref_integer", recording)
    H = harmonic_basis(group)
    monkeypatch.undo()
    assert H.dimension() == group.order
    assert sorted(rows_in) == list(range(n_top + 1))
    assert rows_in[n_top] == 1
    for d in range(n_top):
        assert rows_in[d] <= ell * H.dim(d + 1), d


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


def test_rational_fixed_point_basis_inverts_no_scalar(monkeypatch):
    """Every matrix of weyl:B:3 is rational, so its action matrices and
    fixed-point kernels are eliminated on integers, with no field
    inverse."""
    b3 = catalog("weyl:B:3")
    H = harmonic_basis(b3)
    sub = b3.reflection_subgroup([0, 1])

    def no_inverse(x):
        raise AssertionError("a rational elimination inverted a scalar")

    monkeypatch.setattr(CycloScalar, "inv", no_inverse)
    fixed = fixed_point_basis(H, sub)
    assert fixed.dimension() == b3.order // sub.order


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
    # Molien(sub) = P(H(b2)^sub) * Molien(b2), Molien(b2) = 1/((1-t^2)(1-t^4))
    poin = fixed_point_basis(harmonic_basis(b2), sub).poincare()
    whole = _inverse_degree_product([2, 4], nn)
    assert list(molien(sub, nn)) == [
        sum(poin.coeff(i) * whole[k - i] for i in range(k + 1))
        for k in range(nn + 1)]


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


def _action_matrix_by_act(graded, d, mat):
    """The per-polynomial route, kept as the oracle: MPoly.act on every
    basis polynomial of the piece, read at the pivot columns."""
    monos, ech, pivots = graded.piece(d)
    inverse = None
    if graded.space == CONTRAVARIANT:
        inverse = mat_inv(coerce_matrix(mat))
    rows = []
    for p in graded.basis(d):
        coords = echelon_coordinates(
            ech, pivots, p.act(mat, inverse).coeff_vector(monos))
        if coords is None:
            raise VerificationError("action leaves the spanned subspace")
        rows.append(coords)
    return rows


def _action_outcome(route, graded, d, mat):
    try:
        return route(graded, d, mat)
    except VerificationError:
        return "leaves the piece"


@pytest.mark.parametrize("space", [CONTRAVARIANT, COVARIANT])
@pytest.mark.parametrize("name", ["weyl:B:3", "weyl:A:3", "gmpn:3:1:3"])
def test_action_matrix_matches_per_polynomial_oracle(name, space):
    # B3 acts by signed permutations, G(3,1,3) by monomials over
    # Q(zeta_3); no reflection of A3 (simple-root coordinates) is monomial
    group = catalog(name)
    graded = harmonic_basis(group, space=space)
    mats = list(group.generators)
    mats += [group.elements[i * group.order // 5] for i in range(1, 5)]
    for g in mats:
        for d in sorted(graded.degrees):
            assert action_matrix(graded, d, g) == \
                _action_matrix_by_act(graded, d, g)
    # a shear normalises none of them: both routes refuse the same pieces,
    # and at least one
    shear = [[ONE if j in (i, i + 1) else ONE * 0 for j in range(group.dim)]
             for i in range(group.dim)]
    outcomes = [(_action_outcome(action_matrix, graded, d, shear),
                 _action_outcome(_action_matrix_by_act, graded, d, shear))
                for d in sorted(graded.degrees)]
    assert all(new == old for new, old in outcomes)
    assert any(new == "leaves the piece" for new, _ in outcomes)


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

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflharm import factorisation, harmonics
from reflharm.errors import UsageError
from reflharm.factorisation import (
    FactorisationReport,
    d_map,
    degree_divisibility,
    e_map,
    equivariance_check,
    poincare_factorisation,
    verify_factorisation,
    xi_apply,
    xi_dual_compare,
)
from reflharm.groups import catalog
from reflharm.harmonics import harmonic_basis, project_to_H
from reflharm.linalg import kron_apply, kron_vec, mat_inv, mat_mul
from reflharm.mpoly import (CONTRAVARIANT, COVARIANT, MPoly, coerce_matrix,
                            diff_apply)
from reflharm.scalars import CycloScalar, RatPoly, qq

ONE = CycloScalar.rational(1)


def P(nvars, *terms, space=CONTRAVARIANT):
    return MPoly(space, nvars,
                 {tuple(e): CycloScalar.coerce(c) for e, c in terms})


def b2_pair():
    b2 = catalog("weyl:B:2")
    sub = b2.subgroup_from_matrices([
        [[-ONE, ONE * 0], [ONE * 0, ONE]],
        [[ONE, ONE * 0], [ONE * 0, -ONE]],
    ])
    return b2, sub


def trivial_subgroup(group):
    ident = [[ONE if i == j else ONE * 0 for j in range(group.dim)]
             for i in range(group.dim)]
    return group.subgroup_from_matrices([ident])


def test_xi_apply_b2():
    b2, sub = b2_pair()
    x = P(2, ((1, 0), 1))
    xy = P(2, ((1, 1), 1))
    k = P(2, ((2, 0), 1), ((0, 2), -1))
    assert xi_apply(b2, sub, x, k) == P(2, ((3, 0), qq("1/2")),
                                        ((1, 2), qq("-3/2")))
    assert xi_apply(b2, sub, xy, k) == P(2, ((3, 1), 1), ((1, 3), -1))


def test_xi_apply_membership_errors():
    b2, sub = b2_pair()
    k = P(2, ((2, 0), 1), ((0, 2), -1))
    with pytest.raises(UsageError):
        xi_apply(b2, sub, P(2, ((2, 0), 1)), k)       # X^2 not sub-harmonic
    with pytest.raises(UsageError):
        xi_apply(b2, sub, P(2, ((1, 0), 1)), P(2, ((1, 1), 1)))  # XY not fixed
    with pytest.raises(UsageError):
        xi_apply(b2, sub, P(2, ((1, 0), 1), space=COVARIANT), k)
    # one part of a sum across degrees outside the space is enough
    with pytest.raises(UsageError):
        xi_apply(b2, sub, P(2, ((1, 0), 1), ((2, 0), 1)), k)
    with pytest.raises(UsageError):
        xi_apply(b2, sub, P(2, ((1, 0), 1)), k + P(2, ((1, 0), 1)))
    with pytest.raises(UsageError):
        xi_apply(b2, sub, P(3, ((1, 0, 0), 1)), P(3, ((0, 0, 0), 1)))


def _mixed_sum(basis, seed):
    """A combination of basis polynomials across every degree of a graded
    basis, with small integer coefficients."""
    rng = random.Random(seed)
    total = MPoly.zero(basis.space, basis.nvars)
    for d in sorted(basis.degrees):
        for p in basis.basis(d):
            total = total + p.scale(rng.randint(-2, 2))
    return total


@pytest.mark.parametrize("name,picks", [("weyl:B:3", [0, 1]),
                                        ("weyl:A:3", [0, 1]),
                                        ("gmpn:3:1:2", [0, 5])])
def test_xi_apply_matches_projection_oracle(name, picks):
    # the coordinate matrices against the projection of the product, on
    # sums across degrees and on single basis tensors, on both variable
    # sides of one pair
    group, sub = _pair(name, picks)
    ctx = factorisation._pair_ctx(group, sub)
    for space in (CONTRAVARIANT, COVARIANT):
        subH = harmonic_basis(sub, space=space)
        fixed = factorisation._fixed_harmonics(ctx, group, sub, space)
        cases = [(_mixed_sum(subH, seed), _mixed_sum(fixed, seed + 1))
                 for seed in range(3)]
        cases += [(subH.basis(i)[-1], fixed.basis(j)[0])
                  for i in sorted(subH.degrees)
                  for j in sorted(fixed.degrees)]
        for hp, k in cases:
            assert xi_apply(group, sub, hp, k) == \
                project_to_H(group, hp * k)[0]


def test_xi_apply_cyclic_is_multiplication():
    mu6 = catalog("cyclic:6")
    mu2 = mu6.subgroup_from_matrices([[[-ONE]]])
    for a in range(2):
        for b in range(3):
            h = P(1, ((a,), 1))
            k = P(1, ((2 * b,), 1))
            assert xi_apply(mu6, mu2, h, k) == P(1, ((a + 2 * b,), 1))


def test_verify_factorisation_b2():
    b2, sub = b2_pair()
    rep = verify_factorisation(b2, sub)
    assert rep.bijective
    assert rep.dim_identity
    assert rep.poincare_equal
    assert rep.degrees == [2, 4] and rep.sub_degrees == [2, 2]
    for info in rep.graded.values():
        assert info["full"]
    for info in rep.bidegree_ranks.values():
        assert info["rows"] == info["rank"]
    assert all(ok for _, ok in rep.equivariance_checks)
    assert len(rep.equivariance_checks) >= 2   # -id plus the coordinate swap
    assert all(e["collinear"] for e in rep.dual_scalars)
    data = rep.to_json()
    assert data["bijective"] and data["poincare_equal"]
    assert "0,2" in data["bidegree_ranks"]


def test_verify_factorisation_evaluates_each_tensor_once(monkeypatch):
    # one Gram row per basis tensor and no projection: the coordinate
    # matrices hold the Gram rows, and the dual pairs and the equivariance
    # checks read them
    b2, sub = b2_pair()
    rows, projections = [], []
    real = factorisation._harmonic_coords

    def counting(group, d, poly):
        rows.append(poly)
        return real(group, d, poly)

    monkeypatch.setattr(factorisation, "_harmonic_coords", counting)
    monkeypatch.setattr(harmonics, "project_to_H",
                        lambda *args: projections.append(args))
    verify_factorisation(b2, sub)
    assert projections == []
    assert len(rows) == b2.order


def test_verify_factorisation_extreme_subgroups():
    b2, _ = b2_pair()
    rep_full = verify_factorisation(b2, b2)
    assert rep_full.bijective and rep_full.dim_identity
    rep_triv = verify_factorisation(b2, trivial_subgroup(b2))
    assert rep_triv.bijective and rep_triv.dim_identity
    assert rep_triv.poincare_equal


def test_poincare_factorisation():
    b2, sub = b2_pair()
    lhs, rhs = poincare_factorisation(b2, sub)
    assert lhs == RatPoly([1, 2, 2, 2, 1])
    assert rhs == lhs
    mu6 = catalog("cyclic:6")
    mu2 = mu6.subgroup_from_matrices([[[-ONE]]])
    lhs, rhs = poincare_factorisation(mu6, mu2)
    assert lhs == RatPoly([1] * 6) and rhs == lhs
    lhs, rhs = poincare_factorisation(b2, b2)
    assert lhs == rhs


def test_degree_divisibility():
    b2, sub = b2_pair()
    rep = degree_divisibility(b2, sub)
    assert rep["ok"] and rep["divides"]
    assert rep["quotient"] == RatPoly([1, 0, 1])
    assert (4, 0, 1) in rep["counts"]
    rep = degree_divisibility(b2, b2)
    assert rep["ok"] and rep["quotient"] == RatPoly([1])
    assert all(a == b for _, a, b in rep["counts"])


def test_d_map():
    b2, _ = b2_pair()
    one_cov = MPoly.constant(COVARIANT, 2, 1)
    assert d_map(b2, one_cov) == b2.skew_contravariant()
    assert d_map(b2, P(2, ((1, 1), 1), space=COVARIANT)) == \
        P(2, ((2, 0), 3), ((0, 2), -3))
    mu5 = catalog("cyclic:5")
    fact = 1
    for k in range(5):
        # (e-1)!/(e-1-k)! X^{e-1-k}
        assert d_map(mu5, P(1, ((k,), 1), space=COVARIANT)) == \
            P(1, ((4 - k,), fact))
        fact *= 4 - k
    with pytest.raises(UsageError):
        d_map(b2, P(2, ((1, 0), 1)))


def test_d_map_is_degree_reversing_bijection():
    from reflharm.harmonics import harmonic_basis
    from reflharm.linalg import rref
    from reflharm.mpoly import monomials_of_degree

    b2, _ = b2_pair()
    H = harmonic_basis(b2, "perp", COVARIANT)
    N = b2.skew_degree()
    for d in sorted(H.degrees):
        images = [d_map(b2, h) for h in H.basis(d)]
        assert all(im.homogeneous_degree() == N - d for im in images)
        monos = monomials_of_degree(2, N - d)
        ech, _ = rref([im.coeff_vector(monos) for im in images])
        assert len(ech) == len(images) == H.dim(d)


def test_e_map():
    b2, sub = b2_pair()
    one_cov = MPoly.constant(COVARIANT, 2, 1)
    assert e_map(b2, sub, one_cov) == P(2, ((2, 0), 3), ((0, 2), -3))
    mu6 = catalog("cyclic:6")
    mu2 = mu6.subgroup_from_matrices([[[-ONE]]])
    assert e_map(mu6, mu2, MPoly.constant(COVARIANT, 1, 1)) == \
        P(1, ((4,), 5))
    triv = trivial_subgroup(b2)
    a = P(2, ((1, 1), 1), space=COVARIANT)
    assert e_map(b2, triv, a) == d_map(b2, a)


def test_xi_dual_compare_b2():
    b2, sub = b2_pair()
    one_cov = MPoly.constant(COVARIANT, 2, 1)
    h_xy = P(2, ((1, 1), 1), space=COVARIANT)
    lhs, rhs, scal = xi_dual_compare(b2, sub, h_xy, one_cov)
    assert lhs == rhs == P(2, ((2, 0), 3), ((0, 2), -3))
    assert scal == ONE

    h_x = P(2, ((1, 0), 1), space=COVARIANT)
    lhs, rhs, scal = xi_dual_compare(b2, sub, h_x, one_cov)
    assert rhs == P(2, ((2, 1), 3), ((0, 3), -1))
    assert scal == CycloScalar.rational(qq("3/2"))
    assert lhs == rhs.scale(scal)

    lhs, rhs, scal = xi_dual_compare(b2, sub, one_cov, one_cov)
    assert rhs == b2.skew_contravariant()
    assert scal == CycloScalar.rational(3)


def test_equivariance_check():
    b2, sub = b2_pair()
    swap = [[0, 1], [1, 0]]
    assert equivariance_check(b2, sub, swap)
    ident = [[1, 0], [0, 1]]
    assert equivariance_check(b2, sub, ident)
    neg = [[-1, 0], [0, -1]]
    assert equivariance_check(b2, sub, neg)
    with pytest.raises(UsageError):
        equivariance_check(b2, sub, [[1, 1], [0, 1]])
    # the explicit swapped instance
    y = P(2, ((0, 1), 1))
    k = P(2, ((2, 0), -1), ((0, 2), 1))
    assert xi_apply(b2, sub, y, k) == P(2, ((2, 1), qq("-3/2")),
                                        ((0, 3), qq("1/2")))


def test_report_repr_and_label():
    b2, sub = b2_pair()
    rep = verify_factorisation(b2, sub)
    assert isinstance(rep, FactorisationReport)
    assert "bijective=True" in repr(rep)


def _pair(name, picks):
    group = catalog(name)
    return group, group.reflection_subgroup(picks)


def _per_tensor_check(group, subgroup, mat, mu):
    """Equivariance tensor by tensor: xi(n.h' (x) n.k) equals
    n.xi(h' (x) k) on every basis tensor, with each image xi(h' (x) k)
    read back from its row of the coordinate matrices mu and each moved
    tensor projected afresh, so that mu is not read on both sides."""
    inv = mat_inv(coerce_matrix(mat))
    ctx = factorisation._pair_ctx(group, subgroup)
    subH = harmonic_basis(subgroup)
    fixed = factorisation._fixed_harmonics(ctx, group, subgroup,
                                           CONTRAVARIANT)
    bigH = harmonic_basis(group)
    for (i, j), block in mu.items():
        tensors = itertools.product(subH.basis(i), fixed.basis(j))
        for (hp, k), row in zip(tensors, block):
            image = MPoly.zero(CONTRAVARIANT, group.dim)
            for c, b in zip(row, bigH.basis(i + j)):
                image = image + b.scale(c)
            moved = project_to_H(group, hp.act(mat, inv) * k.act(mat, inv))[0]
            if moved != image.act(mat, inv):
                return False
    return True


@pytest.mark.parametrize("name,picks", [("weyl:B:3", [0, 1]),
                                        ("gmpn:3:1:2", [0, 5])])
def test_equivariance_check_agrees_with_per_tensor_check(name, picks):
    group, sub = _pair(name, picks)
    mu = factorisation._mu(factorisation._pair_ctx(group, sub), group, sub)
    normalizers = factorisation._builtin_normalizers(group, sub)
    assert len(normalizers) >= 2
    for _, mat in normalizers:
        assert equivariance_check(group, sub, mat) == \
            _per_tensor_check(group, sub, mat, mu)


def test_equivariance_check_detects_a_corrupted_coordinate():
    # blocks (0, 0) and (3, 6) sit on H_0 and H_N, where every normaliser
    # acts by a scalar, and -id acts by a sign on every piece, so neither
    # could see a change there
    group, sub = _pair("weyl:B:3", [0, 1])
    mu = factorisation._mu(factorisation._pair_ctx(group, sub), group, sub)
    normalizers = factorisation._builtin_normalizers(group, sub)
    assert all(equivariance_check(group, sub, mat) for _, mat in normalizers)
    block = mu[(1, 0)]
    block[0][0] = block[0][0] + ONE
    assert not all(equivariance_check(group, sub, mat)
                   for _, mat in normalizers)
    assert not all(_per_tensor_check(group, sub, mat, mu)
                   for _, mat in normalizers)


def test_equivariance_check_moves_and_projects_no_tensor(monkeypatch):
    # the action matrices come from images of monomials, so no polynomial
    # is moved by MPoly.act either
    group, sub = _pair("weyl:B:3", [0, 1])
    verify_factorisation(group, sub)

    def forbidden(*args):
        raise AssertionError("a tensor was evaluated again")

    monkeypatch.setattr(MPoly, "act", forbidden)
    monkeypatch.setattr(factorisation, "xi_apply", forbidden)
    monkeypatch.setattr(factorisation, "_harmonic_coords", forbidden)
    for _, mat in factorisation._builtin_normalizers(group, sub):
        assert equivariance_check(group, sub, mat)


def test_equivariance_check_inverts_the_normalizer_once(monkeypatch):
    # the three bases are on S(V*), so the inverse taken for the
    # normaliser test is the substitution of every degree piece
    group, sub = _pair("weyl:B:3", [0, 1])
    verify_factorisation(group, sub)
    calls = []

    def counting(mat):
        calls.append(1)
        return mat_inv(mat)

    monkeypatch.setattr(factorisation, "mat_inv", counting)
    monkeypatch.setattr(harmonics, "mat_inv", counting)
    for _, mat in factorisation._builtin_normalizers(group, sub):
        calls.clear()
        assert equivariance_check(group, sub, mat)
        assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kron_apply_matches_the_dense_kronecker_product(data):
    # the factored tensor action of equivariance_check against the dense
    # product, on rational blocks and on blocks over Q(zeta_3), Q(zeta_12)
    zeta = data.draw(st.sampled_from([ONE * 0, CycloScalar.root_of_unity(3),
                                      CycloScalar.root_of_unity(12)]))
    entries = st.builds(lambda u, v: ONE * u + zeta * v,
                        st.integers(-3, 3), st.integers(-3, 3))

    def matrix(nrows, ncols):
        return data.draw(st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows))

    na, nb = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a, b = matrix(na, na), matrix(nb, nb)
    m = matrix(na * nb, data.draw(st.integers(1, 4)))
    dense = [kron_vec(ra, rb) for ra in a for rb in b]
    assert kron_apply(a, b, m) == mat_mul(dense, m)


def test_equivariance_check_sees_a_perturbed_block_through_the_swap_only():
    # the coordinate swap moves H(G')_1 and H(G)_1 of weyl:B:2 <1,2>, so
    # one changed entry of M_10 breaks its check; -id acts on every
    # degree-d piece by (-1)^d, a scalar, which commutes with any M_ij
    group, sub = _pair("weyl:B:2", [1, 2])
    mu = factorisation._mu(factorisation._pair_ctx(group, sub), group, sub)
    swap = [[0, 1], [1, 0]]
    neg = [[-1, 0], [0, -1]]
    assert equivariance_check(group, sub, swap)
    assert equivariance_check(group, sub, neg)
    block = mu[(1, 0)]
    block[0][0] = block[0][0] + ONE
    assert not equivariance_check(group, sub, swap)
    assert equivariance_check(group, sub, neg)


@pytest.mark.parametrize("name,picks", [("weyl:B:3", [0, 1]),
                                        ("gmpn:3:1:2", [0, 5])])
def test_dual_scalars_match_xi_dual_compare_pair_by_pair(name, picks):
    # the report reads each factor's images once; xi_dual_compare builds
    # one pair, and both sides of it agree with the per-pair definition:
    # lhs = xi(D_h skew(G'), e_map(a)) and rhs = D_(ah) skew(G)
    group, sub = _pair(name, picks)
    rep = verify_factorisation(group, sub)
    subHc = harmonic_basis(sub, space=COVARIANT)
    fixedc = factorisation._fixed_harmonics(
        factorisation._pair_ctx(group, sub), group, sub, COVARIANT)
    assert len(rep.dual_scalars) == subHc.dimension() * fixedc.dimension()
    for entry in rep.dual_scalars:
        h = subHc.basis(entry["h_degree"])[entry["h_index"]]
        a = fixedc.basis(entry["a_degree"])[entry["a_index"]]
        lhs, rhs, scal = xi_dual_compare(group, sub, h, a)
        assert entry["collinear"] == (scal is not None)
        assert entry["scalar"] == (scal.to_json() if scal is not None
                                   else None)
        assert lhs == xi_apply(group, sub,
                               diff_apply(h, sub.skew_contravariant()),
                               e_map(group, sub, a))
        assert rhs == diff_apply(a * h, group.skew_contravariant())
    if name == "weyl:B:3":
        assert not all(e["collinear"] for e in rep.dual_scalars)

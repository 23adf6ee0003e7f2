import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflharm.errors import UsageError
from reflharm.linalg import mat_mul
from reflharm.mpoly import (
    CONTRAVARIANT,
    COVARIANT,
    MPoly,
    coerce_matrix,
    diff_apply,
    monomials_of_degree,
    pairing,
)
from reflharm.scalars import QQ, CycloScalar


def X(i=0, n=2):
    return MPoly.variable(CONTRAVARIANT, n, i)


def x(i=0, n=2):
    return MPoly.variable(COVARIANT, n, i)


def rand_poly(rng, space, nvars, degree, nterms=4):
    monos = monomials_of_degree(nvars, degree)
    terms = {}
    for _ in range(nterms):
        m = rng.choice(monos)
        terms[m] = terms.get(m, 0) + rng.randint(-4, 4)
    return MPoly(space, nvars, terms)


# some 2x2 symmetries used throughout: coordinate sign flip, swap, rotation
FLIP = coerce_matrix([[-1, 0], [0, 1]])
SWAP = coerce_matrix([[0, 1], [1, 0]])
ROT = coerce_matrix([[0, -1], [1, 0]])


def test_monomials_of_degree_order_and_count():
    monos = monomials_of_degree(2, 3)
    assert monos == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert len(monomials_of_degree(3, 4)) == math.comb(4 + 2, 2)
    for a, b in zip(monos, monos[1:]):
        assert a > b


def test_arithmetic_fixture_products():
    XX, YY = X(0), X(1)
    assert (XX + YY) * (XX - YY) == XX * XX - YY * YY
    lhs = (XX * YY) * (XX * XX - YY * YY)
    assert lhs == MPoly(CONTRAVARIANT, 2, {(3, 1): 1, (1, 3): -1})
    assert str(lhs) == "X^3*Y - X*Y^3"
    assert lhs.scale(0).is_zero()


def test_pow_and_homogeneity():
    p = (X(0) + X(1)) ** 2
    assert p == MPoly(CONTRAVARIANT, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert p.homogeneous_degree() == 2
    q = p + MPoly.constant(CONTRAVARIANT, 2, 1)
    assert q.homogeneous_degree() is None
    assert q.degree() == 2


def test_space_mixing_rejected():
    with pytest.raises(UsageError):
        X(0) + x(0)
    with pytest.raises(UsageError):
        X(0) * x(0)
    with pytest.raises(UsageError):
        diff_apply(X(0), X(1))
    with pytest.raises(UsageError):
        pairing(X(0), X(1))


def test_act_scalar_on_line():
    e = 6
    z = CycloScalar.root_of_unity(e)
    g = [[z]]
    P = MPoly.monomial(CONTRAVARIANT, (e - 1,))
    assert P.act(g) == P.scale(z)


def test_act_reflection_fixtures():
    P = X(0) * X(1)
    assert P.act(FLIP) == -P
    assert MPoly.monomial(CONTRAVARIANT, (2, 0)).act(SWAP) == \
        MPoly.monomial(CONTRAVARIANT, (0, 2))


def test_act_is_left_action():
    rng = random.Random(12)
    mats = [FLIP, SWAP, ROT]
    for space in (CONTRAVARIANT, COVARIANT):
        for _ in range(12):
            g = rng.choice(mats)
            h = rng.choice(mats)
            P = rand_poly(rng, space, 2, rng.randint(1, 4))
            assert P.act(h).act(g) == P.act(mat_mul(g, h))


def test_act_monomial_path_matches_general():
    rng = random.Random(77)
    z = CycloScalar.root_of_unity(3)
    g = coerce_matrix([[0, z], [1, 0]])     # monomial matrix over Q(z3)
    n = len(g)
    for space in (CONTRAVARIANT, COVARIANT):
        for _ in range(8):
            P = rand_poly(rng, space, 2, rng.randint(1, 5))
            fast = P.act(g)
            # force the substitution path
            if space == CONTRAVARIANT:
                from reflharm.linalg import mat_inv
                sub = mat_inv(g)
            else:
                sub = [[g[i][j] for i in range(n)] for j in range(n)]
            forms = [MPoly(space, n, {tuple(1 if k == j else 0 for k in range(n)): sub[i][j]
                                      for j in range(n) if sub[i][j]})
                     for i in range(n)]
            assert fast == P.substitute(forms)


def test_act_preserves_products_and_degree():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_poly(rng, CONTRAVARIANT, 2, 2)
        b = rand_poly(rng, CONTRAVARIANT, 2, 3)
        g = rng.choice([FLIP, SWAP, ROT])
        assert (a * b).act(g) == a.act(g) * b.act(g)
        assert (a + b).act(g) == a.act(g) + b.act(g)
        if a:
            assert a.act(g).degree() == a.degree()


def test_diff_fixtures():
    assert diff_apply(x(0), MPoly.monomial(CONTRAVARIANT, (3, 0))) == \
        MPoly(CONTRAVARIANT, 2, {(2, 0): 3})
    r2 = x(0) * x(0) + x(1) * x(1)
    assert diff_apply(r2, X(0) * X(0) - X(1) * X(1)).is_zero()
    pi = MPoly(CONTRAVARIANT, 2, {(3, 1): 1, (1, 3): -1})
    assert diff_apply(x(0) * x(1), pi) == \
        MPoly(CONTRAVARIANT, 2, {(2, 0): 3, (0, 2): -3})


def test_diff_is_algebra_action():
    rng = random.Random(31)
    for _ in range(10):
        a = rand_poly(rng, COVARIANT, 2, rng.randint(1, 2))
        b = rand_poly(rng, COVARIANT, 2, rng.randint(1, 2))
        P = rand_poly(rng, CONTRAVARIANT, 2, rng.randint(2, 5))
        assert diff_apply(a * b, P) == diff_apply(a, diff_apply(b, P))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_diff_apply_operators_commute(data):
    # D_(ah) = D_h D_a: the dual pairs of the factorisation report take
    # D_h of d_map(a) for D_(ah) of the skew product
    nvars = data.draw(st.integers(1, 3))
    z3 = CycloScalar.root_of_unity(3)

    def poly(space, max_degree):
        exps = st.tuples(*[st.integers(0, max_degree)] * nvars)
        terms = data.draw(st.dictionaries(
            exps, st.integers(-5, 5).filter(bool), max_size=4))
        scale = data.draw(st.sampled_from([CycloScalar.rational(1), z3]))
        return MPoly(space, nvars, {e: scale * c for e, c in terms.items()})

    a, h = poly(COVARIANT, 2), poly(COVARIANT, 2)
    p = poly(CONTRAVARIANT, 5)
    assert diff_apply(a * h, p) == diff_apply(h, diff_apply(a, p))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_diff_apply_on_a_monomial_is_falling_factorials(data):
    # D_op(X^beta) = sum_alpha c_alpha prod_i beta_i!/(beta_i - alpha_i)!
    # X^(beta - alpha), a term dropped when some alpha_i > beta_i; on
    # either variable side
    nvars = data.draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    beta = data.draw(exps)
    op_terms = data.draw(st.dictionaries(
        exps, st.integers(-5, 5).filter(bool), max_size=4))
    z3 = CycloScalar.root_of_unity(3)
    scale = data.draw(st.sampled_from([CycloScalar.rational(1), z3, 1 - z3]))
    op_space = data.draw(st.sampled_from([COVARIANT, CONTRAVARIANT]))
    target_space = COVARIANT if op_space == CONTRAVARIANT else CONTRAVARIANT
    op = MPoly(op_space, nvars, {a: scale * c for a, c in op_terms.items()})
    want = {}
    for alpha, c in op_terms.items():
        if any(a > b for a, b in zip(alpha, beta)):
            continue
        f = 1
        for a, b in zip(alpha, beta):
            f *= math.factorial(b) // math.factorial(b - a)
        low = tuple(b - a for a, b in zip(alpha, beta))
        want[low] = scale * (c * f)
    got = diff_apply(op, MPoly.monomial(target_space, beta))
    assert got == MPoly(target_space, nvars, want)
    assert got.space == target_space


def test_diff_drops_degree():
    a = x(0) * x(1)
    P = MPoly.monomial(CONTRAVARIANT, (2, 2))
    out = diff_apply(a, P)
    assert out.homogeneous_degree() == 2


def test_pairing_fixtures():
    assert pairing(x(0) ** 2, X(0) ** 2) == 2
    assert pairing(x(0) * x(1), X(0) * X(1)) == 1
    assert pairing(x(0) ** 2, X(1) ** 2) == 0


def test_pairing_gram_is_multifactorial_diagonal():
    for nvars in (1, 2, 3):
        for d in range(0, 7):
            monos = monomials_of_degree(nvars, d)
            for i, a in enumerate(monos):
                for j, b in enumerate(monos):
                    val = pairing(MPoly.monomial(COVARIANT, a),
                                  MPoly.monomial(CONTRAVARIANT, b))
                    if i == j:
                        expect = 1
                        for e in a:
                            expect *= math.factorial(e)
                        assert val == expect
                    else:
                        assert val == 0


def test_equivariance_of_diff_and_pairing():
    rng = random.Random(8)
    z = CycloScalar.root_of_unity(4)
    mats = [FLIP, SWAP, ROT, coerce_matrix([[z, 0], [0, z.conj()]])]
    for _ in range(25):
        g = rng.choice(mats)
        a = rand_poly(rng, COVARIANT, 2, rng.randint(1, 3))
        P = rand_poly(rng, CONTRAVARIANT, 2, rng.randint(1, 4))
        assert diff_apply(a, P).act(g) == diff_apply(a.act(g), P.act(g))
        assert pairing(a.act(g), P.act(g)) == pairing(a, P)


def test_evaluate():
    p = X(0) ** 2 + X(1)
    assert p.evaluate([QQ(2), QQ(3)]) == 7
    assert p.evaluate([0, 0]) == 0


def test_json_roundtrip_ordered():
    p = MPoly(CONTRAVARIANT, 2, {(1, 3): -1, (3, 1): 1})
    data = p.to_json()
    assert data["space"] == "S(V*)"
    assert data["vars"] == 2
    assert [t["exp"] for t in data["terms"]] == [[3, 1], [1, 3]]
    assert MPoly.from_json(data) == p
    q = MPoly(COVARIANT, 3, {(0, 1, 2): QQ(5, 3)})
    assert MPoly.from_json(q.to_json()) == q


def test_str_rendering():
    assert str(MPoly.zero(CONTRAVARIANT, 2)) == "0"
    p = MPoly(CONTRAVARIANT, 2, {(3, 0): 1, (1, 2): -3})
    assert str(p) == "X^3 - 3*X*Y^2"
    c = MPoly.constant(COVARIANT, 2, QQ(1, 2))
    assert str(c) == "1/2"
    assert str(MPoly(COVARIANT, 2, {(1, 1): 1})) == "x*y"


def test_coefficient_and_vector_roundtrip():
    p = MPoly(CONTRAVARIANT, 2, {(2, 1): 4, (0, 3): -1})
    monos = monomials_of_degree(2, 3)
    vec = p.coeff_vector(monos)
    assert MPoly.from_vector(CONTRAVARIANT, monos, vec) == p
    assert p.coefficient((2, 1)) == 4
    assert p.coefficient((3, 0)) == 0

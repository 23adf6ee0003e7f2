import cmath
import doctest
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflharm.scalars
from reflharm.errors import DomainError, UsageError
from reflharm.scalars import (
    QQ,
    CycloScalar,
    RatPoly,
    cyclotomic_polynomial,
    divisors,
    dot_products,
    euler_phi,
    from_numerators,
    numerators_at,
    qq,
    qq_str,
    regular_representation,
)


def rand_scalar(rng, order, span=6):
    phi = euler_phi(order)
    coeffs = [QQ(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(phi)]
    return CycloScalar(order, coeffs)


# ---------------------------------------------------------------------------
# rationals, polynomials, series


def test_qq_parsing():
    assert qq("3/4") == QQ(3, 4)
    assert qq("-7") == QQ(-7)
    assert qq(5) == QQ(5)
    assert qq_str(QQ(3, 4)) == "3/4"
    assert qq_str(QQ(-8, 2)) == "-4"


def test_ratpoly_basic_arithmetic():
    p = RatPoly([1, 2, 3])  # 3t^2 + 2t + 1
    q = RatPoly([0, 1])     # t
    assert (p * q).coeffs == (QQ(0), QQ(1), QQ(2), QQ(3))
    assert (p + q).coeffs == (QQ(1), QQ(3), QQ(3))
    assert (p - p) == RatPoly()
    assert p(QQ(2)) == QQ(17)
    assert str(RatPoly([1, 0, -1])) == "- t^2 + 1" or str(RatPoly([1, 0, -1])) == "-t^2 + 1"


def test_ratpoly_divmod_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        a = RatPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
        b = RatPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        if not b:
            continue
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree or not rem


def test_ratpoly_exact_div_rejects_remainder():
    with pytest.raises(DomainError):
        RatPoly([1, 1]).exact_div(RatPoly([0, 1]))


def test_cyclotomic_small_tables():
    expect = {
        1: [-1, 1],
        2: [1, 1],
        3: [1, 1, 1],
        4: [1, 0, 1],
        6: [1, -1, 1],
        8: [1, 0, 0, 0, 1],
        9: [1, 0, 0, 1, 0, 0, 1],
        12: [1, 0, -1, 0, 1],
    }
    for n, coeffs in expect.items():
        assert list(cyclotomic_polynomial(n).coeffs) == [QQ(c) for c in coeffs]


def test_cyclotomic_product_identity():
    for k in range(1, 13):
        prod = RatPoly([1])
        for d in divisors(k):
            prod = prod * cyclotomic_polynomial(d)
        target = RatPoly([-1] + [0] * (k - 1) + [1])
        assert prod == target


def test_cyclotomic_degree_is_phi():
    for n in range(1, 30):
        assert cyclotomic_polynomial(n).degree == euler_phi(n)


# ---------------------------------------------------------------------------
# cyclotomic scalars: frozen identities


def test_fourth_root_squares_to_minus_one():
    i = CycloScalar.root_of_unity(4)
    assert i * i == CycloScalar.rational(-1)
    assert i * i == -1
    assert (i * i).reduce().order == 1


def test_sixth_root_in_terms_of_third():
    z6 = CycloScalar.root_of_unity(6)
    z3 = CycloScalar.root_of_unity(3)
    assert z6 == CycloScalar.rational(1) + z3
    red = z6.reduce()
    assert red.order == 3
    assert red.coeffs == (QQ(1), QQ(1))


def test_eighth_root_identities():
    z8 = CycloScalar.root_of_unity(8)
    assert z8 ** 2 == CycloScalar.root_of_unity(4)
    assert z8 ** 8 == 1
    assert z8 * z8.conj() == 1
    assert z8.conj() == z8 ** 7


def test_power_is_repeated_product_with_no_spare_square(monkeypatch):
    x = CycloScalar.root_of_unity(12) + CycloScalar.rational(QQ(1, 3))
    products = []
    real = CycloScalar.__mul__

    def counting(a, b):
        products.append(1)
        return real(a, b)

    acc = CycloScalar.rational(1)
    for k in range(13):
        monkeypatch.setattr(CycloScalar, "__mul__", counting)
        products.clear()
        got = x ** k
        # square-and-multiply: bit_length - 1 squares, popcount - 1 products
        want = max(k.bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0)
        assert len(products) == want, k
        monkeypatch.undo()
        assert got == acc, k
        assert x ** -k * acc == 1, k
        acc = acc * x
    assert x ** 1 is x


def test_root_powers_cycle():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = CycloScalar.root_of_unity(n)
        assert z ** n == 1
        acc = CycloScalar.rational(1)
        for k in range(n):
            assert acc == CycloScalar.root_of_unity(n, k)
            acc = acc * z


def test_sum_of_all_roots_vanishes():
    for n in (2, 3, 4, 5, 6, 7, 12):
        total = CycloScalar.rational(0)
        for k in range(n):
            total = total + CycloScalar.root_of_unity(n, k)
        assert total == 0
        assert not total


def test_field_axioms_random():
    rng = random.Random(202)
    for order in (1, 3, 4, 5, 8, 9, 12, 15, 16, 20, 24):
        for _ in range(6):
            a = rand_scalar(rng, order)
            b = rand_scalar(rng, rng.choice([1, 2, 3, 4, 6, order]))
            c = rand_scalar(rng, order)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a - a == 0
            if a:
                assert a * a.inv() == 1
                assert (a * b) == (a * b)


def test_inverse_random_roundtrip():
    rng = random.Random(7)
    for order in (4, 5, 7, 8, 9, 12, 16, 24, 59):
        for _ in range(8):
            a = rand_scalar(rng, order)
            if not a:
                continue
            assert a * a.inv() == 1
            assert 1 / a == a.inv()
            assert (a / a) == 1


def test_conjugation_is_field_automorphism():
    rng = random.Random(99)
    for order in (3, 4, 5, 8, 12, 15):
        for _ in range(6):
            a = rand_scalar(rng, order)
            b = rand_scalar(rng, order)
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).conj() == a.conj() * b.conj()
            assert a.conj().conj() == a
            # a * conj(a) is fixed by conjugation
            norm = a * a.conj()
            assert norm.conj() == norm


def test_conjugation_fixes_rationals():
    assert CycloScalar.rational(QQ(7, 3)).conj() == QQ(7, 3)


def test_promotion_commutes_with_arithmetic():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_scalar(rng, 4)
        b = rand_scalar(rng, 6)
        s = a + b
        assert s.order == 12
        assert s - b == a
        p = a * b
        if b:
            assert p / b == a


def test_flat_numerators_round_trip_and_multiply():
    rng = random.Random(17)
    for _ in range(20):
        # orders 1, 4, 3 and 12 all divide 12; the minimal conductor of
        # zeta_24^2 is 12, though its order is 24
        values = [rand_scalar(rng, k) for k in (1, 4, 3, 12)]
        values.append(CycloScalar.root_of_unity(24, 2))
        nums, den = numerators_at(values, 12)
        assert math.gcd(den, *nums) == 1
        back = from_numerators(nums, den, 12)
        assert back == values
        assert ([v.order for v in back]
                == [1 if v.is_rational() else 12 for v in values])
        x, y = values[2], values[1]
        xn, xd = numerators_at([x], 12)
        yn, yd = numerators_at([y], 12)
        rows = regular_representation(xn, 12)
        prod = [sum(a * row[s] for a, row in zip(yn, rows))
                for s in range(euler_phi(12))]
        assert from_numerators(prod, xd * yd, 12) == [y * x]
    assert numerators_at([CycloScalar.root_of_unity(5)], 12) is None
    assert numerators_at([CycloScalar.root_of_unity(8)], 12) is None


def test_reduce_finds_minimal_conductor():
    z12 = CycloScalar.root_of_unity(12)
    assert (z12 ** 3).reduce().order == 4    # a primitive 4th root
    assert (z12 ** 2).reduce().order == 3    # a primitive 6th root lives in Q(z3)
    assert (z12 ** 6).reduce().order == 1    # -1
    assert (z12 ** 4).reduce().order == 3
    big = CycloScalar.root_of_unity(24, 0)
    assert big.reduce().order == 1


def test_reduce_avoids_conductor_two_mod_four():
    z6 = CycloScalar.root_of_unity(6)
    assert z6.reduce().order == 3
    z18 = CycloScalar.root_of_unity(18)
    assert z18.reduce().order == 9


def test_reduce_roots_of_unity_to_their_order():
    # zeta_n^k is a primitive f-th root of unity, f = n / gcd(n, k), and
    # Q(zeta_f) = Q(zeta_(f/2)) when f = 2 mod 4
    for n in range(1, 61):
        for k in range(n):
            f = n // math.gcd(n, k)
            if f % 4 == 2:
                f //= 2
            z = CycloScalar.root_of_unity(n, k)
            red = z.reduce()
            assert red.order == f, (n, k)
            assert red == z


def _root_sum(n, signed_powers):
    return sum((s * CycloScalar.root_of_unity(n, k) for k, s in signed_powers),
               CycloScalar.rational(0))


def test_reduce_gauss_sums_back_to_their_conductor():
    # quadratic Gauss sums: each squares to a rational, and its minimal
    # conductor is that of the quadratic field it generates; promoting by
    # a coprime factor makes trace rows of weight p - 1 and -1
    roots = {
        3: (_root_sum(3, [(0, 1), (1, 2)]), -3),                      # 1 + 2 z3
        5: (_root_sum(5, [(1, 1), (2, -1), (3, -1), (4, 1)]), 5),
        8: (_root_sum(8, [(1, 1), (7, 1)]), 2),                       # z8 + z8^-1
        7: (_root_sum(7, [(1, 1), (2, 1), (3, -1), (4, 1), (5, -1), (6, -1)]),
            -7),
    }
    for conductor, (root, square) in roots.items():
        assert root * root == square
        base = root.reduce()
        assert base.order == conductor
        for k in (3, 4, 5, 7):
            red = root.promote(conductor * k).reduce()
            assert (red.order, red.nums, red.den) == (
                conductor, base.nums, base.den), (conductor, k)


def test_hash_consistent_across_conductors():
    a = CycloScalar.root_of_unity(12, 3)
    b = CycloScalar.root_of_unity(4)
    assert a == b
    assert hash(a) == hash(b)
    r = CycloScalar(8, [QQ(5), QQ(0), QQ(0), QQ(0)])
    assert r == 5
    assert hash(r) == hash(CycloScalar.rational(5))


def test_as_rational_and_failure():
    r = CycloScalar(12, [QQ(2, 3), QQ(0), QQ(0), QQ(0)])
    assert r.is_rational()
    assert r.as_rational() == QQ(2, 3)
    with pytest.raises(DomainError):
        CycloScalar.root_of_unity(5).as_rational()


def test_zero_inverse_rejected():
    with pytest.raises(DomainError):
        CycloScalar.rational(0).inv()


def test_coefficient_length_checked():
    with pytest.raises(UsageError):
        CycloScalar(12, [1, 2, 3])


def test_json_roundtrip_is_canonical():
    rng = random.Random(31)
    for order in (1, 4, 5, 12, 16):
        for _ in range(5):
            a = rand_scalar(rng, order)
            data = a.to_json()
            assert set(data) == {"order", "coeffs"}
            assert all(isinstance(c, str) for c in data["coeffs"])
            back = CycloScalar.from_json(data)
            assert back == a
            assert back.to_json() == data
    # reduction happens before serialisation
    z = CycloScalar.root_of_unity(12, 3)
    assert z.to_json() == {"order": 4, "coeffs": ["0", "1"]}


def test_to_json_matches_the_rational_coefficient_formula():
    """to_json writes each "p/q" from the integer numerators; the
    reference goes through the rational coefficients and qq_str."""
    def reference(x):
        r = x.reduce()
        return {"order": r.order, "coeffs": [qq_str(c) for c in r.coeffs]}

    rng = random.Random(26)
    for order in range(1, 61):
        phi = euler_phi(order)
        pool = [CycloScalar(order, [0] * phi),
                # numerators sharing factors with the common denominator 12
                CycloScalar(order, [QQ(rng.choice((-6, -4, -3, 0, 2, 9)), 12)
                                    for _ in range(phi)]),
                # a rational written at conductor `order`
                CycloScalar.rational(QQ(rng.randint(-9, 9), 6)).promote(order)]
        for _ in range(6):
            x = rand_scalar(rng, order, span=30)
            pool += [x, -x]
            for p in (2, 3):
                if order % p == 0:
                    # written at `order`, reducing to conductor order / p
                    pool.append(rand_scalar(rng, order // p).promote(order))
        for x in pool:
            assert x.to_json() == reference(x), (order, x.nums, x.den)


def test_sort_key_total_order():
    rng = random.Random(13)
    pool = [rand_scalar(rng, o) for o in (1, 3, 4, 4, 8, 12) for _ in range(4)]
    keys = [s.sort_key() for s in pool]
    order1 = sorted(range(len(pool)), key=lambda i: keys[i])
    # equal scalars get equal keys
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            if a == b:
                assert keys[i] == keys[j]
    assert order1 == sorted(order1, key=lambda i: keys[i])


def test_str_forms():
    assert str(CycloScalar.rational(QQ(-3, 2))) == "-3/2"
    z4 = CycloScalar.root_of_unity(4)
    assert str(z4) == "z4"
    assert str(-z4) == "-z4"
    assert str(CycloScalar.rational(1) + z4) == "1 + z4"


def test_scalars_docstring_examples():
    result = doctest.testmod(reflharm.scalars)
    assert result.attempted > 0 and result.failed == 0


# ---------------------------------------------------------------------------
# cyclotomic scalars: properties over mixed conductors

CONDUCTORS = (1, 3, 4, 5, 8, 12, 24)
_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _scalars(draw, orders=CONDUCTORS):
    order = draw(st.sampled_from(orders))
    phi = euler_phi(order)
    coeffs = draw(st.lists(_fractions, min_size=phi, max_size=phi))
    return CycloScalar(order, coeffs)


def _ref_str(f):
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (
        f.numerator, f.denominator)


def _ref_display(order, fracs):
    """The display form, written out on per-coefficient Fractions."""
    if order == 1:
        return _ref_str(fracs[0])
    parts = []
    for k, c in enumerate(fracs):
        if not c:
            continue
        zk = "z%d" % order if k == 1 else "z%d^%d" % (order, k)
        if k == 0:
            term = _ref_str(c)
        elif c in (1, -1):
            term = zk if c == 1 else "-" + zk
        else:
            term = "%s*%s" % (_ref_str(c), zk)
        if parts and term.startswith("-"):
            parts.append("- " + term[1:])
        elif parts:
            parts.append("+ " + term)
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def _complex(x):
    """x as a complex number, summed from its rational coefficients."""
    zeta = cmath.exp(2j * cmath.pi / x.order)
    return sum(float(c) * zeta ** k for k, c in enumerate(x.coeffs))


def _assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert len(x.nums) == euler_phi(x.order)


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_field_axioms_mixed_conductors(a, b, c):
    zero, one = CycloScalar.rational(0), CycloScalar.rational(1)
    for x in (a + b, a - b, a * b, -a, a.conj()):
        _assert_canonical(x)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert (a - b) + b == a
    assert a - a == 0 and a + (-a) == zero
    za, zb = _complex(a), _complex(b)
    assert cmath.isclose(_complex(a + b), za + zb, abs_tol=1e-9)
    assert cmath.isclose(_complex(a - b), za - zb, abs_tol=1e-9)
    assert cmath.isclose(_complex(a * b), za * zb, abs_tol=1e-9)
    assert cmath.isclose(_complex(a.conj()), za.conjugate(), abs_tol=1e-9)
    assert cmath.isclose(_complex(a.reduce()), za, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(_scalars())
def test_inverse_is_two_sided(a):
    if not a:
        with pytest.raises(DomainError):
            a.inv()
        return
    inv = a.inv()
    _assert_canonical(inv)
    assert a * inv == 1 and inv * a == 1
    assert inv.inv() == a


@settings(max_examples=60, deadline=None)
@given(_scalars(), st.integers(-50, 50))
def test_mul_by_int_matches_mul_by_rational(a, k):
    # the int shortcut gives the very representation of the general path
    want = a * CycloScalar.rational(k)
    for got in (a * k, k * a):
        _assert_canonical(got)
        assert (got.order, got.nums, got.den) == (
            want.order, want.nums, want.den)


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars())
def test_conj_is_a_multiplicative_involution(a, b):
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars())
def test_reduce_is_idempotent(a, b):
    for x in (a, a * b, a + b):
        red = x.reduce()
        _assert_canonical(red)
        again = red.reduce()
        assert (again.order, again.nums, again.den) == (
            red.order, red.nums, red.den)
        assert red == x
        assert red.order <= x.order and red.order % 4 != 2
        assert red.is_rational() == (red.order == 1)


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars(), st.sampled_from((1, 2, 3, 6)))
def test_eq_hash_and_sort_key_agree_across_conductors(a, b, k):
    up = a.promote(a.order * k)
    assert up.order == a.order * k
    assert up == a and a == up
    assert hash(up) == hash(a)
    assert up.sort_key() == a.sort_key()
    assert up.to_json() == a.to_json() and str(up) == str(a)
    same = a == b
    assert same == (a.sort_key() == b.sort_key())
    if same:
        assert hash(a) == hash(b)
    assert (a - b == 0) == same


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars())
def test_outputs_match_a_per_coefficient_fraction_reference(a, b):
    order = a.order
    fracs = [Fraction(x, a.den) for x in a.nums]
    assert a.coeffs == tuple(fracs)
    assert CycloScalar(order, fracs).coeffs == tuple(fracs)
    for x in (a, a * b, a + b, a.conj()):
        red = x.reduce()
        ref = [Fraction(n, red.den) for n in red.nums]
        assert red.coeffs == tuple(ref)
        assert x.sort_key() == (red.order,) + tuple(
            (f.numerator, f.denominator) for f in ref)
        assert x.to_json() == {"order": red.order,
                               "coeffs": [_ref_str(f) for f in ref]}
        assert str(x) == _ref_display(red.order, ref)
        if red.order == 1:
            assert x.as_rational() == ref[0]


# ---------------------------------------------------------------------------
# packed dot products

_BIG = 2 ** 80
_packed_numerators = st.one_of(st.integers(-6, 6),
                               st.integers(_BIG - 9, _BIG),
                               st.integers(-_BIG, 9 - _BIG))


@st.composite
def _packed_scalars(draw):
    order = draw(st.sampled_from((1, 3, 4, 5, 8, 12)))
    phi = euler_phi(order)
    den = draw(st.sampled_from((1, 1, 2, 3, 35)))
    nums = draw(st.lists(_packed_numerators, min_size=phi, max_size=phi))
    return CycloScalar(order, [Fraction(x, den) for x in nums])


def _packed_matrix(draw, width):
    height = draw(st.integers(0, 3))
    return [draw(st.lists(_packed_scalars(), min_size=width,
                          max_size=width)) for _ in range(height)]


def _assert_dot_products(rows, cols):
    got = dot_products(rows, cols)
    want = [[sum((a * b for a, b in zip(row, col)), CycloScalar.rational(0))
             for col in cols] for row in rows]
    assert len(got) == len(rows)
    for got_line, want_line in zip(got, want):
        assert len(got_line) == len(cols)
        for g, w in zip(got_line, want_line):
            _assert_canonical(g)
            assert g == w


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dot_products_match_the_cyclotomic_sum(data):
    # every entry draws its own conductor, so rows mix conductors
    width = data.draw(st.integers(0, 4))
    _assert_dot_products(_packed_matrix(data.draw, width),
                         _packed_matrix(data.draw, width))


@pytest.mark.parametrize("order", [1, 3, 4, 5, 8, 12])
def test_dot_products_reach_the_shift_bound(order):
    # equal numerators of opposite signs: the middle coefficient of each
    # packed sum is -K * phi * max|a| * max|b|, the bound itself
    phi = euler_phi(order)
    a = CycloScalar(order, [_BIG] * phi)
    b = CycloScalar(order, [-_BIG] * phi)
    _assert_dot_products([[a] * 3, [b] * 3], [[b] * 3, [a] * 3, [a, b, a]])

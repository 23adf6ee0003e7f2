import hashlib
import json
import math
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflharm import linalg
from reflharm.errors import DomainError
from reflharm.groups import catalog
from reflharm.harmonics import harmonic_basis
from reflharm.linalg import (
    SpanSolver,
    det,
    identity_matrix,
    kernel_basis,
    kron_vec,
    mat_inv,
    mat_mul,
    mat_vec,
    rank,
    rational_echelon,
    rref,
    rref_integer,
    rref_with_transform,
    vec_mat,
)
from reflharm.scalars import QQ, CycloScalar


def rand_matrix(rng, m, n, density=1.0, span=6):
    return [[QQ(rng.randint(-span, span)) if rng.random() < density else QQ(0)
             for _ in range(n)] for _ in range(m)]


def test_rref_known_example():
    ech, piv = rref([[QQ(0), QQ(2), QQ(4)], [QQ(1), QQ(1), QQ(1)]])
    assert piv == [0, 1]
    assert ech == [[QQ(1), QQ(0), QQ(-1)], [QQ(0), QQ(1), QQ(2)]]


def test_rref_is_canonical_under_row_shuffle():
    rng = random.Random(4)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        mat = rand_matrix(rng, m, n, density=0.7)
        ech1, piv1 = rref(mat)
        shuffled = mat[:]
        rng.shuffle(shuffled)
        # mixing rows changes nothing either
        if len(shuffled) >= 2:
            shuffled[0] = [a + b for a, b in zip(shuffled[0], shuffled[1])]
        ech2, piv2 = rref(shuffled)
        assert piv1 == piv2
        assert ech1 == ech2


def test_kernel_vectors_annihilated():
    rng = random.Random(9)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 8)
        mat = rand_matrix(rng, m, n, density=0.6)
        ker = kernel_basis(mat, n)
        assert len(ker) == n - rank(mat)
        for v in ker:
            assert all(not x for x in mat_vec(mat, v))


def test_kernel_of_nothing_is_identity():
    assert kernel_basis([], 3) == identity_matrix(3)


def test_span_solver_roundtrip():
    rng = random.Random(17)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        mat = rand_matrix(rng, m, n)
        solver = SpanSolver(mat)
        coeffs = [QQ(rng.randint(-3, 3)) for _ in range(m)]
        target = [sum((c * row[j] for c, row in zip(coeffs, mat)), QQ(0))
                  for j in range(n)]
        got = solver.express(target)
        assert got is not None
        rebuilt = [sum((c * row[j] for c, row in zip(got, mat)), QQ(0))
                   for j in range(n)]
        assert rebuilt == target
        assert solver.contains(target)


def test_span_solver_rejects_outside_vector():
    solver = SpanSolver([[QQ(1), QQ(0), QQ(0)], [QQ(0), QQ(1), QQ(0)]])
    assert solver.express([QQ(0), QQ(0), QQ(1)]) is None
    assert not solver.contains([QQ(1), QQ(1), QQ(1)])


def test_matrix_inverse():
    rng = random.Random(23)
    found = 0
    while found < 10:
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        if not det(a):
            continue
        found += 1
        inv = mat_inv(a)
        assert mat_mul(a, inv) == identity_matrix(n)
        assert mat_mul(inv, a) == identity_matrix(n)


def test_singular_inverse_rejected():
    with pytest.raises(DomainError):
        mat_inv([[QQ(1), QQ(2)], [QQ(2), QQ(4)]])


def test_det_values_and_multiplicativity():
    assert det([[QQ(2)]]) == 2
    assert det([[QQ(1), QQ(2)], [QQ(3), QQ(4)]]) == -2
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        b = rand_matrix(rng, n, n)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_and_rref_over_cyclotomics():
    i = CycloScalar.root_of_unity(4)
    one = CycloScalar.rational(1)
    zero = CycloScalar.rational(0)
    rot = [[zero, -one], [one, zero]]          # rotation by i as a real pair
    assert det(rot) == 1
    diag = [[i, zero], [zero, i.conj()]]
    assert det(diag) == 1
    ech, piv = rref([[i, one], [zero, one]])
    assert piv == [0, 1]
    assert ech[0][0] == 1 and ech[1][1] == 1
    inv = mat_inv(diag)
    assert mat_mul(diag, inv) == identity_matrix(2)


def test_mat_inv_of_rational_cyclo_matrix_inverts_no_scalar(monkeypatch):
    a = [[CycloScalar.rational(x) for x in row]
         for row in ([2, 1, 0], [QQ(1, 3), 0, -1], [5, QQ(-1, 2), 4])]

    def no_inverse(x):
        raise AssertionError("a rational elimination inverted a scalar")

    monkeypatch.setattr(CycloScalar, "inv", no_inverse)
    inv = mat_inv(a)
    assert mat_mul(a, inv) == identity_matrix(3)
    assert all(isinstance(x, CycloScalar) for row in inv for x in row)


# Property tests: small rational matrices, few examples, so they stay fast.

_entries = st.integers(-4, 4).map(QQ)


def _vectors(n):
    return st.lists(_entries, min_size=n, max_size=n)


def _matrices(m, n):
    return st.lists(_vectors(n), min_size=m, max_size=m)


def _combine(coeffs, rows):
    return [sum((c * row[j] for c, row in zip(coeffs, rows)), QQ(0))
            for j in range(len(rows[0]))]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rref_invariant_under_row_operations(data):
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    mat = data.draw(_matrices(m, n))
    want = rref(mat)
    assert rref(data.draw(st.permutations(mat))) == want
    if m >= 2:
        i, j = data.draw(st.permutations(range(m)))[:2]
        f = data.draw(_entries)
        mixed = mat[:]
        mixed[i] = [a + f * b for a, b in zip(mat[i], mat[j])]
        assert rref(mixed) == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_span_solver_roundtrip_on_dependent_rows(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(n + 1, n + 3))
    mat = data.draw(_matrices(m, n))
    target = _combine(data.draw(_vectors(m)), mat)
    got = SpanSolver(mat).express(target)
    assert got is not None and len(got) == m
    assert _combine(got, mat) == target


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_span_solver_none_outside_span(data):
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    mat = data.draw(_matrices(m, n))
    vec = data.draw(_vectors(n))
    solver = SpanSolver(mat)
    inside = rank(mat + [vec]) == rank(mat)
    assert (solver.express(vec) is None) == (not inside)
    assert solver.contains(vec) == inside


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_vec_mat_adds_the_row_combination(data):
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    mat = data.draw(_matrices(m, n))
    coeffs, acc = data.draw(_vectors(m)), data.draw(_vectors(n))
    got = vec_mat(coeffs, mat, acc)
    assert got == [a + b for a, b in zip(acc, _combine(coeffs, mat))]
    assert vec_mat([], [], acc) == acc and vec_mat([], [], acc) is not acc


def test_kron_vec_entry_order():
    a, b = [QQ(2), QQ(0), QQ(-1)], [QQ(1), QQ(3)]
    assert kron_vec(a, b) == [a[i] * b[j] for i in range(3) for j in range(2)]


# Rational rows are eliminated on integers; the field loop is the reference
# they must agree with.

_fractions = st.one_of(st.just(QQ(0)),
                       st.builds(QQ, st.integers(-6, 6), st.integers(1, 12)))


@st.composite
def _rational_rows(draw):
    """Shuffled QQ rows with denominators up to 12: the empty list, rows of
    width 0, and up to 7 rows of width up to 7 (so m < n and m > n), with
    up to 2 duplicate and 2 zero rows added."""
    n = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(_fractions, min_size=n, max_size=n),
                         max_size=7))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    rows += [[QQ(0)] * n] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(_rational_rows())
@example([])
@example([[], []])
@example([[QQ(0), QQ(0)], [QQ(1, 2), QQ(-1, 3)], [QQ(1, 2), QQ(-1, 3)]])
@example([[QQ(1, 12), QQ(5, 7)], [QQ(3), QQ(0)], [QQ(0), QQ(1)]])
def test_rational_rref_matches_cyclotomic_loop(rows):
    cyclo = [[CycloScalar.rational(a) for a in row] for row in rows]
    ech, piv = rref(cyclo)
    want, want_piv = linalg._rref_field([list(row) for row in cyclo])
    assert piv == want_piv
    assert ech == want
    assert rref(rows) == (ech, piv)


@settings(max_examples=100, deadline=None)
@given(_rational_rows())
@example([[6, 4, 2], [0, 0, 0], [-3, -2, -1]])
def test_rref_integer_keeps_primitive_multiples_of_the_echelon_rows(rows):
    """Each kept row, divided by its pivot, is the row of rref; it is
    primitive with a positive pivot, and the input rows are not changed."""
    ints = [[int(a * 27720) for a in row] for row in rows]   # lcm(1..12)
    before = [list(row) for row in ints]
    got, piv = rref_integer(ints)
    assert ints == before
    assert (rational_echelon(got, piv), piv) == rref(rows)
    for row, c in zip(got, piv):
        assert row[c] > 0 and math.gcd(*row) == 1


def test_rational_values_at_any_conductor_take_the_integer_path(monkeypatch):
    rows = [[QQ(1, 2), QQ(-1, 3), QQ(0)], [QQ(-2), QQ(5), QQ(1, 7)]]
    want = rref(rows)
    assert all(a.order == 1 and a.den > 0 for row in want[0] for a in row)
    promoted = [[CycloScalar.rational(a).promote(12) for a in row]
                for row in rows]

    def no_field_loop(mat):
        raise AssertionError("rational values reached the field loop")

    monkeypatch.setattr(linalg, "_rref_field", no_field_loop)
    assert rref(promoted) == want


def test_rref_of_mixed_rational_and_cyclotomic_entries():
    zeta = CycloScalar.root_of_unity(3)
    rows = [[QQ(2), zeta, QQ(0), QQ(1, 2)],
            [QQ(1), QQ(0), zeta * zeta, QQ(0)],
            [QQ(3), zeta, zeta * zeta, QQ(1, 2)]]
    want = rref([[CycloScalar.coerce(a) for a in row] for row in rows])
    assert rref(rows) == want
    assert want[1] == [0, 1]
    assert want[0][0] == [1, 0, zeta * zeta, 0]
    # the identity block appended to rows holding raw rationals
    ech, piv, trans = rref_with_transform(rows)
    assert (ech, piv) == want
    assert mat_mul(trans, rows) == ech


_REFERENCE = pathlib.Path(__file__).parents[1] / "bench" / "reference.json"


@pytest.mark.parametrize("name", ["weyl:A:4", "weyl:D:4"])
def test_rational_derivative_route_avoids_the_cyclotomic_loop(monkeypatch,
                                                              name):
    """With the field loop of `rref` disabled the rational derivative route
    must still give the perp basis, whose digest the benchmark reference
    stores (in the layout of `reflharm harmonics`)."""
    stored = json.loads(_REFERENCE.read_text())
    group = catalog(name)
    group.skew_contravariant()      # reflections: ranks of CycloScalar rows

    def no_field_loop(mat):
        raise AssertionError("rational rows reached the field loop")

    monkeypatch.setattr(linalg, "_rref_field", no_field_loop)
    basis = harmonic_basis(group, "derivative")
    text = json.dumps({"dimension": basis.dimension(),
                       "degrees": {str(d): [p.to_json() for p in basis.basis(d)]
                                   for d in sorted(basis.degrees)}},
                      indent=2, sort_keys=True) + "\n"
    ref = stored["harmonic_basis %s derivative" % name]
    assert hashlib.sha256(text.encode()).hexdigest() == ref["sha256"]

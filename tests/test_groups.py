import itertools

import pytest

from reflharm.errors import CapError, DomainError, UsageError
from reflharm.groups import (
    ReflectionGroup,
    catalog,
    matrix_from_json,
    matrix_to_json,
    registry_names,
    weyl_group,
)
from reflharm.linalg import identity_matrix, mat_inv, mat_mul
from reflharm.mpoly import MPoly, CONTRAVARIANT
from reflharm.scalars import CycloScalar

ONE = CycloScalar.rational(1)


def X_poly(nvars, exps, coeff=1):
    return MPoly(CONTRAVARIANT, nvars, {tuple(exps): CycloScalar.coerce(coeff)})


def test_cyclic_group_basics():
    g = catalog("cyclic:6")
    assert g.order == 6
    assert g.dim == 1
    assert g.reflection_count == 5
    planes = g.hyperplanes()
    assert len(planes) == 1
    assert planes[0].order == 6
    assert g.skew_contravariant() == X_poly(1, (5,))
    assert g.skew_degree() == 5


def test_trivial_group():
    g = catalog("cyclic:1")
    assert g.order == 1
    assert g.reflection_count == 0
    assert g.hyperplanes() == []
    assert g.skew_contravariant() == MPoly.constant(CONTRAVARIANT, 1, 1)


def test_gmpn_orders():
    for m, p, n, expect in [
        (3, 1, 2, 18),
        (3, 3, 2, 6),
        (2, 1, 2, 8),
        (2, 2, 2, 4),
        (4, 2, 2, 16),
        (1, 1, 3, 6),
        (6, 6, 2, 12),
        (4, 4, 3, 96),
    ]:
        assert catalog("gmpn:%d:%d:%d" % (m, p, n)).order == expect


def test_gmpn_312_skew_product():
    g = catalog("gmpn:3:1:2")
    assert g.reflection_count == 7
    assert g.skew_degree() == 7
    # X^2 Y^2 (X^3 - Y^3), exactly
    want = (X_poly(2, (2, 0)) * X_poly(2, (0, 2))
            * (X_poly(2, (3, 0)) - X_poly(2, (0, 3))))
    assert g.skew_contravariant() == want


def test_weyl_orders_and_reflection_counts():
    data = [
        ("weyl:A:1", 2, 1),
        ("weyl:A:2", 6, 3),
        ("weyl:A:3", 24, 6),
        ("weyl:A:4", 120, 10),
        ("weyl:B:2", 8, 4),
        ("weyl:C:3", 48, 9),
        ("weyl:B:4", 384, 16),
        ("weyl:D:2", 4, 2),
        ("weyl:D:3", 24, 6),
        ("weyl:D:4", 192, 12),
        ("weyl:G2:2", 12, 6),
    ]
    for name, order, nrefl in data:
        g = catalog(name)
        assert g.order == order, name
        assert g.reflection_count == nrefl, name


def test_b2_skew_product():
    g = catalog("weyl:B:2")
    X = X_poly(2, (1, 0))
    Y = X_poly(2, (0, 1))
    assert g.skew_contravariant() == X * Y * (X * X - Y * Y)
    # covariant side mirrors it in the dual variables
    cov = g.skew_covariant()
    assert cov.space != CONTRAVARIANT
    assert sorted(c.sort_key() for _, c in cov.sorted_terms()) == sorted(
        c.sort_key() for _, c in g.skew_contravariant().sorted_terms())


def test_hyperplane_orders_sum_to_reflection_count():
    for name in ["weyl:B:2", "gmpn:3:1:2", "gmpn:4:2:2", "weyl:G2:2",
                 "cyclic:8", "weyl:D:3"]:
        g = catalog(name)
        assert sum(pl.order - 1 for pl in g.hyperplanes()) == g.reflection_count


def test_skewness_every_element():
    for name in ["weyl:B:2", "gmpn:3:1:2", "weyl:A:2", "weyl:G2:2",
                 "cyclic:6", "gmpn:3:3:2"]:
        g = catalog(name)
        for i in range(g.order):
            assert g.check_skewness(i), (name, i)


def test_inverses_and_mul_index():
    g = catalog("gmpn:3:1:2")
    ident = identity_matrix(g.dim, ONE)
    for i in range(g.order):
        assert mat_mul(g.element(i), g.inverse(i)) == ident
        j = g.inverse_index(i)
        assert g.mul_index(i, j) == 0


def test_element_order_and_exponent():
    b2 = catalog("weyl:B:2")
    orders = sorted(b2.element_order(i) for i in range(b2.order))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
    assert b2.exponent() == 4
    assert catalog("cyclic:9").exponent() == 9


def test_reflection_subgroup_lagrange():
    b2 = catalog("weyl:B:2")
    rx = [[-ONE, ONE * 0], [ONE * 0, ONE]]
    ry = [[ONE, ONE * 0], [ONE * 0, -ONE]]
    px = b2.reflection_position(rx)
    py = b2.reflection_position(ry)
    sub = b2.reflection_subgroup([px, py])
    assert sub.order == 4
    assert sub.is_subgroup_of(b2)
    assert b2.order % sub.order == 0
    assert sub.reflection_count == 2
    # relative hyperplane data is recomputed inside the subgroup
    assert all(pl.order == 2 for pl in sub.hyperplanes())


def test_subgroup_escape_is_rejected():
    b2 = catalog("weyl:B:2")
    z4 = [[CycloScalar.root_of_unity(4), ONE * 0], [ONE * 0, ONE]]
    with pytest.raises(DomainError):
        b2.subgroup_from_matrices([z4])


def test_closure_cap():
    with pytest.raises(CapError):
        catalog("weyl:B:4", cap=100)


def test_bad_generators():
    with pytest.raises(DomainError):
        ReflectionGroup([[[ONE * 0]]])
    with pytest.raises(UsageError):
        ReflectionGroup([[[ONE]], [[ONE, ONE * 0], [ONE * 0, ONE]]])
    with pytest.raises(UsageError):
        catalog("gmpn:3:2:2")
    with pytest.raises(UsageError):
        catalog("weyl:E:6")
    with pytest.raises(UsageError):
        catalog("nonsense")


def test_matrix_json_roundtrip():
    g = catalog("gmpn:3:1:2")
    m = g.element(5)
    data = matrix_to_json(m)
    back = matrix_from_json(data)
    assert back == m
    assert matrix_from_json([[1, 0], [0, -1]]) == [
        [ONE, ONE * 0], [ONE * 0, -ONE]]


def test_registry_names():
    names = registry_names(1152)
    assert names[0] == "cyclic:1"
    assert "weyl:A:4" in names
    assert "gmpn:2:1:4" in names      # order 384
    assert "gmpn:6:2:3" in names      # order 648
    assert "gmpn:3:1:4" not in names  # order 1944
    assert "gmpn:4:4:4" not in names  # order 1536
    assert names == registry_names(1152)
    import math
    for name in names:
        g_order = _order_of(name)
        assert g_order <= 1152, name


def _order_of(name):
    import math
    parts = name.split(":")
    if parts[0] == "cyclic":
        return int(parts[1])
    if parts[0] == "gmpn":
        m, p, n = map(int, parts[1:])
        return m ** n * math.factorial(n) // p
    t, r = parts[1], int(parts[2])
    if t == "A":
        return math.factorial(r + 1)
    if t in ("B", "C"):
        return 2 ** r * math.factorial(r)
    if t == "D":
        return 2 ** (r - 1) * math.factorial(r)
    return 12


def test_registry_groups_close_to_declared_order():
    import math
    for name in registry_names(200):
        g = catalog(name)
        assert g.order == _order_of(name), name


def _normaliser_candidates(n):
    """-Id and every coordinate permutation matrix, identity included."""
    zero = CycloScalar.rational(0)
    cands = [[[-ONE if i == j else zero for j in range(n)] for i in range(n)]]
    for perm in itertools.permutations(range(n)):
        cands.append([[ONE if perm[i] == j else zero for j in range(n)]
                      for i in range(n)])
    return cands


def _normaliser_group(name):
    if name == "sub":
        # B1 x B1 inside B3: swapping the first two coordinates normalises
        # it, while swapping the last two fixes the first generator only
        return weyl_group("B", 3).subgroup_from_matrices(
            [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
             [[1, 0, 0], [0, -1, 0], [0, 0, 1]]])
    return catalog(name)


@pytest.mark.parametrize("name,normalising", [
    ("weyl:A:3", 3), ("weyl:B:3", 7), ("weyl:G2:2", 2),
    ("gmpn:3:1:3", 7), ("gmpn:4:2:3", 7), ("sub", 3)])
def test_is_normalized_by_matches_elementwise_definition(name, normalising):
    group = _normaliser_group(name)
    cands = _normaliser_candidates(group.dim)
    outcomes = []
    for mat in cands:
        inv = mat_inv(mat)
        want = all(group.contains_matrix(mat_mul(mat_mul(mat, g), inv))
                   for g in group.elements)
        assert group.is_normalized_by(mat, inv) == want
        outcomes.append(want)
    # -Id is central, so it always normalises; the count pins both outcomes
    assert outcomes[0]
    assert sum(outcomes) == normalising <= len(cands)

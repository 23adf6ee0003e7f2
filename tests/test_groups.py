import itertools

import pytest

from reflharm import groups
from reflharm.errors import CapError, DomainError, UsageError
from reflharm.groups import (
    ReflectionGroup,
    catalog,
    conjugacy_classes,
    matrix_from_json,
    matrix_to_json,
    registry_names,
    weyl_group,
)
from reflharm.linalg import (identity_matrix, kernel_basis, mat_inv, mat_mul,
                             mat_vec, rank)
from reflharm.mpoly import MPoly, CONTRAVARIANT, coerce_matrix
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


@pytest.mark.parametrize("name", ["weyl:B:3", "weyl:A:3", "gmpn:3:1:3"])
def test_skewness_detects_a_wrong_hyperplane_row(name):
    g = catalog(name)
    g.hyperplanes()
    g._plane_rows[0] = g._plane_rows[1]
    assert not all(g.check_skewness(i) for i in range(g.order))


def test_inverses_and_mul_index():
    g = catalog("gmpn:3:1:2")
    ident = identity_matrix(g.dim)
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


# -- the index core against matrix arithmetic done here

def _index_core_group(name):
    if name == "sub":
        # B2 on the first two coordinates inside B3: not abelian
        return weyl_group("B", 3).subgroup_from_matrices(
            [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
             [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    return catalog(name)


INDEX_CORE_GROUPS = ["weyl:A:3", "weyl:G2:2", "gmpn:3:1:3", "gmpn:4:2:3", "sub"]


@pytest.mark.parametrize("name", INDEX_CORE_GROUPS)
def test_index_core_matches_matrices(name):
    group = _index_core_group(name)
    els = group.elements
    ident = identity_matrix(group.dim)
    if group.order <= 48:
        sample = range(group.order)
    else:
        sample = sorted(set(range(1, group.order, 17)) | {group.order - 1})
    for i in range(group.order):
        for j in sample:
            assert group.mul_index(i, j) == group.index_of(
                mat_mul(els[i], els[j])), (i, j)

    for i in range(group.order):
        j = group.inverse_index(i)
        assert mat_mul(els[i], els[j]) == ident, i
        assert group.inverse(i) == mat_inv(els[i]), i

        power, n = els[i], 1
        while power != ident:
            power = mat_mul(power, els[i])
            n += 1
        assert group.element_order(i) == n, i

    classes = conjugacy_classes(group)
    inverses = [mat_inv(g) for g in els]
    covered = set()
    for c, rep in enumerate(classes.rep_indices):
        orbit = {group.index_of(mat_mul(mat_mul(g, els[rep]), gi))
                 for g, gi in zip(els, inverses)}
        assert orbit == {x for x in range(group.order)
                         if classes.class_of[x] == c}, c
        assert rep == min(orbit)
        assert classes.sizes[c] == len(orbit)
        covered |= orbit
    assert covered == set(range(group.order))


@pytest.mark.parametrize("name", INDEX_CORE_GROUPS + ["cyclic:6"])
def test_reflections_match_elementwise_rank(name):
    # reflections() takes one rank per class; here every element gets one
    group = _index_core_group(name)
    want = [i for i, g in enumerate(group.elements)
            if i and rank([[v - ONE if r == c else v for c, v in enumerate(row)]
                           for r, row in enumerate(g)]) == 1]
    assert group.reflections() == want


@pytest.mark.parametrize("name", ["weyl:B:3", "weyl:G2:2", "gmpn:4:2:3",
                                  "gmpn:3:3:3", "cyclic:6"])
def test_hyperplane_order_is_pointwise_stabiliser(name):
    # e_H by its definition: the elements fixing a basis of H pointwise
    group = catalog(name)
    units = [tuple(1 if a == b else 0 for a in range(group.dim))
             for b in range(group.dim)]
    for pl in group.hyperplanes():
        basis = kernel_basis([pl.form.coeff_vector(units)], group.dim)
        fixing = sum(1 for g in group.elements
                     if all(mat_vec(g, v) == v for v in basis))
        assert pl.order == fixing, pl


# -- the closure against a plain matrix BFS, and its key

def _matrix_key(mat):
    """Equal matrices over any conductor collide: every entry is taken in
    its minimal-conductor form.  Kept apart from index_of, which the
    reference closure checks."""
    return tuple(s.sort_key() for row in mat for s in row)


def _reference_closure(gens):
    """Breadth-first closure by CycloScalar matrix products, deduplicated by
    _matrix_key: (elements, right, parent, letter) in discovery order."""
    ident = identity_matrix(len(gens[0]))
    elements, index = [ident], {_matrix_key(ident): 0}
    right, parent, letter = [], [0], [None]
    for cursor, base in enumerate(elements):
        row = []
        for k, g in enumerate(gens):
            prod = mat_mul(base, g)
            j = index.setdefault(_matrix_key(prod), len(elements))
            if j == len(elements):
                elements.append(prod)
                parent.append(cursor)
                letter.append(k)
            row.append(j)
        right.append(row)
    return elements, right, parent, letter


@pytest.mark.parametrize("name", registry_names())
def test_closure_matches_reference_bfs(name):
    # the discovery order fixes every echelon basis and character table
    group = catalog(name)
    elements, right, parent, letter = _reference_closure(group.generators)
    assert group._right == right
    assert group._parent == parent
    assert group._letter == letter
    assert ([_matrix_key(g) for g in group.elements]
            == [_matrix_key(g) for g in elements])


@pytest.mark.parametrize("name", ["gmpn:6:2:3", "weyl:D:4"])
def test_closure_makes_no_matrix_products(monkeypatch, name):
    """The closure multiplies integer numerator vectors, not CycloScalar
    matrices."""
    calls = []
    real = groups.mat_mul

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "mat_mul", counting)
    assert catalog(name).order
    assert len(calls) == 0


def test_index_of_finds_entries_at_non_minimal_conductors():
    b2 = catalog("weyl:B:2")
    zero, one = ONE * 0, ONE
    minus_one = CycloScalar.root_of_unity(4, 2)  # zeta_4^2 = -1
    i = b2.index_of([[minus_one, zero.promote(12)], [zero, one.promote(12)]])
    assert i is not None
    assert b2.element(i) == [[-one, zero], [zero, one]]
    g = catalog("gmpn:3:1:2")
    for i, el in enumerate(g.elements):
        assert g.index_of([[s.promote(12) for s in row] for row in el]) == i


def test_index_of_rejects_foreign_fields_and_shapes():
    g = catalog("gmpn:3:1:2")
    z5 = CycloScalar.root_of_unity(5)
    assert g.index_of([[z5, 0], [0, 1]]) is None
    assert not g.contains_matrix([[z5, 0], [0, 1]])
    assert g.index_of(identity_matrix(3)) is None
    assert g.index_of([[1, 0], [0]]) is None
    assert g.index_of([[1]]) is None


def test_rationally_conjugated_closure_keeps_the_index_core():
    # entries with denominators exercise the common-denominator key
    base = catalog("gmpn:3:1:2")
    conj = coerce_matrix([[1, 1], [0, 2]])
    conj_inv = mat_inv(conj)
    group = ReflectionGroup([mat_mul(mat_mul(conj, g), conj_inv)
                             for g in base.generators])
    assert any(s.den != 1 for g in group.elements for row in g for s in row)
    assert group.order == base.order
    assert group._right == base._right
    for i, g in enumerate(base.elements):
        assert group.index_of(mat_mul(mat_mul(conj, g), conj_inv)) == i

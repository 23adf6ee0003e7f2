"""Conjugacy classes, character tables, fake degrees, inductions."""

import gc
import hashlib
import itertools
import json
import pathlib
import random
import weakref

import pytest

from reflharm import characters, harmonics
from reflharm.characters import (
    TABLE_CAP,
    _charpoly_mod,
    _coordinates_mod,
    _kernel_mod,
    _validate_table,
    character_table,
    fake_degrees,
    graded_character,
    induced_trivial_multiplicities,
    verify_fake_degree_formula,
)
from reflharm.errors import (CapError, DomainError, UsageError,
                             VerificationError)
from reflharm.groups import (catalog, conjugacy_classes, registry_names,
                             weyl_group)
from reflharm.harmonics import action_trace, harmonic_basis
from reflharm.scalars import CycloScalar, RatPoly


@pytest.fixture(scope="module")
def b2():
    return weyl_group("B", 2)


@pytest.fixture(scope="module")
def c3():
    return weyl_group("C", 3)


def test_classes_b2(b2):
    data = conjugacy_classes(b2)
    assert len(data) == 5
    assert sum(data.sizes) == 8
    assert sorted(data.sizes) == [1, 1, 2, 2, 2]
    assert data.class_of[0] == 0
    assert data.rep_indices[0] == 0


def test_classes_abelian():
    mu6 = catalog("cyclic:6")
    data = conjugacy_classes(mu6)
    assert len(data) == 6
    assert set(data.sizes) == {1}


def test_classes_symmetric_group():
    a2 = weyl_group("A", 2)
    data = conjugacy_classes(a2)
    assert sorted(data.sizes) == [1, 2, 3]


def test_classes_representatives_minimal(c3):
    data = conjugacy_classes(c3)
    for cls, rep in enumerate(data.rep_indices):
        members = [i for i in range(c3.order) if data.class_of[i] == cls]
        assert rep == min(members)
        assert len(members) == data.sizes[cls]


def test_table_b2(b2):
    table = character_table(b2)
    assert len(table) == 5
    assert sorted(table.degrees) == [1, 1, 1, 1, 2]
    assert table.degrees[0] == 1
    one = CycloScalar.rational(1)
    assert all(v == one for v in table.irreducibles[0])


def test_table_cyclic_linear_characters():
    mu5 = catalog("cyclic:5")
    table = character_table(mu5)
    assert table.degrees == (1,) * 5
    # classes follow storage order, which is the power order of the
    # generator; every character is zeta^(jk) along that order
    expected = set()
    for k in range(5):
        expected.add(tuple(CycloScalar.root_of_unity(5, j * k)
                           for j in range(5)))
    assert set(table.irreducibles) == expected


def test_table_c3(c3):
    table = character_table(c3)
    assert len(table) == 10
    assert sorted(table.degrees) == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
    assert sum(d * d for d in table.degrees) == 48


def test_table_cap():
    with pytest.raises(CapError, match="too large"):
        character_table(weyl_group("A", 3), cap=10)


def test_table_json_roundtrip(b2):
    table = character_table(b2)
    data = table.to_json()
    assert data["degrees"] == list(table.degrees)
    assert len(data["classes"]) == 5
    assert all(len(row) == 5 for row in data["irreducibles"])


def test_graded_character_bottom_and_top(b2):
    classes = conjugacy_classes(b2)
    one = CycloScalar.rational(1)
    traces = graded_character(b2)
    assert all(v == one for v in traces[0])
    top = traces[4]
    for j, (rep, _) in enumerate(classes.classes):
        det = b2.determinant(b2.index_of(rep))
        assert top[j] == det


def test_graded_character_sums_to_regular():
    # sum_d tr(g | H_d) is the regular character: |G| at g = 1, else 0.
    # On complex groups g^-1 is often outside the class of g, so this runs
    # the lookup of the inverse class; the regular character is real, so
    # which of the two classes is read shows in the basis-trace test below
    zero = CycloScalar.rational(0)
    groups = [catalog(name) for name in registry_names(200)]
    assert len(groups) == 62
    for group in groups:
        totals = [sum(column, zero)
                  for column in zip(*graded_character(group))]
        assert conjugacy_classes(group).rep_indices[0] == 0
        assert totals[0] == CycloScalar.rational(group.order), group.name
        assert all(v == zero for v in totals[1:]), group.name


def test_series_are_built_once_per_class_and_extended(monkeypatch):
    # fake_degrees builds one series per conjugacy class when
    # invariant_degrees first runs Molien, at truncation 8; its doubling to
    # 16 and graded_character's 18 extend those states and build none
    group = catalog("gmpn:3:1:3")
    built, extended, phase = [], [], ["table"]
    init, extend = harmonics._ClassSeries.__init__, harmonics._ClassSeries.extend

    def spy_init(self, g):
        built.append((phase[0], id(self)))
        init(self, g)

    def spy_extend(self, trunc):
        extended.append((phase[0], id(self), len(self.h), trunc))
        extend(self, trunc)

    def spy_degrees(group):
        phase[0] = "degrees"
        out = harmonics.invariant_degrees(group)
        phase[0] = "graded"
        return out

    monkeypatch.setattr(harmonics._ClassSeries, "__init__", spy_init)
    monkeypatch.setattr(harmonics._ClassSeries, "extend", spy_extend)
    monkeypatch.setattr(characters, "invariant_degrees", spy_degrees)
    fake_degrees(group)
    # G(3,1,3) has 22 classes, one per triple of partitions of total size 3
    assert len(conjugacy_classes(group)) == 22
    assert len(built) == 22 and all(p == "degrees" for p, _ in built)
    states = {state for _, state in built}
    assert {state for _, state, _, _ in extended} == states
    # each state grows from h_0 to h_8, h_16 and h_18, continuing from
    # the coefficients it holds
    for state in states:
        assert [(p, have, trunc) for p, s, have, trunc in extended
                if s == state and have <= trunc] == [
            ("degrees", 1, 8), ("degrees", 9, 16), ("graded", 17, 18)]


def test_a_group_is_freed_with_its_cached_table_and_series():
    # the per-group cache is held by the group, so the character table,
    # which refers back to the group, does not keep it alive
    group = catalog("gmpn:3:1:3")
    fake_degrees(group)
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None


def test_graded_character_checks_the_top_degree(b2, monkeypatch):
    # too small an N leaves the top coefficients (the determinant) above it
    monkeypatch.setattr(characters, "invariant_degrees", lambda group: [2, 2])
    with pytest.raises(VerificationError, match="does not stop at degree 2"):
        graded_character(b2)


@pytest.mark.parametrize("name", registry_names(96))
def test_graded_character_matches_basis_traces(name):
    # the class-series route against traces on the derivative basis
    group = catalog(name)
    basis = harmonic_basis(group)
    reps = [rep for rep, _ in conjugacy_classes(group).classes]
    want = tuple(tuple(action_trace(basis, d, rep) for rep in reps)
                 for d in range(basis.max_degree + 1))
    assert graded_character(group) == want


def test_fake_degrees_b2(b2):
    fakes = fake_degrees(b2)
    table = character_table(b2)
    assert fakes[0] == RatPoly([1])
    by_poly = sorted(f.to_json() for f in fakes)
    assert by_poly == sorted([
        [1],
        [0, 0, 1],
        [0, 0, 1],
        [0, 0, 0, 0, 1],
        [0, 1, 0, 1],
    ])
    for deg, fake in zip(table.degrees, fakes):
        assert fake(1) == deg


def test_fake_degree_of_determinant(c3):
    # the det row's fake degree is the single top harmonic degree
    table = character_table(c3)
    fakes = fake_degrees(c3)
    det_rows = [r for r in range(len(table))
                if fakes[r] == RatPoly.monomial(9)]
    assert len(det_rows) == 1
    r = det_rows[0]
    assert table.degrees[r] == 1
    classes = table.classes
    for j, (rep, _) in enumerate(classes.classes):
        assert table.value(r, j) == c3.determinant(c3.index_of(rep))


def test_induced_from_whole_group(b2):
    mults = induced_trivial_multiplicities(b2, b2)
    assert mults[0] == 1
    assert all(m == 0 for m in mults[1:])


def test_induced_from_trivial_subgroup(b2):
    trivial = b2.subgroup_from_matrices([[[1, 0], [0, 1]]])
    mults = induced_trivial_multiplicities(b2, trivial)
    assert mults == character_table(b2).degrees


def test_induced_needs_subgroup(b2, c3):
    with pytest.raises(UsageError):
        induced_trivial_multiplicities(b2, c3)


def test_induced_c3_normalizer(c3):
    sub = c3.subgroup_from_matrices([
        [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
    ])
    assert sub.order == 16
    table = character_table(c3)
    mults = induced_trivial_multiplicities(c3, sub)
    assert mults[0] == 1
    nonzero = [r for r in range(1, len(table)) if mults[r]]
    assert len(nonzero) == 1
    rho = nonzero[0]
    assert mults[rho] == 1
    assert table.degrees[rho] == 2
    assert fake_degrees(c3)[rho] == RatPoly([0, 0, 1, 0, 1])


def test_verify_formula_b2(b2):
    sub = b2.subgroup_from_matrices([[[-1, 0], [0, 1]], [[1, 0], [0, -1]]])
    report = verify_fake_degree_formula(b2, sub)
    assert report["agree"] is True
    assert report["character_sum"] == RatPoly([1, 0, 1])
    assert report["fixed_poincare"] == RatPoly([1, 0, 1])
    assert report["molien_quotient"] == RatPoly([1, 0, 1])


def test_verify_formula_whole_group(b2):
    report = verify_fake_degree_formula(b2, b2)
    assert report["agree"] is True
    assert report["character_sum"] == RatPoly([1])


def test_verify_formula_c3_normalizer(c3):
    sub = c3.subgroup_from_matrices([
        [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
    ])
    report = verify_fake_degree_formula(c3, sub)
    assert report["agree"] is True
    assert report["character_sum"] == RatPoly([1, 0, 1, 0, 1])


@pytest.mark.parametrize("gname,sub_gens", [
    ("weyl:A:2", [[[0, -1], [-1, 0]]]),
    ("cyclic:6", [[[CycloScalar.root_of_unity(3)]]]),
    ("gmpn:3:1:2", [[[CycloScalar.root_of_unity(3), 0], [0, 1]]]),
])
def test_verify_formula_more_pairs(gname, sub_gens):
    group = catalog(gname)
    sub = group.subgroup_from_matrices(sub_gens)
    assert verify_fake_degree_formula(group, sub)["agree"] is True


# F_p helpers behind the character-table eigenvector split

P = 13


def _rank_mod(mat, p):
    rows = [[v % p for v in row] for row in mat]
    rank = 0
    for col in range(len(rows[0])):
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * pow(rows[rank][col], p - 2, p)
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_kernel_mod_vectors_vanish():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randint(1, 5)
        mat = [[rng.choice([0, 0, rng.randint(-20, 20)]) for _ in range(m)]
               for _ in range(m)]
        ker = _kernel_mod(mat, P)
        assert len(ker) == m - _rank_mod(mat, P)
        for v in ker:
            assert all(sum(a * b for a, b in zip(row, v)) % P == 0
                       for row in mat)


def test_coordinates_mod_recovers_coefficients():
    rng = random.Random(8)
    for _ in range(30):
        k = rng.randint(1, 5)
        m = rng.randint(1, k)
        basis = [[rng.randint(0, P - 1) for _ in range(k)] for _ in range(m)]
        if _rank_mod(basis, P) < m:
            continue
        coeffs = [[rng.randint(0, P - 1) for _ in range(m)] for _ in range(3)]
        targets = [[sum(c * b[r] for c, b in zip(cs, basis)) for r in range(k)]
                   for cs in coeffs]
        got = _coordinates_mod(basis, targets, P)
        assert got == [[cs[i] for cs in coeffs] for i in range(m)]


def test_coordinates_mod_rejects_vector_outside_span():
    basis = [[1, 0, 0], [0, 1, 0]]
    with pytest.raises(DomainError):
        _coordinates_mod(basis, [[0, 0, 1]], P)


def _det_mod(mat, p):
    """Leibniz expansion, independent of any elimination."""
    m = len(mat)
    total = 0
    for perm in itertools.permutations(range(m)):
        sign = (-1) ** sum(1 for i in range(m) for j in range(i)
                           if perm[j] > perm[i])
        term = sign
        for i in range(m):
            term *= mat[i][perm[i]]
        total += term
    return total % p


def _random_matrices(rng):
    for _ in range(40):
        m = rng.randint(1, 5)
        yield [[rng.choice([0, rng.randint(-30, 30)]) for _ in range(m)]
               for _ in range(m)]
        # upper Hessenberg already, with some subdiagonal entries zero
        yield [[0 if r > c + 1 or (r == c + 1 and rng.random() < 0.5)
                else rng.randint(-30, 30) for c in range(m)]
               for r in range(m)]


def test_charpoly_mod_is_det_of_the_shift():
    # deg < P, so agreeing at every lambda in F_P is agreeing as
    # polynomials; in particular the roots are the singular shifts
    rng = random.Random(11)
    for mat in _random_matrices(rng):
        m = len(mat)
        poly = _charpoly_mod(mat, P)
        assert len(poly) == m + 1 and poly[-1] == 1
        for lam in range(P):
            shifted = [[(lam if r == c else 0) - mat[r][c] for c in range(m)]
                       for r in range(m)]
            value = sum(c * lam ** i for i, c in enumerate(poly)) % P
            assert value == _det_mod(shifted, P), (mat, lam)


# negative controls for the exact checks

def _table_rows(name):
    group = catalog(name)
    table = character_table(group)
    return group, table.classes, [list(row) for row in table.irreducibles]


def test_validate_table_accepts_the_computed_table():
    group, classes, rows = _table_rows("gmpn:3:1:2")
    _validate_table(group, classes, rows)


def test_validate_table_rejects_a_value_times_zeta3():
    group, classes, rows = _table_rows("gmpn:3:1:2")
    r, j = next((r, j) for r in range(1, len(rows))
                for j in range(1, len(classes)) if rows[r][j])
    rows[r][j] = rows[r][j] * CycloScalar.root_of_unity(3)
    with pytest.raises(VerificationError):
        _validate_table(group, classes, rows)


def test_validate_table_rejects_two_swapped_columns():
    group, classes, rows = _table_rows("gmpn:3:1:2")
    sizes = classes.sizes
    a, b = next((a, b) for a in range(1, len(sizes))
                for b in range(a + 1, len(sizes)) if sizes[a] != sizes[b])
    for row in rows:
        row[a], row[b] = row[b], row[a]
    with pytest.raises(VerificationError):
        _validate_table(group, classes, rows)


@pytest.mark.parametrize("change", [
    # the trivial character meets the identity class once more: 1/|G|
    lambda d, j, v: v + 1 if d == 0 and j == 0 else v,
    lambda d, j, v: -v,
    lambda d, j, v: v * CycloScalar.root_of_unity(3) if d == 0 else v,
], ids=["non-integral", "negative", "non-rational"])
def test_fake_degrees_demand_non_negative_integers(monkeypatch, change):
    group = catalog("gmpn:3:1:2")
    traces = graded_character(group)
    bad = tuple(tuple(change(d, j, v) for j, v in enumerate(line))
                for d, line in enumerate(traces))
    monkeypatch.setattr(characters, "graded_character", lambda g: bad)
    with pytest.raises(DomainError):
        fake_degrees(group)


# character tables and fake degrees pinned on the whole registry

DIGESTS = pathlib.Path(__file__).parent / "character_digests.json"


def test_registry_tables_and_fake_degrees_match_stored_digests():
    """SHA-256 of the table JSON and of the fake-degree JSON, per registry
    group within TABLE_CAP, as recorded before the character layer moved
    to packed integer products."""
    stored = json.loads(DIGESTS.read_text())
    seen, wrong = [], []
    for name in registry_names():
        group = catalog(name)
        if group.order > TABLE_CAP:
            continue
        seen.append(name)
        table = json.dumps(character_table(group).to_json(), sort_keys=True)
        fakes = json.dumps([p.to_json() for p in fake_degrees(group)])
        got = [hashlib.sha256(text.encode()).hexdigest()
               for text in (table, fakes)]
        if got != stored.get(name):
            wrong.append(name)
    assert seen == list(stored)
    assert wrong == []

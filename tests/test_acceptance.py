"""End-to-end acceptance suite.

One test per numbered criterion, each printing a single CRITERION line so
a verbose run reads as a nine-line scoreboard.  Every comparison is exact;
the only permitted freedom is one global scalar on the skew product, and
the echelon normalisation pins even that in practice.
"""

import functools
import math
import random

import pytest

from reflharm.characters import (
    character_table,
    fake_degrees,
    induced_trivial_multiplicities,
    verify_fake_degree_formula,
)
from reflharm.factorisation import (
    d_map,
    degree_divisibility,
    e_map,
    verify_factorisation,
    xi_apply,
    xi_dual_compare,
)
from reflharm.groups import catalog, registry_names
from reflharm.harmonics import (
    fixed_point_basis,
    harmonic_basis,
    ideal_component,
    invariant_degrees,
)
from reflharm.linalg import identity_matrix, rref
from reflharm.mpoly import (
    CONTRAVARIANT,
    COVARIANT,
    MPoly,
    monomials_of_degree,
    pairing,
)
from reflharm.rootdata import (
    complement_group,
    root_datum_from_label,
    subsystem,
    subsystem_preset,
)
from reflharm.scalars import CycloScalar, RatPoly, qq
from reflharm.weyl import TwistData, count_split, count_twisted, f_classes, split_report


def P(nvars, *terms, space=CONTRAVARIANT):
    out = MPoly.constant(space, nvars, 0)
    for exps, c in terms:
        out = out + MPoly.monomial(space, exps).scale(CycloScalar.coerce(c))
    return out


def _need(failures, ok, label):
    if not ok:
        failures.append(label)


def _finish(num, failures):
    if failures:
        print("CRITERION %d: FAIL (%s)" % (num, "; ".join(failures)))
        pytest.fail("criterion %d: %s" % (num, "; ".join(failures)),
                    pytrace=False)
    print("CRITERION %d: PASS" % num)


def _collinear(lhs, rhs):
    """Scalar c with lhs == c*rhs, or None."""
    if lhs.is_zero() or rhs.is_zero():
        return None
    exps, lead = rhs.sorted_terms()[0]
    num = lhs.terms.get(exps)
    if num is None:
        return None
    c = num * lead.inv()
    return c if lhs == rhs.scale(c) else None


@functools.lru_cache(maxsize=None)
def _registry():
    return tuple((name, catalog(name)) for name in registry_names(1152))


@functools.lru_cache(maxsize=None)
def _b2_pair():
    b2 = catalog("weyl:B:2")
    sub = b2.subgroup_from_matrices(
        [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]], name="A1xA1")
    return b2, sub


@functools.lru_cache(maxsize=None)
def _pairs():
    z3 = CycloScalar.root_of_unity(3)
    z12 = CycloScalar.root_of_unity(12)
    b2, b2sub = _b2_pair()
    c3 = catalog("weyl:C:3")
    c3sub = c3.subgroup_from_matrices(
        [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
         [[1, 0, 0], [0, 1, 0], [0, 0, -1]]], name="A1xC2")
    g2 = root_datum_from_label("G2")
    g2sub = subsystem(g2, [(1, 0), (1, 3)])
    mu12 = catalog("cyclic:12")
    mu4 = mu12.subgroup_from_matrices([[[z12 ** 3]]], name="mu4")
    g312 = catalog("gmpn:3:1:2")
    g332 = g312.subgroup_from_matrices(
        [[[0, 1], [1, 0]], [[0, z3], [z3 ** 2, 0]]], name="gmpn:3:3:2")
    return (
        ("B2/A1xA1", b2, b2sub),
        ("C3/A1xC2", c3, c3sub),
        ("G2/A2", g2.group, g2sub.group),
        ("mu12/mu4", mu12, mu4),
        ("G(3,1,2)/G(3,3,2)", g312, g332),
    )


@functools.lru_cache(maxsize=None)
def _counting_fixtures():
    return (
        ("C2:long-A1A1", subsystem_preset("C2:long-A1A1")),
        ("C3:A1C2", subsystem_preset("C3:A1C2")),
        ("G2:A2", subsystem(root_datum_from_label("G2"), [(1, 0), (1, 3)])),
        ("C2:full", subsystem_preset("C2:full")),
    )


def test_criterion_1_rank_two_hyperoctahedral_fixture():
    failures = []
    b2, sub = _b2_pair()

    skew = b2.skew_contravariant()
    expected_skew = P(2, ((3, 1), 1), ((1, 3), -1))
    _need(failures, _collinear(skew, expected_skew) is not None,
          "skew product is not a scalar multiple of XY(X^2-Y^2)")

    H = harmonic_basis(b2)
    _need(failures, [H.dim(d) for d in range(5)] == [1, 2, 2, 2, 1],
          "harmonic dimensions differ from (1,2,2,2,1)")

    Hs = harmonic_basis(sub)
    expected_sub = {
        0: [P(2, ((0, 0), 1))],
        1: [P(2, ((1, 0), 1)), P(2, ((0, 1), 1))],
        2: [P(2, ((1, 1), 1))],
    }
    _need(failures, {d: Hs.basis(d) for d in sorted(Hs.degrees)} == expected_sub,
          "subgroup harmonics differ from {1, X, Y, XY}")

    fixed = fixed_point_basis(H, sub)
    expected_fixed = {0: [P(2, ((0, 0), 1))], 2: [P(2, ((2, 0), 1), ((0, 2), -1))]}
    _need(failures,
          {d: fixed.basis(d) for d in sorted(fixed.degrees)} == expected_fixed,
          "fixed harmonics differ from {1, X^2 - Y^2}")

    a = P(2, ((2, 0), 1), ((0, 2), -1))
    cases = [
        (P(2, ((1, 0), 1)), P(2, ((3, 0), "1/2"), ((1, 2), "-3/2"))),
        (P(2, ((0, 1), 1)), P(2, ((2, 1), "3/2"), ((0, 3), "-1/2"))),
        (P(2, ((1, 1), 1)), P(2, ((3, 1), 1), ((1, 3), -1))),
    ]
    for h, want in cases:
        got = xi_apply(b2, sub, h, a)
        _need(failures, got == want,
              "xi(%s ox X^2-Y^2) = %s, expected %s" % (h, got, want))

    _finish(1, failures)


def test_criterion_2_cyclic_fixture_all_divisors():
    failures = []
    for e in range(1, 13):
        grp = catalog("cyclic:%d" % e)
        z = CycloScalar.root_of_unity(e)
        H = harmonic_basis(grp)
        for d in range(1, e + 1):
            if e % d:
                continue
            sub = grp.subgroup_from_matrices([[[z ** (e // d)]]])
            fixed = fixed_point_basis(H, sub)
            expected = {k * d: [P(1, ((k * d,), 1))] for k in range(e // d)}
            if {m: fixed.basis(m) for m in sorted(fixed.degrees)} != expected:
                _need(failures, False,
                      "fixed space of mu_%d in mu_%d is not "
                      "span{1, X^%d, ...}" % (d, e, d))
                continue
            for j in range(d):
                for k in range(e // d):
                    got = xi_apply(grp, sub, P(1, ((j,), 1)),
                                   P(1, ((k * d,), 1)))
                    _need(failures, got == P(1, ((j + k * d,), 1)),
                          "xi is not monomial multiplication at "
                          "(e=%d, d=%d, j=%d, k=%d)" % (e, d, j, k))
    _finish(2, failures)


def test_criterion_3_factorisation_pairs():
    failures = []
    for label, grp, sub in _pairs():
        rep = verify_factorisation(grp, sub)
        _need(failures, rep.bijective, "%s: xi is not bijective" % label)
        _need(failures, rep.poincare_equal,
              "%s: graded Poincare factorisation fails" % label)
        _need(failures, rep.dim_identity,
              "%s: dim of fixed harmonics differs from |G|/|G'|" % label)
    _finish(3, failures)


def test_criterion_4_two_routes_agree_on_catalog():
    failures = []
    for name, grp in _registry():
        perp = harmonic_basis(grp, method="perp")
        deriv = harmonic_basis(grp, method="derivative")
        _need(failures, perp.degrees == deriv.degrees,
              "%s: perp and derivative bases differ" % name)
        _need(failures, perp.dimension() == grp.order,
              "%s: dim H != |G|" % name)
        prod = RatPoly([1])
        for d in invariant_degrees(grp):
            prod = prod * RatPoly([1] * d)
        _need(failures, perp.poincare() == prod,
              "%s: Poincare polynomial mismatch" % name)
    _finish(4, failures)


def test_criterion_5_counting_fixtures():
    failures = []
    fixtures = dict(_counting_fixtures())
    c2 = fixtures["C2:long-A1A1"]
    c3 = fixtures["C3:A1C2"]

    r2 = split_report(c2.datum, c2)
    _need(failures, r2["polynomial"] == RatPoly([0, 0, 0, 0, 1]).to_json(),
          "rank-2 split count is not q^4")

    r3 = split_report(c3.datum, c3)
    _need(failures, r3["N"] == 9, "N != 9 for the rank-3 datum")
    _need(failures, r3["Nprime"] == 5, "N' != 5 for the rank-3 subsystem")
    # |W'| = 16 and |W| = 48; C meets W' trivially and normalises it, so
    # |C|*16 divides 48 and |C| = 1 (no signed permutation swaps the
    # 1-dimensional block with the 2-dimensional one).  With C trivial the
    # count is |Sp6(q)| / (|Sp2(q)| |Sp4(q)|) = q^4 (1 + q^2 + q^4); the
    # graded form 1 + q^2 + q^4 would read 1, not q^4, on the rank-2 fixture.
    _need(failures, r3["C_order"] == 1,
          "complement order is %d, expected 1" % r3["C_order"])
    poly = count_split(c3.datum, c3)
    _need(failures, poly == RatPoly([0, 0, 0, 0, 1, 0, 1, 0, 1]),
          "rank-3 split count has coefficients %s in q, "
          "expected q^4 + q^6 + q^8" % (poly.to_json(),))

    comp = complement_group(c3.datum, c3)
    wc = c3.datum.group.subgroup_from_matrices(
        list(c3.group.generators) + list(comp.elements), name="W'C")
    mults = induced_trivial_multiplicities(c3.datum.group, wc)
    table = character_table(c3.datum.group)
    fakes = fake_degrees(c3.datum.group)
    _need(failures, mults[0] == 1, "trivial multiplicity in Ind is not 1")
    rest = [i for i in range(1, len(mults)) if mults[i]]
    ok_shape = (len(rest) == 1 and mults[rest[0]] == 1
                and table.degrees[rest[0]] == 2)
    _need(failures, ok_shape,
          "Ind of the trivial character is not 1 + (one degree-2 irreducible)")
    if ok_shape:
        _need(failures, fakes[rest[0]] == RatPoly([0, 0, 1, 0, 1]),
              "fake degree of the induced constituent is not t^2 + t^4")

    _finish(5, failures)


def test_criterion_6_three_way_poincare_agreement():
    failures = []
    for label, grp, sub in _pairs():
        rep = verify_fake_degree_formula(grp, sub)
        same = (rep["agree"]
                and rep["character_sum"] == rep["fixed_poincare"]
                == rep["molien_quotient"])
        _need(failures, same, "%s: the three computations disagree" % label)
    _finish(6, failures)


def _random_poly(rng, space, nvars):
    out = MPoly.constant(space, nvars, 0)
    for _ in range(rng.randint(1, 3)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(nvars)] += 1
        c = qq("%d/%d" % (rng.randint(-3, 3), rng.randint(1, 3)))
        out = out + MPoly.monomial(space, tuple(exps)).scale(
            CycloScalar.rational(c))
    return out


def test_criterion_7_property_suites():
    failures = []

    for name, grp in _registry():
        bad = [i for i in range(grp.order) if not grp.check_skewness(i)]
        _need(failures, not bad,
              "%s: %d elements break skewness" % (name, len(bad)))

    for nvars in (1, 2, 3):
        for d in range(7):
            monos = monomials_of_degree(nvars, d)
            for i, a in enumerate(monos):
                for j, b in enumerate(monos):
                    val = pairing(MPoly.monomial(COVARIANT, a),
                                  MPoly.monomial(CONTRAVARIANT, b))
                    want = math.prod(math.factorial(k) for k in a) if i == j \
                        else 0
                    if val != want or (i == j and not val):
                        _need(failures, False,
                              "pairing Gram defect at nvars=%d d=%d" %
                              (nvars, d))

    for name, grp in _registry():
        rng = random.Random("pairing:" + name)
        for _ in range(100):
            i = rng.randrange(grp.order)
            g, gi = grp.elements[i], grp.inverses[i]
            a = _random_poly(rng, COVARIANT, grp.dim)
            p = _random_poly(rng, CONTRAVARIANT, grp.dim)
            if pairing(a.act(g, gi), p.act(g, gi)) != pairing(a, p):
                _need(failures, False, "%s: pairing is not invariant" % name)
                break

    for label, grp, _sub in _pairs():
        H = harmonic_basis(grp)
        N = grp.skew_degree()
        for d in range(N + 1):
            monos = monomials_of_degree(grp.dim, d)
            rows = [h.coeff_vector(monos) for h in H.basis(d)]
            rows += [f.coeff_vector(monos) for f in ideal_component(grp, d)]
            ech, _ = rref(rows)
            _need(failures, len(ech) == len(rows) == len(monos),
                  "%s: harmonic/ideal split fails at degree %d" % (label, d))

    for label, grp, sub in _pairs():
        _need(failures, degree_divisibility(grp, sub)["ok"],
              "%s: invariant-degree divisibility fails" % label)

    _finish(7, failures)


def test_criterion_8_duality_suite():
    failures = []

    for label, grp, sub in _pairs():
        H = harmonic_basis(grp, "perp", COVARIANT)
        N = grp.skew_degree()
        for d in sorted(H.degrees):
            images = [d_map(grp, h) for h in H.basis(d)]
            degrees_ok = all(im.homogeneous_degree() == N - d
                             for im in images)
            monos = monomials_of_degree(grp.dim, N - d)
            ech, _ = rref([im.coeff_vector(monos) for im in images])
            _need(failures, degrees_ok and len(ech) == H.dim(d),
                  "%s: duality map defect at degree %d" % (label, d))

        fixed_cov = fixed_point_basis(H, sub)
        fixed_con = fixed_point_basis(harmonic_basis(grp), sub)
        total = 0
        for d in sorted(fixed_cov.degrees):
            images = [e_map(grp, sub, a) for a in fixed_cov.basis(d)]
            out_deg = {im.homogeneous_degree() for im in images}
            if len(out_deg) != 1:
                _need(failures, False,
                      "%s: e images at degree %d are not homogeneous" %
                      (label, d))
                continue
            m = out_deg.pop()
            monos = monomials_of_degree(grp.dim, m)
            target = [k.coeff_vector(monos) for k in fixed_con.basis(m)]
            both, _ = rref(target + [im.coeff_vector(monos)
                                     for im in images])
            ech, _ = rref([im.coeff_vector(monos) for im in images])
            inside = len(both) == len(target)
            _need(failures,
                  inside and len(ech) == len(images) == fixed_con.dim(m),
                  "%s: e is not a bijection onto fixed harmonics "
                  "at degree %d" % (label, d))
            total += len(images)
        _need(failures, total == grp.order // sub.order,
              "%s: e domain dimension differs from |G|/|G'|" % label)

    b2, b2sub = _b2_pair()
    subH = harmonic_basis(b2sub, "perp", COVARIANT)
    fixed_cov = fixed_point_basis(harmonic_basis(b2, "perp", COVARIANT), b2sub)
    for dh in sorted(subH.degrees):
        for h in subH.basis(dh):
            for da in sorted(fixed_cov.degrees):
                for a in fixed_cov.basis(da):
                    _, _, scal = xi_dual_compare(b2, b2sub, h, a)
                    _need(failures, scal is not None and scal != 0,
                          "no collinearity for pair at degrees (%d, %d)"
                          % (dh, da))
    h_x = P(2, ((1, 0), 1), space=COVARIANT)
    one_cov = MPoly.constant(COVARIANT, 2, 1)
    _, _, scal = xi_dual_compare(b2, b2sub, h_x, one_cov)
    _need(failures, scal == CycloScalar.rational(qq("3/2")),
          "measured duality scalar for (x, 1) is %s, expected 3/2" % (scal,))

    _finish(8, failures)


def test_criterion_9_twisted_collapse_and_partition():
    failures = []
    for label, sub in _counting_fixtures():
        datum = sub.datum
        split = count_split(datum, sub)
        ident = TwistData.split(datum.rank)
        _need(failures, count_twisted(datum, sub, ident) == split,
              "%s: identity twist does not reduce to the split count" % label)

        comp = complement_group(datum, sub)
        f0 = identity_matrix(datum.rank)
        total = RatPoly([0])
        for cls in f_classes(comp, f0):
            rep = comp.element(min(cls))
            total = total + count_twisted(datum, sub,
                                          TwistData.indicator(f0, rep))
        _need(failures, total == split,
              "%s: class indicators do not sum to the split count" % label)
    _finish(9, failures)

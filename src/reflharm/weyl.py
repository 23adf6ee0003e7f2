"""Counts of field-rational conjugates of maximal-rank subgroups.

Everything here reduces to Weyl-group combinatorics on a root datum: a
subsystem with N' positive roots inside a system with N of them, the
complement group C stabilizing the subsystem's simple system, and the
graded fixed spaces of harmonics.  The split count is

    q^{2(N - N')} * sum_d  dim H(W)^{W'C}_d * q^{-d}

over 0 <= d <= N - N'.  It counts F_q-points, not degrees: the points of
G/N_G(L) for a split Frobenius, L being the maximal-rank subgroup with
Weyl group W'.  With P(t) the Poincare polynomial of H(W)^{W'C}, the count
is the reversed form q^{2(N - N')} * P(1/q), not P(q) itself.  When C
is trivial, N_G(L) = L and Lang's theorem gives

    q^{N - N'} * prod_i (q^{d_i} - 1) / prod_i (q^{d'_i} - 1)

with d_i and d'_i the invariant degrees of W and W' on the whole space.
For C3 over A1 x C2 that is q^4 + q^6 + q^8, where the graded form
1 + q^2 + q^4 would be the Poincare polynomial.

The twisted count replaces the plain dimension with an inner product over
the finite group generated by C and a twisting matrix F0 of finite order:
the weight function is supported on the coset C*F0^{-1} and takes the
prescribed class-function values there.  It must be constant on the
classes f_classes(C, F0^{-1}) of c ~ x c F^{-1}(x)^{-1}, on which the traces
of c*F0^{-1} are constant: x c F^{-1}(x)^{-1} F0^{-1} = x c F0^{-1} x^{-1}.
When F0^2 = 1 they are the classes of F0 as well.  The action of a coset
element on the fixed harmonics is its literal matrix action on polynomials;
reports carry that convention as metadata since other normalizations are
conceivable.  No group is closed over C and F0: F0 normalises C (it
normalises W and fixes the simple system of W'), so the group is C<F0>,
of order k|C| for the least k >= 1 with F0^k in C.  Elements of C are
named by their indices in C (ReflectionGroup.index_of): f_classes
returns frozensets of indices, and the weight function is keyed by them.

With F0 the identity and weight constantly 1 the twisted formula
collapses to the split one exactly; that collapse and the partition of
the split count over the F-classes of C are both covered by tests.
"""

from __future__ import annotations

from .errors import CapError, DomainError, UsageError
from .groups import ReflectionGroup, matrix_from_json, orbit_partition
from .harmonics import action_trace, fixed_point_basis, harmonic_basis
from .linalg import det, identity_matrix, mat_inv, mat_mul
from .mpoly import coerce_matrix
from .rootdata import RootDatum, SubsystemData, complement_group, _apply
from .scalars import QQ, CycloScalar, RatPoly

_ORDER_CAP = 1000


class TwistData:
    """A finite-order twisting matrix together with a weight function on C.

    The weight is one of: the constant 1 ("one"), the characteristic
    function of the class of a given element ("indicator"), or explicit
    per-element values ("values", a list of (matrix, scalar) pairs that
    must cover C and be constant on classes), the classes being those of
    c ~ x c F^{-1}(x)^{-1}, on which the traces of c F0^{-1} are constant.
    """

    def __init__(self, f0, g_kind: str = "one", g_data=None):
        self.f0 = coerce_matrix(f0)
        if g_kind not in ("one", "indicator", "values"):
            raise UsageError("unknown weight kind %r" % (g_kind,))
        self.g_kind = g_kind
        self.g_data = g_data

    @staticmethod
    def split(dim: int) -> "TwistData":
        return TwistData(identity_matrix(dim))

    @staticmethod
    def indicator(f0, element) -> "TwistData":
        return TwistData(f0, "indicator", coerce_matrix(element))

    @staticmethod
    def from_json(data) -> "TwistData":
        if not isinstance(data, dict) or "F0" not in data:
            raise UsageError("twist JSON needs an F0 matrix")
        f0 = matrix_from_json(data["F0"])
        g = data.get("g", "one")
        if g == "one":
            return TwistData(f0)
        if isinstance(g, dict) and "indicator" in g:
            return TwistData.indicator(f0, matrix_from_json(g["indicator"]))
        if isinstance(g, dict) and "values" in g:
            entries = g["values"]
            if not isinstance(entries, list) or not all(
                    isinstance(e, dict) and "element" in e and "value" in e
                    for e in entries):
                raise UsageError("weight values must be an array of "
                                 "{\"element\", \"value\"} objects")
            values = [(matrix_from_json(e["element"]),
                       CycloScalar.from_json(e["value"])) for e in entries]
            return TwistData(f0, "values", values)
        raise UsageError("twist weight must be \"one\", an indicator, or "
                         "explicit values")

    def weight_values(self, cgroup: ReflectionGroup, f0_inv) -> dict:
        """Map the index in C of each element to its weight, validated to
        be constant on f_classes(cgroup, f0_inv), where the traces of
        c F0^{-1} are constant.  Listed elements outside C are ignored; one
        element listed with two different values is an error."""
        classes = f_classes(cgroup, f0_inv)
        one, zero = CycloScalar.rational(1), CycloScalar.rational(0)
        if self.g_kind == "one":
            return dict.fromkeys(range(cgroup.order), one)
        if self.g_kind == "indicator":
            target = cgroup.index_of(self.g_data)
            if target is None:
                raise UsageError("indicator element does not lie in C")
            return {i: one if target in cls else zero
                    for cls in classes for i in cls}
        explicit = {}
        for mat, val in self.g_data:
            i = cgroup.index_of(mat)
            val = CycloScalar.coerce(val)
            if i is not None and explicit.setdefault(i, val) != val:
                raise UsageError("weight values list one element with two "
                                 "different values")
        values = {}
        for cls in classes:
            vals = [explicit.get(i) for i in cls]
            if any(v is None for v in vals):
                raise UsageError("weight values do not cover C")
            if any(v != vals[0] for v in vals):
                raise UsageError("weight is not constant on a class of C")
            values.update(dict.fromkeys(cls, vals[0]))
        return values


def f_classes(cgroup: ReflectionGroup, f0):
    """Partition of C into F-conjugacy classes c ~ x c F(x)^{-1}, with
    F(x) = F0 x F0^{-1}, as a list of frozensets of element indices of C,
    ordered by their first member.  F is a homomorphism, so the orbits
    under C are those under its generators, and only the generators are
    conjugated by matrices."""
    f0_inv = mat_inv(f0)
    pairs = []
    for x in cgroup.generators:
        fx = cgroup.index_of(mat_mul(mat_mul(f0, x), f0_inv))
        if fx is None:
            raise UsageError("twisting matrix does not normalize C")
        pairs.append((cgroup.index_of(x), cgroup.inverse_index(fx)))
    return [frozenset(m) for m in orbit_partition(cgroup, pairs)[1]]


def count_split(datum: RootDatum, sub: SubsystemData) -> RatPoly:
    """Polynomial in q counting the split-case stable conjugates.

    H(W)^{W'C} is taken in two steps, as (H(W)^{W'})^C: C normalizes W',
    so it stabilizes the W'-fixed harmonics, and no group is closed over
    W' and C together."""
    fixed = fixed_point_basis(
        fixed_point_basis(harmonic_basis(datum.group), sub.group),
        complement_group(datum, sub))
    span = datum.npositive - sub.nprime
    coeffs = [QQ(0)] * (2 * span + 1)
    for d in sorted(fixed.degrees):
        if d > span:
            raise DomainError("fixed harmonics reach degree %d, above the "
                              "summation bound %d" % (d, span))
        coeffs[2 * span - d] += fixed.dim(d)
    return RatPoly(coeffs)


def count_twisted(datum: RootDatum, sub: SubsystemData,
                  twist: TwistData) -> RatPoly:
    """Polynomial in q for the twisted count; the weight lives on the
    coset C*F0^{-1} inside the group generated by C and F0."""
    w = datum.group
    cgroup = complement_group(datum, sub)
    f0 = twist.f0
    if len(f0) != w.dim or any(len(r) != w.dim for r in f0):
        raise UsageError("twisting matrix size does not match the datum")
    if not det(f0):
        raise UsageError("twisting matrix is singular")
    f0_inv = mat_inv(f0)
    if not w.is_normalized_by(f0, f0_inv):
        raise UsageError("twisting matrix does not normalize the Weyl group")
    if not sub.group.is_normalized_by(f0, f0_inv):
        raise UsageError("twisting matrix does not normalize the subsystem "
                         "group")
    simple_set = set(sub.simples)
    if {_apply(f0, s) for s in simple_set} != simple_set:
        raise UsageError("twisting matrix does not stabilize the "
                         "subsystem's simple system")
    # |<C, F0>| = k|C| (module docstring).  Normalising W does not bound
    # the order of F0 (a scalar matrix normalises every group), so the cap
    # on k runs after the checks above.
    k, power = 1, f0
    while not cgroup.contains_matrix(power):
        if k == _ORDER_CAP:
            raise CapError("no power of the twisting matrix up to %d lies "
                           "in C" % _ORDER_CAP)
        k, power = k + 1, mat_mul(power, f0)
    weights = twist.weight_values(cgroup, f0_inv)
    fixed = fixed_point_basis(harmonic_basis(w), sub.group)
    span = datum.npositive - sub.nprime
    unit = QQ(1, k * cgroup.order)
    coeffs = [QQ(0)] * (2 * span + 1)
    for d in sorted(fixed.degrees):
        if d > span:
            raise DomainError("fixed harmonics reach degree %d, above the "
                              "summation bound %d" % (d, span))
        total = CycloScalar.rational(0)
        for i, c in enumerate(cgroup.elements):
            weight = weights[i]
            if not weight:
                continue
            trace = action_trace(fixed, d, mat_mul(c, f0_inv))
            total = total + trace * weight.conj()
        if not total.is_rational():
            raise DomainError("twisted count coefficient at degree %d is "
                              "not rational" % d)
        coeffs[2 * span - d] += total.as_rational() * unit
    return RatPoly(coeffs)


def stabilizes_ambient_simples(datum: RootDatum, f0) -> bool:
    """Whether a twisting matrix also permutes the ambient simple system;
    reported as metadata, not required."""
    mat = coerce_matrix(f0)
    simple_set = set(datum.simples)
    return {_apply(mat, s) for s in simple_set} == simple_set


def split_report(datum: RootDatum, sub: SubsystemData) -> dict:
    poly = count_split(datum, sub)
    cgroup = complement_group(datum, sub)
    return {
        "datum": datum.label,
        "N": datum.npositive,
        "Nprime": sub.nprime,
        "C_order": cgroup.order,
        "polynomial": poly.to_json(),
    }


def twisted_report(datum: RootDatum, sub: SubsystemData,
                   twist: TwistData) -> dict:
    poly = count_twisted(datum, sub, twist)
    cgroup = complement_group(datum, sub)
    return {
        "datum": datum.label,
        "N": datum.npositive,
        "Nprime": sub.nprime,
        "C_order": cgroup.order,
        "polynomial": poly.to_json(),
        "coset_action": "matrix action of c*F0^{-1} on polynomials",
        "stabilizes_ambient_simples":
            stabilizes_ambient_simples(datum, twist.f0),
    }

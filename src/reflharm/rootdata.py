"""Crystallographic root systems aligned with the Weyl group catalog.

Roots are exact rational vectors in the same coordinates the catalog
groups act on: standard coordinates for the signed-permutation types B,
C, D and simple-root coordinates for A and G2.  In both models a root is
positive exactly when its first nonzero coordinate is.  The reflection
attached to each root is accumulated during orbit closure by conjugating
generators, so it is an element of the catalog group by construction;
build_root_datum cross-checks the whole set against the group's
reflections before returning.

Subsystems are given by seed roots: a subsystem is every root whose
reflection lies in the group the seed reflections generate.  Its simple
system consists of the positive members that are not sums of two
positive members.  complement_group returns the setwise stabilizer C of
that simple system inside W and verifies the semidirect decomposition of
the normalizer.  Elements of W are compared by index (index_of), and the
normalizer and the intersection with W' are counted on indices alone
(mul_index, inverse_index), with no matrix products.
"""

from __future__ import annotations

import math

from .errors import DomainError, UsageError, VerificationError
from .groups import ReflectionGroup, weyl_group
from .linalg import mat_inv, mat_mul
from .scalars import QQ, CycloScalar, qq

SUBSYSTEM_PRESETS = {
    "C2:long-A1A1": ("C2", ((2, 0), (0, 2))),
    "C3:A1C2": ("C3", ((2, 0, 0), (0, 1, -1), (0, 0, 2))),
}


def _coerce_vector(vec, dim):
    if len(vec) != dim:
        raise UsageError("root vector has length %d, expected %d"
                         % (len(vec), dim))
    return tuple(qq(v) for v in vec)


def _apply(mat, vec):
    """mat * vec for a rational matrix and a rational vector, on integers:
    the vector over one denominator, each row's sum over the product of its
    entries' denominators."""
    dv = math.lcm(*(x.denominator for x in vec))
    nv = [x.numerator * (dv // x.denominator) for x in vec]
    out = []
    for row in mat:
        num, den = 0, 1
        for x, v in zip(row, nv):
            if x.order != 1 and any(x.nums[1:]):
                raise DomainError("matrix with irrational entries cannot "
                                  "act on roots")
            if x.den == den:
                num += x.nums[0] * v
            else:
                num, den = num * x.den + x.nums[0] * v * den, den * x.den
        den *= dv
        out.append(QQ(num) if den == 1 else QQ(num, den))
    return tuple(out)


def _is_positive(vec) -> bool:
    for x in vec:
        if x:
            return x > 0
    return False


class RootDatum:
    """A finite crystallographic root system plus its Weyl group."""

    def __init__(self, label, group, roots, positives, simples, reflections):
        self.label = label
        self.group = group
        self.roots = tuple(roots)
        self.positives = tuple(positives)
        self.simples = tuple(simples)
        self._reflections = dict(reflections)

    @property
    def rank(self) -> int:
        return self.group.dim

    @property
    def npositive(self) -> int:
        return len(self.positives)

    def reflection_of(self, root):
        key = tuple(qq(v) for v in root)
        mat = self._reflections.get(key)
        if mat is None:
            raise UsageError("%r is not a root of %s" % (root, self.label))
        return mat

    def contains_root(self, root) -> bool:
        return tuple(qq(v) for v in root) in self._reflections

    def __repr__(self):
        return "RootDatum(%s, %d roots)" % (self.label, len(self.roots))


_SIMPLES = {
    "B": lambda n: [tuple(1 if k == i else (-1 if k == i + 1 else 0)
                          for k in range(n)) for i in range(n - 1)]
    + [tuple(1 if k == n - 1 else 0 for k in range(n))],
    "C": lambda n: [tuple(1 if k == i else (-1 if k == i + 1 else 0)
                          for k in range(n)) for i in range(n - 1)]
    + [tuple(2 if k == n - 1 else 0 for k in range(n))],
    "D": lambda n: [tuple(1 if k == i else (-1 if k == i + 1 else 0)
                          for k in range(n)) for i in range(n - 1)]
    + [tuple(1 if k >= n - 2 else 0 for k in range(n))],
    "A": lambda n: [tuple(1 if k == i else 0 for k in range(n))
                    for i in range(n)],
    "G2": lambda n: [(1, 0), (0, 1)],
}


def build_root_datum(weyl_type: str, rank: int) -> RootDatum:
    """Root datum for one catalog Weyl group; label like "C3"."""
    weyl_type = weyl_type.upper()
    if weyl_type not in _SIMPLES:
        raise UsageError("no root datum for type %r" % (weyl_type,))
    group = weyl_group(weyl_type, rank)
    simples = [_coerce_vector(v, group.dim)
               for v in _SIMPLES[weyl_type](rank)]
    gens = group.generators
    gen_invs = [mat_inv(g) for g in gens]

    refl = {}
    queue = []
    for v, s in zip(simples, gens):
        refl[v] = s
        queue.append(v)
    cap = 8 * group.reflection_count + 8
    idx = 0
    while idx < len(queue):
        alpha = queue[idx]
        idx += 1
        s_alpha = refl[alpha]
        for g, gi in zip(gens, gen_invs):
            beta = _apply(g, alpha)
            if beta not in refl:
                refl[beta] = mat_mul(mat_mul(g, s_alpha), gi)
                queue.append(beta)
                if len(queue) > cap:
                    raise DomainError("root closure did not terminate")

    roots = sorted(refl)
    positives = [r for r in roots if _is_positive(r)]
    _validate_datum(group, roots, positives, simples, refl)
    label = weyl_type if weyl_type == "G2" else "%s%d" % (weyl_type, rank)
    return RootDatum(label, group, roots, positives, simples, refl)


def _validate_datum(group, roots, positives, simples, refl):
    if len(positives) * 2 != len(roots):
        raise DomainError("positive roots do not split the root set in half")
    if len(positives) != group.reflection_count:
        raise DomainError("positive root count differs from the reflection "
                          "count")
    root_set = set(roots)
    for r in positives:
        neg = tuple(-x for x in r)
        if neg not in root_set or _is_positive(neg):
            raise DomainError("root system is not symmetric")
        if group.index_of(refl[r]) != group.index_of(refl[neg]):
            raise DomainError("opposite roots produced different reflections")
    if ({group.index_of(refl[r]) for r in positives}
            != set(group.reflections())):
        raise DomainError("root reflections do not exhaust the group's")
    simple_mat = [[CycloScalar.rational(simples[j][i])
                   for j in range(len(simples))]
                  for i in range(group.dim)]
    inv = mat_inv(simple_mat)
    for r in positives:
        coeffs = _apply(inv, r)
        if any(c < 0 for c in coeffs):
            raise DomainError("positive root with a negative simple "
                              "coefficient")


class SubsystemData:
    """A closed subsystem, its simple system and its reflection subgroup."""

    def __init__(self, datum, roots, positives, simples, group):
        self.datum = datum
        self.roots = tuple(roots)
        self.positives = tuple(positives)
        self.simples = tuple(simples)
        self.group = group
        self._complement = None

    @property
    def nprime(self) -> int:
        return len(self.positives)

    def __repr__(self):
        return ("SubsystemData(%s, N'=%d, |W'|=%d)"
                % (self.datum.label, self.nprime, self.group.order))


def subsystem(datum: RootDatum, seed_roots) -> SubsystemData:
    """The roots whose reflections lie in the group the seed reflections
    generate (the closure of the seeds under their own reflections), and
    the subsystem's simple system."""
    seeds = [_coerce_vector(v, datum.rank) for v in seed_roots]
    if not seeds:
        raise UsageError("subsystem needs at least one seed root")
    for s in seeds:
        if not datum.contains_root(s):
            raise UsageError("seed %r is not a root of %s"
                             % (s, datum.label))
    seed_group = datum.group.subgroup_from_matrices(
        [datum.reflection_of(s) for s in seeds])
    roots = [r for r in datum.roots
             if seed_group.contains_matrix(datum.reflection_of(r))]
    positives = [r for r in roots if _is_positive(r)]
    pos_set = set(positives)
    simples = []
    for beta in positives:
        decomposable = False
        for gamma in positives:
            if gamma == beta:
                continue
            rest = tuple(b - g for b, g in zip(beta, gamma))
            if rest in pos_set:
                decomposable = True
                break
        if not decomposable:
            simples.append(beta)
    wprime = datum.group.subgroup_from_matrices(
        [datum.reflection_of(r) for r in simples],
        name="%s-sub" % datum.label)
    if wprime.reflection_count != len(positives):
        raise DomainError(
            "subsystem closure carries %d positive roots but its group "
            "has %d reflections" % (len(positives), wprime.reflection_count))
    return SubsystemData(datum, roots, positives, simples, wprime)


def subsystem_preset(name: str) -> SubsystemData:
    """Named subsystem: an entry of SUBSYSTEM_PRESETS or "<label>:full"."""
    if ":" in name:
        label, tag = name.split(":", 1)
        if tag == "full":
            datum = root_datum_from_label(label)
            return subsystem(datum, datum.simples)
    entry = SUBSYSTEM_PRESETS.get(name)
    if entry is None:
        raise UsageError("unknown subsystem preset %r" % (name,))
    label, seeds = entry
    return subsystem(root_datum_from_label(label), seeds)


def root_datum_from_label(label: str) -> RootDatum:
    """Parse "A3", "C2", "G2" into a root datum."""
    label = label.strip().upper()
    if label == "G2":
        return build_root_datum("G2", 2)
    if len(label) >= 2 and label[0] in "ABCD" and label[1:].isdigit():
        return build_root_datum(label[0], int(label[1:]))
    raise UsageError("cannot parse root datum label %r" % (label,))


def parse_subsystem_spec(spec) -> SubsystemData:
    """Accept a preset name or {"datum": label, "seeds": [[...], ...]}."""
    if isinstance(spec, str):
        return subsystem_preset(spec)
    if isinstance(spec, dict) and "datum" in spec and "seeds" in spec:
        datum = root_datum_from_label(spec["datum"])
        return subsystem(datum, spec["seeds"])
    raise UsageError("subsystem spec must be a preset name or a "
                     "datum/seeds object")


def complement_group(datum: RootDatum,
                     sub: SubsystemData) -> ReflectionGroup:
    """Setwise stabilizer C of the subsystem's simple system inside W.

    Verifies N_W(W') = C x| W' before returning: the stabilizer meets W'
    trivially and the product fills the normalizer.  A failure here points
    at a defective simple-system extraction, so it raises rather than
    returning a wrong group.  The result is cached on the subsystem.
    """
    if sub.datum is not datum:
        raise UsageError("subsystem belongs to a different root datum")
    if sub._complement is not None:
        return sub._complement
    simple_set = set(sub.simples)
    group = datum.group
    c_idx = [i for i, w in enumerate(group.elements)
             if {_apply(w, s) for s in simple_set} == simple_set]
    wprime = sub.group
    in_wprime = {group.index_of(g) for g in wprime.elements}
    gens = [group.index_of(g) for g in wprime.generators]
    # w normalises W' iff it conjugates each generator of W' into W'
    normalizer = sum(
        1 for w in range(group.order)
        if all(group.mul_index(group.mul_index(w, g), group.inverse_index(w))
               in in_wprime for g in gens))
    in_both = sum(1 for i in c_idx if i in in_wprime)
    if in_both != 1:
        raise VerificationError(
            "stabilizer of the simple system meets the subsystem group "
            "in %d elements" % in_both)
    if normalizer != len(c_idx) * wprime.order:
        raise VerificationError(
            "normalizer order %d is not |C|*|W'| = %d*%d"
            % (normalizer, len(c_idx), wprime.order))
    sub._complement = group.subgroup_from_matrices(
        [group.element(i) for i in c_idx],
        name="%s-complement" % datum.label)
    return sub._complement

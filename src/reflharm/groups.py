"""Finite reflection groups as explicit matrix groups.

A group is stored as the full list of its elements (exact CycloScalar
matrices), found by breadth-first closure of a generating set.  Storage
order is deterministic: identity first, then products in discovery order
with a fixed generator order, deduplicated by exact keys.

The closure runs on integers.  Every entry is written in one field
Q(zeta_N), N the lcm of the minimal conductors of the generators'
entries, so an element is the tuple of its entries' power-basis
numerators over one common denominator in lowest terms; at fixed N that
pair is canonical and is the element's key.  Right multiplication by a
generator is compiled once into sparse integer dot products (from the
regular representation of its entries), and the CycloScalar matrices
are built once, after the closure.

The closure also keeps the group's integer structure: the index of every
element times every generator, and for each element the parent and
generator it was first found from, which spell it as a word in the
generators.  Products (mul_index), inverses, element orders and conjugacy
classes are computed on these indices alone; matrices are multiplied only
during the closure and where a matrix is the answer.

Reflections are the elements g with rank(g - Id) = 1.  Each reflecting
hyperplane H carries the linear form cutting it out (a contravariant
degree-1 polynomial, first nonzero coefficient normalised to 1), the
matching covariant root form, and the order e_H of the pointwise
stabiliser of H.  A non-identity g fixing H pointwise has rank(g - Id) = 1
and kernel H, so it is a reflection whose rows are multiples of H's form:
e_H is one more than the number of reflections grouped under that form.
The two skew products are

    skew_contravariant = prod_H L_H^(e_H - 1)   (transforms by det)
    skew_covariant     = prod_H a_H^(e_H - 1)   (same on the dual side)

An element's identity is its index.  index_of maps a matrix to it (None
outside the group), and no other layer keys elements by their matrices.

The group-level queries that other layers share live here, once each:
the orbits of maps c -> a c b on indices (orbit_partition; conjugacy
classes and the twisted classes of the counting layer are both such
orbits), conjugacy classes (conjugacy_classes, cached on the group), the
normaliser test (is_normalized_by, on generators) and subgroup closure
of generators checked against the ambient group (subgroup_from_matrices).

The catalog covers cyclic groups, the imprimitive family G(m,p,n) and the
crystallographic Weyl types.  Documented models: cyclic(e) is [[zeta_e]];
G(m,p,n) consists of monomial matrices with m-th root of unity entries
whose product lies in <zeta_m^p>; weyl B/C/D use signed permutations of
the standard coordinates; weyl A and G2 act on the coordinates dual to a
base of simple roots, giving small integer matrices.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CapError, DomainError, UsageError
from .linalg import det, identity_matrix, mat_mul, rank
from .mpoly import CONTRAVARIANT, COVARIANT, MPoly, coerce_matrix
from .scalars import (CYC_ONE, CYC_ZERO, CycloScalar, euler_phi,
                      from_numerators, numerators_at, regular_representation)

DEFAULT_CLOSURE_CAP = 10000


def matrix_to_json(mat):
    return [[s.to_json() for s in row] for row in mat]


def matrix_from_json(data):
    if not isinstance(data, list) or not data:
        raise UsageError("matrix JSON must be a non-empty array of rows")
    mat = []
    for row in data:
        if not isinstance(row, list):
            raise UsageError("matrix JSON rows must be arrays")
        mat.append([CycloScalar.from_json(v) for v in row])
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise UsageError("matrix JSON is not square")
    return mat


class Hyperplane(NamedTuple):
    form: MPoly             # contravariant linear form vanishing on H
    covariant_form: MPoly   # covariant form spanning the moved line
    order: int              # e_H, identity included
    reflections: tuple      # element indices of the reflections fixing H


class ReflectionGroup:
    """Immutable closed matrix group with reflection-arrangement data."""

    def __init__(self, generators, cap: int = DEFAULT_CLOSURE_CAP, name: str = ""):
        gens = [coerce_matrix(g) for g in generators]
        if not gens:
            raise UsageError("need at least one generator matrix (identity is fine)")
        dim = len(gens[0])
        for g in gens:
            if len(g) != dim or any(len(row) != dim for row in g):
                raise UsageError("generators must be square of equal size")
            if not det(g):
                raise DomainError("generator matrix is singular")
        self.dim = dim
        self.name = name
        n = math.lcm(*(s.reduce().order for g in gens for row in g for s in row))
        steps = []          # (right multiplier, denominator) per generator
        for g in gens:
            nums, den = numerators_at([s for row in g for s in row], n)
            steps.append((_right_multiplier(nums, dim, n), den))
        ident = numerators_at(
            [s for row in identity_matrix(dim) for s in row], n)
        keys = [ident]
        index = {ident: 0}
        right = []          # right[i][k]: index of elements[i] * gens[k]
        parent = [0]        # elements[j] = elements[parent[j]] * gens[letter[j]]
        letter = [None]
        cursor = 0
        while cursor < len(keys):
            nums, den = keys[cursor]
            row = []
            for k, (table, gden) in enumerate(steps):
                # a monomial generator gives one term per slot
                out = [nums[terms[0][0]] * terms[0][1] if len(terms) == 1
                       else sum(nums[src] * c for src, c in terms)
                       for terms in table]
                d = den * gden
                if d != 1:
                    common = math.gcd(d, *out)
                    if common != 1:
                        out = [x // common for x in out]
                        d //= common
                key = (tuple(out), d)
                j = index.get(key)
                if j is None:
                    if len(keys) >= cap:
                        raise CapError(
                            "group closure exceeded cap of %d elements" % cap)
                    j = index[key] = len(keys)
                    keys.append(key)
                    parent.append(cursor)
                    letter.append(k)
                row.append(j)
            right.append(row)
            cursor += 1
        elements = []
        for nums, den in keys:
            flat = from_numerators(nums, den, n)
            elements.append([flat[r * dim:(r + 1) * dim] for r in range(dim)])
        self._conductor = n
        self.elements = elements
        self._index = index
        self._right = right
        self._parent = parent
        self._letter = letter
        # gens[k]^-1 is the last element before the cycle of gens[k] closes
        gen_inv = []
        for k in range(len(gens)):
            x = 0
            while right[x][k]:
                x = right[x][k]
            gen_inv.append(x)
        # (p g)^-1 = g^-1 p^-1, and parents precede their children
        inv = [0]
        for j in range(1, len(elements)):
            inv.append(self.mul_index(gen_inv[letter[j]], inv[parent[j]]))
        self._inv = inv
        self.inverses = [elements[x] for x in inv]
        self.generators = gens
        self._dets = None
        self._reflections = None
        self._hyperplanes = None
        self._plane_of = None
        self._plane_rows = None
        self._skew = {}
        self._orders = None
        self._classes = None

    # -- basic queries

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, i: int):
        return self.elements[i]

    def inverse(self, i: int):
        return self.inverses[i]

    def index_of(self, mat):
        """Index of the element equal to mat, or None if there is none
        (including a wrong shape or an entry outside the closure's field)."""
        mat = coerce_matrix(mat)
        if len(mat) != self.dim or any(len(row) != self.dim for row in mat):
            return None
        key = numerators_at([s for row in mat for s in row], self._conductor)
        return None if key is None else self._index.get(key)

    def contains_matrix(self, mat) -> bool:
        return self.index_of(mat) is not None

    def mul_index(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j], without a matrix product.

        The closure stored j as a word g_a1 ... g_am in the generators
        (through the parent links) and the index of every element times
        every generator, so i is multiplied by the letters of j in turn.
        """
        word = []
        while j:
            word.append(self._letter[j])
            j = self._parent[j]
        right = self._right
        for k in reversed(word):
            i = right[i][k]
        return i

    def inverse_index(self, i: int) -> int:
        return self._inv[i]

    def determinant(self, i: int) -> CycloScalar:
        if self._dets is None:
            self._dets = [None] * len(self.elements)
        d = self._dets[i]
        if d is None:
            d = det(self.elements[i])
            self._dets[i] = d
        return d

    def element_order(self, i: int) -> int:
        if self._orders is None:
            self._orders = [None] * len(self.elements)
        o = self._orders[i]
        if o is None:
            k, j = 1, i
            while j != 0:
                j = self.mul_index(j, i)
                k += 1
            o = k
            self._orders[i] = o
        return o

    def exponent(self) -> int:
        out = 1
        for i in range(len(self.elements)):
            out = math.lcm(out, self.element_order(i))
        return out

    def is_subgroup_of(self, other: "ReflectionGroup") -> bool:
        if self.dim != other.dim or other.order % self.order:
            return False
        return all(other.contains_matrix(g) for g in self.generators)

    def is_normalized_by(self, mat, mat_inverse) -> bool:
        """Whether mat G mat^-1 = G.  Checking the generators suffices:
        conjugation is a homomorphism, and a finite group mapped into
        itself injectively is mapped onto itself."""
        return all(self.contains_matrix(mat_mul(mat_mul(mat, g), mat_inverse))
                   for g in self.generators)

    # -- reflections and hyperplanes

    def reflections(self):
        """Indices of the reflections (rank(g - Id) = 1), storage order;
        the rank is a class function, taken once per conjugacy class."""
        if self._reflections is None:
            classes = conjugacy_classes(self)
            hits = {c for c, i in enumerate(classes.rep_indices)
                    if rank(_minus_identity(self.elements[i])) == 1}
            self._reflections = [i for i, c in enumerate(classes.class_of)
                                 if c in hits]
        return self._reflections

    @property
    def reflection_count(self) -> int:
        return len(self.reflections())

    def reflection_position(self, mat) -> int:
        """Position of the given matrix inside reflections()."""
        i = self.index_of(mat)
        if i is None or i not in self.reflections():
            raise UsageError("matrix is not a reflection of this group")
        return self.reflections().index(i)

    def hyperplanes(self):
        """Reflecting hyperplanes sorted by their normalised linear form."""
        if self._hyperplanes is not None:
            return self._hyperplanes
        buckets = {}
        for i in self.reflections():
            moved = _minus_identity(self.elements[i])
            row = next(r for r in moved if any(r))
            row = _normalise_form(row)
            col_idx = next(j for j in range(self.dim)
                           if any(moved[r][j] for r in range(self.dim)))
            col = _normalise_form([moved[r][col_idx] for r in range(self.dim)])
            key = tuple(s.sort_key() for s in row)
            if key in buckets:
                buckets[key][2].append(i)
            else:
                buckets[key] = (row, col, [i])
        order = sorted(buckets)
        planes = []
        for key in order:
            row, col, idxs = buckets[key]
            form = MPoly(CONTRAVARIANT, self.dim,
                         {tuple(1 if k == j else 0 for k in range(self.dim)): c
                          for j, c in enumerate(row) if c})
            cov = MPoly(COVARIANT, self.dim,
                        {tuple(1 if k == j else 0 for k in range(self.dim)): c
                         for j, c in enumerate(col) if c})
            planes.append(Hyperplane(form, cov, len(idxs) + 1, tuple(idxs)))
        self._plane_of = {i: k for k, key in enumerate(order)
                          for i in buckets[key][2]}
        self._plane_rows = [buckets[key][0] for key in order]
        self._hyperplanes = planes
        return planes

    def skew_contravariant(self) -> MPoly:
        """prod L_H^(e_H - 1): spans the top harmonic degree, transforms by det."""
        return self._skew_product(CONTRAVARIANT)

    def skew_covariant(self) -> MPoly:
        return self._skew_product(COVARIANT)

    def _skew_product(self, space):
        got = self._skew.get(space)
        if got is None:
            got = MPoly.constant(space, self.dim, 1)
            for pl in self.hyperplanes():
                base = pl.form if space == CONTRAVARIANT else pl.covariant_form
                got = got * base ** (pl.order - 1)
            self._skew[space] = got
        return got

    def skew_degree(self) -> int:
        return sum(pl.order - 1 for pl in self.hyperplanes())

    def check_skewness(self, i: int) -> bool:
        """Does element i satisfy g(skew) = det(g) * skew?

        Verified through the permutation action on the hyperplane forms, so
        it is cheap enough to run over every element of every fixture: g
        sends H to the hyperplane of g s g^-1 for any reflection s of H, and
        the form with coefficient row c to c g^-1, since
        (g L)(x) = L(g^-1 x), which must be lambda times the target's row.
        """
        gi = self.inverses[i]
        back = self.inverse_index(i)
        scalar = CYC_ONE
        for pl, row in zip(self.hyperplanes(), self._plane_rows):
            coeffs = [sum((c * gi[j][k] for j, c in enumerate(row)
                           if c and gi[j][k]), CYC_ZERO)
                      for k in range(self.dim)]
            conj = self.mul_index(self.mul_index(i, pl.reflections[0]), back)
            target = self._plane_rows[self._plane_of[conj]]
            lam = next(coeffs[j] for j, c in enumerate(target) if c)
            if coeffs != [lam * c for c in target]:
                return False
            scalar = scalar * lam ** (pl.order - 1)
        return scalar == self.determinant(i)

    # -- subgroups

    def reflection_subgroup(self, refl_positions, name: str = ""
                            ) -> "ReflectionGroup":
        """Closure of the chosen reflections (positions into reflections())."""
        refl = self.reflections()
        gens = []
        for p in refl_positions:
            if not refl:
                raise UsageError(
                    "the group has no reflections to choose from")
            if not 0 <= p < len(refl):
                raise UsageError("reflection index %r out of range 0..%d"
                                 % (p, len(refl) - 1))
            gens.append(self.elements[refl[p]])
        if not gens:
            gens = [identity_matrix(self.dim)]
        return self.subgroup_from_matrices(gens,
                                           name=name or (self.name + ":sub"))

    def subgroup_from_matrices(self, mats, name: str = "") -> "ReflectionGroup":
        """Closure of mats, each checked first to lie in this group, so the
        closure does too."""
        for g in mats:
            if not self.contains_matrix(g):
                raise DomainError("subgroup generator lies outside the "
                                  "ambient group")
        return ReflectionGroup(mats, name=name)

    def __repr__(self):
        return "ReflectionGroup(%s, order=%d, dim=%d)" % (
            self.name or "custom", self.order, self.dim)


class ClassData:
    """Conjugacy classes: (representative matrix, size) pairs and an
    element-index to class-index map.  The representative is the class
    member that appears first in the group's storage order."""

    def __init__(self, classes, class_of, rep_indices):
        self.classes = tuple(classes)
        self.class_of = tuple(class_of)
        self.rep_indices = tuple(rep_indices)

    def __len__(self):
        return len(self.classes)

    @property
    def sizes(self):
        return tuple(size for _, size in self.classes)


def orbit_partition(group: ReflectionGroup, pairs):
    """The orbits of the maps c -> a c b, over the given index pairs
    (a, b), on the group's element indices: (class of each index, members
    of each class in storage order).  Classes are numbered by their first
    member."""
    class_of = [None] * group.order
    members = []
    for start in range(group.order):
        if class_of[start] is not None:
            continue
        tag = class_of[start] = len(members)
        members.append([])
        stack = [start]
        while stack:
            x = stack.pop()
            for a, b in pairs:
                y = group.mul_index(group.mul_index(a, x), b)
                if class_of[y] is None:
                    class_of[y] = tag
                    stack.append(y)
    for i, c in enumerate(class_of):
        members[c].append(i)
    return class_of, members


def conjugacy_classes(group: ReflectionGroup) -> ClassData:
    """Orbit partition of the group under conjugation by its generators."""
    if group._classes is not None:
        return group._classes
    gen_idx = [group.index_of(g) for g in group.generators]
    class_of, members = orbit_partition(
        group, [(g, group.inverse_index(g)) for g in gen_idx])
    classes = [(group.element(m[0]), len(m)) for m in members]
    group._classes = ClassData(classes, class_of, [m[0] for m in members])
    return group._classes


def _right_multiplier(nums, dim: int, n: int):
    """Right multiplication by a dim x dim matrix, given by its numerators_at
    vector at conductor n, as a map of numerator vectors: for each output
    slot the (source slot, coefficient) pairs it sums.  Entry (r, j) of
    x * g is sum_i x_ri * g_ij, each product read off the regular
    representation of g_ij."""
    phi = euler_phi(n)
    reps = [regular_representation(nums[e * phi:(e + 1) * phi], n)
            for e in range(dim * dim)]
    cols = [[(i * phi + t, reps[i * dim + j][t][s])
             for i in range(dim) for t in range(phi) if reps[i * dim + j][t][s]]
            for j in range(dim) for s in range(phi)]
    width = dim * phi
    return tuple(tuple((r * width + src, c) for src, c in col)
                 for r in range(dim) for col in cols)


def _minus_identity(g):
    """g - Id, whose rank is 1 exactly on reflections."""
    return [[v - CYC_ONE if r == c else v for c, v in enumerate(row)]
            for r, row in enumerate(g)]


def _normalise_form(coeffs):
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        raise DomainError("zero linear form")
    inv = lead.inv()
    return [c * inv for c in coeffs]


# ---------------------------------------------------------------------------
# catalog


def _check_cap(order: int, cap: int):
    """Refuse a catalog group whose known order is above the closure cap
    before any root of unity is built: the power table of zeta_m has m
    rows, so a huge m would never get to the closure's own check."""
    if order > cap:
        raise CapError("group closure exceeded cap of %d elements" % cap)


def cyclic_group(e: int, cap: int = DEFAULT_CLOSURE_CAP) -> ReflectionGroup:
    if e < 1:
        raise UsageError("cyclic order must be positive")
    _check_cap(e, cap)
    z = CycloScalar.root_of_unity(e)
    return ReflectionGroup([[[z]]], cap=cap, name="cyclic:%d" % e)


def gmpn_group(m: int, p: int, n: int, cap: int = DEFAULT_CLOSURE_CAP) -> ReflectionGroup:
    """G(m,p,n): monomial n x n matrices, entries m-th roots of unity with
    entry product in <zeta_m^p>.  Order m^n n! / p."""
    if m < 1 or n < 1 or p < 1 or m % p:
        raise UsageError("need p | m and positive m, p, n")
    # m^n n! as the product of m * k over k = 1..n, checked as it grows, so
    # that a huge n is refused as fast as a huge m
    expect = 1
    for k in range(1, n + 1):
        expect *= m * k
        _check_cap(expect // p, cap)
    expect //= p
    z = CycloScalar.root_of_unity(m)
    gens = []
    for i in range(n - 1):
        s = identity_matrix(n)
        s[i][i] = s[i + 1][i + 1] = CYC_ZERO
        s[i][i + 1] = s[i + 1][i] = CYC_ONE
        gens.append(s)
    if p < m:
        d = identity_matrix(n)
        d[0][0] = z ** p
        gens.append(d)
    if p > 1 and n > 1:
        t = identity_matrix(n)
        t[0][0] = t[1][1] = CYC_ZERO
        t[0][1] = z.inv()
        t[1][0] = z
        gens.append(t)
    if not gens:
        gens = [identity_matrix(n)]
    grp = ReflectionGroup(gens, cap=cap, name="gmpn:%d:%d:%d" % (m, p, n))
    if grp.order != expect:
        raise DomainError("G(%d,%d,%d) closure has order %d, expected %d"
                          % (m, p, n, grp.order, expect))
    return grp


def _signed_permutation_gens(n: int, weyl_type: str):
    gens = []
    for i in range(n - 1):
        s = identity_matrix(n)
        s[i][i] = s[i + 1][i + 1] = CYC_ZERO
        s[i][i + 1] = s[i + 1][i] = CYC_ONE
        gens.append(s)
    if weyl_type in ("B", "C"):
        f = identity_matrix(n)
        f[n - 1][n - 1] = -CYC_ONE
        gens.append(f)
    else:  # D: reflection swapping the last two coordinates with signs
        f = identity_matrix(n)
        f[n - 2][n - 2] = f[n - 1][n - 1] = CYC_ZERO
        f[n - 2][n - 1] = f[n - 1][n - 2] = -CYC_ONE
        gens.append(f)
    return gens


def _simple_reflection_matrices(cartan):
    """Reflection matrices in simple-root coordinates: s_i sends the basis
    vector e_j to e_j - cartan[i][j] e_i."""
    n = len(cartan)
    mats = []
    for i in range(n):
        g = identity_matrix(n)
        for j in range(n):
            g[i][j] = g[i][j] - CycloScalar.rational(cartan[i][j])
        mats.append(g)
    return mats


def cartan_matrix(weyl_type: str, n: int):
    if weyl_type == "A":
        c = [[0] * n for _ in range(n)]
        for i in range(n):
            c[i][i] = 2
            if i + 1 < n:
                c[i][i + 1] = c[i + 1][i] = -1
        return c
    if weyl_type == "G2":
        return [[2, -1], [-3, 2]]
    raise UsageError("no Cartan model for type %s here" % weyl_type)


def weyl_group(weyl_type: str, n: int, cap: int = DEFAULT_CLOSURE_CAP) -> ReflectionGroup:
    """Weyl groups at rank <= 4.

    B, C and D act by signed permutations of the standard coordinates
    (B and C give the same matrices; they differ as root data).  A and G2
    act on simple-root coordinates via the Cartan matrix.
    """
    weyl_type = weyl_type.upper()
    if weyl_type == "G2":
        if n != 2:
            raise UsageError("G2 has rank 2")
        gens = _simple_reflection_matrices(cartan_matrix("G2", 2))
        expected = 12
    elif weyl_type == "A":
        if not 1 <= n <= 4:
            raise UsageError("type A supported for rank 1..4")
        gens = _simple_reflection_matrices(cartan_matrix("A", n))
        expected = math.factorial(n + 1)
    elif weyl_type in ("B", "C"):
        if not 2 <= n <= 4:
            raise UsageError("types B and C supported for rank 2..4")
        gens = _signed_permutation_gens(n, weyl_type)
        expected = 2 ** n * math.factorial(n)
    elif weyl_type == "D":
        if not 2 <= n <= 4:
            raise UsageError("type D supported for rank 2..4")
        gens = _signed_permutation_gens(n, "D")
        expected = 2 ** (n - 1) * math.factorial(n)
    else:
        raise UsageError("unsupported Weyl type %r" % (weyl_type,))
    grp = ReflectionGroup(gens, cap=cap, name="weyl:%s:%d" % (weyl_type, n))
    if grp.order != expected:
        raise DomainError("weyl(%s,%d) closure has order %d, expected %d"
                          % (weyl_type, n, grp.order, expected))
    return grp


def catalog(name: str, cap: int = DEFAULT_CLOSURE_CAP) -> ReflectionGroup:
    """Build a group from a catalog name: "cyclic:6", "gmpn:3:1:2",
    "weyl:C:3", "weyl:G2:2"."""
    parts = name.split(":")
    try:
        if parts[0] == "cyclic" and len(parts) == 2:
            return cyclic_group(int(parts[1]), cap=cap)
        if parts[0] == "gmpn" and len(parts) == 4:
            return gmpn_group(int(parts[1]), int(parts[2]), int(parts[3]), cap=cap)
        if parts[0] == "weyl" and len(parts) == 3:
            return weyl_group(parts[1], int(parts[2]), cap=cap)
    except ValueError:
        raise UsageError("malformed catalog name %r" % (name,))
    raise UsageError("unknown catalog name %r" % (name,))


def registry_names(max_order: int = 1152):
    """Deterministic list of catalog names with group order <= max_order."""
    names = []
    for e in range(1, 13):
        if e <= max_order:
            names.append("cyclic:%d" % e)
    for m in range(1, 7):
        for n in range(1, 5):
            for p in range(1, m + 1):
                if m % p:
                    continue
                if m ** n * math.factorial(n) // p <= max_order:
                    names.append("gmpn:%d:%d:%d" % (m, p, n))
    for r in range(1, 5):
        if math.factorial(r + 1) <= max_order:
            names.append("weyl:A:%d" % r)
    for t, base in (("B", 2), ("C", 2), ("D", 1)):
        for r in range(2, 5):
            if base ** r * math.factorial(r) <= max_order:
                names.append("weyl:%s:%d" % (t, r))
    names.append("weyl:G2:2")
    return names

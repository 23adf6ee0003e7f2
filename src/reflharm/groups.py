"""Finite reflection groups as explicit matrix groups.

A group is stored as the full list of its elements (exact CycloScalar
matrices), found by breadth-first closure of a generating set.  Storage
order is deterministic: identity first, then products in discovery order
with a fixed generator order, deduplicated by canonical matrix keys.

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

The group-level queries that other layers share live here, once each:
conjugacy classes (conjugacy_classes, cached on the group), the
normaliser test (is_normalized_by, on generators) and subgroup closure
checked against the ambient group (subgroup_from_matrices).

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
from .scalars import CycloScalar

DEFAULT_CLOSURE_CAP = 10000

CYC_ONE = CycloScalar.rational(1)
CYC_ZERO = CycloScalar.rational(0)


def matrix_key(mat):
    """Canonical hashable key; equal matrices over any conductor collide."""
    return tuple(s.sort_key() for row in mat for s in row)


def matrix_to_json(mat):
    return [[s.to_json() for s in row] for row in mat]


def matrix_from_json(data):
    if not isinstance(data, list) or not data:
        raise UsageError("matrix JSON must be a non-empty array of rows")
    mat = []
    for row in data:
        if not isinstance(row, list):
            raise UsageError("matrix JSON rows must be arrays")
        mat.append([CycloScalar.from_json(v) if isinstance(v, dict)
                    else CycloScalar.coerce(v) for v in row])
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
        ident = identity_matrix(dim, CYC_ONE)
        elements = [ident]
        index = {matrix_key(ident): 0}
        right = []          # right[i][k]: index of elements[i] * gens[k]
        parent = [0]        # elements[j] = elements[parent[j]] * gens[letter[j]]
        letter = [None]
        cursor = 0
        while cursor < len(elements):
            base = elements[cursor]
            row = []
            for k, g in enumerate(gens):
                prod = mat_mul(base, g)
                key = matrix_key(prod)
                j = index.get(key)
                if j is None:
                    if len(elements) >= cap:
                        raise CapError(
                            "group closure exceeded cap of %d elements" % cap)
                    j = index[key] = len(elements)
                    elements.append(prod)
                    parent.append(cursor)
                    letter.append(k)
                row.append(j)
            right.append(row)
            cursor += 1
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
        self._plane_index = None
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
        return self._index.get(matrix_key(coerce_matrix(mat)))

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
        return all(other.contains_matrix(g) for g in self.elements)

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
        planes = []
        for key in sorted(buckets):
            row, col, idxs = buckets[key]
            form = MPoly(CONTRAVARIANT, self.dim,
                         {tuple(1 if k == j else 0 for k in range(self.dim)): c
                          for j, c in enumerate(row) if c})
            cov = MPoly(COVARIANT, self.dim,
                        {tuple(1 if k == j else 0 for k in range(self.dim)): c
                         for j, c in enumerate(col) if c})
            planes.append(Hyperplane(form, cov, len(idxs) + 1, tuple(idxs)))
        self._plane_index = {key: k for k, key in enumerate(sorted(buckets))}
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
        it is cheap enough to run over every element of every fixture.
        """
        g = self.elements[i]
        gi = self.inverses[i]
        planes = self.hyperplanes()
        scalar = CYC_ONE
        seen = set()
        for pl in planes:
            image = pl.form.act(g, gi)
            coeffs = _form_coeffs(image, self.dim)
            norm = _normalise_form(coeffs)
            lead = next(c for c in coeffs if c)
            k = self._plane_index.get(tuple(s.sort_key() for s in norm))
            if k is None:
                return False
            target = planes[k]
            if target.order != pl.order:
                return False
            seen.add(k)
            scalar = scalar * lead ** (pl.order - 1)
        if len(seen) != len(planes):
            return False
        return scalar == self.determinant(i)

    # -- subgroups

    def reflection_subgroup(self, refl_positions, name: str = ""
                            ) -> "ReflectionGroup":
        """Closure of the chosen reflections (positions into reflections())."""
        refl = self.reflections()
        gens = []
        for p in refl_positions:
            if not 0 <= p < len(refl):
                raise UsageError("reflection index %r out of range" % (p,))
            gens.append(self.elements[refl[p]])
        if not gens:
            gens = [identity_matrix(self.dim, CYC_ONE)]
        return self.subgroup_from_matrices(gens,
                                           name=name or (self.name + ":sub"))

    def subgroup_from_matrices(self, mats, name: str = "") -> "ReflectionGroup":
        sub = ReflectionGroup(mats, name=name)
        for g in sub.elements:
            if not self.contains_matrix(g):
                raise DomainError("subgroup closure escaped the ambient group")
        return sub

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


def conjugacy_classes(group: ReflectionGroup) -> ClassData:
    """Orbit partition of the group under conjugation."""
    if group._classes is not None:
        return group._classes
    gen_idx = [group.index_of(g) for g in group.generators]
    gen_inv = [group.inverse_index(i) for i in gen_idx]
    class_of = [None] * group.order
    classes = []
    reps = []
    for start in range(group.order):
        if class_of[start] is not None:
            continue
        orbit = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for gi, gii in zip(gen_idx, gen_inv):
                y = group.mul_index(group.mul_index(gi, x), gii)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        tag = len(classes)
        for x in orbit:
            class_of[x] = tag
        classes.append((group.element(start), len(orbit)))
        reps.append(start)
    group._classes = ClassData(classes, class_of, reps)
    return group._classes


def _minus_identity(g):
    """g - Id, whose rank is 1 exactly on reflections."""
    return [[v - CYC_ONE if r == c else v for c, v in enumerate(row)]
            for r, row in enumerate(g)]


def _form_coeffs(form: MPoly, dim: int):
    units = [tuple(1 if a == b else 0 for a in range(dim)) for b in range(dim)]
    return form.coeff_vector(units)


def _normalise_form(coeffs):
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        raise DomainError("zero linear form")
    inv = lead.inv()
    return [c * inv for c in coeffs]


# ---------------------------------------------------------------------------
# catalog


def cyclic_group(e: int, cap: int = DEFAULT_CLOSURE_CAP) -> ReflectionGroup:
    if e < 1:
        raise UsageError("cyclic order must be positive")
    z = CycloScalar.root_of_unity(e)
    return ReflectionGroup([[[z]]], cap=cap, name="cyclic:%d" % e)


def gmpn_group(m: int, p: int, n: int, cap: int = DEFAULT_CLOSURE_CAP) -> ReflectionGroup:
    """G(m,p,n): monomial n x n matrices, entries m-th roots of unity with
    entry product in <zeta_m^p>.  Order m^n n! / p."""
    if m < 1 or n < 1 or p < 1 or m % p:
        raise UsageError("need p | m and positive m, p, n")
    z = CycloScalar.root_of_unity(m)
    gens = []
    for i in range(n - 1):
        s = identity_matrix(n, CYC_ONE)
        s[i][i] = s[i + 1][i + 1] = CYC_ZERO
        s[i][i + 1] = s[i + 1][i] = CYC_ONE
        gens.append(s)
    if p < m:
        d = identity_matrix(n, CYC_ONE)
        d[0][0] = z ** p
        gens.append(d)
    if p > 1 and n > 1:
        t = identity_matrix(n, CYC_ONE)
        t[0][0] = t[1][1] = CYC_ZERO
        t[0][1] = z.inv()
        t[1][0] = z
        gens.append(t)
    if not gens:
        gens = [identity_matrix(n, CYC_ONE)]
    grp = ReflectionGroup(gens, cap=cap, name="gmpn:%d:%d:%d" % (m, p, n))
    expect = m ** n * math.factorial(n) // p
    if grp.order != expect:
        raise DomainError("G(%d,%d,%d) closure has order %d, expected %d"
                          % (m, p, n, grp.order, expect))
    return grp


def _signed_permutation_gens(n: int, weyl_type: str):
    gens = []
    for i in range(n - 1):
        s = identity_matrix(n, CYC_ONE)
        s[i][i] = s[i + 1][i + 1] = CYC_ZERO
        s[i][i + 1] = s[i + 1][i] = CYC_ONE
        gens.append(s)
    if weyl_type in ("B", "C"):
        f = identity_matrix(n, CYC_ONE)
        f[n - 1][n - 1] = -CYC_ONE
        gens.append(f)
    else:  # D: reflection swapping the last two coordinates with signs
        f = identity_matrix(n, CYC_ONE)
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
        g = identity_matrix(n, CYC_ONE)
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

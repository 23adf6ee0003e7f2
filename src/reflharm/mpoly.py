"""Sparse multivariate polynomials over cyclotomic scalars.

Two parallel polynomial families share this type, told apart by a space tag:

* contravariant polynomials (tag ``S(V*)``, variables X_i) are the ordinary
  polynomial functions a group acts on by (g.P)(v) = P(g^-1 v);
* covariant polynomials (tag ``S(V)``, variables x_i) carry the direct
  action extending v -> gv and act on the contravariant side as constant
  coefficient differential operators, x_i -> d/dX_i.

diff_apply works in either direction (the operator and the target must live
in opposite spaces) and pairing(a, P) = (D_a P)(0) is the bilinear form the
harmonic theory is built on: monomials pair diagonally with value
prod_i e_i!.

Terms are kept in a dict mapping exponent tuples to nonzero CycloScalars;
display, serialisation and echelon bases all use graded lexicographic order,
largest monomial first.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import UsageError
from .linalg import mat_inv
from .scalars import CYC_ONE, CycloScalar

COVARIANT = "S(V)"
CONTRAVARIANT = "S(V*)"

_SPACES = (COVARIANT, CONTRAVARIANT)


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple:
    """All exponent tuples of the given total degree, largest first in
    lexicographic order (which is the graded-lex order within one degree)."""
    if nvars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


def monomial_key(exps):
    """Sort key realising graded lex: sort ascending, display reversed."""
    return (sum(exps), exps)


class MPoly:
    __slots__ = ("space", "nvars", "terms")

    def __init__(self, space: str, nvars: int, terms=None):
        if space not in _SPACES:
            raise UsageError("unknown polynomial space tag %r" % (space,))
        if nvars < 1:
            raise UsageError("need at least one variable")
        self.space = space
        self.nvars = nvars
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, c in items:
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise UsageError("bad exponent tuple %r" % (exps,))
                c = CycloScalar.coerce(c)
                if exps in clean:
                    c = clean[exps] + c
                if c:
                    clean[exps] = c
                elif exps in clean:
                    del clean[exps]
        self.terms = clean

    # -- constructors

    @staticmethod
    def zero(space: str, nvars: int) -> "MPoly":
        return MPoly(space, nvars)

    @staticmethod
    def constant(space: str, nvars: int, c) -> "MPoly":
        return MPoly(space, nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(space: str, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise UsageError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return MPoly(space, nvars, {exps: 1})

    @staticmethod
    def monomial(space: str, exps, c=1) -> "MPoly":
        exps = tuple(exps)
        return MPoly(space, len(exps), {exps: c})

    # -- inspection

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self):
        """The common degree of all terms, or None if mixed (zero gives 0)."""
        if not self.terms:
            return 0
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def coefficient(self, exps) -> CycloScalar:
        return self.terms.get(tuple(exps), CycloScalar.rational(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]),
                      reverse=True)

    # -- arithmetic

    def _check_compatible(self, other: "MPoly"):
        if self.space != other.space:
            raise UsageError("cannot combine %s with %s" % (self.space, other.space))
        if self.nvars != other.nvars:
            raise UsageError("variable counts differ")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            s = c if cur is None else cur + c
            if s:
                out[e] = s
            elif cur is not None:
                del out[e]
        p = MPoly.__new__(MPoly)
        p.space, p.nvars, p.terms = self.space, self.nvars, out
        return p

    def __neg__(self):
        p = MPoly.__new__(MPoly)
        p.space, p.nvars = self.space, self.nvars
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "MPoly":
        c = CycloScalar.coerce(c)
        p = MPoly.__new__(MPoly)
        p.space, p.nvars = self.space, self.nvars
        if not c:
            p.terms = {}
            return p
        p.terms = {e: v * c for e, v in self.terms.items()}
        return p

    def __mul__(self, other):
        if isinstance(other, MPoly):
            self._check_compatible(other)
            out = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(i + j for i, j in zip(ea, eb))
                    c = ca * cb
                    cur = out.get(e)
                    s = c if cur is None else cur + c
                    if s:
                        out[e] = s
                    elif cur is not None:
                        del out[e]
            p = MPoly.__new__(MPoly)
            p.space, p.nvars, p.terms = self.space, self.nvars, out
            return p
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int):
        if k < 0:
            raise UsageError("negative polynomial power")
        result = MPoly.constant(self.space, self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.space == other.space and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.space, self.nvars, tuple(self.sorted_terms())))

    # -- substitution and group action

    def substitute(self, forms) -> "MPoly":
        """Replace variable i by forms[i]; forms share one space and width."""
        if len(forms) != self.nvars:
            raise UsageError("need one form per variable")
        space = forms[0].space
        nv = forms[0].nvars
        pows = [[MPoly.constant(space, nv, 1)] for _ in forms]
        def power(i, k):
            cache = pows[i]
            while len(cache) <= k:
                cache.append(cache[-1] * forms[i])
            return cache[k]
        total = MPoly.zero(space, nv)
        for exps, c in self.terms.items():
            term = MPoly.constant(space, nv, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def act(self, g, g_inverse=None) -> "MPoly":
        """Group action: contragredient on S(V*), direct on S(V).

        For contravariant P the result is P(g^-1 x); pass the precomputed
        inverse when available.  Monomial matrices take a permutation fast
        path that never expands products.
        """
        n = self.nvars
        if len(g) != n or any(len(row) != n for row in g):
            raise UsageError("matrix size does not match variable count")
        g = coerce_matrix(g)
        if self.space == CONTRAVARIANT:
            sub = coerce_matrix(g_inverse) if g_inverse is not None else mat_inv(g)
        else:
            sub = [[g[i][j] for i in range(n)] for j in range(n)]
        mono = _monomial_shape(sub)
        if mono is not None:
            return self._act_monomial(mono)
        forms = [MPoly(self.space, n,
                       {tuple(1 if k == j else 0 for k in range(n)): sub[i][j]
                        for j in range(n) if sub[i][j]})
                 for i in range(n)]
        return self.substitute(forms)

    def _act_monomial(self, mono) -> "MPoly":
        image = _monomial_image(mono)
        out = {}
        for exps, c in self.terms.items():
            t, s = image(exps)
            out[t] = c if s is CYC_ONE else c * s
        p = MPoly.__new__(MPoly)
        p.space, p.nvars, p.terms = self.space, self.nvars, out
        return p

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise UsageError("point has wrong dimension")
        point = [CycloScalar.coerce(x) for x in point]
        total = CycloScalar.rational(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = v * x ** e
            total = total + v
        return total

    # -- linear-algebra bridging

    def coeff_vector(self, monomials):
        zero = CycloScalar.rational(0)
        return [self.terms.get(m, zero) for m in monomials]

    @staticmethod
    def from_vector(space, monomials, vec) -> "MPoly":
        """The polynomial with coefficient vec[j] at monomials[j], for
        exponent tuples of one width and CycloScalar entries, such as the
        rows the linalg routines return; the terms are taken as they are."""
        if space not in _SPACES:
            raise UsageError("unknown polynomial space tag %r" % (space,))
        p = MPoly.__new__(MPoly)
        p.space, p.nvars = space, len(monomials[0])
        p.terms = {m: c for m, c in zip(monomials, vec) if c}
        return p

    # -- serialisation and display

    def to_json(self):
        return {
            "space": self.space,
            "vars": self.nvars,
            "terms": [{"exp": list(e), "coeff": c.to_json()}
                      for e, c in self.sorted_terms()],
        }

    @staticmethod
    def from_json(data) -> "MPoly":
        try:
            space = data["space"]
            nvars = int(data["vars"])
            terms = [(tuple(t["exp"]), CycloScalar.from_json(t["coeff"]))
                     for t in data["terms"]]
        except (KeyError, TypeError) as exc:
            raise UsageError("malformed polynomial JSON: %s" % (exc,))
        return MPoly(space, nvars, terms)

    def var_names(self):
        letters = ("x", "y", "z") if self.space == COVARIANT else ("X", "Y", "Z")
        if self.nvars <= 3:
            return letters[: self.nvars]
        base = letters[0]
        return tuple("%s%d" % (base, i + 1) for i in range(self.nvars))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.var_names()
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            body = "*".join(factors)
            cs = str(c)
            if not body:
                term = cs if " " not in cs else "(%s)" % cs
            elif cs == "1":
                term = body
            elif cs == "-1":
                term = "-" + body
            elif " " in cs:
                term = "(%s)*%s" % (cs, body)
            else:
                term = "%s*%s" % (cs, body)
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self):
        return "MPoly(%s, %d, %s)" % (self.space, self.nvars, str(self))


def coerce_matrix(g):
    """Matrix rows with every entry lifted to CycloScalar."""
    if all(isinstance(v, CycloScalar) for row in g for v in row):
        return g
    return [[CycloScalar.coerce(v) for v in row] for row in g]


def _monomial_shape(mat):
    """(sigma, scalars) if mat has exactly one nonzero per row and column,
    where row i's nonzero sits at column sigma[i]; else None."""
    n = len(mat)
    sigma = [0] * n
    scalars = [None] * n
    seen = [False] * n
    for i, row in enumerate(mat):
        nz = [j for j, v in enumerate(row) if v]
        if len(nz) != 1:
            return None
        j = nz[0]
        if seen[j]:
            return None
        seen[j] = True
        sigma[i] = j
        scalars[i] = row[j]
    return sigma, scalars


def _monomial_image(mono):
    """For (sigma, scalars) from _monomial_shape, the map sending the
    exponents of X^e to (exponents, coefficient) of its image under
    X_i -> scalars[i] * X_sigma[i], one term.  Powers of the scalars are
    cached; a coefficient equal to one is CYC_ONE itself, so callers can
    skip the product."""
    sigma, scalars = mono
    n = len(sigma)
    powers = [[CYC_ONE] for _ in range(n)]

    def image(exps):
        target = [0] * n
        coeff = CYC_ONE
        for i, e in enumerate(exps):
            if e:
                target[sigma[i]] = e
                pw = powers[i]
                while len(pw) <= e:
                    p = pw[-1] * scalars[i]
                    pw.append(CYC_ONE if p == 1 else p)
                if pw[e] is not CYC_ONE:
                    coeff = pw[e] if coeff is CYC_ONE else coeff * pw[e]
        return tuple(target), coeff
    return image


def diff_apply(op: MPoly, target: MPoly) -> MPoly:
    """Apply op as a constant-coefficient differential operator to target.

    The two arguments must live in opposite spaces; each variable of the
    operator differentiates the matching variable of the target.  The result
    lives in the target's space.
    """
    if op.space == target.space:
        raise UsageError("operator and target must live in dual spaces")
    if op.nvars != target.nvars:
        raise UsageError("variable counts differ")
    out = {}
    for ea, ca in op.terms.items():
        for eb, cb in target.terms.items():
            ff = 1
            for a, b in zip(ea, eb):
                if a:
                    if a > b:
                        ff = 0
                        break
                    f = b
                    for _ in range(a):
                        ff *= f
                        f -= 1
            if not ff:
                continue
            e = tuple(b - a for a, b in zip(ea, eb))
            c = (ca * cb) * ff
            cur = out.get(e)
            s = c if cur is None else cur + c
            if s:
                out[e] = s
            elif cur is not None:
                del out[e]
    p = MPoly.__new__(MPoly)
    p.space, p.nvars, p.terms = target.space, target.nvars, out
    return p


def pairing(op: MPoly, target: MPoly) -> CycloScalar:
    """[a, P] = (D_a P)(0); monomials pair diagonally with value prod e_i!."""
    if op.space == target.space:
        raise UsageError("pairing needs arguments in dual spaces")
    if op.nvars != target.nvars:
        raise UsageError("variable counts differ")
    total = CycloScalar.rational(0)
    small, large = (op.terms, target.terms)
    if len(large) < len(small):
        small, large = large, small
    for e, ca in small.items():
        cb = large.get(e)
        if cb is not None:
            w = 1
            for k in e:
                if k > 1:
                    w *= math.factorial(k)
            total = total + (ca * cb) * w
    return total

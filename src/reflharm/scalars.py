"""Exact scalar arithmetic: rationals, cyclotomic numbers and rational
polynomials.

Rationals (QQ) are gmpy2.mpq when available and fractions.Fraction
otherwise; both expose numerator/denominator and the same operator surface,
so nothing downstream cares which one is active.  QQ serves RatPoly and
the rational coefficients of truncated series, which are plain tuples;
matrices hold CycloScalar entries only.

A CycloScalar is an element of Q(zeta_n) stored as its coefficient vector on
the power basis 1, zeta, ..., zeta^(phi(n)-1), reduced modulo the n-th
cyclotomic polynomial, written as a tuple of Python ints over one positive
common denominator in lowest terms.  Phi_n is monic with integer
coefficients, so +, -, *, conjugation, powers, the inverse (the product
of the other Galois conjugates over the rational norm) and the conductor
descent run on ints alone; QQ appears only at the boundary (the public
constructor, `coeffs`, `as_rational`, JSON and display).  Binary
operations promote both operands to the least common conductor.  Within
one conductor the representation is canonical, so equality there is a
tuple compare; hashing, ordering keys and serialisation go through a
canonical form with minimal conductor, so zeta_4 * zeta_4 == -1 holds on
the nose.  The descent to it goes one prime at a time, testing each step
by a Galois trace on the integer numerators.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .errors import DomainError, UsageError

try:
    from gmpy2 import mpq as QQ
except ImportError:  # gmpy2 is the optional `fast` extra
    from fractions import Fraction as QQ

QQ_ZERO = QQ(0)


def qq(value) -> QQ:
    """Coerce an int, string 'p/q' or rational to QQ."""
    try:
        if isinstance(value, str):
            if "/" in value:
                num, den = value.split("/", 1)
                return QQ(int(num), int(den))
            return QQ(int(value))
        return QQ(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError("cannot interpret %r as a rational" % (value,))


def qq_str(value) -> str:
    v = QQ(value)
    if v.denominator == 1:
        return str(v.numerator)
    return "%d/%d" % (v.numerator, v.denominator)


def is_rational_like(value) -> bool:
    return isinstance(value, (int, type(QQ_ZERO)))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# rational polynomials


class RatPoly:
    """Dense univariate polynomial over Q, coefficients in ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [qq(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def monomial(degree: int, coeff=1) -> "RatPoly":
        return RatPoly([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, type(QQ_ZERO))):
            other = RatPoly([other])
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def coeff(self, k: int) -> QQ:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else QQ_ZERO

    def __add__(self, other):
        if isinstance(other, (int, type(QQ_ZERO))):
            other = RatPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, type(QQ_ZERO))):
            other = RatPoly([other])
        return self + (-other)

    def __rsub__(self, other):
        return RatPoly([other]) - self

    def __mul__(self, other):
        if isinstance(other, (int, type(QQ_ZERO))):
            return RatPoly([c * other for c in self.coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return RatPoly()
        out = [QQ_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = RatPoly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "RatPoly"):
        if not isinstance(other, RatPoly) or not other:
            raise DomainError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if len(rem) <= dq:
            return RatPoly(), self
        quot = [QQ_ZERO] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c / lead
            quot[i - dq] = f
            for j in range(dq + 1):
                rem[i - dq + j] -= f * other.coeffs[j]
        return RatPoly(quot), RatPoly(rem)

    def exact_div(self, other: "RatPoly") -> "RatPoly":
        q, r = divmod(self, other)
        if r:
            raise DomainError("polynomial division leaves a remainder")
        return q

    def divides(self, other: "RatPoly") -> bool:
        if not self:
            return not other
        return not divmod(other, self)[1]

    def __call__(self, x):
        acc = QQ_ZERO if is_rational_like(x) else x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self):
        return [int(c.numerator) if c.denominator == 1 else qq_str(c)
                for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "RatPoly":
        return RatPoly([qq(c) for c in data])

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                term = qq_str(c)
            else:
                tk = "t" if k == 1 else "t^%d" % k
                if c == 1:
                    term = tk
                elif c == -1:
                    term = "-" + tk
                else:
                    term = "%s*%s" % (qq_str(c), tk)
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self):
        return "RatPoly(%s)" % (list(map(qq_str, self.coeffs)),)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> RatPoly:
    """The n-th cyclotomic polynomial, by dividing t^n - 1 by the proper
    cyclotomic factors recursively.

    >>> str(cyclotomic_polynomial(12))
    't^4 - t^2 + 1'
    """
    if n < 1:
        raise UsageError("conductor must be a positive integer")
    num = RatPoly([-1] + [0] * (n - 1) + [1])
    for d in divisors(n):
        if d < n:
            num = num.exact_div(cyclotomic_polynomial(d))
    return num


# ---------------------------------------------------------------------------
# cyclotomic numbers


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of zeta_n^k, k in [0, n), on the power basis mod Phi_n.
    Phi_n is monic with integer coefficients, so every row is integral."""
    phi = euler_phi(n)
    top = [int(c) for c in cyclotomic_polynomial(n).coeffs]  # length phi+1
    rows = [tuple(int(j == k) for j in range(phi)) for k in range(phi)]
    for k in range(phi, n):
        prev = rows[k - 1]
        carry = prev[phi - 1]
        row = [0] + list(prev[: phi - 1])
        if carry:
            for j in range(phi):
                row[j] -= carry * top[j]
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _embed_table(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Images of the Q(zeta_m) power basis inside Q(zeta_n), for m | n."""
    if n % m:
        raise UsageError("no embedding: %d does not divide %d" % (m, n))
    step = n // m
    table = _power_table(n)
    return tuple(table[(k * step) % n] for k in range(euler_phi(m)))


@lru_cache(maxsize=None)
def _trace_table(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Traces of zeta_n^k, k in [0, phi(n)), down to Q(zeta_m) for n = m*p
    with p prime, on the Q(zeta_m) power basis.  If p | k, zeta_n^k is
    zeta_m^(k/p) and its trace is [n:m] times that.  Otherwise, if p | m,
    its conjugates zeta_n^k * zeta_p^(jk) over all j sum to 0; if not,
    zeta_n^k = zeta_m^(k/p) * zeta_p^b with k/p taken mod m and p not
    dividing b, and the conjugates sum to -zeta_m^(k/p)."""
    p = n // m
    d = euler_phi(n) // euler_phi(m)
    table = _power_table(m)
    return tuple(tuple(d * v for v in table[k // p]) if k % p == 0
                 else (0,) * euler_phi(m) if m % p == 0
                 else tuple(-v for v in table[k * pow(p, -1, m) % m])
                 for k in range(euler_phi(n)))


def _combine(coeffs, rows, size: int) -> list:
    """sum(c * row for c, row in zip(coeffs, rows)), rows of length size."""
    out = [0] * size
    for c, row in zip(coeffs, rows):
        if c:
            for j, v in enumerate(row):
                if v:
                    out[j] += c * v
    return out


class CycloScalar:
    """An element of the cyclotomic field Q(zeta_n): integer numerators
    `nums` on the power basis over one positive common denominator `den`,
    with gcd(den, *nums) = 1.

    >>> z = CycloScalar.root_of_unity(4)
    >>> (z * z).reduce().order
    1
    >>> z * z == CycloScalar.rational(-1)
    True
    >>> h = CycloScalar(3, ["1/2", "-1/3"])
    >>> h.nums, h.den
    ((3, -2), 6)
    >>> h.coeffs == (QQ(1, 2), QQ(-1, 3))
    True
    >>> (h + h).nums, (h + h).den
    ((3, -2), 3)
    """

    __slots__ = ("order", "nums", "den", "_canon")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise UsageError("conductor must be a positive integer")
        cs = [qq(c) for c in coeffs]
        # phi(n) >= sqrt(n / 2), so a short list is rejected before the
        # trial division in euler_phi, which a huge n would never finish
        if 2 * len(cs) ** 2 < order:
            raise UsageError("too few coefficients for conductor %d: got %d"
                             % (order, len(cs)))
        phi = euler_phi(order)
        if len(cs) != phi:
            raise UsageError(
                "expected %d coefficients for conductor %d, got %d"
                % (phi, order, len(cs)))
        den = math.lcm(*(int(c.denominator) for c in cs))
        self.order = order
        self.nums = tuple(int(c.numerator) * (den // int(c.denominator))
                          for c in cs)
        self.den = den
        self._canon = None

    @property
    def coeffs(self) -> tuple:
        """The coefficients on the power basis, as rationals."""
        return tuple(QQ(x, self.den) for x in self.nums)

    # -- constructors

    @staticmethod
    def rational(value) -> "CycloScalar":
        if type(value) is int:
            return _make(1, (value,), 1)
        v = qq(value)
        return _make(1, (int(v.numerator),), int(v.denominator))

    @staticmethod
    def root_of_unity(n: int, power: int = 1) -> "CycloScalar":
        if n < 1:
            raise UsageError("conductor must be a positive integer")
        return _make(n, _power_table(n)[power % n], 1)

    @staticmethod
    def coerce(value) -> "CycloScalar":
        if isinstance(value, CycloScalar):
            return value
        if is_rational_like(value) or isinstance(value, str):
            return CycloScalar.rational(value)
        raise UsageError("cannot interpret %r as a cyclotomic scalar" % (value,))

    # -- conductor bookkeeping

    def promote(self, n: int) -> "CycloScalar":
        """Rewrite self inside Q(zeta_n); requires order | n."""
        if n == self.order:
            return self
        return _make(n, _combine(self.nums, _embed_table(self.order, n),
                                 euler_phi(n)), self.den)

    def _descend(self, p: int):
        """self inside Q(zeta_(order/p)) for a prime p | order, or None: x
        lies in a subfield of degree d iff x is its trace divided by d."""
        n, m = self.order, self.order // p
        down = _make(m, _combine(self.nums, _trace_table(m, n), euler_phi(m)),
                     self.den * (euler_phi(n) // euler_phi(m)))
        return down if down.promote(n) == self else None

    def reduce(self) -> "CycloScalar":
        """Canonical form with minimal conductor, which is never 2 mod 4
        (Q(zeta_2m) = Q(zeta_m) for odd m).  Q(zeta_a) meets Q(zeta_b) in
        Q(zeta_gcd(a, b)), so stepping down one prime at a time, while the
        trace test allows, reaches it."""
        if self._canon is not None:
            return self._canon
        if not any(self.nums[1:]):
            # rational: 1 is the first power basis vector at every conductor
            cur = self if self.order == 1 else _make(1, self.nums[:1], self.den)
        else:
            cur = self
            for p in prime_factors(self.order):
                while cur.order % p == 0:
                    down = cur._descend(p)
                    if down is None:
                        break
                    cur = down
        cur._canon = cur
        self._canon = cur
        return cur

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> QQ:
        if any(self.nums[1:]):
            raise DomainError("scalar is not rational: %s" % (self,))
        return QQ(self.nums[0], self.den)

    # -- arithmetic

    def _pair(self, other):
        other = CycloScalar.coerce(other)
        if self.order == other.order:
            return self, other
        n = math.lcm(self.order, other.order)
        return self.promote(n), other.promote(n)

    def __add__(self, other):
        try:
            a, b = self._pair(other)
        except UsageError:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _make(a.order, [x + y for x, y in zip(a.nums, b.nums)], da)
        return _make(a.order, [x * db + y * da for x, y in zip(a.nums, b.nums)],
                     da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        try:
            a, b = self._pair(other)
        except UsageError:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _make(a.order, [x - y for x, y in zip(a.nums, b.nums)], da)
        return _make(a.order, [x * db - y * da for x, y in zip(a.nums, b.nums)],
                     da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not CycloScalar:
            if type(other) is int:
                return _make(self.order, [x * other for x in self.nums],
                             self.den)
            try:
                other = CycloScalar.coerce(other)
            except UsageError:
                return NotImplemented
        den = self.den * other.den
        if other.order == 1:
            c = other.nums[0]
            return _make(self.order, [x * c for x in self.nums], den)
        if self.order == 1:
            c = self.nums[0]
            return _make(other.order, [x * c for x in other.nums], den)
        a, b = self._pair(other)
        n = a.order
        phi = len(a.nums)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.nums):
            if x:
                for k, y in enumerate(b.nums, i):
                    if y:
                        conv[k] += x * y
        out = conv[:phi]
        table = _power_table(n)
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                for j, v in enumerate(table[k % n]):
                    if v:
                        out[j] += c * v
        return _make(n, out, den)

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        """1/x = prod_(sigma != 1) sigma(x) / N(x): the norm
        N(x) = x * prod_(sigma != 1) sigma(x) is rational."""
        if not any(self.nums):
            raise DomainError("cannot invert zero")
        n = self.order
        cofactor = CYC_ONE
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                cofactor = cofactor * self._galois(k)
        norm = self * cofactor
        num = norm.nums[0]
        scale = norm.den if num > 0 else -norm.den
        return _make(n, [x * scale for x in cofactor.nums],
                     cofactor.den * abs(num))

    def __truediv__(self, other):
        other = CycloScalar.coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return CycloScalar.coerce(other) * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = CycloScalar.rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _galois(self, k: int) -> "CycloScalar":
        """The conjugate under zeta |-> zeta^k, for k prime to the order."""
        n = self.order
        table = _power_table(n)
        phi = len(self.nums)
        return _make(n, _combine(self.nums, (table[j * k % n]
                                             for j in range(phi)), phi),
                     self.den)

    def conj(self) -> "CycloScalar":
        """Complex conjugation, zeta |-> zeta^(-1)."""
        return self if self.order == 1 else self._galois(-1)

    # -- comparisons, hashing, ordering keys

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, str):
            try:
                other = CycloScalar.coerce(other)
            except UsageError:
                return NotImplemented
        elif is_rational_like(other):
            # both sides are in lowest terms
            return (self.den == other.denominator
                    and self.nums[0] == other.numerator
                    and not any(self.nums[1:]))
        if not isinstance(other, CycloScalar):
            return NotImplemented
        a, b = self._pair(other)
        return a.nums == b.nums and a.den == b.den

    def __hash__(self):
        red = self.reduce()
        return hash((red.order, red.nums, red.den))

    def sort_key(self):
        """Total order key used only for deterministic tie-breaking: the
        minimal conductor, then each coefficient in lowest terms."""
        red = self.reduce()
        den = red.den
        key = [red.order]
        for x in red.nums:
            g = math.gcd(x, den)
            key.append((x // g, den // g))
        return tuple(key)

    # -- serialisation and display

    def to_json(self):
        """{"order": n, "coeffs": [...]} at the minimal conductor n, each
        coefficient an integer string or "p/q" in lowest terms."""
        red = self.reduce()
        den = red.den
        coeffs = []
        for x in red.nums:
            g = math.gcd(x, den)
            coeffs.append(str(x // g) if g == den else "%d/%d" % (x // g, den // g))
        return {"order": red.order, "coeffs": coeffs}

    @staticmethod
    def from_json(data) -> "CycloScalar":
        """One JSON scalar: an integer, a "p/q" string, or {"order": n,
        "coeffs": [...]} on the power basis of Q(zeta_n), each an integer
        or a "p/q" string.  Booleans are rejected, although Python counts
        them as integers, and so are floats, which are not exact."""
        if isinstance(data, bool):
            raise UsageError("cannot interpret %r as a scalar" % (data,))
        if not isinstance(data, dict):
            return CycloScalar.coerce(data)
        if "order" not in data or "coeffs" not in data:
            raise UsageError("scalar JSON needs 'order' and 'coeffs'")
        order, coeffs = data["order"], data["coeffs"]
        if (type(order) is not int or not isinstance(coeffs, list)
                or any(type(c) not in (int, str) for c in coeffs)):
            raise UsageError("scalar JSON needs an integer 'order' and a "
                             "'coeffs' array of integers or \"p/q\" strings")
        return CycloScalar(order, [qq(c) for c in coeffs])

    def __str__(self):
        red = self.reduce()
        if red.order == 1:
            return qq_str(red.coeffs[0])
        parts = []
        for k, c in enumerate(red.coeffs):
            if not c:
                continue
            if k == 0:
                term = qq_str(c)
            else:
                zk = "z%d" % red.order if k == 1 else "z%d^%d" % (red.order, k)
                if c == 1:
                    term = zk
                elif c == -1:
                    term = "-" + zk
                else:
                    term = "%s*%s" % (qq_str(c), zk)
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return "CycloScalar(%d, %s)" % (self.order, [qq_str(c) for c in self.coeffs])


def _make(order: int, nums, den: int) -> CycloScalar:
    """The scalar sum(nums[k] * zeta_order^k) / den for integers nums and
    den > 0, with their common gcd divided out.  Every arithmetic result is
    built here, so no coefficient passes through the rational type."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    s = object.__new__(CycloScalar)
    s.order = order
    s.nums = tuple(nums)
    s.den = den
    s._canon = None
    return s


# ---------------------------------------------------------------------------
# flat integer vectors at one conductor


def numerators_at(values, n: int):
    """(nums, den): the scalars written inside Q(zeta_n), their power-basis
    numerators concatenated over one positive common denominator in lowest
    terms, which is canonical for fixed n.  A value is reduced only when
    its order does not divide n; None if its minimal conductor does not
    either."""
    pad = (0,) * (euler_phi(n) - 1)
    parts = []
    for v in values:
        if n % v.order:
            v = v.reduce()
            if n % v.order:
                return None
        # a rational is the first power-basis coordinate at every conductor
        if v.order != 1:
            v = v.promote(n)
        parts.append((v.nums + pad if v.order == 1 else v.nums, v.den))
    # every part is in lowest terms, so scaling each to the lcm keeps the
    # whole vector in lowest terms
    den = math.lcm(*(d for _, d in parts))
    return tuple(x * (den // d) for nums, d in parts for x in nums), den


def from_numerators(nums, den: int, n: int) -> list:
    """The scalars of a numerators_at vector: rational ones at conductor 1,
    the rest at n."""
    phi = euler_phi(n)
    out = []
    for k in range(0, len(nums), phi):
        chunk = nums[k:k + phi]
        out.append(_make(n, chunk, den) if any(chunk[1:])
                   else _make(1, chunk[:1], den))
    return out


def dot_products(rows, cols) -> list:
    """Entry (r, s) is sum_j rows[r][j] * cols[s][j], inside Q(zeta_n) for
    n the lcm of the entries' minimal conductors (a rational at 1).

    Each row and column is written once as integers over one denominator.
    At n > 1 an entry's phi(n) numerators are packed into one int at base
    2^shift (Kronecker substitution), so a dot product is K big-int
    products; every coefficient of the packed sum is at most
    B = K * phi * max|a| * max|b| in absolute value, and shift exceeds the
    bit length of 2B, so signed digits read them back exactly."""
    n = math.lcm(*(v.reduce().order for vec in (*rows, *cols) for v in vec))
    rows = [numerators_at(vec, n) for vec in rows]
    cols = [numerators_at(vec, n) for vec in cols]
    if n == 1:
        return [[_make(1, (sum(map(operator.mul, a, b)),), da * db)
                 for b, db in cols] for a, da in rows]
    phi = euler_phi(n)
    top_a, top_b = (max((abs(x) for nums, _ in side for x in nums), default=0)
                    for side in (rows, cols))
    width = max((len(nums) for nums, _ in rows), default=0)  # K * phi
    shift = (width * top_a * top_b).bit_length() + 2
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    table = [_power_table(n)[k % n] for k in range(2 * phi - 1)]

    def pack(nums):
        return [sum(x << (shift * i) for i, x in enumerate(nums[k:k + phi]))
                for k in range(0, len(nums), phi)]

    rows = [(pack(nums), den) for nums, den in rows]
    cols = [(pack(nums), den) for nums, den in cols]
    out = []
    for a, da in rows:
        line = []
        for b, db in cols:
            acc = sum(map(operator.mul, a, b))
            conv = []
            for _ in range(2 * phi - 1):
                digit = acc & mask
                if digit >= half:
                    digit -= 1 << shift
                conv.append(digit)
                acc = (acc - digit) >> shift
            line.append(_make(n, _combine(conv, table, phi), da * db))
        out.append(line)
    return out


def regular_representation(nums, n: int) -> tuple[tuple[int, ...], ...]:
    """Right multiplication by x = sum(nums[u] * zeta_n^u) as an integer
    matrix on row vectors: row t holds the numerators of zeta_n^t * x."""
    table = _power_table(n)
    phi = len(nums)
    return tuple(tuple(_combine(nums, (table[(u + t) % n] for u in range(phi)),
                                phi))
                 for t in range(phi))


CYC_ZERO = CycloScalar.rational(0)
CYC_ONE = CycloScalar.rational(1)

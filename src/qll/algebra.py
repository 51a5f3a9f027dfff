"""Exact arithmetic kernels: cyclotomic integers, integer Laurent polynomials,
and integer/modular matrix reductions.

Ranks over F_p and integer determinants come from one fraction-free
elimination, ``_bareiss``; determinants over Z[t, 1/t] are integer ones at
t = 2^K (``burau._det``).  Every int packed from signed base-2^w digits is
written by ``pack_digits`` and read back by ``signed_digits``.

Cyclotomic integers are stored in the power basis 1, z, ..., z^(phi(n)-1) of
Z[z] with z a primitive n-th root of unity; every operation reduces modulo the
n-th cyclotomic polynomial, so representations are unique and comparisons are
exact.  Values of different orders compare by embedding both into the lcm
order.  No floating point is involved anywhere except the explicit
``to_complex`` conversion.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from math import gcd


class UsageError(ValueError):
    """An operation was called outside its contract."""


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget.

    ``required`` carries the budget that would have been needed, or None
    when a price too large to print was refused from a bound alone.
    """

    def __init__(self, message: str, required: int | None):
        super().__init__(message)
        self.required = required


_DEFAULT_BUDGET = 10 ** 9
# by default CPython refuses to write an int of more than 4300 digits as text
_DECIMAL_CAP = 10 ** 4300


def _steps_text(steps: int) -> str:
    if steps < _DECIMAL_CAP:
        return "%d" % steps
    return "at least 2^%d" % (steps.bit_length() - 1)


def _require_budget(required: int, budget: int, what: str):
    if required > budget:
        raise BudgetError("%s needs %s elementary steps (budget %s)"
                          % (what, _steps_text(required), _steps_text(budget)),
                          required=required)


def _require_budget_bits(low_bits: int, budget: int, what: str):
    """Refuse a price known to be at least 2^low_bits from that bound alone,
    when it passes both the budget and `_DECIMAL_CAP`.  A caller whose
    price grows exponentially calls this first, so it forms the exact price
    for `_require_budget` only while it is small enough to print."""
    if low_bits >= max(budget.bit_length(), _DECIMAL_CAP.bit_length()):
        raise BudgetError("%s needs at least 2^%d elementary steps (budget %s)"
                          % (what, low_bits, _steps_text(budget)), required=None)


# ---------------------------------------------------------------------------
# packed integers: signed base-2^w digits

def pack_digits(digits, w: int) -> int:
    """sum d_i 2^(w i) over the digits d_0, d_1, ..., lowest first: the
    int that `signed_digits` reads back while each d_i lies in
    [-2^(w-1), 2^(w-1)).

    >>> pack_digits([-8, 5, -3], 4) == (-3 << 8) + (5 << 4) - 8
    True
    """
    v = 0
    for d in reversed(digits):
        v = (v << w) + d
    return v


def signed_digits(v: int, count: int, w: int) -> list[int]:
    """The ``count`` signed base-2^w digits of v, lowest first, each in
    [-2^(w-1), 2^(w-1)); any part of v above them is dropped.  A value
    packed from such digits, sum d_i 2^(w i), reads back exactly.

    Up to 64 digits are read one at a time.  Above that v is split in
    halves: the low k digits are (v + H) mod 2^(kw) - H, with H the k
    digits 2^(w-1) packed, and the rest is the exact shift of v minus
    them, so each level of the recursion costs linear time in the size of
    v instead of one copy of v per digit.

    >>> signed_digits((-3 << 8) + (5 << 4) - 8, 3, 4)
    [-8, 5, -3]
    >>> signed_digits(-1, 2, 3)
    [-1, 0]
    """
    if count <= 64:
        half, mask = 1 << (w - 1), (1 << w) - 1
        digits = []
        for _ in range(count):
            digits.append(((v + half) & mask) - half)
            v = (v - digits[-1]) >> w
        return digits
    k = count // 2
    s = k * w
    offset = (((1 << s) - 1) // ((1 << w) - 1)) << (w - 1)
    low = ((v + offset) & ((1 << s) - 1)) - offset
    return signed_digits(low, k, w) + signed_digits((v - low) >> s, count - k, w)


# ---------------------------------------------------------------------------
# dense integer polynomials, constant term first

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


@functools.lru_cache(maxsize=None)
def _lower_terms(b: tuple) -> tuple:
    """The nonzero coefficients of the monic b below its leading one, as
    (degree, coefficient) pairs."""
    return tuple((j, x) for j, x in enumerate(b[:-1]) if x)


def _poly_divmod_monic(a, b):
    """Quotient and remainder of a by the monic b.  The remainder is the
    first deg b coefficients, untrimmed.  Only the nonzero lower
    coefficients of b are subtracted: the leading one would zero a[i],
    which the downward loop never reads again."""
    a = list(a)
    db = len(b) - 1
    lower = _lower_terms(tuple(b))
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            s = i - db
            q[s] = c
            for j, x in lower:
                a[s + j] -= c * x
    return q, a[:db]


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    res, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            res -= res // p
        p += 1
    if m > 1:
        res -= res // m
    return res


@functools.lru_cache(maxsize=None)
def moebius(n: int) -> int:
    m, p, k = n, 2, 0
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            k += 1
        p += 1
    if m > 1:
        k += 1
    return -1 if k % 2 else 1


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Built from the radical of n: Phi_1(x) = x - 1, then
    Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for each prime p of n (p not dividing
    m), and Phi_n(x) = Phi_rad(n)(x^(n / rad(n))).  Each step is one exact
    division by a monic polynomial.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(5)
    (1, 1, 1, 1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise UsageError("cyclotomic order must be >= 1")
    poly, rad, m, p = [-1, 1], 1, n, 2
    while m > 1:
        if p * p > m:
            p = m  # the last prime factor
        if m % p == 0:
            while m % p == 0:
                m //= p
            poly, r = _poly_divmod_monic(_stretch(poly, p), poly)
            assert not any(r)
            rad *= p
        p += 1
    return tuple(_stretch(poly, n // rad))


def _stretch(poly, k: int) -> list[int]:
    """The coefficients of poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


class CyclotomicNumber:
    """An element of Z[z_n], reduced into the power basis of length phi(n).

    >>> a = CyclotomicNumber.zeta(4)
    >>> a * a == CyclotomicNumber.from_int(-1, 4)
    True
    >>> (CyclotomicNumber.zeta(5) + CyclotomicNumber.zeta(5, 4)) \
            * (CyclotomicNumber.zeta(5, 2) + CyclotomicNumber.zeta(5, 3)) \
            == CyclotomicNumber.from_int(-1)
    True
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise UsageError("cyclotomic order must be >= 1")
        phi = euler_phi(order)
        c = list(coeffs)
        if len(c) > phi:
            _, c = _poly_divmod_monic(c, cyclotomic_polynomial(order))
        else:
            c += [0] * (phi - len(c))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber(order, ())

    @staticmethod
    def one(order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber(order, (1,))

    @staticmethod
    def from_int(k: int, order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber(order, (k,))

    @staticmethod
    def zeta(order: int, power: int = 1) -> "CyclotomicNumber":
        power %= order
        c = [0] * power + [1]
        return CyclotomicNumber(order, c)

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer():
            raise UsageError("not a rational integer: %r" % (self,))
        return self.coeffs[0] if self.coeffs else 0

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def key(self):
        # hashable identity, valid between values of equal order
        return (self.order, self.coeffs)

    def embed(self, new_order: int) -> "CyclotomicNumber":
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise UsageError("embedding target order must be a multiple")
        d = new_order // self.order
        c = [0] * (len(self.coeffs) * d)
        for i, x in enumerate(self.coeffs):
            c[i * d] = x
        return CyclotomicNumber(new_order, c)

    def _pair(self, other):
        if isinstance(other, int):
            other = CyclotomicNumber.from_int(other, self.order)
        if not isinstance(other, CyclotomicNumber):
            return None
        if self.order == other.order:
            return self, other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.embed(m), other.embed(m)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return CyclotomicNumber(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return CyclotomicNumber(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return CyclotomicNumber(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicNumber(self.order, [other * x for x in self.coeffs])
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return CyclotomicNumber(a.order, _poly_mul(list(a.coeffs), list(b.coeffs)))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise UsageError("negative powers need a unit inverse; use zeta")
        r = CyclotomicNumber.one(self.order)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def __eq__(self, other):
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-order equality makes a consistent hash impossible

    # -- Galois action ------------------------------------------------------
    def galois(self, a: int) -> "CyclotomicNumber":
        """Apply the automorphism z -> z^a; a must be a unit mod order."""
        if gcd(a, self.order) != 1:
            raise UsageError("galois exponent must be coprime to the order")
        c = [0] * self.order
        for i, x in enumerate(self.coeffs):
            c[(i * a) % self.order] += x
        return CyclotomicNumber(self.order, c)

    def conjugate(self) -> "CyclotomicNumber":
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    def trace_to_int(self) -> int:
        n = self.order
        total = 0
        for j, c in enumerate(self.coeffs):
            if c:
                g = gcd(j, n) if j else n
                m = n // g
                total += c * moebius(m) * (euler_phi(n) // euler_phi(m))
        return total

    def to_complex(self) -> complex:
        z = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                z += c * cmath.exp(2j * cmath.pi * j / self.order)
        return z

    def __repr__(self):
        return "CyclotomicNumber(%d, %r)" % (self.order, list(self.coeffs))


# ---------------------------------------------------------------------------
# integer Laurent polynomials

@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial; ``coeffs[i]`` multiplies t**(low+i).

    Normalized so the first and last stored coefficients are nonzero; the
    zero polynomial is ``low=0, coeffs=()``.

    >>> t = LaurentPoly.t()
    >>> (t - 1) * (t + 1) == t * t - 1
    True
    >>> (t ** -2 + t).low
    -2
    """

    low: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        c = list(self.coeffs)
        low = self.low
        while c and c[-1] == 0:
            c.pop()
        while c and c[0] == 0:
            c.pop(0)
            low += 1
        if not c:
            low = 0
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(c))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, (1,))

    @staticmethod
    def from_int(k: int) -> "LaurentPoly":
        return LaurentPoly(0, (k,))

    @staticmethod
    def t(exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(exp, (coeff,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.from_int(other)
        if isinstance(other, LaurentPoly):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        low = min(self.low, o.low)
        high = max(self.high, o.high)
        c = [0] * (high - low + 1)
        for i, x in enumerate(self.coeffs):
            c[self.low - low + i] += x
        for i, x in enumerate(o.coeffs):
            c[o.low - low + i] += x
        return LaurentPoly(low, c)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.low, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return LaurentPoly.zero()
        return LaurentPoly(self.low + o.low,
                           _poly_mul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            if len(self.coeffs) == 1:
                c = self.coeffs[0]
                if c in (1, -1):
                    return LaurentPoly(self.low * k, (c ** (k % 2),))
            raise UsageError("negative power of a non-unit Laurent polynomial")
        r = LaurentPoly.one()
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def mirror(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return LaurentPoly(-self.high, tuple(reversed(self.coeffs)))

    def canonical(self) -> "LaurentPoly":
        """Normalize up to +-t^k: lowest exponent 0, lowest coefficient > 0."""
        if self.is_zero():
            return self
        c = self.coeffs
        if c[0] < 0:
            c = tuple(-x for x in c)
        return LaurentPoly(0, c)

    def evaluate_int(self, x: int):
        """Evaluate at an integer unit (x = 1 or -1)."""
        if x not in (1, -1):
            raise UsageError("exact integer evaluation needs x in {1,-1}")
        total = 0
        for i, c in enumerate(self.coeffs):
            e = self.low + i
            total += c * (1 if x == 1 or e % 2 == 0 else -1)
        return total

    def evaluate_mod(self, t0: int, p: int) -> int:
        """Evaluate at an invertible residue t0 mod the prime p."""
        t0 %= p
        if t0 == 0:
            raise UsageError("t0 must be invertible mod p")
        inv = pow(t0, p - 2, p)
        total = 0
        for i, c in enumerate(self.coeffs):
            e = self.low + i
            total += c * (pow(t0, e, p) if e >= 0 else pow(inv, -e, p))
        return total % p

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises UsageError when the division is not exact."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        b = list(other.coeffs)
        a = list(self.coeffs)
        if len(a) < len(b):
            raise UsageError("inexact Laurent division")
        # synthetic division by the (possibly non-monic) divisor
        lead = b[-1]
        q = [0] * (len(a) - len(b) + 1)
        for i in range(len(a) - 1, len(b) - 2, -1):
            c = a[i]
            if c % lead:
                raise UsageError("inexact Laurent division")
            c //= lead
            q[i - len(b) + 1] = c
            if c:
                for j, y in enumerate(b):
                    a[i - len(b) + 1 + j] -= c * y
        if any(a[: len(b) - 1]):
            raise UsageError("inexact Laurent division")
        return LaurentPoly(self.low - other.low, q)

    def __repr__(self):
        if self.is_zero():
            return "LaurentPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append("%+d*t^%d" % (c, self.low + i))
        return "LaurentPoly(%s)" % " ".join(parts)


# ---------------------------------------------------------------------------
# integer matrices: primality, fraction-free elimination

_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin at _PRIME_BASES, exact below _PRIME_LIMIT,
    the least composite that passes at all of them (Sorenson and Webster
    2015); larger p is refused."""
    if p >= _PRIME_LIMIT:
        raise UsageError("primality is decided only below %d, got %d"
                         % (_PRIME_LIMIT, p))
    if p <= _PRIME_BASES[-1]:
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # 2^s exactly divides p - 1
    # a^d = 1 or a^(d 2^r) = -1 for some r < s, where p - 1 = d 2^s; a
    # multiple of a base fails at that base
    return all(pow(a, (p - 1) >> s, p) == 1 or any(
        pow(a, (p - 1) >> r, p) == p - 1 for r in range(1, s + 1))
        for a in _PRIME_BASES)


def _bareiss(rows, step):
    """Fraction-free (Bareiss) elimination over a domain whose zero is
    falsy, one column at a time: yields (pivot, sign of the row swaps so
    far) per column, the pivot None where the column has none below the
    rows already used, so the rank is the number of pivots.  A caller may
    stop at any column.  ``step(xs, prev)`` normalises the remainder of one
    row, a list of x = a_ij a_kk - a_ik a_kj, given the previous pivot (None
    at first), and returns it as a list: exact division by that pivot keeps
    each entry a minor (Sylvester's identity), so a nonsingular square
    matrix ends at sign * det with its last pivot; over a field, reducing
    each x keeps the rank."""
    a = [list(row) for row in rows]
    m = len(a)
    rank, sign, prev = 0, 1, None
    for col in range(len(a[0]) if m else 0):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            yield None, sign
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        pivot, top = a[rank][col], a[rank][col + 1:]
        for row in a[rank + 1:]:
            f = row[col]
            row[col + 1:] = step([x * pivot - f * y
                                  for x, y in zip(row[col + 1:], top)], prev)
        rank, prev = rank + 1, pivot
        yield pivot, sign


def corank_mod_p(mat, p: int) -> int:
    """Dimension of the null space of ``mat`` over F_p (columns - rank)."""
    if not _is_prime(p):
        raise UsageError("p must be prime, got %d" % p)
    rows = [[x % p for x in row] for row in mat]
    pivots = _bareiss(rows, lambda xs, _: [x % p for x in xs])
    return (len(rows[0]) if rows else 0) - sum(x is not None for x, _ in pivots)

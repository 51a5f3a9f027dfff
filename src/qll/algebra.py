"""Exact arithmetic kernels: cyclotomic integers, integer Laurent polynomials,
and integer/modular matrix reductions.

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
from fractions import Fraction
from math import gcd


class UsageError(ValueError):
    """An operation was called outside its contract."""


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget.

    ``required`` carries the budget that would have been needed.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


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


def _poly_divmod_monic(a, b):
    # b must be monic; exact integer division steps.
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return q, _trim(a)


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

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(5)
    (1, 1, 1, 1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise UsageError("cyclotomic order must be >= 1")
    num = [0] * n + [1]
    num[0] = -1  # x^n - 1
    rem = num
    for d in range(1, n):
        if n % d == 0:
            rem, r = _poly_divmod_monic(rem, list(cyclotomic_polynomial(d)))
            assert not r
    return tuple(rem)


def _units(n: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, n + 1) if gcd(a, n) == 1)


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
        if len(c) >= phi + 1:
            _, c = _poly_divmod_monic(c, list(cyclotomic_polynomial(order)))
        c += [0] * (phi - len(c))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(c[:phi]))

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

    def norm_int(self) -> int:
        prod = CyclotomicNumber.one(self.order)
        for a in _units(self.order):
            prod = prod * self.galois(a)
        return prod.as_int()

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


def cyc_inverse(x: CyclotomicNumber) -> "CycFraction":
    """Exact inverse in Q(z_n): product of the other conjugates over the norm."""
    if x.is_zero():
        raise ZeroDivisionError("cyclotomic inverse of zero")
    prod = CyclotomicNumber.one(x.order)
    for a in _units(x.order):
        if a != 1:
            prod = prod * x.galois(a)
    n = (x * prod).as_int()
    return CycFraction(prod, n)


class CycFraction:
    """num/den with a cyclotomic-integer numerator and a positive integer
    denominator, kept in lowest terms.

    Arithmetic and equality embed orders as needed.  The hash is the
    normalised trace Tr(num) / (phi(order) * den), which embedding into a
    larger order leaves unchanged, so equal values of different orders hash
    alike; ``key()`` is the raw identity, valid between values of one order.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: CyclotomicNumber, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(num.content(), den)
        if g > 1:
            num = CyclotomicNumber(num.order, [c // g for c in num.coeffs])
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("CycFraction is immutable")

    @staticmethod
    def from_cyc(x) -> "CycFraction":
        if isinstance(x, CycFraction):
            return x
        if isinstance(x, int):
            x = CyclotomicNumber.from_int(x)
        return CycFraction(x, 1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def key(self):
        return (self.num.order, self.num.coeffs, self.den)

    def __add__(self, other):
        o = CycFraction.from_cyc(other)
        return CycFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return CycFraction(-self.num, self.den)

    def __sub__(self, other):
        return self.__add__(-CycFraction.from_cyc(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = CycFraction.from_cyc(other)
        return CycFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycFraction":
        inv = cyc_inverse(self.num)
        return CycFraction(inv.num * self.den, inv.den)

    def __truediv__(self, other):
        return self * CycFraction.from_cyc(other).inverse()

    def __eq__(self, other):
        o = CycFraction.from_cyc(other)
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        num = self.num
        return hash(Fraction(num.trace_to_int(), euler_phi(num.order) * self.den))

    def to_complex(self) -> complex:
        return self.num.to_complex() / self.den

    def __repr__(self):
        return "CycFraction(%r, %d)" % (self.num, self.den)


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
                    return LaurentPoly(self.low * k, (c if k % 2 == 0 or c == 1 else -1,))
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

    def evaluate_root(self, order: int, power: int = 1) -> CyclotomicNumber:
        """Exact value at t = z_order^power."""
        total = CyclotomicNumber.zero(order)
        for i, c in enumerate(self.coeffs):
            if c:
                total = total + CyclotomicNumber.zeta(order, (self.low + i) * power) * c
        return total

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
# integer matrices: Smith form and modular corank

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def smith_normal_form(mat) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    >>> smith_normal_form([[2, 4], [-2, 6]])
    (2, 10)
    >>> smith_normal_form([[0, 0]])
    ()
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    for t in range(min(m, n)):
        while True:
            # the smallest nonzero entry of the trailing submatrix is the
            # pivot; each pass leaves a smaller one or finishes the pivot
            entries = [(abs(a[i][j]), i, j) for i in range(t, m)
                       for j in range(t, n) if a[i][j]]
            if not entries:
                return tuple(factors)
            _, i0, j0 = min(entries)
            a[t], a[i0] = a[i0], a[t]
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            p = a[t][t]
            for i in range(t + 1, m):
                q = a[i][t] // p
                if q:
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
            if any(a[i][t] for i in range(t + 1, m)) or any(a[t][t + 1:]):
                continue
            # pivot row and column are clear: the pivot must divide the rest
            offender = next((i for i in range(t + 1, m)
                             if any(x % p for x in a[i][t + 1:])), None)
            if offender is None:
                break
            for j in range(t, n):
                a[t][j] += a[offender][j]
        factors.append(abs(a[t][t]))
    return tuple(factors)


def corank_mod_p(mat, p: int) -> int:
    """Dimension of the null space of ``mat`` over F_p (columns - rank)."""
    if not _is_prime(p):
        raise UsageError("modulus must be prime, got %d" % p)
    a = [[x % p for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], p - 2, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for i in range(m):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[row])]
        rank += 1
        row += 1
        if row == m:
            break
    return n - rank

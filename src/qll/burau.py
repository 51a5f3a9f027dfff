"""Burau representation and the classical invariants it carries: Alexander
polynomial, link determinant, homology of the double branched cover, Arf.

The reduced representation acts on the (n-1)-dimensional quotient of the
permutation module spanned by differences of adjacent strand coordinates.
Matrices compose in word order by right multiplication, and a generator
differs from the identity in a single column, so each letter is applied as
one column update of the running product: O(n) ring operations per letter.

Over Z[t, 1/t] both stages of the Alexander route run on Python ints by
Kronecker substitution.  ``reduced_burau`` holds each entry as one int, its
value at t = 2^w with w fixed by the word length, so a column update is
shifts and additions, and unpacks each entry once at the end.  ``_det``
evaluates the matrix at t = 2^K, with K taken from a bound on the
coefficients of the determinant, takes one integer determinant by the
fraction-free (Bareiss) elimination of ``algebra``, the routine that also
gives the F_p rank behind d_p, and reads the polynomial back from its
digits.

For the double branched cover we use the n-strand permutation-module action
evaluated at t = -1, where a letter updates two columns.  With P that
product, M = P - I presents H1 of the cover plus one free summand; the tests
check this against Seifert matrices.  M's leading (n-1) x (n-1) block M'
presents H1 exactly.  Each letter's block, [[2, -1], [1, 0]] or
[[0, 1], [-1, 2]], has row sums 1 and fixes u = (1, -1, 1, ...) from the
left, so M 1 = 0 and u M = 0.  Replacing M's last column by the sum of all
its columns, and then its last row by sum_i u_i row_i, is unimodular, since
u_n = +-1, and turns M into M' + (0).  So coker M = coker M' + Z: the
determinant is |det M'|, d_p is the corank of M' over F_p, and Arf is read
from the determinant mod 8.
"""

from __future__ import annotations

from .algebra import (LaurentPoly, UsageError, _bareiss, _is_prime, corank_mod_p,
                      pack_digits, signed_digits)
from .braid import BraidWord, closure_components


def _identity(size: int, one):
    return [[one if r == c else 0 for c in range(size)] for r in range(size)]


def _unpack(v: int, w: int, low: int) -> LaurentPoly:
    """The Laurent polynomial f t^low with f(2^w) = v, reading only the span
    of f's digits; exact while every coefficient of f lies below 2^(w-1)
    in absolute value."""
    if not v:
        return LaurentPoly.zero()
    # the lowest nonzero digit d_k puts k w + (fewer than w) zero bits at the
    # bottom of v; above it, |v| >= 2^(w h - 1) for the highest one d_h
    k = ((v & -v).bit_length() - 1) // w
    v >>= w * k
    return LaurentPoly(low + k, signed_digits(v, v.bit_length() // w + 1, w))


def reduced_burau(b: BraidWord) -> tuple[tuple[LaurentPoly, ...], ...]:
    """Reduced Burau matrix of the braid word, over integer Laurent
    polynomials; (n-1) x (n-1).

    The product is formed packed: with m letters of which m_ are negative,
    an entry f is held as the int (t^m_ f)(2^w), w = m + 2.  A positive
    letter sets column c to t (col c-1 - col c) + col c+1, a shift and
    additions.  A negative one sets it to col c-1 + t^-1 (col c+1 - col c):
    after k negative letters no exponent is below -k, so before the
    (k+1)-th every packed entry has no constant digit and t^-1 is the exact
    shift >> w.  Exponents then lie in [-m_, m - m_].

    Width: one column update at most doubles a row's L1 coefficient mass,
    since the new entry's mass is at most that of the three entries it
    reads, two of which stay in the row.  A row starts with mass 1, so every
    coefficient is at most 2^m < 2^(w-1) in absolute value and each entry
    unpacks exactly, once, at the end.

    >>> for row in reduced_burau(BraidWord(3, (1, -2))):
    ...     print(row)
    (LaurentPoly(-1*t^1), LaurentPoly(-1*t^1))
    (LaurentPoly(+1*t^0), LaurentPoly(-1*t^-1 +1*t^0))
    """
    if b.strands < 2:
        raise UsageError("reduced representation needs at least 2 strands")
    neg = sum(1 for letter in b.word if letter < 0)
    w = len(b.word) + 2
    # each row keeps a zero column on both sides, so no update needs a bound
    acc = [[0, *row, 0] for row in _identity(b.strands - 1, 1 << (w * neg))]
    for letter in b.word:
        j = abs(letter)  # column j - 1 of the matrix, padded
        if letter > 0:
            for row in acc:
                row[j] = ((row[j - 1] - row[j]) << w) + row[j + 1]
        else:
            for row in acc:
                row[j] = row[j - 1] + ((row[j + 1] - row[j]) >> w)
    return tuple(tuple(_unpack(v, w, -neg) for v in row[1:-1]) for row in acc)


def _int_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination:
    0 at the first pivotless column, 1 for the empty matrix."""
    sign, last = 1, 1
    for last, sign in _bareiss(
            rows, lambda xs, prev: xs if prev is None else [x // prev for x in xs]):
        if last is None:
            return 0
    return sign * last


def _det(m) -> LaurentPoly:
    """Determinant of a square matrix over Z[t, 1/t], by Kronecker
    substitution.

    Each row is divided by t to its lowest exponent, so that its entries
    P_rj are polynomials; the monomial is kept.  Every coefficient of det P
    is at most B = prod_r sum_j L1(P_rj) in absolute value: at |z| = 1,
    Hadamard's inequality gives |det P(z)| <= prod_r |P_r(z)|_2 <= prod_r
    sum_j |P_rj(z)| <= B, and by Cauchy's estimate no coefficient of a
    polynomial exceeds its maximum on the unit circle.  So with
    K = bitlen(B) + 2 the coefficients of det P are the signed base-2^K
    digits of the integer det P(2^K).  That integer comes from the
    fraction-free elimination of P(2^K) over Z: every division is exact,
    and a pivotless column ends it at zero.

    >>> t, one, zero = LaurentPoly.t(), LaurentPoly.one(), LaurentPoly.zero()
    >>> _det([[1 - t, t], [one, zero]])  # the unreduced Burau block: a unit
    LaurentPoly(-1*t^1)
    >>> _det([[1 + t, t], [t + t * t, t * t]])  # row 2 is t times row 1
    LaurentPoly(0)
    """
    lows = [min((x.low for x in row if x), default=0) for row in m]
    bound = 1
    for row in m:
        bound *= sum(abs(c) for x in row for c in x.coeffs)
    k = bound.bit_length() + 2
    rows = [[pack_digits(x.coeffs, k) << k * (x.low - low) if x else 0
             for x in row] for row, low in zip(m, lows)]
    return _unpack(_int_det(rows), k, sum(lows))


def alexander_poly(b: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the closure, canonicalized up to +-t^k
    (lowest exponent 0, lowest coefficient positive); the zero polynomial
    for split closures."""
    if b.strands == 1:
        return LaurentPoly.one()  # closure is the unknot
    m = [list(row) for row in reduced_burau(b)]
    for k in range(len(m)):
        m[k][k] = m[k][k] - 1
    fuller = LaurentPoly(0, (1,) * b.strands)  # 1 + t + ... + t^(n-1)
    return _det(m).divexact(fuller).canonical()


def determinant(b: BraidWord) -> int:
    """The order of H1 of the double branched cover when finite, else 0:
    |det M'| for the exact presentation M' of ``double_cover_presentation``.
    It equals |Alexander(-1)|.

    >>> determinant(BraidWord(2, (1, 1, 1)))
    3
    """
    return abs(_int_det(double_cover_presentation(b)))


def double_cover_presentation(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Square integer matrix M' presenting H1 of the double branched cover
    exactly; (n-1) x (n-1), empty for one strand.

    M' is the leading block of M = P - I, with P the n-strand product at
    t = -1.  Every letter's block has row sums 1 and fixes u = (1, -1, 1,
    ...) from the left, so M 1 = 0 and u M = 0; the unimodular column
    operation col_n <- sum_j col_j and then row operation row_n <- sum_i
    u_i row_i (u_n = +-1) turn M into M' + (0), and coker M = coker M' + Z.
    Right multiplication updates each row on its own, so only the first
    n - 1 rows of P are formed.

    >>> double_cover_presentation(BraidWord(2, (1, 1, 1)))
    ((3,),)
    """
    acc = _identity(b.strands, 1)[:-1]
    for letter in b.word:
        # the 2x2 block on strands j, j+1 at t = -1, applied to columns x, y
        j = abs(letter) - 1
        for row in acc:
            x, y = row[j], row[j + 1]
            row[j], row[j + 1] = (2 * x + y, -x) if letter > 0 else (-y, x + 2 * y)
    for k, row in enumerate(acc):
        row[k] -= 1
    return tuple(tuple(row[:-1]) for row in acc)


def double_cover_homology(b: BraidWord, p: int) -> int:
    """d_p = dim over F_p of H1 of the double branched cover of the closure:
    the corank of the exact presentation over F_p."""
    return corank_mod_p(double_cover_presentation(b), p)


def arf_knot(b: BraidWord) -> int:
    """Arf invariant of a knot closure, from the determinant mod 8."""
    if closure_components(b) != 1:
        raise UsageError("Arf is only defined here for knots")
    r = determinant(b) % 8
    if r in (1, 7):
        return 0
    if r in (3, 5):
        return 1
    raise UsageError("knot determinant must be odd, got residue %d" % r)


def burau_mod_p(b: BraidWord, p: int, t0: int) -> tuple[tuple[int, ...], ...]:
    """Reduced Burau evaluated at t = t0 over F_p: the column updates of
    `reduced_burau`, each reduced mod p."""
    if b.strands < 2:
        raise UsageError("reduced representation needs at least 2 strands")
    if not _is_prime(p):
        raise UsageError("p must be prime, got %d" % p)
    if t0 % p == 0:
        raise UsageError("t0 must be a unit mod p")
    t = t0 % p
    tinv = pow(t, p - 2, p)
    # each row keeps a zero column on both sides, so no update needs a bound
    acc = [[0, *row, 0] for row in _identity(b.strands - 1, 1)]
    for letter in b.word:
        j = abs(letter)  # column j - 1 of the matrix, padded
        if letter > 0:
            for row in acc:
                row[j] = (t * (row[j - 1] - row[j]) + row[j + 1]) % p
        else:
            for row in acc:
                row[j] = (row[j - 1] + tinv * (row[j + 1] - row[j])) % p
    return tuple(tuple(row[1:-1]) for row in acc)

"""Burau representation and the classical invariants it carries: Alexander
polynomial, link determinant, homology of the double branched cover, Arf.

The reduced representation acts on the (n-1)-dimensional quotient of the
permutation module spanned by differences of adjacent strand coordinates.
Matrices compose in word order by right multiplication, and a generator
differs from the identity in a single column, so each letter is applied as
one column update of the running product: O(n) ring operations per letter.
The Alexander determinant is taken by fraction-free (Bareiss) elimination
over Z[t, 1/t], O(n^3) ring operations with exact divisions.

For the double branched cover we use the n-strand permutation-module action
evaluated at t = -1, where a letter updates two columns: its fixed row-sum
gives one extra free rank, so the homology presentation is
(matrix - identity) with one unit of corank removed.  This matches the
Seifert-matrix computation on every fixture it was checked against (see the
test suite).
"""

from __future__ import annotations

from .algebra import LaurentPoly, UsageError, _is_prime, corank_mod_p
from .braid import BraidWord, closure_components


def _identity(size: int, one, zero):
    return [[one if r == c else zero for c in range(size)] for r in range(size)]


def _apply_letter(acc, letter: int, t, tinv, one) -> int:
    """Right-multiply ``acc`` in place by the reduced Burau image of one
    letter, over the ring of ``t``, ``tinv`` and ``one``; return the index of
    the one column that changed."""
    c = abs(letter) - 1
    left, mid, right = (t, -t, one) if letter > 0 else (one, -tinv, tinv)
    last = len(acc) - 1
    for row in acc:
        x = mid * row[c]
        if c > 0:
            x = x + left * row[c - 1]
        if c < last:
            x = x + right * row[c + 1]
        row[c] = x
    return c


def reduced_burau(b: BraidWord) -> tuple[tuple[LaurentPoly, ...], ...]:
    """Reduced Burau matrix of the braid word, over integer Laurent
    polynomials; (n-1) x (n-1)."""
    if b.strands < 2:
        raise UsageError("reduced representation needs at least 2 strands")
    one = LaurentPoly.one()
    acc = _identity(b.strands - 1, one, LaurentPoly.zero())
    t, tinv = LaurentPoly.t(), LaurentPoly.t(-1)
    for letter in b.word:
        _apply_letter(acc, letter, t, tinv, one)
    return tuple(tuple(row) for row in acc)


def _det(m) -> LaurentPoly:
    """Determinant by Bareiss elimination: every division is exact."""
    a = [list(row) for row in m]
    size = len(a)
    if size == 0:
        return LaurentPoly.one()
    sign, prev = 1, LaurentPoly.one()
    for k in range(size - 1):
        pivot = next((r for r in range(k, size) if not a[r][k].is_zero()), None)
        if pivot is None:
            return LaurentPoly.zero()
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]).divexact(prev)
        prev = a[k][k]
    return a[-1][-1] if sign > 0 else -a[-1][-1]


def alexander_poly(b: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the closure, canonicalized up to +-t^k
    (lowest exponent 0, lowest coefficient positive); the zero polynomial
    for split closures."""
    if b.strands == 1:
        return LaurentPoly.one()  # closure is the unknot
    m = [list(row) for row in reduced_burau(b)]
    for k in range(len(m)):
        m[k][k] = m[k][k] - 1
    d = _det(m)
    if d.is_zero():
        return LaurentPoly.zero()
    fuller = LaurentPoly(0, (1,) * b.strands)  # 1 + t + ... + t^(n-1)
    return d.divexact(fuller).canonical()


def determinant(b: BraidWord) -> int:
    """|Alexander(-1)|, the order of the double cover's first homology when
    finite; 0 for split closures."""
    return abs(alexander_poly(b).evaluate_int(-1))


def double_cover_presentation(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Integer matrix presenting H1 of the double branched cover plus one
    free summand (the row-sum fixed vector)."""
    n = b.strands
    acc = _identity(n, 1, 0)
    for letter in b.word:
        # the 2x2 block on strands j, j+1 at t = -1, applied to columns x, y
        j = abs(letter) - 1
        for row in acc:
            x, y = row[j], row[j + 1]
            row[j], row[j + 1] = (2 * x + y, -x) if letter > 0 else (-y, x + 2 * y)
    for k in range(n):
        acc[k][k] -= 1
    return tuple(tuple(row) for row in acc)


def double_cover_homology(b: BraidWord, p: int) -> int:
    """d_p = dim over F_p of H1 of the double branched cover of the closure."""
    if not _is_prime(p):
        raise UsageError("p must be prime, got %d" % p)
    return corank_mod_p(double_cover_presentation(b), p) - 1


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
    """Reduced Burau evaluated at t = t0 over F_p."""
    if b.strands < 2:
        raise UsageError("reduced representation needs at least 2 strands")
    if not _is_prime(p):
        raise UsageError("p must be prime, got %d" % p)
    if t0 % p == 0:
        raise UsageError("t0 must be a unit mod p")
    acc = _identity(b.strands - 1, 1, 0)
    t = t0 % p
    tinv = pow(t, p - 2, p)
    for letter in b.word:
        c = _apply_letter(acc, letter, t, tinv, 1)
        for row in acc:
            row[c] %= p
    return tuple(tuple(row) for row in acc)

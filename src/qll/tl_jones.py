"""Temperley-Lieb algebra at a root of unity, the braid representation into
it, the closure (Markov) trace, and Jones evaluations.

A diagram on n strands is its partner tuple: top points are 0..n-1 left to
right, bottom points are n..2n-1 left to right, and partner[x] is the point
joined to x.  The planar matchings are exactly the balanced bracket sequences
in the circular order top-left around to bottom-left (top 0..n-1, then bottom
right to left).

The bracket variable is A = zeta_{4l}, so the Jones variable is t = A^{-4};
the chirality convention is pinned by a spot check: the closure of s1^3
must evaluate to -t^-4 + t^-3 + t^-1 numerically.  Loops contribute
d = -A^2 - A^-2, and the closure trace weights a diagram by d^{loops-1},
normalizing the unknot to 1.

A TLElement keeps each coefficient packed: one int holding 2l signed digits
of an element of Z[A]/(A^{2l}+1), which maps onto Z[zeta_{4l}], of a width
that bounds the digit mass of the whole element.  braid_to_tl works in that
form: one global power of A is factored out of every letter, and the width
is proved sufficient from the word length.  Its e_i tables hold one basis
index per diagram, found by rewiring two chords in O(n); d . e_i closes a
loop exactly when it is d again, the entry that keeps its own index.  So a
letter changes only the diagrams e_i fixes, each by one digit rotation of
its own coefficient and one of the sum of its preimages; every other
coefficient is carried over as it is.  markov_trace adds the packed
coefficients by closure-loop count, unpacks only those at most n sums, runs
Horner in d on their 2l digits and reduces once modulo the cyclotomic
polynomial; TLElement.coeffs reduces each coefficient on first access, for
equality and display.  jones_at_root is priced at C_n (m + n^2) steps and
refuses before it builds anything.

kauffman_bracket_statesum is an independent oracle: a brute-force sum over
all 2^m smoothings of the closure diagram, sharing nothing with the
diagram-algebra route beyond cyclotomic arithmetic.
"""

from __future__ import annotations

import functools
from collections import Counter
from math import comb

from .algebra import (_DEFAULT_BUDGET, CyclotomicNumber, UsageError, _require_budget,
                      _require_budget_bits, signed_digits)
from .braid import BraidWord, writhe


def _label_at_circular(n: int, pos: int) -> int:
    # circular order: top 0..n-1, then bottom points right-to-left
    if pos < n:
        return pos
    return n + (2 * n - 1 - pos)


def _identity_partner(n: int) -> tuple[int, ...]:
    return tuple(range(n, 2 * n)) + tuple(range(n))


@functools.lru_cache(maxsize=None)
def _matchings(n: int) -> tuple[tuple[int, ...], ...]:
    """Partner tuples of all planar matchings on 2n points, sorted.  Each is
    read off a balanced bracket sequence in the circular order, which pairs
    every closing point with the latest open one, so none needs checking.

    >>> [len(_matchings(k)) for k in range(1, 6)]
    [1, 2, 5, 14, 42]
    """
    m = 2 * n
    labels = [_label_at_circular(n, pos) for pos in range(m)]
    p = [0] * m
    stack, out = [], []

    def rec(pos, opened):
        if pos == m:
            out.append(tuple(p))
            return
        if opened < n:
            stack.append(labels[pos])
            rec(pos + 1, opened + 1)
            stack.pop()
        if stack:
            a, b = stack.pop(), labels[pos]
            p[a], p[b] = b, a
            rec(pos + 1, opened)
            stack.append(a)

    rec(0, 0)
    out.sort()
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _basis_index(n: int) -> dict:
    return {p: k for k, p in enumerate(_matchings(n))}


def _closure_loops(n: int, partner: tuple[int, ...]) -> int:
    """Loops formed when top point k is joined to bottom point n+k."""
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = partner[x]
            seen[y] = True
            x = y + n if y < n else y - n  # closure arc
    return loops


@functools.lru_cache(maxsize=None)
def _closure_loops_table(n: int) -> tuple[int, ...]:
    return tuple(_closure_loops(n, p) for p in _matchings(n))


@functools.lru_cache(maxsize=None)
def _compose_right_table(n: int, i: int) -> tuple[int, ...]:
    # d -> d . e_i as one basis index per diagram.  e_i's cap meets only d's
    # bottom points x = n+i-1, y = n+i; other chords run straight through.  If
    # x and y are paired, the cap closes one loop and the cup gives them back:
    # d . e_i = d keeps its index.  Otherwise the cap joins their partners and
    # the cup pairs x with y, so q[x] = y != p[x]: the index changes and no
    # loop closes.  The tests check each entry against the whole composite.
    if not 1 <= i < n:
        raise UsageError("generator index %d out of range for n=%d" % (i, n))
    idx = _basis_index(n)
    x, y = n + i - 1, n + i
    out = []
    for p, k in idx.items():  # basis order
        if p[x] != y:
            q = list(p)
            q[p[x]], q[p[y]], q[x], q[y] = p[y], p[x], y, x
            k = idx[tuple(q)]
        out.append(k)
    return tuple(out)


def loop_parameter(l: int) -> CyclotomicNumber:
    """d = -A^2 - A^-2 at A = zeta_{4l}."""
    if l < 3:
        raise UsageError("root-of-unity level must be >= 3")
    return -(CyclotomicNumber.zeta(4 * l, 2) + CyclotomicNumber.zeta(4 * l, -2))


class TLElement:
    """Sparse element of TL_n with coefficients in Z[zeta_{4l}].

    Each coefficient is kept packed: one int holding 2l signed base-2^w
    digits, the coefficients of 1, A, ..., A^{2l-1} of an element of
    Z[A]/(A^{2l}+1), which maps onto Z[zeta_{4l}] at A = zeta_{4l}.  The
    total |digit| mass of all coefficients together stays below 2^(w-2), so
    any sum of them unpacks exactly.  ``packed`` maps basis indices to these
    ints; ``coeffs`` maps them to the nonzero coefficients reduced to
    CyclotomicNumbers, computed on first access.  Equality compares
    ``coeffs``, since distinct packed ints can reduce to one value.

    The constructor packs a dict of CyclotomicNumbers of order dividing 4l,
    with w taken from their total digit mass."""

    __slots__ = ("n", "l", "w", "packed", "_coeffs")

    def __init__(self, n: int, l: int, coeffs: dict):
        digits = {k: c.embed(4 * l).coeffs for k, c in coeffs.items()}
        mass = sum(abs(x) for ds in digits.values() for x in ds)
        w = mass.bit_length() + 2
        packed = {}
        for k, ds in digits.items():
            v = 0
            for x in reversed(ds):
                v = (v << w) + x
            if v:
                packed[k] = v
        self.n, self.l, self.w, self.packed, self._coeffs = n, l, w, packed, None

    @staticmethod
    def _from_packed(n: int, l: int, w: int, packed: dict) -> "TLElement":
        x = object.__new__(TLElement)
        x.n, x.l, x.w, x.packed, x._coeffs = n, l, w, packed, None
        return x

    @property
    def coeffs(self) -> dict:
        if self._coeffs is None:
            out = {}
            for k, v in self.packed.items():
                c = CyclotomicNumber(4 * self.l, signed_digits(v, 2 * self.l, self.w))
                if not c.is_zero():
                    out[k] = c
            self._coeffs = out
        return self._coeffs

    @staticmethod
    def identity(n: int, l: int) -> "TLElement":
        one = CyclotomicNumber.one(4 * l)
        return TLElement(n, l, {_basis_index(n)[_identity_partner(n)]: one})

    @staticmethod
    def zero(n: int, l: int) -> "TLElement":
        return TLElement(n, l, {})

    def __eq__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return (self.n, self.l) == (other.n, other.l) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        terms = ", ".join("%d: %r" % (k, v) for k, v in sorted(self.coeffs.items()))
        return "TLElement(n=%d, l=%d, {%s})" % (self.n, self.l, terms)


def _rotation(j: int, n2: int, w: int) -> tuple[int, int, int]:
    # v*A^j in Z[A]/(A^n2 + 1), 0 <= j < n2, for v packed as n2 signed
    # base-2^w digits of magnitude below 2^(w-2), is a negacyclic rotation
    # of the digits: with (s, half, shift) returned here, the j top digits
    # top = (v + half) >> s, rounded, wrap round to the bottom, negated, so
    # v*A^j = ((v - (top << s)) << shift) - top
    s = w * (n2 - j)
    return s, 1 << (s - 1), w * j


def braid_to_tl(b: BraidWord, l: int) -> TLElement:
    """Image of the braid word under s_i -> A*1 + A^-1*e_i (inverse letters
    swap the two coefficients); loops closed during multiplication contribute
    the loop parameter d.  The coefficients of the result stay packed (see
    TLElement); none is reduced modulo the cyclotomic polynomial here.

    Writing s_i^{+-1} = A^{+-1}(1 + A^{-+2} e_i), the scalar A^{+-1} of
    every letter is collected into the starting coefficient A^writhe, the
    identity part of a term is carried over unchanged, and the e_i part is
    multiplied by A^{-+2}, or by A^{-+2} d = -(1 + A^{-+4}) when the one
    loop that right multiplication by e_i can close does close.  The
    product is updated in place: a diagram e_i fixes (the loop closes)
    becomes c + (-c - c A^{-+4}) = -c A^{-+4}; any other diagram keeps its
    coefficient, which is also added into the sum of preimages of its image
    k = d . e_i, a diagram e_i fixes; each such sum is then multiplied by
    A^{-+2} once and added to k's coefficient, which is deleted when it
    reaches 0.  Each product by a power of A is a digit rotation.  The digit
    width is w = bitlen(3^m) + 2 for m letters: the total |digit| mass of
    the element starts at 1 and at most triples per letter (x1 for the
    identity part, at most x2 for the e_i part), so it stays below
    3^m < 2^(w-2), and both the rounding in each rotation, of one
    coefficient or of a sum of them, and any later unpacking read every
    digit back exactly."""
    if l < 3:
        raise UsageError("root-of-unity level must be >= 3")
    n, n2 = b.strands, 2 * l
    w = (3 ** len(b.word)).bit_length() + 2
    apow = writhe(b) % (2 * n2)  # A^apow = -A^(apow - 2l) when apow >= 2l
    one = 1 << (w * (apow % n2))
    cur = {_basis_index(n)[_identity_partner(n)]: -one if apow >= n2 else one}
    for letter in b.word:
        table = _compose_right_table(n, abs(letter))
        # a positive letter needs A^-2 = -A^(2l-2) and A^-4 = -A^(2l-4), a
        # negative one A^2 and A^4
        pos = letter > 0
        s2, h2, sh2 = _rotation(n2 - 2 if pos else 2, n2, w)
        s4, h4, sh4 = _rotation(n2 - 4 if pos else 4, n2, w)
        moved = {}  # image -> sum of the coefficients e_i moves onto it
        for k, c in cur.items():
            rk = table[k]
            if rk == k:  # the loop closed: c + (-c - c*A^{-+4})
                top = (c + h4) >> s4
                low = (c - (top << s4)) << sh4
                cur[k] = low - top if pos else top - low
            elif rk in moved:
                moved[rk] += c
            else:
                moved[rk] = c
        for k, c in moved.items():  # one c*A^{-+2} per image
            top = (c + h2) >> s2
            low = (c - (top << s2)) << sh2
            v = cur.get(k, 0) + (top - low if pos else low - top)
            if v:
                cur[k] = v
            else:
                cur.pop(k, None)
    return TLElement._from_packed(n, l, w, cur)


def markov_trace(x: TLElement) -> CyclotomicNumber:
    """Close each diagram (top k joined to bottom k) and weight by
    d^{loops-1}; the trace of the identity in TL_1 is 1.  The packed
    coefficients are added by loop count, and only those at most n sums are
    unpacked, exactly by TLElement's mass bound.  Horner in d = -A^2 - A^-2
    then runs on 2l digits of Z[A]/(A^{2l}+1), where each product by d is
    two negacyclic shifts by 2, and only the final value is reduced modulo
    the cyclotomic polynomial."""
    n2 = 2 * x.l
    table = _closure_loops_table(x.n)
    by_loops = [0] * x.n  # packed coefficient sums by loops - 1
    for k, v in x.packed.items():
        by_loops[table[k] - 1] += v
    t = [0] * n2
    for v in reversed(by_loops):  # Horner in d: t*A^2 and t*A^-2, negacyclic
        t = [s - a - b for s, a, b in zip(signed_digits(v, n2, x.w),
                                          [-t[-2], -t[-1]] + t[:-2],
                                          t[2:] + [-t[0], -t[1]])]
    return CyclotomicNumber(4 * x.l, t)


def _writhe_normalization(w: int, l: int) -> CyclotomicNumber:
    # (-A)^(-3w) at A = zeta_{4l}
    z = CyclotomicNumber.zeta(4 * l, -3 * w)
    return -z if w % 2 else z


def jones_at_root(b: BraidWord, l: int,
                  budget: int = _DEFAULT_BUDGET) -> CyclotomicNumber:
    """Jones invariant of the closure of b at the level-l root of unity,
    normalized so every unknot presentation evaluates to 1.  Priced at
    C_n (m + n^2) steps for m letters on n strands, before any basis or
    table is built: each letter visits at most C_n live terms, and the n-1
    e_i tables rewire O(n) per entry of the C_n-diagram basis.

    >>> jones_at_root(BraidWord(3, (1, -2, 1, -2)), 4).as_int()
    -1
    """
    if l < 3:
        raise UsageError("root-of-unity level must be >= 3")
    n = b.strands
    # C_n >= 4^n / ((n + 1)(2n + 1)): refuse a huge price before forming it
    _require_budget_bits(2 * n - ((n + 1) * (2 * n + 1)).bit_length(), budget,
                         "Jones route")
    _require_budget(comb(2 * n, n) // (n + 1) * (len(b.word) + n * n), budget,
                    "Jones route")
    tr = markov_trace(braid_to_tl(b, l))
    return _writhe_normalization(writhe(b), l) * tr


@functools.lru_cache(maxsize=None)
def _bracket_profile(strands: int, word: tuple[int, ...]) -> tuple:
    """State-sum profile of the closure: multiset of (A-exponent, loops)
    over all 2^m smoothings.  Independent of the evaluation level."""
    m = len(word)
    counter: Counter = Counter()

    def find(parent, a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for state in range(1 << m):
        parent = list(range(strands))
        seg = list(range(strands))
        aexp = 0
        for k, letter in enumerate(word):
            i = abs(letter)
            esmooth = (state >> k) & 1
            if (letter > 0) == bool(esmooth):
                aexp -= 1
            else:
                aexp += 1
            if esmooth:
                # cap joins the incoming segments; a fresh cup continues below
                ra, rb = find(parent, seg[i - 1]), find(parent, seg[i])
                parent[ra] = rb
                fresh = len(parent)
                parent.append(fresh)
                seg[i - 1] = seg[i] = fresh
            # identity smoothing: strands pass through untouched
        for p in range(strands):
            ra, rb = find(parent, seg[p]), find(parent, p)
            if ra != rb:
                parent[ra] = rb
        loops = sum(1 for a in range(len(parent)) if find(parent, a) == a)
        counter[(aexp, loops)] += 1
    return tuple(sorted(counter.items()))


def kauffman_bracket_statesum(b: BraidWord, l: int,
                              budget: int = _DEFAULT_BUDGET) -> CyclotomicNumber:
    """Brute-force Kauffman bracket of the braid closure, normalized exactly
    like jones_at_root.  Must agree with it on every input.  Priced at
    2^m (n + m) steps for m crossings on n strands: each of the 2^m states
    walks the word and then the n closing arcs."""
    if l < 3:
        raise UsageError("root-of-unity level must be >= 3")
    m = len(b.word)
    _require_budget((1 << m) * (b.strands + m), budget, "state sum")
    order = 4 * l
    delta = loop_parameter(l)
    dpow = [CyclotomicNumber.one(order)]
    while len(dpow) < b.strands + m + 2:
        dpow.append(dpow[-1] * delta)
    total = CyclotomicNumber.zero(order)
    for (aexp, loops), count in _bracket_profile(b.strands, b.word):
        term = CyclotomicNumber.zeta(order, aexp) * dpow[loops - 1] * count
        total = total + term
    return _writhe_normalization(writhe(b), l) * total

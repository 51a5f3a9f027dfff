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

braid_to_tl computes in Z[A]/(A^{2l}+1), which maps onto Z[zeta_{4l}]: one
global power of A is factored out of every letter, and each coefficient is
one int holding 2l signed digits of a width proved sufficient from the word
length, so a letter costs digit rotations and int additions per live term.
Its e_i tables rewire two chords of each basis diagram, O(n) per entry.

kauffman_bracket_statesum is an independent oracle: a brute-force sum over
all 2^m smoothings of the closure diagram, sharing nothing with the
diagram-algebra route beyond cyclotomic arithmetic.
"""

from __future__ import annotations

import functools
from collections import Counter

from .algebra import _DEFAULT_BUDGET, CyclotomicNumber, UsageError, _require_budget
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
def _compose_right_table(n: int, i: int) -> tuple[tuple[int, int], ...]:
    # d -> d . e_i as (basis index, loops) per basis diagram.  e_i's cap meets
    # only d's bottom points x = n+i-1, y = n+i; every other chord of d runs
    # straight through e_i.  If x and y are paired, the cap closes one loop and
    # e_i's cup gives them back: d . e_i = d.  Otherwise the cap joins their
    # partners a, b into one chord and the cup pairs x with y, at O(n) per
    # diagram; the tests check it against a walk through the whole composite.
    if not 1 <= i < n:
        raise UsageError("generator index %d out of range for n=%d" % (i, n))
    idx = _basis_index(n)
    x, y = n + i - 1, n + i
    out = []
    for p in idx:  # basis order
        if p[x] == y:
            out.append((idx[p], 1))
        else:
            q = list(p)
            q[p[x]], q[p[y]], q[x], q[y] = p[y], p[x], y, x
            out.append((idx[tuple(q)], 0))
    return tuple(out)


def loop_parameter(l: int) -> CyclotomicNumber:
    """d = -A^2 - A^-2 at A = zeta_{4l}."""
    if l < 3:
        raise UsageError("root-of-unity level must be >= 3")
    return -(CyclotomicNumber.zeta(4 * l, 2) + CyclotomicNumber.zeta(4 * l, -2))


class TLElement:
    """Sparse element of TL_n with coefficients in Z[zeta_{4l}]."""

    __slots__ = ("n", "l", "coeffs")

    def __init__(self, n: int, l: int, coeffs: dict):
        self.n = n
        self.l = l
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}

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


def _times_a(v: int, k: int, n2: int, w: int) -> int:
    # v * A^k in Z[A]/(A^n2 + 1), v packed as n2 signed base-2^w digits each
    # of magnitude below 2^(w-2): a negacyclic rotation of the digits
    k %= 2 * n2
    neg = k >= n2
    s = w * (n2 - k % n2)
    top = (v + (1 << (s - 1))) >> s  # the digits that wrap round, rounded
    v = ((v - (top << s)) << (w * (k % n2))) - top
    return -v if neg else v


def braid_to_tl(b: BraidWord, l: int) -> TLElement:
    """Image of the braid word under s_i -> A*1 + A^-1*e_i (inverse letters
    swap the two coefficients); loops closed during multiplication contribute
    the loop parameter d.

    Coefficients live in Z[A]/(A^{2l}+1), which maps onto Z[zeta_{4l}] as a
    ring homomorphism since A^{2l} = -1 there; they are reduced modulo the
    cyclotomic polynomial once, at the end.  Writing s_i^{+-1} =
    A^{+-1}(1 + A^{-+2} e_i), one running exponent of A is kept, the identity
    part of a term is carried over unchanged, and the e_i part is multiplied
    by A^{-+2}, or by A^{-+2} d = -(1 + A^{-+4}) when the one loop that right
    multiplication by e_i can close does close.  Each coefficient is packed
    into one int as 2l signed base-2^w digits, w = bitlen(3^m) + 2 for m
    letters: the total |digit| mass at most triples per letter (x1 for the
    identity part, at most x2 for the e_i part), so every digit stays below
    3^m < 2^(w-2), and the rounding in the digit rotation and the unpacking
    at the end read every digit back exactly."""
    if l < 3:
        raise UsageError("root-of-unity level must be >= 3")
    n, n2 = b.strands, 2 * l
    w = (3 ** len(b.word)).bit_length() + 2
    apow = 0
    cur = {_basis_index(n)[_identity_partner(n)]: 1}
    for letter in b.word:
        sgn = 1 if letter > 0 else -1
        apow += sgn
        table = _compose_right_table(n, abs(letter))
        nxt = dict(cur)
        for k, c in cur.items():
            rk, loops = table[k]
            if loops:
                v = -c - _times_a(c, -4 * sgn, n2, w)
            else:
                v = _times_a(c, -2 * sgn, n2, w)
            nxt[rk] = nxt.get(rk, 0) + v
        cur = {k: v for k, v in nxt.items() if v}
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = {}
    for k, v in cur.items():
        v = _times_a(v, apow, n2, w)
        digits = []
        for _ in range(n2):
            digits.append(((v + half) & mask) - half)
            v = (v - digits[-1]) >> w
        out[k] = CyclotomicNumber(4 * l, digits)
    return TLElement(n, l, out)


def markov_trace(x: TLElement) -> CyclotomicNumber:
    """Close each diagram (top k joined to bottom k) and weight by
    d^{loops-1}; the trace of the identity in TL_1 is 1."""
    delta = loop_parameter(x.l)
    table = _closure_loops_table(x.n)
    total = CyclotomicNumber.zero(4 * x.l)
    by_loops = [total] * x.n  # coefficient sums by loops - 1
    for k, c in x.coeffs.items():
        by_loops[table[k] - 1] += c
    for s in reversed(by_loops):  # Horner in d
        total = total * delta + s
    return total


def _writhe_normalization(w: int, l: int) -> CyclotomicNumber:
    # (-A)^(-3w) at A = zeta_{4l}
    z = CyclotomicNumber.zeta(4 * l, -3 * w)
    return -z if w % 2 else z


def jones_at_root(b: BraidWord, l: int) -> CyclotomicNumber:
    """Jones invariant of the closure of b at the level-l root of unity,
    normalized so every unknot presentation evaluates to 1.

    >>> jones_at_root(BraidWord(3, (1, -2, 1, -2)), 4).as_int()
    -1
    """
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

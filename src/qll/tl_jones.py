"""Temperley-Lieb algebra at a root of unity, the braid representation into
it, the closure (Markov) trace, and Jones evaluations.

Boundary labels of a diagram on n strands: top points are 0..n-1 left to
right, bottom points are n..2n-1 left to right.  Planarity is checked in the
circular order top-left around to bottom-left (top 0..n-1, then bottom
n-1..0), where a non-crossing matching is exactly a balanced bracket
sequence.

The bracket variable is A = zeta_{4l}, so the Jones variable is t = A^{-4};
the chirality convention is pinned by a spot check: the closure of s1^3
must evaluate to -t^-4 + t^-3 + t^-1 numerically.  Loops contribute
d = -A^2 - A^-2, and the closure trace weights a diagram by d^{loops-1},
normalizing the unknot to 1.

braid_to_tl computes in Z[A]/(A^{2l}+1), which maps onto Z[zeta_{4l}]: one
global power of A is factored out of every letter, and each coefficient is
one int holding 2l signed digits of a width proved sufficient from the word
length, so a letter costs digit rotations and int additions per live term.

kauffman_bracket_statesum is an independent oracle: a brute-force sum over
all 2^m smoothings of the closure diagram, sharing nothing with the
diagram-algebra route beyond cyclotomic arithmetic.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .algebra import BudgetError, CyclotomicNumber, UsageError
from .braid import BraidWord, writhe


@dataclass(frozen=True)
class TLDiagram:
    """Planar perfect matching on the 2n boundary points of a rectangle."""

    n: int
    partner: tuple[int, ...]

    def __post_init__(self):
        m = 2 * self.n
        p = self.partner
        if len(p) != m or sorted(p) != list(range(m)):
            raise UsageError("partner must be a matching on 0..%d" % (m - 1))
        if any(p[x] == x or p[p[x]] != x for x in range(m)):
            raise UsageError("partner must be a fixed-point-free involution")
        stack = []
        for pos in range(m):
            lab = _label_at_circular(self.n, pos)
            if stack and stack[-1] == p[lab]:
                stack.pop()
            else:
                stack.append(lab)
        if stack:
            raise UsageError("matching has crossing chords")


def _label_at_circular(n: int, pos: int) -> int:
    # circular order: top 0..n-1, then bottom points right-to-left
    if pos < n:
        return pos
    return n + (2 * n - 1 - pos)


def identity_diagram(n: int) -> TLDiagram:
    p = list(range(2 * n))
    for i in range(n):
        p[i], p[n + i] = n + i, i
    return TLDiagram(n, tuple(p))


def e_diagram(n: int, i: int) -> TLDiagram:
    """The cup-cap generator e_i (1-based, 1 <= i < n)."""
    if not 1 <= i < n:
        raise UsageError("generator index %d out of range for n=%d" % (i, n))
    p = list(identity_diagram(n).partner)
    a, b = i - 1, i
    p[a], p[b] = b, a
    p[n + a], p[n + b] = n + b, n + a
    return TLDiagram(n, tuple(p))


@functools.lru_cache(maxsize=None)
def diagram_basis(n: int) -> tuple[TLDiagram, ...]:
    """All planar matchings on 2n points, in a fixed canonical order.

    >>> [len(diagram_basis(k)) for k in range(1, 6)]
    [1, 2, 5, 14, 42]
    """
    m = 2 * n

    def rec(points):
        if not points:
            return [()]
        out = []
        first = points[0]
        for k in range(1, len(points), 2):
            for a in rec(points[1:k]):
                for b in rec(points[k + 1:]):
                    out.append(((first, points[k]),) + a + b)
        return out

    diagrams = []
    for pairs in rec(tuple(range(m))):
        p = [0] * m
        for x, y in pairs:
            lx, ly = _label_at_circular(n, x), _label_at_circular(n, y)
            p[lx], p[ly] = ly, lx
        diagrams.append(TLDiagram(n, tuple(p)))
    return tuple(sorted(diagrams, key=lambda d: d.partner))


@functools.lru_cache(maxsize=None)
def _basis_index(n: int) -> dict:
    return {d.partner: k for k, d in enumerate(diagram_basis(n))}


def tl_compose(d1: TLDiagram, d2: TLDiagram) -> tuple[TLDiagram, int]:
    """Stack d1 over d2 (d1's bottom glued to d2's top); return the result
    and the number of closed loops removed.

    >>> e = e_diagram(2, 1)
    >>> tl_compose(e, e) == (e, 1)
    True
    """
    if d1.n != d2.n:
        raise UsageError("strand counts differ")
    n = d1.n
    seen = set()  # interface nodes consumed by walks

    def walk(layer, x):
        # follow chords, hopping through the glued middle boundary, until a
        # final boundary point (top of d1 or bottom of d2) is reached
        while True:
            y = (d1.partner if layer == 0 else d2.partner)[x]
            if layer == 0 and y < n:
                return y
            if layer == 1 and y >= n:
                return y
            if layer == 0:
                seen.add((0, y))
                seen.add((1, y - n))
                layer, x = 1, y - n
            else:
                seen.add((1, y))
                seen.add((0, y + n))
                layer, x = 0, y + n

    p = [0] * (2 * n)
    for x in range(n):
        p[x] = walk(0, x)
    for y in range(n, 2 * n):
        p[y] = walk(1, y)

    loops = 0
    for j0 in range(n):
        if (1, j0) in seen:
            continue
        loops += 1
        layer, x = 1, j0
        while (layer, x) not in seen:
            seen.add((layer, x))
            y = (d1.partner if layer == 0 else d2.partner)[x]
            seen.add((layer, y))
            layer, x = (1, y - n) if layer == 0 else (0, y + n)
    return TLDiagram(n, tuple(p)), loops


def closure_loop_count(d: TLDiagram) -> int:
    """Loops formed when top point k is joined to bottom point n+k."""
    n = d.n
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = d.partner[x]
            seen[y] = True
            x = y + n if y < n else y - n  # closure arc
    return loops


@functools.lru_cache(maxsize=None)
def _closure_loops_table(n: int) -> tuple[int, ...]:
    return tuple(closure_loop_count(d) for d in diagram_basis(n))


@functools.lru_cache(maxsize=None)
def _compose_right_table(n: int, i: int) -> tuple[tuple[int, int], ...]:
    # d -> d . e_i as (basis index, loops) per basis diagram
    e = e_diagram(n, i)
    idx = _basis_index(n)
    out = []
    for d in diagram_basis(n):
        r, loops = tl_compose(d, e)
        out.append((idx[r.partner], loops))
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
        return TLElement(n, l, {_basis_index(n)[identity_diagram(n).partner]: one})

    @staticmethod
    def zero(n: int, l: int) -> "TLElement":
        return TLElement(n, l, {})

    def coefficient(self, d: TLDiagram) -> CyclotomicNumber:
        k = _basis_index(self.n).get(d.partner)
        if k is None or k not in self.coeffs:
            return CyclotomicNumber.zero(4 * self.l)
        return self.coeffs[k]

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
    cur = {_basis_index(n)[identity_diagram(n).partner]: 1}
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
    normalized so every unknot presentation evaluates to 1."""
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
                              max_crossings: int = 24) -> CyclotomicNumber:
    """Brute-force Kauffman bracket of the braid closure, normalized exactly
    like jones_at_root.  Must agree with it on every input."""
    if l < 3:
        raise UsageError("root-of-unity level must be >= 3")
    m = len(b.word)
    if m > max_crossings:
        raise BudgetError(
            "state sum needs 2^%d states (cap %d crossings)" % (m, max_crossings),
            required=1 << m)
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

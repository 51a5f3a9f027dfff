"""Counting homomorphisms from a link group into a finite group.

Two independent routes are implemented.  The fast route counts fixed points
of the braid's Hurwitz action on G^n (a homomorphism from the closure's
group is exactly a strand labelling fixed by the braid).  The oracle route
builds the Wirtinger presentation of the closure diagram — one generator per
arc, one conjugation relation per crossing — and counts satisfying
assignments by backtracking with forced propagation.  The two must always
agree; the test suite enforces it.

A randomized estimator samples tuples from a seeded, per-index-split stream,
so the draw set is reproducible and partition-independent.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import BudgetError, UsageError
from .braid import BraidWord

_DEFAULT_BUDGET = 10 ** 9
_MAX_ORDER = 10 ** 4


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a fully tabulated multiplication on 0..size-1."""

    name: str
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...] = field(default=())
    identity: int = 0

    def __post_init__(self):
        size = len(self.mul)
        if size == 0:
            raise UsageError("empty multiplication table")
        for row in self.mul:
            if len(row) != size or any(not 0 <= x < size for x in row):
                raise UsageError("multiplication table is not square over 0..%d"
                                 % (size - 1))
        ident = None
        for e in range(size):
            if all(self.mul[e][x] == x and self.mul[x][e] == x for x in range(size)):
                ident = e
                break
        if ident is None:
            raise UsageError("table has no identity element")
        object.__setattr__(self, "identity", ident)
        inv = []
        for a in range(size):
            b = next((b for b in range(size) if self.mul[a][b] == ident), None)
            if b is None or self.mul[b][a] != ident:
                raise UsageError("element %d has no two-sided inverse" % a)
            inv.append(b)
        object.__setattr__(self, "inv", tuple(inv))
        if size <= 64:
            triples = itertools.product(range(size), repeat=3)
        else:
            rng = random.Random(size)
            triples = ((rng.randrange(size), rng.randrange(size), rng.randrange(size))
                       for _ in range(4096))
        for a, b, c in triples:
            if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                raise UsageError("multiplication is not associative at (%d,%d,%d)"
                                 % (a, b, c))

    @property
    def size(self) -> int:
        return len(self.mul)

    def is_abelian(self) -> bool:
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in range(self.size) for b in range(a))


def _cyclic_table(k):
    return tuple(tuple((a + b) % k for b in range(k)) for a in range(k))


def _dihedral_table(k):
    # index a + k*b for r^a s^b; s r^a = r^-a s
    def mul(x, y):
        a1, b1 = x % k, x // k
        a2, b2 = y % k, y // k
        a = (a1 + (a2 if b1 == 0 else -a2)) % k
        return a + k * ((b1 + b2) % 2)
    return tuple(tuple(mul(x, y) for y in range(2 * k)) for x in range(2 * k))


def _symmetric_table(k):
    elements = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(elements)}

    def compose(p, q):  # apply p first, then q
        return tuple(q[p[i]] for i in range(k))

    return tuple(tuple(index[compose(p, q)] for q in elements) for p in elements)


def _quaternion_table():
    # elements 0..7 = +1,+i,+j,+k,-1,-i,-j,-k
    def mul(x, y):
        sx, ax = x // 4, x % 4
        sy, ay = y // 4, y % 4
        if ax == 0:
            s, a = 0, ay
        elif ay == 0:
            s, a = 0, ax
        elif ax == ay:
            s, a = 1, 0
        else:
            a = ({1, 2, 3} - {ax, ay}).pop()
            s = 0 if (ax, ay) in ((1, 2), (2, 3), (3, 1)) else 1
        return a + 4 * ((sx + sy + s) % 2)
    return tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))


def _product_table(ta, tb):
    nb = len(tb)
    size = len(ta) * nb
    def mul(x, y):
        return ta[x // nb][y // nb] * nb + tb[x % nb][y % nb]
    return tuple(tuple(mul(x, y) for y in range(size)) for x in range(size))


def builtin_group(spec: str, max_order: int = _MAX_ORDER) -> FiniteGroup:
    """Construct a named group: ``cyclic k``, ``dihedral k`` (order 2k),
    ``symmetric k``, ``quaternion8``, or products joined with ``x``.

    >>> builtin_group("symmetric 3").size
    6
    >>> builtin_group("cyclic 2 x cyclic 3").size
    6
    """
    builders = []
    order = 1
    for part in spec.split(" x "):
        tokens = part.split()
        kind = tokens[0] if tokens else ""
        if kind in ("cyclic", "dihedral", "symmetric"):
            if len(tokens) != 2 or not tokens[1].isdigit() or int(tokens[1]) < 1:
                raise UsageError("group spec %r needs one positive integer" % part)
            k = int(tokens[1])
            if kind == "cyclic":
                builders.append((_cyclic_table, k, k))
            elif kind == "dihedral":
                builders.append((_dihedral_table, k, 2 * k))
            else:
                if k > 7:  # keep the factorial itself in check
                    raise UsageError("symmetric %d exceeds the order cap" % k)
                builders.append((_symmetric_table, k, math.factorial(k)))
        elif kind == "quaternion8" and len(tokens) == 1:
            builders.append((lambda _: _quaternion_table(), 0, 8))
        else:
            raise UsageError("unknown group spec %r" % part)
        order *= builders[-1][2]
        if order > max_order:
            raise UsageError("group order %d exceeds the cap %d" % (order, max_order))
    table = builders[0][0](builders[0][1])
    for fn, arg, _ in builders[1:]:
        table = _product_table(table, fn(arg))
    return FiniteGroup(spec.strip(), table)


# ---------------------------------------------------------------------------
# Hurwitz action

def _word_ops(b: BraidWord):
    return [(abs(letter) - 1, letter > 0) for letter in b.word]


def hurwitz_act(b: BraidWord, x: tuple[int, ...], G: FiniteGroup) -> tuple[int, ...]:
    """Act on a strand labelling: a positive letter sends (g_i, g_{i+1}) to
    (g_i g_{i+1} g_i^-1, g_i); a negative letter is the inverse move."""
    if len(x) != b.strands:
        raise UsageError("tuple length %d != strand count %d" % (len(x), b.strands))
    mul, inv = G.mul, G.inv
    g = list(x)
    for i, positive in _word_ops(b):
        a, c = g[i], g[i + 1]
        if positive:
            g[i] = mul[mul[a][c]][inv[a]]
            g[i + 1] = a
        else:
            g[i] = c
            g[i + 1] = mul[mul[inv[c]][a]][c]
    return tuple(g)


def _require_budget(required: int, budget: int, what: str):
    if required > budget:
        raise BudgetError("%s needs %d elementary steps (budget %d)"
                          % (what, required, budget), required=required)


def hom_count_exact(b: BraidWord, G: FiniteGroup,
                    budget: int = _DEFAULT_BUDGET) -> int:
    """|Hom(link group of the closure, G)|: the number of Hurwitz fixed
    tuples of the braid."""
    n = b.strands
    _require_budget(G.size ** n * max(1, len(b.word)),
                    budget, "exact count over %d^%d tuples" % (G.size, n))
    mul, inv = G.mul, G.inv
    ops = _word_ops(b)
    count = 0
    for tup in itertools.product(range(G.size), repeat=n):
        g = list(tup)
        for i, positive in ops:
            a, c = g[i], g[i + 1]
            if positive:
                g[i] = mul[mul[a][c]][inv[a]]
                g[i + 1] = a
            else:
                g[i] = c
                g[i + 1] = mul[mul[inv[c]][a]][c]
        if tuple(g) == tup:
            count += 1
    return count


def hom_count_estimate(b: BraidWord, G: FiniteGroup, samples: int,
                       seed: int) -> tuple[Fraction, Fraction]:
    """Monte Carlo estimate of hom_count_exact from uniformly sampled
    tuples; deterministic given (seed, samples).  Returns (estimate, binomial
    standard error), both as exact rationals; the error is an upper bound on
    |G|^n sqrt(p(1-p)/samples) at p = (hits+1)/(samples+2), a multiple of
    10^-9, and is 0 only for the empty word, where the estimate is exact."""
    if samples < 1:
        raise UsageError("need at least one sample")
    n, size = b.strands, G.size
    mul, inv = G.mul, G.inv
    ops = _word_ops(b)
    hits = 0
    for idx in range(samples):
        digest = hashlib.sha256(b"%d:%d" % (seed, idx)).digest()
        rng = random.Random(digest)
        tup = tuple(rng.randrange(size) for _ in range(n))
        g = list(tup)
        for i, positive in ops:
            a, c = g[i], g[i + 1]
            if positive:
                g[i] = mul[mul[a][c]][inv[a]]
                g[i + 1] = a
            else:
                g[i] = c
                g[i + 1] = mul[mul[inv[c]][a]][c]
        if tuple(g) == tup:
            hits += 1
    total = size ** n
    estimate = Fraction(hits * total, samples)
    if not b.word:  # every tuple is fixed: the estimate is exact
        return estimate, Fraction(0)
    # binomial error at p = (hits+1)/(samples+2), which stays nonzero when no
    # sample or every sample hits, rounded up to a multiple of 1/D
    D = 10 ** 9
    var = Fraction(D * D * total * total * (hits + 1) * (samples + 1 - hits),
                   (samples + 2) ** 2 * samples)
    c = -(-var.numerator // var.denominator)
    r = math.isqrt(c)
    return estimate, Fraction(r + (r * r < c), D)


# ---------------------------------------------------------------------------
# Wirtinger oracle

def _closure_diagram(b: BraidWord):
    """Arcs and crossing relations of the standard closure diagram.

    Returns (arc count, arc id per initial strand, relations), a relation
    being (out, over, inn, positive): the under-strand enters as ``inn`` and
    leaves as ``out``, conjugated by ``over``.
    """
    n = b.strands
    seg = list(range(n))
    ids = n
    relations = []
    for letter in b.word:
        i = abs(letter)
        if letter > 0:
            over, inn = seg[i - 1], seg[i]
            out = ids
            ids += 1
            seg[i] = over
            seg[i - 1] = out
        else:
            over, inn = seg[i], seg[i - 1]
            out = ids
            ids += 1
            seg[i - 1] = over
            seg[i] = out
        relations.append((out, over, inn, letter > 0))
    parent = list(range(ids))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in range(n):  # closure joins the bottom of each strand to its top
        ra, rb = find(seg[p]), find(p)
        if ra != rb:
            parent[ra] = rb
    roots = sorted({find(a) for a in range(ids)})
    arc_of = {r: k for k, r in enumerate(roots)}
    arcs = [arc_of[find(a)] for a in range(ids)]
    rel = [(arcs[o], arcs[v], arcs[i], pos) for o, v, i, pos in relations]
    strand_arcs = [arcs[p] for p in range(n)]
    return len(roots), strand_arcs, rel


def wirtinger_hom_count(b: BraidWord, G: FiniteGroup,
                        budget: int = _DEFAULT_BUDGET) -> int:
    """Independent oracle: count G-labellings of the closure diagram's arcs
    satisfying every crossing relation."""
    n_arcs, _, relations = _closure_diagram(b)
    _require_budget(G.size ** b.strands * max(1, n_arcs), budget,
                    "Wirtinger count over %d arcs" % n_arcs)
    mul, inv = G.mul, G.inv
    assign = [-1] * n_arcs

    def relation_out(over, inn, positive):
        if positive:
            return mul[mul[over][inn]][inv[over]]
        return mul[mul[inv[over]][inn]][over]

    def propagate(trail):
        changed = True
        while changed:
            changed = False
            for out, over, inn, pos in relations:
                if assign[over] >= 0 and assign[inn] >= 0:
                    val = relation_out(assign[over], assign[inn], pos)
                    if assign[out] < 0:
                        assign[out] = val
                        trail.append(out)
                        changed = True
                    elif assign[out] != val:
                        return False
        return True

    def search():
        trail = []
        if not propagate(trail):
            for a in trail:
                assign[a] = -1
            return 0
        try:
            free = assign.index(-1)
        except ValueError:
            for a in trail:
                assign[a] = -1
            return 1
        total = 0
        for g in range(G.size):
            assign[free] = g
            total += search()
        assign[free] = -1
        for a in trail:
            assign[a] = -1
        return total

    return search()

"""Counting homomorphisms from a link group into a finite group.

Two independent routes are implemented.  The fast route counts fixed points
of the braid's Hurwitz action on G^n (a homomorphism from the closure's
group is exactly a strand labelling fixed by the braid).  Conjugating every
label by one element of G commutes with the Hurwitz action, so the fixed set
is a union of orbits of simultaneous conjugation: the route applies the word
to one tuple per orbit, found position by position down a chain of
centralisers, and adds the orbit's size when the tuple is fixed.  A letter
moves each of its two labels to the other's position up to conjugation, so
in a fixed tuple the labels along each cycle of the braid's permutation,
the meridians of one link component, lie in one conjugacy class; the route
enumerates only such tuples.  The orbits of a centraliser S refine the
classes of G, so each node of the chain keeps its orbits grouped by class,
the filter drops whole orbits, and every weight stays exact.  One
recursion serves every position, down to a central centraliser whose
orbits are single elements.

The oracle route builds the Wirtinger presentation of the closure diagram —
one generator per arc, one conjugation relation per crossing — and counts
satisfying assignments by backtracking with forced propagation.  None of its
counting code is shared with the fast route.  The two must always agree;
the test suite enforces it.

A randomized estimator samples tuples from a seeded, per-index-split stream,
so the draw set is reproducible and partition-independent.  The stream is a
contract that the CLI tests freeze: with N = |G|^n and nb = (bit length of N
+ 71) // 8 bytes per sample, sample idx reads slot idx mod 1024 of the
SHAKE-256 output of ``b"<seed>:<idx // 1024>"`` as a big-endian integer,
redrawn from ``b"<seed>:<idx>:<k>"`` for k = 1, 2, ... while it is at or
above the largest multiple of N that fits in nb bytes; its value mod N is
the tuple's mixed-radix code, label j being base-|G| digit j, most
significant first.
When |G|^n is at most the sample count, the estimator keeps, for one call,
a table of |G|^n bytes with the verdict of every tuple drawn so far, so the
word is applied once per distinct tuple; a verdict depends on the tuple
alone, so the hit count and both outputs stay what they were.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .algebra import (_DECIMAL_CAP, _DEFAULT_BUDGET, BudgetError, UsageError,
                      _require_budget, _require_budget_bits)
from .braid import BraidWord, component_of_strand

_MAX_ORDER = 10 ** 4
_ERROR_UNIT = 10 ** 9  # the estimator's error is a multiple of 1/_ERROR_UNIT
_BLOCK = 1024  # estimator samples per SHAKE-256 call, fixed by its stream


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a fully tabulated multiplication on 0..size-1; its
    identity and inverses are read off the table."""

    name: str
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...] = field(init=False)
    identity: int = field(init=False)

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


def _parse_group(spec: str):
    """The table builders of a group spec and the group's order."""
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
        if order > _MAX_ORDER:
            raise UsageError("group order %d exceeds the cap %d" % (order, _MAX_ORDER))
    return builders, order


def builtin_group(spec: str, budget: int = _DEFAULT_BUDGET) -> FiniteGroup:
    """Construct a named group: ``cyclic k``, ``dihedral k`` (order 2k),
    ``symmetric k``, ``quaternion8``, or products joined with ``x``.  The
    multiplication table is priced at order^2 steps; at the default budget
    every group under the order cap is built.

    >>> builtin_group("symmetric 3").size
    6
    >>> builtin_group("cyclic 2 x cyclic 3").size
    6
    """
    builders, order = _parse_group(spec)
    _require_table_budget(order, budget)
    table = builders[0][0](builders[0][1])
    for fn, arg, _ in builders[1:]:
        table = _product_table(table, fn(arg))
    return FiniteGroup(spec.strip(), table)


def _require_table_budget(order: int, budget: int) -> None:
    """Refuse a multiplication table of the given order, order^2 steps,
    over the budget."""
    _require_budget(order * order, budget,
                    "multiplication table of order %d" % order)


def _require_hom_budget(b: BraidWord, order: int, budget: int,
                        wirtinger: bool = False) -> None:
    """Refuse `hom_count_exact`, or `wirtinger_hom_count`, over a group of
    the given order when its price, |G|^n steps per letter or per arc,
    passes the budget."""
    if wirtinger:
        n_arcs = _closure_diagram(b)[0]
        per, what = max(1, n_arcs), "Wirtinger count over %d arcs" % n_arcs
    else:
        per = max(1, len(b.word))
        what = "exact count over %d^%d tuples" % (order, b.strands)
    _require_budget_bits(b.strands * (order.bit_length() - 1), budget, what)
    _require_budget(order ** b.strands * per, budget, what)


def _require_estimate_budget(b: BraidWord, samples: int, budget: int) -> None:
    """Refuse `hom_count_estimate` from the given number of samples when its
    price, samples x (letters + n) steps, passes the budget."""
    _require_budget(samples * (len(b.word) + b.strands), budget,
                    "estimate from %d samples" % samples)


def _require_printable_estimate(b: BraidWord, order: int, samples: int) -> None:
    """Refuse `hom_count_estimate` over a group of the given order when the
    numerator or denominator of its estimate or error could pass the 4300
    digits CPython writes as text.  Each is at most max(samples, 10^9) x
    |G|^n, and |G|^n is bounded from its bit length before it is formed."""
    n = b.strands
    if (n * (order.bit_length() - 1) >= _DECIMAL_CAP.bit_length()
            or max(samples, _ERROR_UNIT) * order ** n >= _DECIMAL_CAP):
        raise BudgetError("estimate over %d^%d tuples could print a number of "
                          "more than 4300 digits" % (order, n), required=None)


# ---------------------------------------------------------------------------
# Hurwitz action

def _word_ops(b: BraidWord):
    return [(abs(letter) - 1, letter > 0) for letter in b.word]


def _act(g: list[int], ops, mul, inv) -> None:
    """The Hurwitz action of the word `ops` (from `_word_ops`) on the
    labelling g, in place, given the group's tables."""
    for i, positive in ops:
        a, c = g[i], g[i + 1]
        if positive:
            g[i] = mul[mul[a][c]][inv[a]]
            g[i + 1] = a
        else:
            g[i] = c
            g[i + 1] = mul[mul[inv[c]][a]][c]


def hurwitz_act(b: BraidWord, x: tuple[int, ...], G: FiniteGroup) -> tuple[int, ...]:
    """Act on a strand labelling: a positive letter sends (g_i, g_{i+1}) to
    (g_i g_{i+1} g_i^-1, g_i); a negative letter is the inverse move."""
    if len(x) != b.strands:
        raise UsageError("tuple length %d != strand count %d" % (len(x), b.strands))
    g = list(x)
    _act(g, _word_ops(b), G.mul, G.inv)
    return tuple(g)


def _conjugation_orbits(S, mul, inv):
    """Orbits of the subgroup S (a tuple of elements) acting on the whole
    group by conjugation: (found, orbit_of), with one entry [rep, orbit
    size, None] in found per orbit, the smallest element standing for it,
    and orbit_of[y] the index in found of y's orbit.  `hom_count_exact`
    fills the None with the node of the rep's centraliser in S; for S = G
    the orbits are the conjugacy classes, and orbit_of gives each
    element's class id."""
    rows = [(mul[s], inv[s]) for s in S]
    orbit_of = [-1] * len(mul)
    found = []
    for x in range(len(mul)):
        if orbit_of[x] < 0:
            orbit = {mul[row[x]][si] for row, si in rows}
            for y in orbit:
                orbit_of[y] = len(found)
            found.append([x, len(orbit), None])
    return found, orbit_of


def _class_members(class_of, count) -> list:
    """members[c]: the indices x with class_of[x] == c, in order, for
    each of the `count` conjugacy classes."""
    members = [[] for _ in range(count)]
    for x, c in enumerate(class_of):
        members[c].append(x)
    return members


def _cycle_heads(b: BraidWord) -> list:
    """head[j]: the first position of j's cycle under the braid's
    permutation, that is, of the link component through strand j."""
    comp = component_of_strand(b)
    return [comp.index(c) for c in comp]


def hom_count_exact(b: BraidWord, G: FiniteGroup,
                    budget: int = _DEFAULT_BUDGET) -> int:
    """|Hom(link group of the closure, G)|: the number of Hurwitz fixed
    tuples of the braid, counted over one representative per orbit of G
    acting on G^n by simultaneous conjugation.

    For a tuple t of length k with centraliser S = C_G(t), let F(t) be the
    number of y in G^(n-k) with t + y fixed.  Conjugation by s in S fixes t
    and commutes with the Hurwitz action, so it carries the fixed tuples
    t + (x,) + y' bijectively onto the fixed tuples t + (s x s^-1,) + y'';
    hence F(t) = sum over representatives x of the S-orbits on G of
    |S x| * F(t + (x,)), and C_S(x) = C_G(t + (x,)) is the next
    centraliser.  The count is F(()), where S = G.

    A fixed tuple also carries one conjugacy class along each link
    component.  A letter at position i moves the label at i + 1 to i and the
    label at i to i + 1, each up to conjugation, so after the word the label
    at pi(j) is conjugate to the original label at j, pi being the braid's
    permutation.  In a fixed tuple every label along a cycle of pi is thus
    conjugate to the label at the cycle's first position head[j], so at a
    position j with head[j] < j only the x conjugate to t[head[j]] can have
    F(t + (x,)) > 0.  S lies in G, so each S-orbit lies inside one class of
    G: each node keeps its S-orbits grouped by that class, the filter keeps
    whole orbits, and the weights |S x| stay exact.  Once S is central every
    orbit is one element, and the same recursion enumerates the rest.  The
    price stays |G|^n steps per letter, a looser upper bound: the word is
    applied once per surviving representative."""
    n = b.strands
    _require_hom_budget(b, G.size, budget)
    mul, inv = G.mul, G.inv
    ops = _word_ops(b)
    act = _act
    head = _cycle_heads(b)
    everything = tuple(range(G.size))
    classes, class_of = _conjugation_orbits(everything, mul, inv)
    nodes = {}  # subgroup -> (it, its orbits, those orbits by class)

    def node(S, orbits=None):
        found = nodes.get(S)
        if found is None:
            if orbits is None:
                orbits = _conjugation_orbits(S, mul, inv)[0]
            by_class = _class_members([class_of[x] for x, _, _ in orbits],
                                      len(classes))
            found = nodes[S] = (S, orbits,
                                [[orbits[i] for i in ids] for ids in by_class])
        return found

    def is_fixed(tup):
        g = list(tup)
        act(g, ops, mul, inv)
        return tuple(g) == tup

    def fixed(prefix, S, orbits, by_class):
        # F(prefix), S being the centraliser of prefix
        j = len(prefix)
        h = head[j]
        if h < j:
            orbits = by_class[class_of[prefix[h]]]
        if j == n - 1:
            return sum(k for x, k, _ in orbits if is_fixed(prefix + (x,)))
        total = 0
        for entry in orbits:
            x, k, child = entry
            if child is None:
                C = tuple(s for s in S if mul[s][x] == mul[x][s])
                child = entry[2] = node(C)
            total += k * fixed(prefix + (x,), *child)
        return total

    return fixed((), *node(everything, classes))


def hom_count_estimate(b: BraidWord, G: FiniteGroup, samples: int,
                       seed: int, budget: int = _DEFAULT_BUDGET
                       ) -> tuple[Fraction, Fraction]:
    """Monte Carlo estimate of hom_count_exact from uniformly sampled
    tuples; deterministic given (seed, samples).  Returns (estimate, binomial
    standard error), both as exact rationals; the error is an upper bound on
    |G|^n sqrt(p(1-p)/samples) at p = (hits+1)/(samples+2), a multiple of
    10^-9, and is 0 only for the empty word, where the estimate is exact and
    no sample is drawn.

    The stream is a contract, frozen by the CLI tests.  With total =
    |G|^n, each sample takes nb = (total.bit_length() + 71) // 8 bytes, at
    least 64 bits more than a code needs, and limit = 2^(8 nb) - 2^(8 nb)
    mod total.  Samples 1024c .. 1024c + 1023 read consecutive nb-byte
    slots of ``shake_256(b"<seed>:<c>").digest(count * nb)``, count being
    the samples the block covers; SHAKE's output is prefix-stable, so a
    short last block reads the same bytes.  Sample idx takes its slot as a
    big-endian integer x and, while x >= limit, redraws x from
    ``shake_256(b"<seed>:<idx>:<k>").digest(nb)`` for k = 1, 2, ...; the
    draw is exactly uniform, and a redraw has chance under 2^-64.  Then
    code = x mod total, and label j is base-|G| digit j of code, most
    significant first.  One block holds 1024 x nb bytes.  Only the CLI
    calls `_require_printable_estimate`, which keeps nb under about 1.8 KB
    and so a block under 2 MB; a direct call has no such bound.

    When |G|^n <= samples, a table of |G|^n bytes, indexed by code and
    dropped when the call returns, records whether each tuple drawn so far
    is fixed, so the tuple is decoded and the word applied at most once per
    distinct code.  Whether a tuple is fixed depends on the tuple alone, so
    the hit count is the same with or without it, and the table is never
    larger than the sample count.  The price is samples x (letters + n)
    steps, an upper bound when the table saves applications."""
    if samples < 1:
        raise UsageError("need at least one sample")
    n, size = b.strands, G.size
    _require_estimate_budget(b, samples, budget)
    total = size ** n
    if not b.word:  # every tuple is fixed: the estimate is exact
        return Fraction(total), Fraction(0)
    mul, inv = G.mul, G.inv
    ops = _word_ops(b)

    shake, from_bytes = hashlib.shake_256, int.from_bytes
    nb = (total.bit_length() + 71) // 8
    limit = (1 << 8 * nb) - (1 << 8 * nb) % total
    # verdicts[code]: 0 not drawn yet, 1 fixed, 2 not fixed
    verdicts = bytearray(total) if total <= samples else None
    tup = [0] * n
    hits = 0
    for first in range(0, samples, _BLOCK):
        count = min(_BLOCK, samples - first)
        block = shake(b"%d:%d" % (seed, first // _BLOCK)).digest(count * nb)
        for offset in range(0, count * nb, nb):
            x = from_bytes(block[offset:offset + nb], "big")
            k = 0
            while x >= limit:
                k += 1
                x = from_bytes(shake(b"%d:%d:%d" % (
                    seed, first + offset // nb, k)).digest(nb), "big")
            code = x % total
            if verdicts is not None and verdicts[code]:
                hits += verdicts[code] == 1
                continue
            rest = code
            for j in range(n - 1, -1, -1):
                rest, tup[j] = divmod(rest, size)
            g = tup[:]
            _act(g, ops, mul, inv)
            fixed = g == tup
            hits += fixed
            if verdicts is not None:
                verdicts[code] = 2 - fixed
    estimate = Fraction(hits * total, samples)
    # binomial error at p = (hits+1)/(samples+2), which stays nonzero when no
    # sample or every sample hits, rounded up to a multiple of 1/D
    D = _ERROR_UNIT
    var = Fraction(D * D * total * total * (hits + 1) * (samples + 1 - hits),
                   (samples + 2) ** 2 * samples)
    c = -(-var.numerator // var.denominator)
    r = math.isqrt(c)
    return estimate, Fraction(r + (r * r < c), D)


# ---------------------------------------------------------------------------
# Wirtinger oracle

@lru_cache(maxsize=1)
def _closure_diagram(b: BraidWord):
    """Arcs and crossing relations of the standard closure diagram.

    Returns (arc count, arc id per initial strand, relations), a relation
    being (out, over, inn, positive): the under-strand enters as ``inn`` and
    leaves as ``out``, conjugated by ``over``.  The last braid's diagram is
    kept, so pricing a Wirtinger count and running it build it once.
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
    rel = tuple((arcs[o], arcs[v], arcs[i], pos) for o, v, i, pos in relations)
    strand_arcs = tuple(arcs[p] for p in range(n))
    return len(roots), strand_arcs, rel


def wirtinger_hom_count(b: BraidWord, G: FiniteGroup,
                        budget: int = _DEFAULT_BUDGET) -> int:
    """Independent oracle: count G-labellings of the closure diagram's arcs
    satisfying every crossing relation."""
    _require_hom_budget(b, G.size, budget, wirtinger=True)
    n_arcs, _, relations = _closure_diagram(b)
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

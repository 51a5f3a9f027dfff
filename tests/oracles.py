"""Independent oracles that only the tests use.

``TLDiagram`` and ``tl_compose`` check the partner-tuple route of
``qll.tl_jones`` (``_matchings``, ``_compose_right_table``) by validating
every diagram and walking every composite in full; ``smith_normal_form``
checks the Bareiss ranks and determinants of ``qll.algebra`` and ``qll.burau``
by unimodular reduction over Z; ``enumerated_order`` checks the point-orbit
orders of ``qll.image`` by listing every projective element;
``hurwitz_move`` checks the column kernel of ``qll.homcount`` one tuple and
one letter at a time.  None of them shares code with the route it checks: the only name taken from ``qll`` is
the exception type, so that the tests can expect one ``UsageError`` from
either side, and ``enumerated_order`` multiplies the matrices it is given
by their own ``mul`` and keys them by their own ``canonical_key``, which no
point-orbit route calls.

Boundary labels of a diagram on n strands: top points are 0..n-1 left to
right, bottom points are n..2n-1 left to right.  Planarity is checked in the
circular order top-left around to bottom-left (top 0..n-1, then bottom
2n-1..n), where a non-crossing matching is exactly a balanced bracket
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from qll.algebra import UsageError


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
        for lab in [*range(self.n), *range(m - 1, self.n - 1, -1)]:
            if stack and stack[-1] == p[lab]:
                stack.pop()
            else:
                stack.append(lab)
        if stack:
            raise UsageError("matching has crossing chords")


def identity_diagram(n: int) -> TLDiagram:
    return TLDiagram(n, tuple(range(n, 2 * n)) + tuple(range(n)))


def e_diagram(n: int, i: int) -> TLDiagram:
    """The cup-cap generator e_i (1-based, 1 <= i < n)."""
    if not 1 <= i < n:
        raise UsageError("generator index %d out of range for n=%d" % (i, n))
    p = list(identity_diagram(n).partner)
    a, b = i - 1, i
    p[a], p[b] = b, a
    p[n + a], p[n + b] = n + b, n + a
    return TLDiagram(n, tuple(p))


def tl_compose(d1: TLDiagram, d2: TLDiagram) -> tuple[TLDiagram, int]:
    """Stack d1 over d2 (d1's bottom glued to d2's top); return the result
    and the number of closed loops removed."""
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


def smith_normal_form(mat) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
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


def enumerated_order(gens, bound: int = 10 ** 6):
    """Projective order of the group the matrices `gens` generate, or None
    once `bound` distinct elements are exceeded.  A finite multiplicative
    closure of invertible matrices already contains every inverse, so
    multiplying by the generators alone is enough.  Elements are counted up
    to the scalars `canonical_key` identifies: nonzero residues over F_p,
    and powers of zeta_N on words in Temperley-Lieb letters over
    Q(zeta_N)."""
    if not gens:
        return 1
    ident = gens[0].identity_like()
    seen = {ident.canonical_key()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                w = m.mul(g)
                k = w.canonical_key()
                if k not in seen:
                    if len(seen) >= bound:
                        return None
                    seen.add(k)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def hurwitz_move(word, x, mul, inv) -> tuple[int, ...]:
    """The Hurwitz action of the braid letters `word` on the labelling x,
    one tuple and one letter at a time, given a group's multiplication table
    and inverses: a positive letter i sends (g_i, g_{i+1}) to
    (g_i g_{i+1} g_i^-1, g_i), a negative one (g_i, g_{i+1}) to
    (g_{i+1}, g_{i+1}^-1 g_i g_{i+1})."""
    g = list(x)
    for letter in word:
        i = abs(letter) - 1
        a, c = g[i], g[i + 1]
        if letter > 0:
            g[i], g[i + 1] = mul[mul[a][c]][inv[a]], a
        else:
            g[i], g[i + 1] = c, mul[mul[inv[c]][a]][c]
    return tuple(g)

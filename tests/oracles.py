"""Independent oracles that only the tests use.

``TLDiagram`` and ``tl_compose`` check the partner-tuple route of
``qll.tl_jones`` (``_matchings``, ``_compose_right_table``) by validating
every diagram and walking every composite in full; ``smith_normal_form``
checks the Bareiss ranks and determinants of ``qll.algebra`` and ``qll.burau``
by unimodular reduction over Z; ``enumerated_order`` checks the point-orbit
orders of ``qll.image`` by listing every projective element;
``perm_closure_order`` checks the Schreier-Sims order of ``qll.image`` by
listing every permutation; ``hurwitz_move`` checks the column kernel of
``qll.homcount`` one tuple and one letter at a time; ``residue_key`` checks
the F_p word keys of ``qll.image`` by reducing each exact entry.  None of
them shares code with the route it checks: the only name taken from ``qll``
is the exception type, so that the tests can expect one ``UsageError`` from
either side.  ``enumerated_order`` multiplies matrices over F_p by
``fp_product`` and keys every element by ``canonical_key``, both defined
here; no point-orbit route calls either.
Over Q(zeta_N) it multiplies by the matrices' own ``mul``, the product the
word search and the braid checks of ``qll.image`` also use.

Boundary labels of a diagram on n strands: top points are 0..n-1 left to
right, bottom points are n..2n-1 left to right.  Planarity is checked in the
circular order top-left around to bottom-left (top 0..n-1, then bottom
2n-1..n), where a non-crossing matching is exactly a balanced bracket
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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


def fp_product(p: int, a, b) -> tuple[tuple[int, ...], ...]:
    """The product of the square matrices a and b over F_p, as rows of
    residues in 0..p-1: each entry the dot product of a row of a with a
    column of b."""
    if len(a) != len(b):
        raise UsageError("matrix shapes differ")
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p
                       for col in zip(*b)) for row in a)


def _fp_key(p: int, rows):
    """Every entry times the inverse of the first nonzero entry, which
    identifies the matrices over F_p that differ by a nonzero scalar."""
    first = next((x for row in rows for x in row if x), None)
    if first is None:
        return rows
    inv = pow(first, -1, p)
    return tuple(tuple(x * inv % p for x in row) for row in rows)


def canonical_key(M):
    """The projective key of a matrix of ``qll.image``, read from its
    fields alone.

    Over F_p (``p`` and ``rows``): the rows scaled to first nonzero entry 1,
    so two matrices share a key exactly when they differ by a nonzero
    scalar.

    Over Q(zeta_N) (``order``, ``den`` and ``rows``, M = X/den in lowest
    terms): ``den`` with every entry of X times conj(f), f the first nonzero
    entry of X.  Two matrices of words in Temperley-Lieb letters share a key
    exactly when one is a root of unity times the other:
    - a root of unity u has u conj(u) = 1, so X_ij u conj(u f) =
      X_ij conj(f) and uM has the key of M;
    - equal keys put the first nonzero entries f of X and f' of X' at the
      same place with f conj(f) = f' conj(f'), so M' = lam M with
      lam = conj(f/f') and lam conj(lam) = 1;
    - each letter's eigenvalues are A and -A^-3 (``qll.image`` checks this
      when it builds a letter's inverse), so the determinants of M, M' and
      hence lam^dim are roots of unity, and lam, a root of unity in
      Q(zeta_N), N = 4l, is a power of zeta_N.
    So on such words the key classes are the cosets of <zeta_N>, the
    scalars a finite projective image is taken modulo."""
    if hasattr(M, "p"):
        return ("fp", M.p, _fp_key(M.p, M.rows))
    first = next((e for row in M.rows for e in row if not e.is_zero()), None)
    bar = first.conjugate() if first is not None else None
    return ("cyc", M.order, M.den,
            tuple(tuple((e if bar is None else e * bar).coeffs for e in row)
                  for row in M.rows))


def residue_key(M, powers, p: int):
    """(key, f) for an exact matrix M = X/den of ``qll.image``: every entry
    of X at the degree-one prime where zeta_N is ``powers[1]``, each the
    sum of its coefficients times ``powers`` mod p, row by row, scaled so
    that the first nonzero residue is 1, and that first nonzero residue f.
    ``qll.image`` never reduces an exact word matrix: its word search keys
    words by F_p products of letter residues, which must give these keys."""
    res = [sum(c * z for c, z in zip(e.coeffs, powers)) % p
           for row in M.rows for e in row]
    f = next(x for x in res if x)
    s = pow(f, -1, p)
    return tuple(x * s % p for x in res), f


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
    if hasattr(gens[0], "p"):  # over F_p: rows, multiplied here
        p, dim = gens[0].p, gens[0].dim
        gens = [g.rows for g in gens]
        ident = tuple(tuple(int(r == c) for c in range(dim)) for r in range(dim))
        mul, key = partial(fp_product, p), partial(_fp_key, p)
    else:
        ident, key = gens[0].identity_like(), canonical_key
        mul = type(ident).mul  # the matrices' own product
    seen = {key(ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                w = mul(m, g)
                k = key(w)
                if k not in seen:
                    if len(seen) >= bound:
                        return None
                    seen.add(k)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def perm_closure_order(perms, npoints: int) -> int:
    """Order of the group the permutations `perms` of 0 .. npoints - 1
    (tuples of images) generate, by breadth-first closure from the identity
    under right multiplication by each generator.  A finite closure under
    products already contains every inverse."""
    ident = tuple(range(npoints))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in perms:
                h = tuple(s[g[x]] for x in range(npoints))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
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

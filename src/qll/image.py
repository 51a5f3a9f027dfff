"""Classifying braid-group images in exact matrix representations.

Two families are supported.  For the diagram algebra at a root of unity the
braid generators act on the Jones-Wenzl path representation (Aharonov, Jones
and Landau 2006): walks on the vertices 0..l-2 of the A_{l-1} graph, which
carry every irreducible of the semisimple quotient exactly once.  The
quotient itself, the left-regular module modulo the radical of the
closure-trace form, repeats each irreducible once per dimension; that
changes neither the generated group nor its projective order.  (On the full
diagram algebra the action contains unipotent parts at small l and every
verdict would be "infinite", so the semisimple part is the one worth
classifying.)  For the reduced Burau family the generators are evaluated at
an invertible residue mod p.

Verdicts are exact certificates in both directions.  Each diagram-algebra
spec runs one, chosen by Jones (1986) and Freedman-Larsen-Wang (2002): on
n >= 3 strands the image is finite iff l in {3, 4, 6} or (l, n) = (10, 3),
and on n <= 2 it is cyclic; the other certificate could decide nothing
(`classify_image`).  Finiteness and the order come from reduction mod p
wherever Coxeter (1957) proves the image finite: each sigma_i^k is exactly a
scalar, k the order of -A^-4, and 1/n + 1/k > 1/2, which holds on every
n <= 2 and at (4, 3), (6, 3..5) and (10, 3).  The generators are reduced at
a degree-one prime p = 1 mod 4l, which is injective on the finite group and
keeps its scalars apart, and the order is that of a permutation group on a
faithful list of projective points over F_p (`_order_mod_p`).  Elsewhere
(l = 3 on n >= 3 strands, l = 4 on n >= 4, and (6, 6)) the same point
orbits run over Z[zeta_{4l}] itself, a point being a vector up to the
scalars lam with lam conj(lam) a positive rational, and a finite point list
is the proof of finiteness (`group_closure`).  Mod-p Burau orders come
from the same orbits over F_p: every route walks them with one routine
(`_point_orbit_order`), and none enumerates the elements of the group.
Infiniteness is a word whose matrix violates the Galois-trace bound
satisfied by every matrix of finite projective order (all eigenvalue
magnitudes 1 at every complex embedding, so every conjugate of tr(M^m) has
magnitude at most the dimension).  The word search never certifies a word
in pairwise commuting letters, nor one in two adjacent letters whose image
in SL(2, Z) = B_3 / <Delta^4> has finite order: a power of such a word is
central in the braid group of its letters, its eigenvalues are roots of
unity, and the bound cannot break on it.  The search starts from the
letters and drops a word whose matrix M = X/den is a power of zeta_N
(N = 4l) times that of an earlier word.  It keys each word by X reduced at
the degree-one prime P above the first admissible p = 1 mod N, the prime
of `_order_mod_p`, scaled to first nonzero residue 1, and drops a word only
after an exact check on a key collision.  The key is exact: p divides no
denominator, and det X is den^dim times a root of unity, so X mod P != 0
and words that differ by a power of zeta_N share a key
(`infinite_order_witness`).  Every permutation action goes through one
deterministic Schreier-Sims routine (`_perm_group_order`).  Each letter
sigma = A + A^-1 E obeys (sigma - A)(sigma + A^-3) = 0, so its inverse is a
polynomial in it and its determinant a root of unity: no matrix is
inverted or eliminated.  Nor is any field element: the letters' entries
[p_i + 1]/[k + 1] take each 1/[k + 1] in closed form, a sum of powers of A
over the order r of q^(2k+2) (`_qint_inverse`), and no Galois norm is
formed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd, lcm, prod

from .algebra import CyclotomicNumber, UsageError, _is_prime, _prime_factors, euler_phi
from .braid import BraidWord
from .burau import burau_mod_p

_DEFAULT_BOUND = 10 ** 6
_WITNESS_LEN = 6
_TRACE_POWERS = 6
_TRACE_DOUBLINGS = 6


# ---------------------------------------------------------------------------
# exact matrices

class CycMatrix:
    """Square matrix over Q(zeta_N): integer-coefficient entries over one
    positive denominator, in lowest terms."""

    __slots__ = ("order", "den", "rows")

    def __init__(self, order: int, rows, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        entries = [[e.embed(order) for e in row] for row in rows]
        dim = len(entries)
        if any(len(row) != dim for row in entries):
            raise UsageError("matrix must be square")
        if den < 0:
            den = -den
            entries = [[-e for e in row] for row in entries]
        g = den
        for row in entries:
            for e in row:
                g = gcd(g, e.content())
        if g > 1:
            den //= g
            entries = [[CyclotomicNumber(order, [c // g for c in e.coeffs])
                        for e in row] for row in entries]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", tuple(tuple(row) for row in entries))

    def __setattr__(self, *a):
        raise AttributeError("CycMatrix is immutable")

    @staticmethod
    def identity(order: int, dim: int) -> "CycMatrix":
        one = CyclotomicNumber.one(order)
        zero = CyclotomicNumber.zero(order)
        return CycMatrix(order, [[one if r == c else zero for c in range(dim)]
                                 for r in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def identity_like(self) -> "CycMatrix":
        return CycMatrix.identity(self.order, self.dim)

    def mul(self, other: "CycMatrix") -> "CycMatrix":
        """The product, with `other` read as its columns of nonzero entries:
        a letter's column holds at most two."""
        if self.order != other.order or self.dim != other.dim:
            raise UsageError("matrix shapes/orders differ")
        cols = [[(k, row[c]) for k, row in enumerate(other.rows)
                 if not row[c].is_zero()] for c in range(other.dim)]
        zero = CyclotomicNumber.zero(self.order)
        rows = [[_dot(arow, col, zero) for col in cols] for arow in self.rows]
        return CycMatrix(self.order, rows, self.den * other.den)

    def trace(self) -> CyclotomicNumber:
        """The trace of the numerator X; the trace of M is this over `den`."""
        acc = CyclotomicNumber.zero(self.order)
        for i in range(self.dim):
            acc = acc + self.rows[i][i]
        return acc

    def key(self):
        return ("cyc", self.order, self.den,
                tuple(tuple(e.coeffs for e in row) for row in self.rows))

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "CycMatrix(order=%d, dim=%d, den=%d)" % (self.order, self.dim, self.den)


def _dot(arow, col, zero):
    """The row `arow` times a column given as its (row, entry) pairs."""
    acc = zero
    for k, b in col:
        a = arow[k]
        if not a.is_zero():
            acc = a * b if acc is zero else acc + a * b
    return acc


@dataclass(frozen=True)
class FpMatrix:
    """Square matrix over F_p, its rows reduced into 0..p-1."""

    p: int
    rows: tuple

    def __post_init__(self):
        if not _is_prime(self.p):
            raise UsageError("p must be prime, got %d" % self.p)
        rows = tuple(tuple(x % self.p for x in row) for row in self.rows)
        if any(len(row) != len(rows) for row in rows):
            raise UsageError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# representation specs

@dataclass(frozen=True)
class RepSpec:
    """A braid representation family: diagram algebra at the root indexed by
    l ("tl"), or reduced Burau mod p at t = t0 ("burau")."""

    family: str
    strands: int
    l: int = 0
    p: int = 0
    t0: int = 0

    def __post_init__(self):
        if self.family == "tl":
            if self.l < 3:
                raise UsageError("need l >= 3")
            if self.strands < 1:
                raise UsageError("strand count must be >= 1")
            if self.strands > 6:
                raise UsageError("TL images are capped at 6 strands")
        elif self.family == "burau":
            if not _is_prime(self.p):
                raise UsageError("p must be prime, got %d" % self.p)
            if self.t0 % self.p == 0:
                raise UsageError("t0 must be a unit mod p")
            if self.strands < 2:
                raise UsageError("reduced representation needs at least 2 strands")
        else:
            raise UsageError("unknown family %r" % self.family)


@dataclass(frozen=True)
class ImageReport:
    verdict: str  # "finite-abelian" | "finite" | "infinite" | "unknown"
    order: int | None = None
    witness: tuple | None = None
    generators: int = 0
    notes: tuple = ()


@lru_cache(maxsize=None)
def _paths(n: int, l: int):
    """The Jones-Wenzl path basis: walks (0, p_1, ..., p_n) with steps of
    +-1 on the vertices 0..l-2 of the A_{l-1} graph, in lexicographic order."""
    walks = [(0,)]
    for _ in range(n):
        walks = [p + (p[-1] + s,) for p in walks for s in (-1, 1)
                 if 0 <= p[-1] + s <= l - 2]
    return tuple(walks)


def quotient_dimension(n: int, l: int) -> int:
    """Dimension of the semisimple quotient of the diagram algebra on n
    strands at level l: the sum of N_k^2 over the paths' end vertices k,
    where N_k counts the paths ending at k.

    >>> [quotient_dimension(n, 5) for n in (4, 5, 6)]
    [13, 34, 89]
    """
    ends = [p[-1] for p in _paths(n, l)]
    return sum(ends.count(k) ** 2 for k in set(ends))


def _qint_inverse(k: int, l: int) -> tuple[CyclotomicNumber, int]:
    """(c_k, r_k) with 1/[k+1] = c_k/r_k, c_k in Z[A], A = zeta_{4l},
    0 <= k <= l-2.  With q = -A^2, [k+1] = (x - 1)/((q - 1/q) q^(k+1)) for
    x = q^(2k+2) = A^(4k+4), whose order r_k = l/gcd(l, k+1) is > 1; and
    (x - 1) sum_{s<r} s x^s = r for any x of order r, so
    c_k = (q - 1/q) q^(k+1) sum_{s<r} s x^s = (-1)^(k+1) (A^(2k) - A^(2k+4))
    sum_{s<r} s x^s.

    >>> c, r = _qint_inverse(1, 3)  # [2] = d = -1 at l = 3
    >>> r, c == CyclotomicNumber.from_int(-r, 12)
    (3, True)
    """
    N, r = 4 * l, l // gcd(l, k + 1)
    sign = -1 if k % 2 == 0 else 1
    coeffs = [0] * N
    for s in range(1, r):
        e = 2 * k + 4 * (k + 1) * s
        coeffs[e % N] += sign * s
        coeffs[(e + 4) % N] -= sign * s
    return CyclotomicNumber(N, coeffs), r


def _qint(m: int, l: int) -> CyclotomicNumber:
    """The quantum integer [m] = q^(m-1) + q^(m-3) + ... + q^(1-m) at
    q = -A^2, A = zeta_{4l}: (-1)^(m-1) sum_{j<m} A^(2(m-1-2j)).

    >>> _qint(2, 5) == -CyclotomicNumber.zeta(20, 2) - CyclotomicNumber.zeta(20, -2)
    True
    """
    N = 4 * l
    coeffs = [0] * N
    for j in range(m):
        coeffs[2 * (m - 1 - 2 * j) % N] += 1 if m % 2 else -1
    return CyclotomicNumber(N, coeffs)


@lru_cache(maxsize=None)
def _tl_generators(n: int, l: int):
    """sigma_i = A + A^-1 E_i on the path basis, A = zeta_{4l}.  E_i acts
    only where p_{i-1} = p_{i+1} = k, and there the row of each path holds
    [p_i + 1]/[k + 1] in both columns p_i = k-1 and k+1.  This is the unitary
    Jones-Wenzl form conjugated by the diagonal prod_j sqrt([p_j + 1]), so no
    square root appears.  The quantum integers are taken at q = -A^2, so
    that [2] = q + 1/q = d, and each is built in closed form (`_qint`).
    Every entry is built over one denominator, the lcm of the r_k of
    `_qint_inverse`."""
    if n == 1:
        return ()
    N = 4 * l
    qint = [_qint(m, l) for m in range(l)]  # [m]
    inv = [_qint_inverse(k, l) for k in range(l - 1)]  # 1/[k+1] = c_k/r_k
    den = lcm(*(m for _, m in inv))
    scaled = [c * (den // m) for c, m in inv]  # den/[k+1]
    A = CyclotomicNumber.zeta(N) * den
    Ainv = CyclotomicNumber.zeta(N, -1)
    zero = CyclotomicNumber.zero(N)
    paths = _paths(n, l)
    index = {p: r for r, p in enumerate(paths)}
    gens = []
    for i in range(1, n):
        M = [[A if r == c else zero for c in range(len(paths))]
             for r in range(len(paths))]
        for r, p in enumerate(paths):
            k = p[i - 1]
            if p[i + 1] != k:
                continue
            w = Ainv * qint[p[i] + 1] * scaled[k]
            for b in (k - 1, k + 1):
                c = index.get(p[:i] + (b,) + p[i + 1:])
                if c is not None:
                    M[r][c] = M[r][c] + w
        gens.append(CycMatrix(N, M, den))
    return tuple(gens)


def rep_generators(spec: RepSpec):
    """The images of sigma_1 .. sigma_{n-1}, as exact matrices."""
    if spec.family == "tl":
        return _tl_generators(spec.strands, spec.l)
    return tuple(FpMatrix(spec.p, burau_mod_p(BraidWord(spec.strands, (i,)),
                                              spec.p, spec.t0))
                 for i in range(1, spec.strands))


# ---------------------------------------------------------------------------
# Schreier-Sims on permutations of points

def _perm_inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _perm_mul(a, b):
    """The permutation a, then b, as one C-level gather.  On one point or
    none the only permutation is the identity (and `itemgetter` of one index
    returns a scalar, not a tuple)."""
    return operator.itemgetter(*a)(b) if len(a) > 1 else a


def _perm_group_order(perms, npoints: int, max_stored=None, max_order=None):
    """Order of the group generated by `perms`, permutations of
    0 .. npoints - 1 as tuples of images, or None once more than
    `max_stored` permutations would be stored (transversal entries plus
    strong generators, checked before each store) or once the product of the
    basic orbit lengths so far exceeds `max_order`.

    Deterministic Schreier-Sims (Sims 1970; Seress, Permutation Group
    Algorithms, 2003) builds a base b_0, b_1, ... and strong generators S_i
    of the point stabilisers G_i of b_0 .. b_{i-1}, with a transversal of
    the orbit of b_i under S_i: each orbit point x maps to v_x, with
    v_x(x) = b_i.  Once every Schreier generator of every level sifts to the
    identity through the levels below it, the order is the product of the
    orbit lengths.  Each pair (x, s) of a level is sifted once: transversals
    only grow, so a pair that sifted to the identity still does, and a pair
    whose residue h was added to S_{i+1} .. S_j has its Schreier generator
    in <S_{i+1}>.  Those lower levels are then checked again, from j up.
    S_i only grows by appending, and each point's pairs are sifted in the
    order of S_i, so the pairs of x sifted so far are a prefix of S_i: one
    count per point, `done[i][x]`, records them exactly.  Nothing else is
    stored besides the transversals and the strong generators.

    Every S_{i+1} lies in the stabiliser of b_i in <S_i>, so at any moment
    |<S_i>| >= (orbit length at level i) * |<S_{i+1}>|, and the product of
    the orbit lengths so far is a lower bound on the order."""
    ident = tuple(range(npoints))
    stored = 0
    base, strong, trans, done = [], [], [], []

    def store():
        nonlocal stored
        stored += 1
        return max_stored is None or stored <= max_stored

    def extend_orbit(i):
        t, gs, invs = trans[i], strong[i], {}
        queue = list(t)
        for x in queue:
            for k, s in enumerate(gs):
                y = s[x]
                if y not in t:
                    if not store():
                        return False
                    if k not in invs:
                        invs[k] = _perm_inverse(s)
                    t[y] = _perm_mul(invs[k], t[x])
                    queue.append(y)
                    if max_order is not None and prod(map(len, trans)) > max_order:
                        return False
        return True

    def add_strong(h, first, last):
        """Adds h to S_first .. S_last, opening level `last` if it is new."""
        if not store():
            return False
        if last == len(base):
            if not store():
                return False
            b = next(x for x in ident if h[x] != x)
            base.append(b)
            strong.append([])
            trans.append({b: ident})
            done.append({})
        for i in range(first, last + 1):
            strong[i].append(h)
            if not extend_orbit(i):
                return False
        return True

    def sift(g, i):
        while i < len(base):
            v = trans[i].get(g[base[i]])
            if v is None:
                break
            g = _perm_mul(g, v)
            i += 1
        return g, i

    def first_residue(i):
        """Sifts the Schreier generators of level i not sifted before;
        returns the first that does not sift to the identity, as (h, j)."""
        t, gs, counts = trans[i], strong[i], done[i]
        for x in t:
            first = counts.get(x, 0)
            if first == len(gs):
                continue
            ux = _perm_inverse(t[x])
            for k in range(first, len(gs)):
                counts[x] = k + 1
                s = gs[k]
                h, j = sift(_perm_mul(_perm_mul(ux, s), t[s[x]]), i + 1)
                if j < len(base) or h != ident:
                    return h, j
        return None

    for perm in perms:
        if perm == ident or (strong and perm in strong[0]):
            continue
        if not add_strong(perm, 0, 0):
            return None
    i = len(base) - 1
    while i >= 0:
        residue = first_residue(i)
        if residue is None:
            i -= 1
            continue
        h, j = residue
        if not add_strong(h, i + 1, j):
            return None
        i = j
    return prod(len(t) for t in trans)


# ---------------------------------------------------------------------------
# infinite-order certificate

def _trace_certificate(M: CycMatrix) -> bool:
    """True only if M provably has infinite projective order.

    M is a word in letters whose eigenvalues are roots of unity (checked by
    `_inverse_letter`), so det M is a root of unity.  If M had finite
    projective order, M = scalar * U with U of finite order, and
    |det M| = 1 at every embedding forces |scalar| = 1 everywhere; then
    every Galois conjugate of tr(M^m) has magnitude <= dim.  Writing the
    trace as x / d, x the trace of the numerator and d = den, a rational
    trace of (x conj(x))^r above phi(N) * (dim*d)^(2r) therefore certifies
    some conjugate exceeds the bound — an exact integer comparison, which a
    common factor of x and d scales on both sides alike."""
    dim, N = M.dim, M.order
    phi_n = euler_phi(N)
    P = M
    for m in range(1, _TRACE_POWERS + 1):
        if m > 1:
            P = P.mul(M)
        x, d = P.trace(), P.den
        if x.is_zero():
            continue
        y = x * x.conjugate()
        base = (dim * d) ** 2
        r = 1
        for _ in range(_TRACE_DOUBLINGS + 1):
            if y.trace_to_int() > phi_n * base ** r:
                return True
            y = y * y
            r *= 2
    return False


@lru_cache(maxsize=None)
def _inverse_letter(g: CycMatrix) -> CycMatrix:
    """sigma^-1 = A^2 sigma + (A^-1 - A^3) for a letter sigma = A + A^-1 E
    with E^2 = d E, d = -A^2 - A^-2, A = zeta_N: such a sigma satisfies
    (sigma - A)(sigma + A^-3) = 0.  The product with g is checked exactly,
    and it proves that every eigenvalue of g is A or -A^-3.  Built and
    checked once per generator."""
    N = g.order
    a2 = CyclotomicNumber.zeta(N, 2)
    shift = (CyclotomicNumber.zeta(N, -1) - CyclotomicNumber.zeta(N, 3)) * g.den
    h = CycMatrix(N, [[a2 * e + shift if r == c else a2 * e
                       for c, e in enumerate(row)]
                      for r, row in enumerate(g.rows)], g.den)
    if g.mul(h) != g.identity_like():
        raise UsageError("generator is not a braid letter A + A^-1 E "
                         "at A = zeta_%d" % N)
    return h


@lru_cache(maxsize=None)
def _braided(gens) -> bool:
    """True if the matrices sigma_1, sigma_2, ... satisfy the braid
    relations exactly: sigma_i sigma_(i+1) sigma_i = sigma_(i+1) sigma_i
    sigma_(i+1), and sigma_i sigma_j = sigma_j sigma_i for |i - j| >= 2.
    Checked once per generator tuple."""
    for i, a in enumerate(gens):
        for j in range(i + 1, len(gens)):
            b = gens[j]
            if j == i + 1:
                if a.mul(b).mul(a) != b.mul(a).mul(b):
                    return False
            elif a.mul(b) != b.mul(a):
                return False
    return True


def _periodic(word) -> bool:
    """True on two kinds of braid word that have a power central in the
    braid group of their letters, so that `_trace_certificate` cannot fire
    on their matrices:
    - the letter indices pairwise commute (|i - j| >= 2 or i = j), powers
      of one letter included;
    - the letters lie in one <sigma_i, sigma_(i+1)>, and the word's image
      under sigma_i -> [[1, 1], [0, 1]], sigma_(i+1) -> [[1, 0], [-1, 1]]
      in SL(2, Z) = B_3 / <Delta^4> has |trace| < 2 or is +-I.  That image
      then has order dividing 12 (orders 1, 2, 3, 4 or 6), so the twelfth
      power of the word is a power of the central Delta^4 =
      (sigma_i sigma_(i+1))^6.
    `infinite_order_witness` proves that the certificate is False on both."""
    letters = sorted({abs(a) for a in word})
    if all(j - i >= 2 for i, j in zip(letters, letters[1:])):
        return True
    if len(letters) != 2 or letters[1] - letters[0] != 1:
        return False
    a, b, c, d = 1, 0, 0, 1  # [[a, b], [c, d]], the image so far
    for x in word:
        s = 1 if x > 0 else -1
        if abs(x) == letters[0]:  # times [[1, s], [0, 1]]
            b, d = b + s * a, d + s * c
        else:  # times [[1, 0], [-s, 1]]
            a, c = a - s * b, c - s * d
    return abs(a + d) < 2 or (b == c == 0 and a == d)


def infinite_order_witness(gens, max_len: int = _WITNESS_LEN):
    """Search words in the generators for a matrix certified to have
    infinite projective order; None if no word up to max_len certifies.
    Words run shortest first from the letters themselves, each length in
    the alphabet order sigma_1, sigma_1^-1, sigma_2, ...; a word whose
    matrix is a power of zeta_N times that of an earlier word is dropped
    and not extended, and every word of length >= 2 costs one product.

    Words are deduplicated by a residue key (`_residue_key`): the numerator
    X of M = X/den at the degree-one prime P above the first admissible
    prime p = 1 mod N (`_admissible_primes`, `_root_powers`, the prime
    `_reduce_mod_p` reduces at), scaled so its first nonzero residue is 1.
    A word is dropped only when an exact check on a key collision finds
    X = zeta_N^t X0 (`_zeta_multiple`).  The key is exact:
    - p divides no denominator;
    - det X is den^dim times a root of unity, so X mod P != 0;
    - so words that differ by a power of zeta_N always share a key;
    - so the dedup classes are exactly the cosets of <zeta_N>, and the
      words searched and the witness found are those of a search that keys
      each matrix by its coset, as `canonical_key` in tests/oracles.py
      does.

    Each generator must be a Temperley-Lieb letter A + A^-1 E at A = zeta_N,
    N its order, and together they must satisfy the braid relations, as
    `rep_generators` builds them (`_inverse_letter` and `_braided` check
    it); anything else is a UsageError.

    Words that provably cannot certify are keyed and extended but never
    certified: powers of commuting letters, and words in two adjacent
    letters that have a central power in their B_3 (`_periodic`).  The
    certificate is False on such a word W.  Each letter is annihilated by
    (x - A)(x + A^-3) (`_inverse_letter`), so it has root-of-unity
    eigenvalues on every subquotient of the path module.  A power of one
    letter has those eigenvalues' powers.  If W's letters pairwise commute,
    they are simultaneously triangularisable and W's eigenvalues are
    products of theirs.  Otherwise some power W^k is a power of
    Delta^2 = (sigma_i sigma_(i+1))^3, central in the B_3 its two letters
    generate.  On each composition factor of the module under that B_3, of
    dimension r, Delta^2 acts as a scalar c (Schur), and c^r is the factor's
    determinant of (sigma_i sigma_(i+1))^3, a root of unity; so W^k is
    block-triangular with root-of-unity scalars on the diagonal blocks.
    Either way every eigenvalue of W is a root of unity, at every embedding,
    so every conjugate of tr(W^m) has magnitude at most dim.  No
    semisimplicity is needed."""
    if not gens:
        return None
    gens = tuple(gens)
    by_letter = {}
    for i, g in enumerate(gens, start=1):
        if not isinstance(g, CycMatrix):
            raise UsageError("the certificate needs cyclotomic entries")
        by_letter[i] = g
        by_letter[-i] = _inverse_letter(g)
    if not _braided(gens):
        raise UsageError("generators do not satisfy the braid relations")
    alphabet = [s * i for i in range(1, len(gens) + 1) for s in (1, -1)]
    p = next(_admissible_primes(gens))
    powers = _root_powers(gens[0].order, p)
    seen = {}  # residue key -> [(M, first residue)] of the words kept
    frontier = [((), None)]
    for _ in range(max_len):
        nxt = []
        for word, M in frontier:
            for a in alphabet:
                if word and a == -word[-1]:
                    continue
                w2 = word + (a,)
                M2 = by_letter[a] if M is None else M.mul(by_letter[a])
                key, f = _residue_key(M2, powers, p)
                kept = seen.setdefault(key, [])
                if any(_zeta_multiple(M0, f0, M2, f, powers, p)
                       for M0, f0 in kept):
                    continue  # same subtree of products, found earlier/shorter
                kept.append((M2, f))
                if not _periodic(w2) and _trace_certificate(M2):
                    return w2
                nxt.append((w2, M2))
        frontier = nxt
    return None


def _residue_key(M: CycMatrix, powers, p: int):
    """(key, f) for M = X/den: the entries of X at the prime of
    `_root_powers`, row by row, scaled so that the first nonzero one is 1,
    and that first nonzero residue f.  For a word in Temperley-Lieb letters
    X mod P is nonzero: det X = den^dim det M, p divides no den, and det M
    is a root of unity."""
    res = [_residue(e, powers, p) for row in M.rows for e in row]
    f = next(r for r in res if r)
    s = pow(f, -1, p)
    return tuple(r * s % p for r in res), f


def _zeta_multiple(M0: CycMatrix, f0: int, M: CycMatrix, f: int,
                   powers, p: int) -> bool:
    """True if M = zeta_N^t M0 for some t, given that M0 and M share a
    `_residue_key` with first residues f0 and f.  Both are in lowest terms
    and zeta_N^t is a unit, so then den = den0 and z^t = f/f0, which names
    t in the table `powers` of z^t; the check is X = zeta_N^t X0 entry by
    entry, each zeta_N^t x0 the coefficients of x0 shifted up t places
    mod Phi_N."""
    r = f * pow(f0, -1, p) % p
    if M.den != M0.den or r not in powers:
        return False
    N, pad = M.order, [0] * powers.index(r)
    return all(CyclotomicNumber(N, pad + list(x0.coeffs)).coeffs == x.coeffs
               for row0, row in zip(M0.rows, M.rows)
               for x0, x in zip(row0, row))


# ---------------------------------------------------------------------------
# finite images: orders from point orbits

@lru_cache(maxsize=None)
def _coxeter_finite(gens) -> bool:
    """True if Coxeter (1957) proves the projective image of the
    Temperley-Lieb letters `gens` finite: they satisfy the braid relations
    (`_braided`), each is a letter A + A^-1 E at A = zeta_N
    (`_inverse_letter`), k > 1 is the order of -A^-4 (the ratio of a
    letter's two eigenvalues), and 2(n + k) > n k on n = len(gens) + 1
    strands.  The projective image is then a quotient of
    B_n / <<sigma_1^k>>, finite exactly when 1/n + 1/k > 1/2.

    Each sigma_i^k is then exactly the scalar A^k, with no power formed:
    `_inverse_letter` proves (sigma - A)(sigma + A^-3) = 0 exactly, and for
    k > 1 the roots A and -A^-3 differ (their ratio is -A^-4 != 1), so the
    minimal polynomial of sigma has distinct roots and sigma is
    diagonalisable with eigenvalues in {A, -A^-3}.  Both roots have k-th
    power A^k, since (-A^-3)^k = A^k (-A^-4)^k.  At k = 1 (N = 8) the roots
    coincide and sigma need not be diagonalisable, so no verdict is given.
    Checked once per generator tuple."""
    N, n = gens[0].order, len(gens) + 1
    k = N // gcd(N, (N // 2 - 4) % N)  # -A^-4 = zeta_N^(N/2 - 4)
    if k == 1 or 2 * (n + k) <= n * k or not _braided(gens):
        return False
    for g in gens:
        _inverse_letter(g)
    return True


def _admissible_primes(gens):
    """The primes p = 1 mod N, N = gens[0].order, that divide no
    denominator of `gens`, smallest first."""
    N = gens[0].order
    den = lcm(*(g.den for g in gens))
    p = 1
    while True:
        p += N
        if den % p and _is_prime(p):
            yield p


@lru_cache(maxsize=None)
def _root_powers(N: int, p: int):
    """z^0 .. z^(N - 1) for z the first a^((p - 1)/N), a = 2, 3, ..., of
    order N in F_p (p = 1 mod N): zeta_N -> z names the degree-one prime
    P = (p, zeta_N - z) above p at which `_reduce_mod_p` and
    `infinite_order_witness` reduce.  z has order N when z^(N/q) != 1 for
    each prime q of N (`_prime_factors`).  Built once per order and
    prime."""
    z = next(z for z in (pow(a, (p - 1) // N, p) for a in range(2, p))
             if all(pow(z, N // q, p) != 1 for q in _prime_factors(N)))
    return tuple(pow(z, j, p) for j in range(N))


def _residue(x: CyclotomicNumber, powers, p: int) -> int:
    """The cyclotomic integer x mod the prime of `_root_powers`."""
    return sum(map(operator.mul, x.coeffs, powers)) % p


@lru_cache(maxsize=None)
def _reduce_mod_p(gens, p: int):
    """`gens` at the degree-one prime above p (`_root_powers`), each matrix
    as its `_sparse_columns`.  Built once per tuple and prime."""
    powers = _root_powers(gens[0].order, p)
    mats = []
    for g in gens:
        dinv = pow(g.den, -1, p)
        rows = [[_residue(e, powers, p) * dinv % p for e in row]
                for row in g.rows]
        mats.append(_sparse_columns(rows))
    return tuple(mats)


def _sparse_columns(rows):
    """The square matrix `rows` as its columns, each the (row, entry) pairs
    with a nonzero entry: the form `_point_orbit_order` takes."""
    return tuple(tuple((r, row[c]) for r, row in enumerate(rows)
                       if row[c] != 0) for c in range(len(rows)))


@lru_cache(maxsize=None)
def _columns(gens):
    """`_sparse_columns` of each matrix of `gens`, of its numerator X over a
    denominator.  Built once per generator tuple."""
    return tuple(_sparse_columns(g.rows) for g in gens)


def _fp_normal(p: int, w):
    """The normal form of `_point_orbit_order` over F_p, p bound by
    `partial`: w scaled to first nonzero coordinate 1, as key and point."""
    w = [c % p for c in w]
    s = pow(next(filter(None, w)), -1, p)
    u = tuple([c * s % p for c in w])
    return u, u


def _point_orbit_order(mats, normal, max_order=None, max_stored=None):
    """(order, abelian) for the group generated by `mats` acting on classes
    of points, or (None, None) once the order provably exceeds `max_order`
    or Schreier-Sims would store more than `max_stored` permutations
    (`_perm_group_order`).

    Each matrix is given as its columns, each column the (row, entry) pairs
    with a nonzero entry.  `normal(w)` maps a vector w, a list of entries, to
    (key, point): the key names the class of w, and the point is the vector
    stored for it.  The vectors e_S have the integer entries 0 and 1, and
    an image vector sums products of entries into integer zeros.  A
    coordinate is in a point's support when its entry is != 0.

    The point list is the orbits of e_1 .. e_r, then the orbits of
    e_a + e_b until the supports of the points connect every coordinate.
    The permutation group the matrices induce on it has the order returned
    (`_perm_group_order`), and it is abelian exactly when the permutations
    commute.  An orbit's length divides that order, and the product of the
    basic orbit lengths at any stage is a lower bound on it, so the work
    stops once one orbit exceeds `max_order` or the product does.  The
    callers prove that the kernel of the action is the scalars they
    identify."""
    r = len(mats[0])
    points, index = [], {}
    perms = [[] for _ in mats]  # perms[g][x]: the image of point x under g
    comp = list(range(r))  # union-find over the coordinates

    def find(a):
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    def add_orbit(key, v):
        start = len(points)
        index[key] = start
        points.append(v)
        x = start
        while x < len(points):
            v = points[x]
            x += 1
            support = [j for j, c in enumerate(v) if c != 0]
            for j in support[1:]:
                comp[find(j)] = find(support[0])
            for g, cols in enumerate(mats):
                w = [0] * r
                for j in support:
                    c = v[j]
                    for i, m in cols[j]:
                        w[i] += c * m
                key, u = normal(w)
                t = index.get(key)
                if t is None:
                    t = index[key] = len(points)
                    points.append(u)
                    if (max_order is not None
                            and len(points) - start > max_order):
                        return False
                perms[g].append(t)
        return True

    for a in range(r):
        key, e = normal([int(j == a) for j in range(r)])
        if key not in index and not add_orbit(key, e):
            return None, None
    for a in range(r):
        for b in range(a + 1, r):
            if find(a) != find(b):
                if not add_orbit(*normal([int(j in (a, b)) for j in range(r)])):
                    return None, None
    perms = [tuple(q) for q in perms]
    order = _perm_group_order(perms, len(points), max_stored=max_stored,
                              max_order=max_order)
    if order is None:
        return None, None
    abelian = all(_perm_mul(a, b) == _perm_mul(b, a)
                  for i, a in enumerate(perms) for b in perms[:i])
    return order, abelian


def _order_mod_p(gens, bound: int, p: int):
    """(order, abelian) for the projective image of the Temperley-Lieb
    letters `gens`, from their reduction at a degree-one prime above p (an
    admissible prime, `_admissible_primes`); (None, None) once the order
    provably exceeds `bound`.  Only for generators `_coxeter_finite` accepts.

    The order is exact.  Let G be the group the letters generate, in
    GL_r(O[1/den]), O = Z[zeta_N], N = 4l.
    - Its projective image is a quotient of B_n / <<sigma_1^k>>, finite by
      Coxeter (`_coxeter_finite`).  Each letter's eigenvalues are A and
      -A^-3 (`_inverse_letter`), so determinants are roots of unity.  A
      scalar lam I in G then has lam^r a root of unity, so the scalars of G
      lie in the roots of unity of Q(zeta_N), which N even makes the powers
      of zeta_N; G is finite.
    - The reduction G -> GL_r(F_p) at the prime P = (p, zeta_N - z) is
      injective on G: p = 1 mod N is odd, unramified and prime to every
      denominator, and the kernel of reduction at an unramified prime above
      an odd p is torsion-free (Minkowski; Serre).
    - Suppose g in G reduces to a scalar c.  Write its order as p^a m' with
      p not dividing m'.  The reduction of g^m' is the scalar c^m', of order
      dividing both p^a and p - 1, so it is 1, and g^m' = 1 by the step
      above: a = 0.  The eigenvalues of g are then roots of unity of order
      prime to p, all congruent to c modulo a prime above P, and such roots
      stay distinct modulo it, so they are all one lam.  g has finite order,
      so it is diagonalisable and equals lam I, a power of zeta_N times I.
      So the kernel is the coset <zeta_N> the word search drops words by,
      and `enumerated_order` in tests/oracles.py counts elements modulo.
    So the image of G in PGL_r(F_p) has the order of its projective image
    in characteristic 0, the order `group_closure` finds.

    That image acts on projective points over F_p^r, first nonzero
    coordinate 1 (`_point_orbit_order`).  The action is faithful: a matrix
    fixing every e_i is diagonal, and fixing a point with support S makes
    its diagonal constant on S."""
    return _point_orbit_order(_reduce_mod_p(gens, p), partial(_fp_normal, p),
                              max_order=bound)


def _primitive(vec):
    """The cyclotomic integers `vec` divided by the positive gcd of all
    their coefficients."""
    g = 0
    for x in vec:
        g = gcd(g, x.content())
    if g == 1:
        return vec
    return [CyclotomicNumber(x.order, [c // g for c in x.coeffs]) for x in vec]


def _point_key(vec):
    """The primitive part of v conj(f), f the first nonzero entry of the
    vector v over Z[zeta_N].  Two vectors have one key exactly when
    v' = lam v with lam conj(lam) a positive rational:
    - then v' conj(f') = (lam conj(lam)) v conj(f), a positive rational
      multiple, with the same primitive part;
    - equal keys give v conj(f) = c v' conj(f') for some rational c > 0, so
      v' = lam v with lam = conj(f) / (c conj(f')), and the first entries
      give f conj(f) = c f' conj(f'), so lam conj(lam) = 1/c."""
    bar = next(x for x in vec if not x.is_zero()).conjugate()
    return tuple(x.coeffs for x in
                 _primitive([x if x.is_zero() else x * bar for x in vec]))


def group_closure(gens, bound: int = _DEFAULT_BOUND):
    """(order, abelian) for the projective image of the Temperley-Lieb
    letters `gens`, from their action on points over Z[zeta_N], N = 4l;
    (None, None) once the order provably exceeds `bound`.  No finiteness
    theorem is assumed: a finite point list is itself the proof.

    A point is a vector over Z[zeta_N]; v and lam v are one class whenever
    lam conj(lam) is a positive rational, and `_point_key` names the class.
    The key v conj(f) lies in another class in general (conj(f) times its
    conjugate is f conj(f), which need not be rational), so each class
    stores the primitive part of the first image vector X v found for it,
    X the numerator of a letter: `den` is a rational scalar and is dropped.
    A matrix M keeps classes together (M lam v = lam M v), so the group G
    the letters generate permutes the classes of a list the letters map
    into itself (`_point_orbit_order`).

    The order is exact: an element fixing every class is a scalar.  It maps
    each e_i to a multiple of itself, so it is diagonal, and fixing a point
    with support S makes its diagonal constant on S; the supports connect,
    so it is lam I.  Each letter's eigenvalues are A and -A^-3
    (`_inverse_letter` checks it), so determinants are roots of unity,
    lam^r is one, and lam is a root of unity in Q(zeta_N), which N even
    makes a power of zeta_N, with lam conj(lam) = 1: the cosets of
    <zeta_N> that `enumerated_order` in tests/oracles.py counts.  So the
    kernel of the action is exactly the scalars of G, and the permutation
    group has the order of G modulo the powers of zeta_N."""
    for g in gens:
        _inverse_letter(g)
    N = gens[0].order

    def normal(w):
        vec = [x if isinstance(x, CyclotomicNumber) else
               CyclotomicNumber(N, (x,)) for x in w]
        point = tuple(_primitive(vec))
        return _point_key(point), point

    return _point_orbit_order(_columns(gens), normal, max_order=bound)


# ---------------------------------------------------------------------------
# classification

def classify_image(spec: RepSpec, bound: int = _DEFAULT_BOUND) -> ImageReport:
    """Classify the projective closure of the braid image as finite abelian,
    finite (with exact order), infinite (with witness word), or unknown.

    A Temperley-Lieb spec runs exactly one certificate, chosen by Jones's
    classification.  Where the image is finite (n <= 2, l in {3, 4, 6}, or
    (l, n) = (10, 3)) it is the order from point orbits: by reduction mod p
    wherever Coxeter's theorem applies (`_coxeter_finite`: every n <= 2,
    (4, 3), (6, 3..5) and (10, 3)), over Z[zeta_4l] elsewhere
    (`group_closure`).  Either way the report is `unknown` exactly when the
    order exceeds `bound` elements, with a note naming the closure.
    Everywhere else it is the word search (lengths 1 to `_WITNESS_LEN`, not
    limited by `bound`).  The other could decide nothing there: the
    certificate is sound, so a finite image has no witness, and the order
    of an infinite image is never reached under any bound.  If the one that
    runs decides nothing, the report is `unknown`, with a note naming what
    ran.  Verdicts still rest only on the certificates: a wrong table entry
    could turn a verdict on its spec into `unknown`, never into a wrong
    verdict.

    A mod-p Burau order is that of PGL_d(F_p) acting on the orbits of the
    points e_i and e_a + e_b over F_p (`_point_orbit_order`), and it is
    exact: an element fixing the class of every e_i is diagonal, and one
    also fixing points whose supports connect all coordinates is a scalar.
    `bound` caps the (p^d - 1)/(p - 1) projective points times the stored
    permutations, and the points alone exceeding it build nothing."""
    if spec.family == "tl":
        notes = ["path representation of dimension %d; semisimple quotient "
                 "dimension %d" % (len(_paths(spec.strands, spec.l)),
                                   quotient_dimension(spec.strands, spec.l))]
        exceeded = "closure exceeded bound %d without a certificate" % bound
    else:
        d = spec.strands - 1
        notes = ["reduced representation of dimension %d over F_%d at t=%d"
                 % (d, spec.p, spec.t0)]
        exceeded = ("projective points x stored permutations exceeded bound %d"
                    % bound)
        k = min(d, bound.bit_length() + 1)  # points >= 2^(d-1) > bound past k
        points = (spec.p ** k - 1) // (spec.p - 1)  # all of them once k = d
        if points > bound:  # build nothing
            return ImageReport("unknown", generators=d,
                               notes=tuple(notes + [exceeded]))
    gens = rep_generators(spec)
    if not gens:
        return ImageReport("finite-abelian", order=1, generators=0,
                           notes=tuple(notes + ["no generators: trivial image"]))

    n, l = spec.strands, spec.l
    if spec.family == "burau":
        order, abelian = _point_orbit_order(
            _columns(gens), partial(_fp_normal, spec.p),
            max_stored=bound // points)
    elif n <= 2 or l in (3, 4, 6) or (l, n) == (10, 3):  # finite image
        if _coxeter_finite(gens):
            order, abelian = _order_mod_p(gens, bound,
                                          next(_admissible_primes(gens)))
        else:
            order, abelian = group_closure(gens, bound)
    else:
        witness = infinite_order_witness(gens)
        if witness is None:
            notes.append("no word of up to %d letters certified infinite "
                         "order" % _WITNESS_LEN)
            return ImageReport("unknown", generators=len(gens),
                               notes=tuple(notes))
        notes.append("trace bound violated at a power of the witness")
        return ImageReport("infinite", witness=witness, generators=len(gens),
                           notes=tuple(notes))
    if order is None:
        notes.append(exceeded)
        return ImageReport("unknown", generators=len(gens), notes=tuple(notes))

    verdict = "finite-abelian" if abelian else "finite"
    notes.append("projective order %d" % order)
    return ImageReport(verdict, order=order, generators=len(gens),
                       notes=tuple(notes))

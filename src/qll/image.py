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

Verdicts are exact certificates in both directions: finiteness is an
enumerated multiplication closure, and infiniteness is a word whose matrix
violates the Galois-trace bound satisfied by every matrix of finite
projective order (all eigenvalue magnitudes 1 at every complex embedding, so
every conjugate of tr(M^m) has magnitude at most the dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .algebra import (CycFraction, CyclotomicNumber, UsageError, _is_prime,
                      cyc_inverse, euler_phi)
from .braid import BraidWord
from .burau import burau_mod_p

_DEFAULT_BOUND = 10 ** 6
_STAGE_BOUND = 50_000
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
    def from_fractions(order: int, rows) -> "CycMatrix":
        den = 1
        for row in rows:
            for e in row:
                den = den * e.den // gcd(den, e.den)
        nums = [[e.num.embed(order) * (den // e.den) for e in row] for row in rows]
        return CycMatrix(order, nums, den)

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
        if self.order != other.order or self.dim != other.dim:
            raise UsageError("matrix shapes/orders differ")
        n = self.dim
        bcols = [[other.rows[k][c] for k in range(n)] for c in range(n)]
        rows = []
        for r in range(n):
            arow = self.rows[r]
            rows.append([_dot(arow, bcols[c]) for c in range(n)])
        return CycMatrix(self.order, rows, self.den * other.den)

    def fraction_rows(self):
        return [[CycFraction(e, self.den) for e in row] for row in self.rows]

    def trace(self) -> CycFraction:
        acc = CyclotomicNumber.zero(self.order)
        for i in range(self.dim):
            acc = acc + self.rows[i][i]
        return CycFraction(acc, self.den)

    def det(self) -> CycFraction:
        rows = self.fraction_rows()
        n = self.dim
        det = CycFraction.from_cyc(CyclotomicNumber.one(self.order))
        for c in range(n):
            pr = next((r for r in range(c, n) if not rows[r][c].is_zero()), None)
            if pr is None:
                return CycFraction(CyclotomicNumber.zero(self.order), 1)
            if pr != c:
                rows[c], rows[pr] = rows[pr], rows[c]
                det = -det
            det = det * rows[c][c]
            inv = rows[c][c].inverse()
            for r in range(c + 1, n):
                if not rows[r][c].is_zero():
                    f = rows[r][c] * inv
                    rows[r] = [rows[r][k] - f * rows[c][k] for k in range(n)]
        return det

    def inverse(self) -> "CycMatrix":
        return CycMatrix.from_fractions(self.order, _frac_inverse(self.fraction_rows()))

    def key(self):
        return ("cyc", self.order, self.den,
                tuple(tuple(e.coeffs for e in row) for row in self.rows))

    def canonical_key(self, projective: bool):
        if not projective:
            return self.key()
        first = next((e for row in self.rows for e in row if not e.is_zero()), None)
        if first is None:
            return self.key()
        best = None
        for unit in _unit_scalars(self.order):
            cand = (first * unit).coeffs
            if best is None or cand < best[0]:
                best = (cand, unit)
        unit = best[1]
        rows = [[e * unit for e in row] for row in self.rows]
        return ("cyc", self.order, self.den,
                tuple(tuple(e.coeffs for e in row) for row in rows))

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "CycMatrix(order=%d, dim=%d, den=%d)" % (self.order, self.dim, self.den)


def _dot(arow, bcol):
    acc = None
    for a, b in zip(arow, bcol):
        if a.is_zero() or b.is_zero():
            continue
        term = a * b
        acc = term if acc is None else acc + term
    return acc if acc is not None else CyclotomicNumber.zero(arow[0].order)


def _unit_scalars(order: int):
    """The roots of unity of Q(zeta_order): zeta^j, and their negatives when
    the order is odd (for even order -1 is already a power)."""
    out = []
    z = CyclotomicNumber.one(order)
    step = CyclotomicNumber.zeta(order) if order > 1 else None
    for _ in range(order):
        out.append(z)
        if order % 2:
            out.append(-z)
        if step is not None:
            z = z * step
    return out


def _frac_inverse(rows):
    n = len(rows)
    aug = [list(rows[r]) + [CycFraction.from_cyc(1 if c == r else 0)
                            for c in range(n)] for r in range(n)]
    for c in range(n):
        pr = next((r for r in range(c, n) if not aug[r][c].is_zero()), None)
        if pr is None:
            raise UsageError("matrix is singular")
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and not aug[r][c].is_zero():
                f = aug[r][c]
                aug[r] = [aug[r][k] - f * aug[c][k] for k in range(2 * n)]
    return [row[n:] for row in aug]


class FpMatrix:
    """Square matrix over F_p."""

    __slots__ = ("p", "rows")

    def __init__(self, p: int, rows):
        if not _is_prime(p):
            raise UsageError("p must be prime, got %d" % p)
        entries = tuple(tuple(x % p for x in row) for row in rows)
        if any(len(row) != len(entries) for row in entries):
            raise UsageError("matrix must be square")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", entries)

    def __setattr__(self, *a):
        raise AttributeError("FpMatrix is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def identity_like(self) -> "FpMatrix":
        n = self.dim
        return FpMatrix(self.p, [[1 if r == c else 0 for c in range(n)]
                                 for r in range(n)])

    def mul(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.dim != other.dim:
            raise UsageError("matrix shapes/moduli differ")
        n, p = self.dim, self.p
        return FpMatrix(p, [[sum(self.rows[r][k] * other.rows[k][c]
                                 for k in range(n)) % p
                             for c in range(n)] for r in range(n)])

    def inverse(self) -> "FpMatrix":
        n, p = self.dim, self.p
        aug = [list(self.rows[r]) + [1 if c == r else 0 for c in range(n)]
               for r in range(n)]
        for c in range(n):
            pr = next((r for r in range(c, n) if aug[r][c] % p), None)
            if pr is None:
                raise UsageError("matrix is singular")
            aug[c], aug[pr] = aug[pr], aug[c]
            inv = pow(aug[c][c], -1, p)
            aug[c] = [x * inv % p for x in aug[c]]
            for r in range(n):
                if r != c and aug[r][c]:
                    f = aug[r][c]
                    aug[r] = [(aug[r][k] - f * aug[c][k]) % p for k in range(2 * n)]
        return FpMatrix(p, [row[n:] for row in aug])

    def key(self):
        return ("fp", self.p, self.rows)

    def canonical_key(self, projective: bool):
        if not projective:
            return self.key()
        first = next((x for row in self.rows for x in row if x), None)
        if first is None:
            return self.key()
        inv = pow(first, -1, self.p)
        return ("fp", self.p,
                tuple(tuple(x * inv % self.p for x in row) for row in self.rows))

    def __eq__(self, other):
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "FpMatrix(p=%d, dim=%d)" % (self.p, self.dim)


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
            if not 1 <= self.strands <= 6:
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


@lru_cache(maxsize=None)
def _tl_generators(n: int, l: int):
    """sigma_i = A + A^-1 E_i on the path basis, A = zeta_{4l}.  E_i acts
    only where p_{i-1} = p_{i+1} = k, and there the row of each path holds
    [p_i + 1]/[k + 1] in both columns p_i = k-1 and k+1.  This is the unitary
    Jones-Wenzl form conjugated by the diagonal prod_j sqrt([p_j + 1]), so no
    square root appears.  The quantum integers are taken at q = -A^2, so
    that [2] = q + 1/q = d and [m+1] = d [m] - [m-1]."""
    if n == 1:
        return ()
    N = 4 * l
    d = -(CyclotomicNumber.zeta(N, 2) + CyclotomicNumber.zeta(N, -2))
    qint = [CyclotomicNumber.zero(N), CyclotomicNumber.one(N)]  # [m]
    while len(qint) < l:
        qint.append(d * qint[-1] - qint[-2])
    inv = [cyc_inverse(x) for x in qint[1:]]  # 1/[k+1]
    A = CycFraction(CyclotomicNumber.zeta(N))
    Ainv = CycFraction(CyclotomicNumber.zeta(N, -1))
    zero = CycFraction(CyclotomicNumber.zero(N))
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
            w = Ainv * CycFraction(qint[p[i] + 1]) * inv[k]
            for b in (k - 1, k + 1):
                c = index.get(p[:i] + (b,) + p[i + 1:])
                if c is not None:
                    M[r][c] = M[r][c] + w
        gens.append(CycMatrix.from_fractions(N, M))
    return tuple(gens)


def rep_generators(spec: RepSpec):
    """The images of sigma_1 .. sigma_{n-1}, as exact matrices."""
    if spec.family == "tl":
        return _tl_generators(spec.strands, spec.l)
    return tuple(FpMatrix(spec.p, burau_mod_p(BraidWord(spec.strands, (i,)),
                                              spec.p, spec.t0))
                 for i in range(1, spec.strands))


# ---------------------------------------------------------------------------
# closure enumeration

def group_closure(gens, bound: int = _DEFAULT_BOUND, projective: bool = False):
    """Exact order of the group generated, or None once `bound` distinct
    elements are exceeded.  A finite multiplicative closure of invertible
    matrices already contains every inverse, so multiplying by the generators
    alone is enough.  Projective mode counts elements up to scalar."""
    if not gens:
        return 1
    ident = gens[0].identity_like()
    seen = {ident.canonical_key(projective)}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                w = m.mul(g)
                k = w.canonical_key(projective)
                if k not in seen:
                    if len(seen) >= bound:
                        return None
                    seen.add(k)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# infinite-order certificate

def _is_root_of_unity(x: CyclotomicNumber) -> bool:
    for unit in _unit_scalars(x.order):
        if x == unit:
            return True
    return False


def _trace_certificate(M: CycMatrix) -> bool:
    """True only if M provably has infinite projective order.

    If M had finite projective order, M = scalar * U with U of finite order,
    and |det M| = 1 at every embedding forces |scalar| = 1 everywhere; then
    every Galois conjugate of tr(M^m) has magnitude <= dim.  Writing the
    trace as x / d, a rational trace of (x conj(x))^r above
    phi(N) * (dim*d)^(2r) therefore certifies some conjugate exceeds the
    bound — an exact integer comparison."""
    dim, N = M.dim, M.order
    phi_n = euler_phi(N)
    P = M
    for m in range(1, _TRACE_POWERS + 1):
        if m > 1:
            P = P.mul(M)
        tr = P.trace()
        x, d = tr.num, tr.den
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


def _reduced_extensions(word, alphabet):
    last = word[-1] if word else None
    for a in alphabet:
        if last is not None and a == -last:
            continue
        yield a


def infinite_order_witness(gens, max_len: int = _WITNESS_LEN):
    """Search words in the generators (shortest first, then by alphabet
    order sigma_1, sigma_1^-1, sigma_2, ...) for a matrix certified to have
    infinite projective order; None if no word up to max_len certifies."""
    if not gens:
        return None
    for g in gens:
        if not isinstance(g, CycMatrix):
            raise UsageError("the certificate needs cyclotomic entries")
        det = g.det()
        if det.den != 1 or not _is_root_of_unity(det.num):
            raise UsageError("generator determinant is not a root of unity")
    by_letter = {}
    for i, g in enumerate(gens, start=1):
        by_letter[i] = g
        by_letter[-i] = g.inverse()
    alphabet = [s * i for i in range(1, len(gens) + 1) for s in (1, -1)]
    seen = set()
    frontier = [((), gens[0].identity_like())]
    for _ in range(max_len):
        nxt = []
        for word, M in frontier:
            for a in _reduced_extensions(word, alphabet):
                w2 = word + (a,)
                M2 = M.mul(by_letter[a])
                k = M2.canonical_key(True)
                if k in seen:
                    continue  # same subtree of products, found earlier/shorter
                seen.add(k)
                if _trace_certificate(M2):
                    return w2
                nxt.append((w2, M2))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# classification

def classify_image(spec: RepSpec, bound: int = _DEFAULT_BOUND) -> ImageReport:
    """Classify the projective closure of the braid image as finite abelian,
    finite (with exact order), infinite (with witness word), or unknown."""
    gens = rep_generators(spec)
    notes = []
    if spec.family == "tl":
        notes.append("path representation of dimension %d; semisimple quotient "
                     "dimension %d" % (len(_paths(spec.strands, spec.l)),
                                       quotient_dimension(spec.strands, spec.l)))
    else:
        notes.append("reduced representation of dimension %d over F_%d at t=%d"
                     % (spec.strands - 1, spec.p, spec.t0))
    if not gens:
        return ImageReport("finite-abelian", order=1, generators=0,
                           notes=tuple(notes + ["no generators: trivial image"]))

    if spec.family == "tl":
        witness = infinite_order_witness(gens, max_len=4)
        if witness is not None:
            notes.append("trace bound violated at a power of the witness")
            return ImageReport("infinite", witness=witness,
                               generators=len(gens), notes=tuple(notes))

    stage = min(_STAGE_BOUND, bound)
    order = group_closure(gens, stage, projective=True)
    if order is None and stage < bound:
        order = group_closure(gens, bound, projective=True)
    if order is None:
        if spec.family == "tl":
            witness = infinite_order_witness(gens, max_len=_WITNESS_LEN)
            if witness is not None:
                notes.append("trace bound violated at a power of the witness")
                return ImageReport("infinite", witness=witness,
                                   generators=len(gens), notes=tuple(notes))
        notes.append("closure exceeded bound %d without a certificate" % bound)
        return ImageReport("unknown", generators=len(gens), notes=tuple(notes))

    abelian = all(gens[i].mul(gens[j]).canonical_key(True) ==
                  gens[j].mul(gens[i]).canonical_key(True)
                  for i in range(len(gens)) for j in range(i))
    verdict = "finite-abelian" if abelian else "finite"
    notes.append("projective order %d" % order)
    return ImageReport(verdict, order=order, generators=len(gens),
                       notes=tuple(notes))

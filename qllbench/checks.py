"""Output checks of the qll benchmark.

Every output is compared with a reference computed apart from the route
that was timed, or with a law the method must obey:

* quantum: the Kauffman state sum of the corpus seed word (it shares no code
  with ``braid_to_tl``; Markov invariance makes it valid for the scrambled
  word);
* image: the verdict pattern of Jones and Freedman-Larsen-Wang (finite
  exactly when l in {3, 4, 6} or (l, n) = (10, 3), abelian at l = 3); the
  braid relations of the generators in floating point (exactly mod p for
  Burau); every finite order against a closure computed here (floating point
  up to scalars for Temperley-Lieb, integers mod p for Burau); every witness
  re-certified by an eigenvalue off the unit circle at some Galois embedding;
* classical: the Alexander polynomial of the seed computed with sympy from
  the unreduced Burau matrix, |Delta(-1)| = det, Delta(1) = +-1 for knots and
  0 for links, Delta symmetric; d_p against the corpus literals and the law
  d_p > 0 iff p | det (det != 0); exact counts against the Wirtinger oracle on
  the seed and the corpus literals; estimates within 6 standard errors.

numpy and sympy are imported inside the functions that use them, so a run
reads its peak memory before they load.  Each checker returns a list of
problems; an empty list means the output passed.
"""
from __future__ import annotations

import cmath
from math import gcd

ESTIMATE_SIGMAS = 6
CLOSURE_CAP = 20_000
OFF_CIRCLE = 1e-6


# ---------------------------------------------------------------------------
# laws and plain comparisons

def expected_tl_verdict(l: int, n: int) -> str:
    if l == 3:
        return "finite-abelian"
    if l in (4, 6) or (l, n) == (10, 3):
        return "finite"
    return "infinite"


def check_jones(value, reference) -> list[str]:
    if value != reference:
        return ["Jones value %r differs from the state sum %r" % (value, reference)]
    return []


def check_alexander(coeffs: tuple, reference: tuple, link) -> list[str]:
    problems = []
    if tuple(coeffs) != tuple(reference):
        problems.append("Alexander %r differs from the seed's %r" % (coeffs, reference))
    at_minus_one = sum(c * (-1) ** k for k, c in enumerate(coeffs))
    if "det" in link.literals and abs(at_minus_one) != link.literals["det"]:
        problems.append("|Delta(-1)| = %d, corpus det %d"
                        % (abs(at_minus_one), link.literals["det"]))
    knot = link.literals.get("components") == 1
    if knot and abs(sum(coeffs)) != 1 or not knot and sum(coeffs) != 0:
        problems.append("Delta(1) = %d on a %s" % (sum(coeffs), "knot" if knot else "link"))
    rev = tuple(reversed(coeffs))
    if rev != tuple(coeffs) and rev != tuple(-c for c in coeffs):
        problems.append("Alexander %r is not symmetric" % (coeffs,))
    return problems


def check_dp(value: int, p: int, link) -> list[str]:
    problems = []
    literal = link.literals.get("d%d" % p)
    if literal is not None and value != literal:
        problems.append("d_%d = %d, corpus literal %d" % (p, value, literal))
    det = link.literals.get("det", 0)
    if det and (value > 0) != (det % p == 0):
        problems.append("d_%d = %d breaks d_p > 0 iff p | det (det %d)" % (p, value, det))
    return problems


def check_count(value: int, oracle: int, link, group: str) -> list[str]:
    problems = []
    if value != oracle:
        problems.append("count %d differs from the Wirtinger oracle %d" % (value, oracle))
    literal = link.literals.get("hom." + group)
    if literal is not None and value != literal:
        problems.append("count %d differs from corpus literal %d" % (value, literal))
    return problems


def check_estimate(estimate, stderr, exact: int) -> list[str]:
    if stderr <= 0:
        return ["estimate %s came with standard error %s" % (estimate, stderr)]
    if abs(estimate - exact) > ESTIMATE_SIGMAS * stderr:
        return ["estimate %s is more than %d standard errors (%s) from %d"
                % (estimate, ESTIMATE_SIGMAS, stderr, exact)]
    return []


def check_order(order, reference) -> list[str]:
    if order != reference:
        return ["image order %r differs from the benchmark's closure %r" % (order, reference)]
    return []


# ---------------------------------------------------------------------------
# Alexander reference (sympy, unreduced Burau)

def alexander_reference(strands: int, word) -> tuple[int, ...]:
    """Canonical Alexander coefficients (lowest exponent 0, lowest
    coefficient positive) from the unreduced Burau matrix B: its
    characteristic polynomial is (x - 1) q(x), and q(1) equals
    (1 + t + ... + t^(n-1)) Delta(t) up to a unit."""
    import sympy

    t, x = sympy.symbols("t x")
    block = sympy.Matrix([[1 - t, t], [1, 0]])
    inv_block = block.inv()
    B = sympy.eye(strands)
    for a in word:
        i = abs(a) - 1
        g = sympy.eye(strands)
        g[i:i + 2, i:i + 2] = block if a > 0 else inv_block
        B = B * g
    char = (x * sympy.eye(strands) - B).det(method="berkowitz")
    q = sympy.cancel(char / (x - 1))
    delta = sympy.cancel(q.subs(x, 1) / sum(t ** k for k in range(strands)))
    num, den = sympy.fraction(sympy.together(delta))
    if num == 0:
        return ()
    den_poly = sympy.Poly(den, t)
    if len(den_poly.terms()) != 1 or abs(den_poly.LC()) != 1:
        raise ValueError("Alexander reference is not a Laurent polynomial: %s" % delta)
    coeffs = [int(c) for c in reversed(sympy.Poly(num, t).all_coeffs())]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# image references

def cyc_matrix_at(m, k: int):
    """A qll CycMatrix as a complex numpy matrix at the embedding
    zeta_N -> exp(2 pi i k / N)."""
    import numpy as np

    N = m.order
    z = [cmath.exp(2j * cmath.pi * k * j / N) for j in range(N)]
    return np.array([[sum(c * z[j] for j, c in enumerate(e.coeffs) if c) / m.den
                      for e in row] for row in m.rows], dtype=complex)


def braid_relation_problems(mats, close) -> list[str]:
    """sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1} and
    sigma_i sigma_j = sigma_j sigma_i for |i - j| >= 2, with ``close``
    comparing two products."""
    problems = []
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            a, b = mats[i], mats[j]
            if j == i + 1:
                ok = close(a @ b @ a, b @ a @ b)
            else:
                ok = close(a @ b, b @ a)
            if not ok:
                problems.append("generators %d and %d break the braid relation"
                                % (i + 1, j + 1))
    return problems


def float_close(a, b) -> bool:
    import numpy as np

    scale = 1.0 + max(np.abs(a).max(), np.abs(b).max())
    return bool(np.abs(a - b).max() <= 1e-9 * scale)


def _float_key(m):
    import numpy as np

    flat = m.ravel()
    mags = np.abs(flat)
    first = flat[np.flatnonzero(mags > 1e-8 * mags.max())[0]]
    scaled = m / first
    return (np.rint(scaled.real * 1e4).astype(np.int64).tobytes()
            + np.rint(scaled.imag * 1e4).astype(np.int64).tobytes())


def float_projective_order(mats, cap: int = CLOSURE_CAP):
    """Order of the group generated by complex matrices up to scalars, or
    None past ``cap`` elements."""
    import numpy as np

    ident = np.eye(mats[0].shape[0], dtype=complex)
    seen = {_float_key(ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                w = m @ g
                key = _float_key(w)
                if key not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(key)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def fp_projective_order(mats, p: int, cap: int = CLOSURE_CAP):
    """Order of the group generated by integer matrices mod p, up to
    scalars (each element scaled so its first nonzero entry is 1)."""
    import numpy as np

    def key(m):
        flat = m.ravel()
        first = int(flat[np.flatnonzero(flat)[0]])
        return (m * pow(first, -1, p) % p).tobytes()

    mats = [np.array(g, dtype=np.int64) % p for g in mats]
    ident = np.eye(mats[0].shape[0], dtype=np.int64)
    seen = {key(ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                w = (m @ g) % p
                k = key(w)
                if k not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(k)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def witness_certified(gens, witness) -> bool:
    """True when the witness word's matrix, scaled to unit determinant, has
    an eigenvalue off the unit circle at some Galois embedding: then it has
    infinite projective order."""
    import numpy as np

    N = gens[0].order
    dim = gens[0].dim
    for k in range(1, N):
        if gcd(k, N) != 1:
            continue
        mats = [cyc_matrix_at(g, k) for g in gens]
        m = np.eye(dim, dtype=complex)
        for a in witness:
            m = m @ (mats[a - 1] if a > 0 else np.linalg.inv(mats[-a - 1]))
        m = m / np.linalg.det(m) ** (1.0 / dim)
        if np.abs(np.abs(np.linalg.eigvals(m)) - 1.0).max() > OFF_CIRCLE:
            return True
    return False


def image_problems(params, gens, report, reference_order) -> list[str]:
    """Checks of one classify_image report; ``gens`` are the generators
    from rep_generators and ``reference_order`` the benchmark's closure
    (None for an infinite Temperley-Lieb spec)."""
    import numpy as np

    problems = []
    if params[0] == "tl":
        _, n, l = params
        expected = expected_tl_verdict(l, n)
        if report.verdict != expected:
            problems.append("verdict %s, expected %s" % (report.verdict, expected))
        problems += braid_relation_problems([cyc_matrix_at(g, 1) for g in gens],
                                            float_close)
        if expected == "infinite":
            if report.witness is None or not witness_certified(gens, report.witness):
                problems.append("witness %r is not certified" % (report.witness,))
            return problems
    else:
        p = params[2]
        if report.verdict not in ("finite", "finite-abelian"):
            problems.append("verdict %s for a group over F_%d" % (report.verdict, p))
        mats = [np.array(g.rows, dtype=np.int64) for g in gens]
        problems += braid_relation_problems(
            mats, lambda a, b: bool(((a - b) % p == 0).all()))
    return problems + check_order(report.order, reference_order)


def reference_order(params, gens):
    if params[0] == "tl":
        _, n, l = params
        if expected_tl_verdict(l, n) == "infinite":
            return None
        return float_projective_order([cyc_matrix_at(g, 1) for g in gens])
    return fp_projective_order([g.rows for g in gens], params[2])

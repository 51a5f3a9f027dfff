"""Arithmetic kernels checked against sympy and against closed-form identities."""

import cmath
import random
import time
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from qll.algebra import (
    BudgetError,
    CyclotomicNumber,
    LaurentPoly,
    UsageError,
    _PRIME_LIMIT,
    _is_prime,
    _poly_divmod_monic,
    _require_budget,
    _require_budget_bits,
    corank_mod_p,
    cyclotomic_polynomial,
    euler_phi,
    moebius,
    signed_digits,
)

from oracles import smith_normal_form

ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 20, 24]


def cyc_strategy(order):
    phi = euler_phi(order)
    return st.lists(st.integers(-9, 9), min_size=phi, max_size=phi).map(
        lambda c: CyclotomicNumber(order, c)
    )


any_cyc = st.sampled_from(ORDERS).flatmap(cyc_strategy)


# ---------------------------------------------------------------------------
# cyclotomic polynomials

@pytest.mark.parametrize("n", range(1, 41))
def test_cyclotomic_polynomial_matches_sympy(n):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(n)) == [int(c) for c in expected]


def test_cyclotomic_polynomial_first_nontrivial_coefficient():
    # smallest order with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


def moebius_product(n):
    """Independent oracle: Phi_n = prod over d | n of (x^d - 1)^mu(n/d),
    by multiplications by x^d - 1 and exact divisions by it, with mu from
    trial division."""
    def mu(m):
        sign, p = 1, 2
        while m > 1:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    poly = [1]
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for d in divisors:  # numerator first: every division below is exact
        if mu(n // d) == 1:
            poly = [0] * d + poly
            for i, c in enumerate(poly[d:]):
                poly[i] -= c
    for d in divisors:
        if mu(n // d) == -1:
            q = [0] * (len(poly) - d)
            for i in range(len(q)):  # poly = q (x^d - 1), lowest term first
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            assert all(poly[i] == (q[i - d] if i >= d else 0)
                       for i in range(len(q), len(poly)))
            poly = q
    return tuple(poly)


def test_cyclotomic_polynomial_matches_the_moebius_product():
    for n in range(1, 401):
        assert cyclotomic_polynomial(n) == moebius_product(n), n


def test_cyclotomic_polynomial_of_a_large_order_is_fast():
    # from the radical: Phi_120000(x) = Phi_30(x^4000), so degree 32,000
    started = time.perf_counter()
    phi = cyclotomic_polynomial(120000)
    assert time.perf_counter() - started < 1.0
    assert len(phi) == 32001
    assert phi[::4000] == cyclotomic_polynomial(30)
    assert not any(c for i, c in enumerate(phi) if i % 4000)


def dense_divmod_monic(a, b):
    """Long division by the monic b through every coefficient of b."""
    a, db = list(a), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        q[i - db] = c
        for j in range(db + 1):
            a[i - db + j] -= c * b[j]
    assert not any(a[db:])
    return q, a[:db]


@pytest.mark.parametrize("N", [12, 20, 24, 40])
def test_sparse_reduction_matches_dense_division(N):
    rng = random.Random(N)
    phi = cyclotomic_polynomial(N)
    for length in [0, 1, len(phi) - 1, len(phi), 2 * len(phi) - 3] * 20:
        a = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(length)]
        assert _poly_divmod_monic(a, phi) == dense_divmod_monic(a, phi)


@pytest.mark.parametrize("n", range(1, 60))
def test_phi_and_moebius_match_sympy(n):
    assert euler_phi(n) == int(sympy.totient(n))
    assert moebius(n) == int(sympy.mobius(n))


# ---------------------------------------------------------------------------
# cyclotomic integers

def test_zeta4_squares_to_minus_one():
    i = CyclotomicNumber.zeta(4)
    assert i * i == CyclotomicNumber.from_int(-1, 4)
    assert i * i == -1


def test_golden_ratio_product():
    z = CyclotomicNumber.zeta
    lhs = (z(5, 1) + z(5, 4)) * (z(5, 2) + z(5, 3))
    assert lhs == CyclotomicNumber.from_int(-1)


def test_zeta_primitive_order():
    for n in ORDERS:
        z = CyclotomicNumber.zeta(n)
        assert z ** n == 1
        for k in range(1, n):
            assert z ** k != 1 or n == 1


@settings(max_examples=200)
@given(st.sampled_from(ORDERS).flatmap(
    lambda n: st.tuples(cyc_strategy(n), cyc_strategy(n), cyc_strategy(n))))
def test_ring_axioms_fixed_order(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == CyclotomicNumber.zero(a.order)
    assert a * 1 == a


@settings(max_examples=100)
@given(any_cyc, any_cyc)
def test_cross_order_arithmetic_matches_complex(a, b):
    za, zb = a.to_complex(), b.to_complex()
    assert cmath.isclose((a + b).to_complex(), za + zb, abs_tol=1e-9)
    assert cmath.isclose((a * b).to_complex(), za * zb, abs_tol=1e-9)


@settings(max_examples=150)
@given(any_cyc)
def test_galois_orbit_and_trace(a):
    n = a.order
    total = CyclotomicNumber.zero(n)
    for s in range(1, n + 1):
        if gcd(s, n) == 1:
            total = total + a.galois(s)
    assert total.as_int() == a.trace_to_int()


@settings(max_examples=150)
@given(any_cyc)
def test_conjugate_is_complex_conjugate(a):
    assert cmath.isclose(a.conjugate().to_complex(),
                         a.to_complex().conjugate(), abs_tol=1e-9)
    assert (a * a.conjugate()).trace_to_int() >= 0


def test_galois_requires_coprime_exponent():
    with pytest.raises(UsageError):
        CyclotomicNumber.zeta(12).galois(4)


def test_embed_roundtrip_preserves_value():
    a = CyclotomicNumber.zeta(6) + 2
    b = a.embed(24)
    assert b == a
    assert b.order == 24
    with pytest.raises(UsageError):
        a.embed(9)


@settings(max_examples=150)
@given(st.sampled_from(ORDERS + [7, 15, 40]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-9, 9),
                                             max_size=3 * euler_phi(n)))))
def test_reduction_keeps_the_value(case):
    # a coefficient list of any length up to 3 phi(N), reduced modulo the
    # N-th cyclotomic polynomial, still sums to sum_j c_j zeta_N^j
    n, c = case
    z = sum((x * cmath.exp(2j * cmath.pi * j / n) for j, x in enumerate(c)), 0j)
    a = CyclotomicNumber(n, c)
    assert len(a.coeffs) == euler_phi(n)
    assert cmath.isclose(a.to_complex(), z, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Laurent polynomials

def sympy_of(p):
    t = sympy.symbols("t")
    return sum((c * t ** (p.low + i) for i, c in enumerate(p.coeffs)),
               sympy.Integer(0))


laurent_strategy = st.tuples(
    st.integers(-5, 5), st.lists(st.integers(-8, 8), max_size=7)
).map(lambda lc: LaurentPoly(lc[0], lc[1]))


@settings(max_examples=150)
@given(laurent_strategy, laurent_strategy)
def test_laurent_mul_matches_sympy(p, q):
    t = sympy.symbols("t")
    lhs = sympy_of(p * q)
    rhs = sympy.expand(sympy_of(p) * sympy_of(q))
    assert sympy.simplify(lhs - rhs) == 0


@settings(max_examples=150)
@given(laurent_strategy, laurent_strategy)
def test_laurent_divexact_roundtrip(p, q):
    if q.is_zero():
        return
    prod = p * q
    assert prod.divexact(q) == p


def test_laurent_divexact_rejects_inexact():
    t = LaurentPoly.t()
    with pytest.raises(UsageError):
        (t + 1).divexact(t - 1)
    with pytest.raises(UsageError):
        LaurentPoly.from_int(3).divexact(LaurentPoly.from_int(2))


@settings(max_examples=100)
@given(laurent_strategy)
def test_laurent_mirror_involution(p):
    assert p.mirror().mirror() == p
    assert p.mirror().evaluate_int(-1) == p.evaluate_int(-1)


@settings(max_examples=100)
@given(laurent_strategy, st.sampled_from([2, 3, 5, 7, 11]))
def test_laurent_evaluate_mod(p, prime):
    t0 = 2 if prime > 2 else 1
    t = sympy.symbols("t")
    expr = sympy_of(p).subs(t, sympy.Rational(t0))
    num, den = sympy.fraction(sympy.together(expr))
    expected = (int(num) * pow(int(den), -1, prime)) % prime
    assert p.evaluate_mod(t0, prime) == expected


@st.composite
def packed_digits(draw):
    """A width w and up to 500 digits in [-(2^(w-1) - 1), 2^(w-1) - 1],
    often at either end of that range; above 64 digits the reader splits."""
    w = draw(st.integers(2, 200))
    top = (1 << (w - 1)) - 1
    digit = st.one_of(st.sampled_from([top, -top, 0]), st.integers(-top, top))
    return w, draw(st.lists(digit, max_size=500))


@settings(max_examples=200, deadline=None)
@given(packed_digits())
@example((2, [1, -1] * 100))
@example((200, [-(1 << 199) + 1] * 65))
def test_signed_digits_round_trip(case):
    w, digits = case
    v = sum(d << (w * i) for i, d in enumerate(digits))
    assert signed_digits(v, len(digits), w) == digits
    # more digits than were packed read as zeros
    assert signed_digits(v, len(digits) + 70, w) == digits + [0] * 70


@pytest.mark.parametrize("c", [1, -1])
@pytest.mark.parametrize("a", [-2, 0, 1, 3])
def test_laurent_unit_powers_invert(a, c):
    u = LaurentPoly.t(a, c)
    for k in range(-4, 5):
        assert u ** k * u ** -k == LaurentPoly.one(), (a, c, k)
    assert LaurentPoly(1, (-1,)) ** -2 == LaurentPoly.t(-2)


def test_laurent_canonical():
    p = LaurentPoly(-3, (-1, 0, 2))
    c = p.canonical()
    assert c.low == 0 and c.coeffs == (1, 0, -2)
    assert LaurentPoly.zero().canonical() == LaurentPoly.zero()


# ---------------------------------------------------------------------------
# integer matrices

int_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(max_examples=120, deadline=None)
@given(int_matrix)
def test_smith_matches_sympy(rows):
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    mine = smith_normal_form(rows)
    s = sympy_snf(sympy.Matrix(rows))
    diag = [abs(int(s[i, i])) for i in range(min(s.shape))]
    expected = tuple(d for d in diag if d)
    assert mine == expected
    for a, b in zip(mine, mine[1:]):
        assert b % a == 0


@settings(max_examples=120, deadline=None)
@given(int_matrix, st.sampled_from([2, 3, 5, 7]))
def test_corank_consistent_with_smith(rows, p):
    n = len(rows[0])
    factors = smith_normal_form(rows)
    rank_p = sum(1 for d in factors if d % p)
    assert corank_mod_p(rows, p) == n - rank_p


def gf_rank(rows, p):
    from sympy.polys.matrices import DomainMatrix
    field = sympy.GF(p)
    return DomainMatrix([[field(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), field).rank()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n),
            min_size=m, max_size=m))),
    st.sampled_from([2, 3, 5, 7, 101, 2 ** 31 - 1]))
@example([[1, 0, 2], [0, 0, 3], [2, 0, 1]], 5)  # the middle column has no pivot
@example([[1, 2, 0], [2, 4, 1]], 7)  # loses its pivot in the first step
def test_corank_matches_sympy_gf_p(rows, p):
    assert corank_mod_p(rows, p) == len(rows[0]) - gf_rank(rows, p)


def test_corank_rejects_composite_modulus():
    with pytest.raises(UsageError):
        corank_mod_p([[1]], 6)


def test_is_prime_matches_sympy():
    for n in range(-3, 10 ** 4):
        assert _is_prime(n) == sympy.isprime(n), n
    rng = random.Random(2015)
    for bits in range(14, _PRIME_LIMIT.bit_length()):
        for _ in range(20):
            n = rng.randrange(2 ** (bits - 1), min(2 ** bits, _PRIME_LIMIT))
            assert _is_prime(n) == sympy.isprime(n), n
            q = sympy.nextprime(n)
            if q < _PRIME_LIMIT:
                assert _is_prime(q), q
    # a Carmichael number, and strong pseudoprimes to the bases 2..11,
    # 2..31 and 2..37; the last is the least one that only 41 exposes
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n), n
    assert _is_prime(1000000000000000003)
    assert _is_prime(sympy.prevprime(_PRIME_LIMIT))
    for n in (_PRIME_LIMIT, 2 ** 89 - 1):
        with pytest.raises(UsageError):
            _is_prime(n)


def test_smith_known_values():
    assert smith_normal_form([[2, 4], [-2, 6]]) == (2, 10)
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]) == ()
    assert smith_normal_form([[0, 0]]) == ()
    # presentation of Z/3 + Z arising from a 2x2 rank-1 pattern
    assert smith_normal_form([[3, -3], [3, -3]]) == (3,)


def test_refusal_text_of_a_huge_price():
    # the longest price CPython writes as text by default prints in full
    with pytest.raises(BudgetError) as info:
        _require_budget(10 ** 4300 - 1, 1, "route")
    assert str(info.value) == "route needs %s elementary steps (budget 1)" % ("9" * 4300)
    # a longer one is named by a power of two and kept exact
    with pytest.raises(BudgetError) as info:
        _require_budget(10 ** 5000, 10 ** 9, "route")
    assert info.value.required == 10 ** 5000
    assert str(info.value) == ("route needs at least 2^16609 elementary steps "
                               "(budget 1000000000)")
    # a bound refuses alone only past both the budget and that length
    _require_budget_bits(14284, 10 ** 9, "route")
    _require_budget_bits(20000, 1 << 20000, "route")
    with pytest.raises(BudgetError) as info:
        _require_budget_bits(20000, 10 ** 9, "route")
    assert info.value.required is None
    assert str(info.value) == ("route needs at least 2^20000 elementary steps "
                               "(budget 1000000000)")

"""Arithmetic kernels checked against sympy and against closed-form identities."""

import cmath
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qll.algebra import (
    CycFraction,
    CyclotomicNumber,
    LaurentPoly,
    UsageError,
    corank_mod_p,
    cyc_inverse,
    cyclotomic_polynomial,
    euler_phi,
    moebius,
    smith_normal_form,
)

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


@settings(max_examples=100)
@given(any_cyc)
def test_norm_is_multiplicative_against_sympy_minpoly(a):
    # |norm| equals the absolute value of the product of all embeddings
    prod = 1.0 + 0j
    n = a.order
    for s in range(1, n + 1):
        if gcd(s, n) == 1:
            prod *= a.galois(s).to_complex()
    assert abs(prod - a.norm_int()) < 1e-6 * max(1.0, abs(prod))


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


@settings(max_examples=80)
@given(st.sampled_from([3, 4, 5, 8, 12]).flatmap(cyc_strategy))
def test_exact_inverse(a):
    if a.is_zero():
        return
    inv = cyc_inverse(a)
    assert CycFraction(a.num if isinstance(a, CycFraction) else a) * inv == CycFraction.from_cyc(1)


# ---------------------------------------------------------------------------
# cyclotomic fractions

@settings(max_examples=120)
@given(st.sampled_from([4, 5, 12]).flatmap(
    lambda n: st.tuples(cyc_strategy(n), cyc_strategy(n),
                        st.integers(1, 40), st.integers(1, 40))))
def test_fraction_field_axioms(quad):
    na, nb, da, db = quad
    a = CycFraction(na, da)
    b = CycFraction(nb, db)
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == CycFraction.from_cyc(0)
    if not b.is_zero():
        q = a / b
        assert q * b == a


def test_fraction_lowest_terms():
    a = CycFraction(CyclotomicNumber(4, (6, 10)), 4)
    assert a.den == 2
    assert a.num.coeffs == (3, 5)
    assert CycFraction(CyclotomicNumber.from_int(-3), -6) == CycFraction(
        CyclotomicNumber.from_int(1), 2)


def test_fraction_hash_consistent_with_eq():
    a = CycFraction(CyclotomicNumber(12, (2, 0, 4, 0)), 6)
    b = CycFraction(CyclotomicNumber(12, (1, 0, 2, 0)), 3)
    assert a == b
    assert hash(a) == hash(b)


def test_fraction_hash_across_orders():
    a = CycFraction(CyclotomicNumber.zeta(4), 3)
    b = CycFraction(CyclotomicNumber.zeta(8, 2), 3)  # the same i/3, order 8
    assert a == b
    assert len({a, b}) == 1


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


def test_laurent_canonical():
    p = LaurentPoly(-3, (-1, 0, 2))
    c = p.canonical()
    assert c.low == 0 and c.coeffs == (1, 0, -2)
    assert LaurentPoly.zero().canonical() == LaurentPoly.zero()


def test_laurent_evaluate_root_exact():
    # t^2 + t + 1 vanishes at a primitive cube root of unity
    p = LaurentPoly(0, (1, 1, 1))
    assert p.evaluate_root(3).is_zero()
    assert p.evaluate_root(1).as_int() == 3


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


def test_corank_rejects_composite_modulus():
    with pytest.raises(UsageError):
        corank_mod_p([[1]], 6)


def test_smith_known_values():
    assert smith_normal_form([[2, 4], [-2, 6]]) == (2, 10)
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]) == ()
    # presentation of Z/3 + Z arising from a 2x2 rank-1 pattern
    assert smith_normal_form([[3, -3], [3, -3]]) == (3,)

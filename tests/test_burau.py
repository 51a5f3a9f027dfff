"""Burau pipeline checked against a Seifert-matrix oracle and frozen
classical values.

The Seifert route is fully independent: Alexander = det(V - t V^T) and the
double-cover homology is presented by V + V^T, for textbook Seifert matrices
of the fixture links."""

import time

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from qll.algebra import LaurentPoly, UsageError, _bareiss, corank_mod_p
from qll.braid import BraidWord, closure_components, conjugate, stabilize
from qll.burau import (
    _det,
    alexander_poly,
    arf_knot,
    burau_mod_p,
    determinant,
    double_cover_homology,
    double_cover_presentation,
    reduced_burau,
)

from oracles import smith_normal_form

TREFOIL = BraidWord(2, (1, 1, 1))
FIG8 = BraidWord(3, (1, -2, 1, -2))
HOPF = BraidWord(2, (1, 1))
UNKNOT3 = BraidWord(3, (1, 2))

# textbook Seifert matrices (genus-1 surfaces; annulus for the Hopf link)
SEIFERT = {
    "trefoil": ((-1, 1), (0, -1)),
    "figure_eight": ((1, 1), (0, -1)),
    "hopf": ((-1,),),
}
SEIFERT_BRAIDS = {"trefoil": TREFOIL, "figure_eight": FIG8, "hopf": HOPF}


def seifert_alexander(v) -> LaurentPoly:
    """det(V - t V^T) expanded by brute force over permutations."""
    import itertools
    size = len(v)
    t = LaurentPoly.t()
    entries = [[LaurentPoly.from_int(v[r][c]) - t * v[c][r] for c in range(size)]
               for r in range(size)]
    total = LaurentPoly.zero()
    for perm in itertools.permutations(range(size)):
        sign = 1
        for a in range(size):
            for b in range(a + 1, size):
                if perm[a] > perm[b]:
                    sign = -sign
        term = LaurentPoly.from_int(sign)
        for r in range(size):
            term = term * entries[r][perm[r]]
        total = total + term
    return total.canonical()


def seifert_double_cover_rank(v, p) -> int:
    sym = [[v[r][c] + v[c][r] for c in range(len(v))] for r in range(len(v))]
    return corank_mod_p(sym, p)


def braid_strategy(max_strands=5, max_len=10):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=max_len,
        ).map(lambda w: BraidWord(n, tuple(w)))
    )


# ---------------------------------------------------------------------------
# representation basics

def test_empty_word_is_identity():
    m = reduced_burau(BraidWord(3, ()))
    assert m[0][0] == LaurentPoly.one() and m[1][1] == LaurentPoly.one()
    assert m[0][1].is_zero() and m[1][0].is_zero()


def test_sigma1_on_two_strands():
    m = reduced_burau(BraidWord(2, (1,)))
    assert m == ((LaurentPoly.t(1, -1),),)  # the 1x1 matrix [-t]


def test_inverse_letters_cancel():
    assert reduced_burau(BraidWord(3, (1, -1))) == reduced_burau(BraidWord(3, ()))
    assert reduced_burau(BraidWord(4, (-2, 2))) == reduced_burau(BraidWord(4, ()))


def test_strand_minimum():
    with pytest.raises(UsageError):
        reduced_burau(BraidWord(1, ()))


@pytest.mark.parametrize("n", range(2, 6))
def test_braid_relations(n):
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) >= 2:
                assert reduced_burau(BraidWord(n, (i, j))) == \
                    reduced_burau(BraidWord(n, (j, i)))
            if abs(i - j) == 1:
                assert reduced_burau(BraidWord(n, (i, j, i))) == \
                    reduced_burau(BraidWord(n, (j, i, j)))


def generator_matrix(n, letter):
    """The reduced Burau image of one letter as a full (n-1) x (n-1)
    matrix: the identity except in column c, which holds t, -t, 1 (or 1,
    -1/t, 1/t for an inverse letter) in rows c-1, c, c+1."""
    t, tinv = LaurentPoly.t(), LaurentPoly.t(-1)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    c = abs(letter) - 1
    g = [[one if r == k else zero for k in range(n - 1)] for r in range(n - 1)]
    column = (t, -t, one) if letter > 0 else (one, -tinv, tinv)
    for r, x in zip((c - 1, c, c + 1), column):
        if 0 <= r < n - 1:
            g[r][c] = x
    return g


def generator_product(n, word):
    """The product of the generator matrices in word order, by the
    schoolbook matrix product over LaurentPoly."""
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    acc = [[one if r == k else zero for k in range(n - 1)] for r in range(n - 1)]
    for letter in word:
        g = generator_matrix(n, letter)
        acc = [[sum((row[k] * g[k][c] for k in range(n - 1) if g[k][c]),
                    LaurentPoly.zero()) for c in range(n - 1)] for row in acc]
    return tuple(tuple(row) for row in acc)


def long_braids():
    """Words of up to 60 letters on up to 9 strands, all-negative words, and
    (s1 s2^-1)^k up to k = 30, whose coefficients grow exponentially in the
    length, as fast as the packed width allows for."""
    letters = st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, n - 1).flatmap(
            lambda i: st.sampled_from([i, -i])), max_size=60)))
    negative = st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-(n - 1), -1), max_size=60)))
    growing = st.tuples(st.integers(3, 9), st.integers(0, 30)).map(
        lambda nk: (nk[0], (1, -2) * nk[1]))
    return st.one_of(letters, negative, growing).map(
        lambda nw: BraidWord(nw[0], tuple(nw[1])))


@given(long_braids())
@settings(max_examples=60, deadline=None)
@example(BraidWord(3, (1, -2) * 30))
@example(BraidWord(9, (-8,) * 60))
def test_reduced_burau_matches_the_generator_product(b):
    assert reduced_burau(b) == generator_product(b.strands, b.word)


# ---------------------------------------------------------------------------
# Alexander polynomial and determinant

def test_unknot_alexander():
    assert alexander_poly(BraidWord(2, (1,))) == LaurentPoly.one()
    assert alexander_poly(BraidWord(1, ())) == LaurentPoly.one()
    assert alexander_poly(UNKNOT3) == LaurentPoly.one()


def test_trefoil_alexander():
    assert alexander_poly(TREFOIL) == LaurentPoly(0, (1, -1, 1))


def test_figure_eight_alexander():
    assert alexander_poly(FIG8) == LaurentPoly(0, (1, -3, 1))


def test_split_closure_gives_zero():
    for b in (BraidWord(2, ()),  # the 2-component unlink
              BraidWord(5, (1, 1, 1, 3, -4, 3, -4)),  # trefoil, figure-eight
              BraidWord(5, (2, 3, 2, 3, 4, 4)),  # the first strand split off
              BraidWord(6, (1, 1, 1, -2, 4, 5, 4))):  # sigma_3 missing
        assert alexander_poly(b) == LaurentPoly.zero()
        assert determinant(b) == 0


def test_det_stops_at_the_first_pivotless_column(monkeypatch):
    # with column 0 zero the elimination must end there, before it takes
    # a single step on the rows below
    steps = []

    def counting(rows, step):
        def counted(xs, prev):
            steps.append(prev)
            return step(xs, prev)
        return _bareiss(rows, counted)
    monkeypatch.setattr("qll.burau._bareiss", counting)
    zero, t = LaurentPoly.zero(), LaurentPoly.t()
    rows = [[zero, t + k, t - k] for k in range(3)]
    assert _det(rows) == zero
    assert steps == []
    # a nonzero column 0 steps on both rows below it at the first pivot
    rows[0][0] = t
    _det(rows)
    assert steps[:2] == [None, None]


@pytest.mark.parametrize("name", ["trefoil", "figure_eight", "hopf"])
def test_alexander_matches_seifert_oracle(name):
    assert alexander_poly(SEIFERT_BRAIDS[name]) == seifert_alexander(SEIFERT[name])


def test_determinants():
    assert determinant(BraidWord(2, (1,))) == 1
    assert determinant(TREFOIL) == 3
    assert determinant(FIG8) == 5
    assert determinant(HOPF) == 2


@given(braid_strategy(max_strands=9, max_len=30))
@settings(max_examples=80, deadline=None)
def test_determinant_is_alexander_at_minus_one(b):
    # the double-cover route against the Alexander route
    assert determinant(b) == abs(alexander_poly(b).evaluate_int(-1))


@given(braid_strategy(max_strands=4, max_len=8))
@settings(max_examples=60, deadline=None)
def test_alexander_symmetry_for_knots(b):
    if closure_components(b) != 1:
        return
    p = alexander_poly(b)
    assert p == p.mirror().canonical()


def sympy_alexander(strands, word) -> tuple[int, ...]:
    """Canonical Alexander coefficients from the unreduced Burau matrix B,
    built here with sympy.  B fixes a vector, so det(xI - B) = (x - 1) q(x);
    q(1), the sum of the principal (n-1)-minors of I - B, equals
    (1 + t + ... + t^(n-1)) Delta(t) up to a unit."""
    t = sympy.symbols("t")
    block = sympy.Matrix([[1 - t, t], [1, 0]])
    inv_block = block.inv()
    big = sympy.eye(strands)
    for a in word:
        i = abs(a) - 1
        g = sympy.eye(strands)
        g[i:i + 2, i:i + 2] = block if a > 0 else inv_block
        big = big * g
    a = sympy.eye(strands) - big
    q1 = sum(a.minor_submatrix(i, i).det(method="berkowitz")
             for i in range(strands))
    num, _ = sympy.fraction(sympy.cancel(q1 / sum(t ** k for k in range(strands))))
    if num == 0:
        return ()
    coeffs = [int(c) for c in reversed(sympy.Poly(num, t).all_coeffs())]
    while coeffs[0] == 0:
        coeffs.pop(0)
    return tuple(-c for c in coeffs) if coeffs[0] < 0 else tuple(coeffs)


@given(braid_strategy(max_strands=6, max_len=12))
@settings(max_examples=30, deadline=None)
def test_alexander_matches_sympy_unreduced_burau(b):
    assert alexander_poly(b).coeffs == sympy_alexander(b.strands, b.word)


laurent_entry = st.one_of(
    st.just(LaurentPoly.zero()),
    st.builds(LaurentPoly, st.integers(-2, 2),
              st.lists(st.integers(-3, 3), max_size=3).map(tuple)),
)
nonzero_entry = st.builds(LaurentPoly, st.integers(-2, 2),
                          st.lists(st.integers(-3, 3), min_size=1,
                                   max_size=3).filter(any).map(tuple))


@st.composite
def laurent_square(draw):
    """Sparse, dense or singular square matrices over Z[t, 1/t]."""
    n = draw(st.integers(0, 5))
    entry = draw(st.sampled_from([laurent_entry, nonzero_entry]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        # row k becomes a Laurent combination of one or two other rows
        k, *others = draw(st.permutations(range(n)))[:3]
        combo = [LaurentPoly.zero()] * n
        for r in others:
            c = draw(laurent_entry)
            combo = [x + c * y for x, y in zip(combo, rows[r])]
        rows[k] = combo
    return rows


@given(laurent_square())
@settings(max_examples=120, deadline=None)
def test_det_matches_sympy(rows):
    # sparse entries force zero pivots, so the row swaps are exercised;
    # dependent rows make the matrix singular
    from sympy.polys.matrices import DomainMatrix
    t = sympy.symbols("t")
    m = sympy.Matrix(len(rows), len(rows), lambda r, c: sum(
        (x * t ** (rows[r][c].low + k) for k, x in enumerate(rows[r][c].coeffs)), 0))
    got = _det(rows)
    if rows:  # sympy's determinant over ZZ(t), quick on dense 5 x 5 input
        dm = DomainMatrix.from_Matrix(m)
        want = dm.domain.to_sympy(dm.det())
    else:
        want = 1
    assert sympy.expand(sum((x * t ** (got.low + k)
                             for k, x in enumerate(got.coeffs)), 0)
                        - want) == 0


wide_entry = st.one_of(
    st.just(LaurentPoly.zero()),
    st.builds(LaurentPoly, st.integers(-4, 4),
              st.lists(st.integers(-2 ** 20, 2 ** 20), max_size=8).map(tuple)),
)


@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(wide_entry, min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_det_matches_sympy_on_wide_entries(rows):
    # coefficients up to 2^20 and spans up to 8 make the evaluation point
    # 2^K of the elimination large
    from sympy.polys.matrices import DomainMatrix
    t = sympy.symbols("t")
    got = _det(rows)
    want = sympy.Integer(1)
    if rows:
        m = sympy.Matrix(len(rows), len(rows), lambda r, c: sum(
            (x * t ** (rows[r][c].low + k)
             for k, x in enumerate(rows[r][c].coeffs)), 0))
        dm = DomainMatrix.from_Matrix(m)
        want = dm.domain.to_sympy(dm.det())
    assert sympy.expand(sum((x * t ** (got.low + k)
                             for k, x in enumerate(got.coeffs)), 0)
                        - want) == 0


# ---------------------------------------------------------------------------
# double branched cover

def test_unknot_homology_trivial():
    for p in (2, 3, 5, 7):
        assert double_cover_homology(BraidWord(1, ()), p) == 0
        assert double_cover_homology(BraidWord(2, (1,)), p) == 0
        assert double_cover_homology(UNKNOT3, p) == 0


def test_trefoil_homology():
    assert double_cover_homology(TREFOIL, 3) == 1
    assert double_cover_homology(TREFOIL, 5) == 0


def test_figure_eight_homology():
    assert double_cover_homology(FIG8, 5) == 1
    assert double_cover_homology(FIG8, 3) == 0


@pytest.mark.parametrize("name", ["trefoil", "figure_eight", "hopf"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_double_cover_matches_seifert_oracle(name, p):
    assert double_cover_homology(SEIFERT_BRAIDS[name], p) == \
        seifert_double_cover_rank(SEIFERT[name], p)


def test_double_cover_ranks_through_burau_namespace(monkeypatch):
    # span tracing wraps burau.corank_mod_p by name: the rank must be taken
    # through that attribute, not by calling the elimination directly
    calls = []

    def record(mat, p):
        calls.append(p)
        return corank_mod_p(mat, p)
    monkeypatch.setattr("qll.burau.corank_mod_p", record)
    assert double_cover_homology(TREFOIL, 3) == 1
    assert calls == [3]


@given(braid_strategy(max_strands=8, max_len=12))
@settings(max_examples=40, deadline=None)
def test_presentation_is_square_of_side_strands_minus_one(b):
    m = double_cover_presentation(b)
    assert len(m) == b.strands - 1
    assert all(len(row) == b.strands - 1 for row in m)


def test_one_strand_presentation_is_empty():
    assert double_cover_presentation(BraidWord(1, ())) == ()
    assert determinant(BraidWord(1, ())) == 1


def test_presentation_invariant_factors():
    # trefoil: H1 = Z/3
    factors = smith_normal_form(double_cover_presentation(TREFOIL))
    assert factors == (3,)
    factors = smith_normal_form(double_cover_presentation(FIG8))
    assert [f for f in factors if f != 1] == [5]


def test_presentation_smith_form_regression():
    # Smith form used to grow entries to millions of bits on this braid
    b = BraidWord(6, (-1, -4, -3, 2, 2, 3, 3, 4, -5, 2, 2, 4, -5, 4, 5, -5,
                      1, 1, 1, -5, -2, -3, -1, 5, -3, 5, 5, 5))
    started = time.perf_counter()
    factors = smith_normal_form(double_cover_presentation(b))
    assert time.perf_counter() - started < 1.0
    assert factors == (1, 1, 1, 1, 1636)
    assert determinant(b) == 1636


@given(braid_strategy(max_strands=8, max_len=20))
@settings(max_examples=80, deadline=None)
def test_presentation_factors_multiply_to_determinant(b):
    det = determinant(b)
    if det == 0:
        return
    factors = smith_normal_form(double_cover_presentation(b))
    product = 1
    for f in factors:
        product *= f
    assert len(factors) == b.strands - 1
    assert product == det


@given(braid_strategy(max_strands=8, max_len=20))
@settings(max_examples=80, deadline=None)
def test_presentation_factors_give_dp(b):
    factors = smith_normal_form(double_cover_presentation(b))
    missing = b.strands - len(factors)
    for p in (3, 5):
        assert sum(1 for f in factors if f % p == 0) + missing == \
            double_cover_homology(b, p) + 1


def test_unlink_homology():
    # double cover of the k-unlink has first Betti number k-1
    assert double_cover_homology(BraidWord(2, ()), 3) == 1
    assert double_cover_homology(BraidWord(3, ()), 5) == 2


def test_composite_p_rejected():
    with pytest.raises(UsageError):
        double_cover_homology(TREFOIL, 6)


def test_homology_determinant_consistency():
    # d_p > 0 requires p to divide the determinant for knot closures
    for b in (TREFOIL, FIG8, BraidWord(2, (1, 1, 1, 1, 1)),
              BraidWord(3, (1, 1, 1, 2, 2, 2))):
        det = determinant(b)
        for p in (2, 3, 5, 7):
            if double_cover_homology(b, p) > 0:
                assert det % p == 0


# ---------------------------------------------------------------------------
# Arf

def test_arf_values():
    assert arf_knot(BraidWord(2, (1,))) == 0
    assert arf_knot(TREFOIL) == 1
    assert arf_knot(FIG8) == 1
    # granny knot: determinant 9 = 1 mod 8
    assert arf_knot(BraidWord(3, (1, 1, 1, 2, 2, 2))) == 0


def test_arf_rejects_links():
    with pytest.raises(UsageError):
        arf_knot(HOPF)


# ---------------------------------------------------------------------------
# finite field evaluation

def test_burau_mod_p_examples():
    assert burau_mod_p(BraidWord(3, ()), 5, 2) == ((1, 0), (0, 1))
    assert burau_mod_p(BraidWord(2, (1,)), 5, 2) == ((3,),)
    assert burau_mod_p(TREFOIL, 5, 2) == ((2,),)


def test_burau_mod_p_validation():
    with pytest.raises(UsageError):
        burau_mod_p(TREFOIL, 4, 1)
    with pytest.raises(UsageError):
        burau_mod_p(TREFOIL, 5, 10)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_burau_mod_p_relations(p):
    for n in (3, 4, 5):
        for t0 in (1, 2):
            for i in range(1, n):
                for j in range(1, n):
                    if abs(i - j) >= 2:
                        assert burau_mod_p(BraidWord(n, (i, j)), p, t0) == \
                            burau_mod_p(BraidWord(n, (j, i)), p, t0)
                    if abs(i - j) == 1:
                        assert burau_mod_p(BraidWord(n, (i, j, i)), p, t0) == \
                            burau_mod_p(BraidWord(n, (j, i, j)), p, t0)
            assert burau_mod_p(BraidWord(n, (1, -1)), p, t0) == \
                burau_mod_p(BraidWord(n, ()), p, t0)


@given(braid_strategy(max_strands=7, max_len=16), st.sampled_from([2, 3, 5, 101]),
       st.integers(-10 ** 6, 10 ** 6))
@example(TREFOIL, 5, 2)
@example(TREFOIL, 7, 3)
@example(FIG8, 5, 2)
@example(FIG8, 7, 3)
@example(BraidWord(4, (1, -2, 3, 2)), 5, 2)
@example(BraidWord(4, (1, -2, 3, 2)), 7, 3)
@example(BraidWord(7, (1, -6, 6, -1, 1, 6, -6, -1)), 101, -5)  # both edge columns
@settings(max_examples=200, deadline=None)
def test_mod_p_consistent_with_laurent(b, p, t0):
    # the F_p route pads each row with zero columns as the Laurent route does;
    # letters at the first and the last column read the padding
    assume(t0 % p)
    m = reduced_burau(b)
    expected = tuple(tuple(x.evaluate_mod(t0, p) for x in row) for row in m)
    assert burau_mod_p(b, p, t0) == expected


# ---------------------------------------------------------------------------
# Markov invariance

@given(braid_strategy(max_strands=4, max_len=8),
       st.lists(st.integers(-3, 3).filter(bool), max_size=3),
       st.sampled_from([1, -1]))
@settings(max_examples=50, deadline=None)
def test_markov_invariance(b, gword, sign):
    g = BraidWord(b.strands, tuple(x for x in gword if abs(x) < b.strands))
    moved = [conjugate(b, g), stabilize(b, sign)]
    alex = alexander_poly(b)
    for m in moved:
        assert alexander_poly(m) == alex
        assert determinant(m) == determinant(b)
        for p in (3, 5):
            assert double_cover_homology(m, p) == double_cover_homology(b, p)
    if closure_components(b) == 1:
        for m in moved:
            assert arf_knot(m) == arf_knot(b)

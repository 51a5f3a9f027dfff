"""Diagram algebra, braid representation, closure trace, and the state-sum
oracle.  The two Jones routes are independent and must agree exactly."""

import cmath
import random

import pytest
from hypothesis import given, settings, strategies as st

from qll.algebra import BudgetError, CyclotomicNumber, UsageError
from qll.braid import BraidWord, conjugate, stabilize
from qll.tl_jones import (
    TLDiagram,
    TLElement,
    _compose_right_table,
    braid_to_tl,
    closure_loop_count,
    diagram_basis,
    e_diagram,
    identity_diagram,
    jones_at_root,
    kauffman_bracket_statesum,
    loop_parameter,
    markov_trace,
    tl_compose,
)

TREFOIL = BraidWord(2, (1, 1, 1))
FIG8 = BraidWord(3, (1, -2, 1, -2))
HOPF = BraidWord(2, (1, 1))


def small_braids(max_strands=4, max_len=10):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=max_len,
        ).map(lambda w: BraidWord(n, tuple(w)))
    )


# ---------------------------------------------------------------------------
# diagrams

def test_catalan_counts():
    assert [len(diagram_basis(n)) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


def test_diagram_validation():
    with pytest.raises(UsageError):
        TLDiagram(2, (1, 0, 2, 3))  # fixed points
    with pytest.raises(UsageError):
        # top 0 to bottom 1 and top 1 to bottom 0 cross
        TLDiagram(2, (3, 2, 1, 0))


def test_compose_identity():
    one = identity_diagram(3)
    assert tl_compose(one, one) == (one, 0)


def test_compose_e1_e1():
    e = e_diagram(2, 1)
    assert tl_compose(e, e) == (e, 1)


def test_compose_e1_e2_is_hook():
    e1, e2 = e_diagram(3, 1), e_diagram(3, 2)
    hook, loops = tl_compose(e1, e2)
    assert loops == 0
    assert hook.partner == (1, 0, 3, 2, 5, 4)
    # and e1 e2 e1 = e1 with no loop
    back, loops2 = tl_compose(hook, e1)
    assert back == e1 and loops2 == 0


def test_compose_jones_relations_all_small_n():
    for n in range(2, 6):
        for i in range(1, n):
            ei = e_diagram(n, i)
            assert tl_compose(ei, ei) == (ei, 1)
            for j in range(1, n):
                if abs(i - j) == 1:
                    mid, l1 = tl_compose(ei, e_diagram(n, j))
                    out, l2 = tl_compose(mid, ei)
                    assert (out, l1 + l2) == (ei, 0)


def test_closure_loop_counts():
    assert closure_loop_count(identity_diagram(3)) == 3
    assert closure_loop_count(e_diagram(2, 1)) == 1


# ---------------------------------------------------------------------------
# braid representation

def test_empty_word_maps_to_identity():
    assert braid_to_tl(BraidWord(2, ()), 5) == TLElement.identity(2, 5)


def test_generator_image():
    l = 5
    x = braid_to_tl(BraidWord(2, (1,)), l)
    A = CyclotomicNumber.zeta(4 * l)
    assert x.coefficient(identity_diagram(2)) == A
    assert x.coefficient(e_diagram(2, 1)) == CyclotomicNumber.zeta(4 * l, -1)


def test_sigma_squared_collected_coefficients():
    # independent symbolic expansion of (A + A^-1 e)^2 with e^2 = d*e
    for l in (3, 4, 7):
        x = braid_to_tl(BraidWord(2, (1, 1)), l)
        A = CyclotomicNumber.zeta(4 * l)
        Ainv = CyclotomicNumber.zeta(4 * l, -1)
        d = loop_parameter(l)
        assert x.coefficient(identity_diagram(2)) == A * A
        assert x.coefficient(e_diagram(2, 1)) == Ainv * Ainv * d + 2


def test_inverse_letter_gives_inverse_element():
    for l in (3, 6):
        x = braid_to_tl(BraidWord(3, (2, -2)), l)
        assert x == TLElement.identity(3, l)
        y = braid_to_tl(BraidWord(3, (-1, 1)), l)
        assert y == TLElement.identity(3, l)


@pytest.mark.parametrize("l", range(3, 13))
def test_braid_relations_in_tl(l):
    for n in range(2, 6):
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) >= 2:
                    lhs = braid_to_tl(BraidWord(n, (i, j)), l)
                    rhs = braid_to_tl(BraidWord(n, (j, i)), l)
                    assert lhs == rhs
                if abs(i - j) == 1:
                    lhs = braid_to_tl(BraidWord(n, (i, j, i)), l)
                    rhs = braid_to_tl(BraidWord(n, (j, i, j)), l)
                    assert lhs == rhs


def _reference_braid_to_tl(b, l):
    # term-by-term product of A*1 + A^-1*e_i in Z[zeta_{4l}]
    A, Ainv = CyclotomicNumber.zeta(4 * l), CyclotomicNumber.zeta(4 * l, -1)
    d = loop_parameter(l)
    cur = dict(TLElement.identity(b.strands, l).coeffs)
    for letter in b.word:
        c_id, c_e = (A, Ainv) if letter > 0 else (Ainv, A)
        table = _compose_right_table(b.strands, abs(letter))
        nxt = {}
        for k, c in cur.items():
            rk, loops = table[k]
            nxt[k] = nxt.get(k, 0) + c * c_id
            nxt[rk] = nxt.get(rk, 0) + c * c_e * d ** loops
        cur = nxt
    return TLElement(b.strands, l, cur)


@settings(max_examples=40, deadline=None)
@given(small_braids(max_strands=6, max_len=30), st.integers(3, 12))
def test_braid_to_tl_matches_reference_product(b, l):
    assert braid_to_tl(b, l) == _reference_braid_to_tl(b, l)


@pytest.mark.parametrize("l", [4, 5, 10])
def test_long_words_keep_digit_width(l):
    A, Ainv = CyclotomicNumber.zeta(4 * l), CyclotomicNumber.zeta(4 * l, -1)
    d = loop_parameter(l)
    e, one = e_diagram(2, 1), identity_diagram(2)
    for sign in (1, -1):
        # TL_2 recurrence for (a*1 + b*e) * (A^s + A^-s e)
        s, s_inv = (A, Ainv) if sign > 0 else (Ainv, A)
        a, b = CyclotomicNumber.one(4 * l), CyclotomicNumber.zero(4 * l)
        for _ in range(300):
            a, b = a * s, a * s_inv + b * (s + s_inv * d)
        x = braid_to_tl(BraidWord(2, (sign,) * 300), l)
        assert x.coefficient(one) == a and x.coefficient(e) == b
    rng = random.Random(l)
    word = tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(150))
    inverse = tuple(-x for x in reversed(word))
    assert braid_to_tl(BraidWord(5, word + inverse), l) == TLElement.identity(5, l)
    # the packed route is exact modulo 2^(2lw) + 1 whatever the width, so
    # only an output with large coefficients (30-odd bits at l = 5) shows a
    # width too small
    assert braid_to_tl(BraidWord(5, word), l) == \
        _reference_braid_to_tl(BraidWord(5, word), l)


# ---------------------------------------------------------------------------
# closure trace

def test_markov_trace_examples():
    l = 5
    d = loop_parameter(l)
    assert markov_trace(TLElement.identity(2, l)) == d
    e_elt = TLElement(2, l, {1: CyclotomicNumber.one(4 * l)})
    # basis of TL_2 is [e_1, identity] sorted by partner tuple
    names = [dd.partner for dd in diagram_basis(2)]
    e_idx = names.index(e_diagram(2, 1).partner)
    e_elt = TLElement(2, l, {e_idx: CyclotomicNumber.one(4 * l)})
    assert markov_trace(e_elt) == CyclotomicNumber.one(4 * l)
    assert markov_trace(TLElement.zero(2, l)).is_zero()


# ---------------------------------------------------------------------------
# jones values

def test_unknot_normalization():
    for l in (3, 4, 5, 10):
        assert jones_at_root(BraidWord(1, ()), l) == 1
        assert jones_at_root(BraidWord(2, (1,)), l) == 1
        assert jones_at_root(BraidWord(2, (-1,)), l) == 1


def test_trefoil_level3():
    assert jones_at_root(TREFOIL, 3) == 1


def test_hopf_level4_vanishes():
    assert jones_at_root(HOPF, 4).is_zero()


def test_figure_eight_level4():
    assert jones_at_root(FIG8, 4) == -1


@pytest.mark.parametrize("l", [5, 7])
def test_trefoil_matches_classical_polynomial(l):
    # chirality pin: s1^3 must give -t^-4 + t^-3 + t^-1 numerically
    t = cmath.exp(2j * cmath.pi / l)
    expected = -t ** -4 + t ** -3 + t ** -1
    assert cmath.isclose(jones_at_root(TREFOIL, l).to_complex(), expected,
                         abs_tol=1e-9)


def test_figure_eight_matches_classical_polynomial():
    for l in (5, 7, 10):
        t = cmath.exp(2j * cmath.pi / l)
        expected = t ** -2 - t ** -1 + 1 - t + t ** 2
        assert cmath.isclose(jones_at_root(FIG8, l).to_complex(), expected,
                             abs_tol=1e-9)


def test_level_validation():
    with pytest.raises(UsageError):
        braid_to_tl(TREFOIL, 2)
    with pytest.raises(UsageError):
        jones_at_root(TREFOIL, 1)
    with pytest.raises(UsageError):
        kauffman_bracket_statesum(TREFOIL, 2)


def test_mirror_is_galois_conjugate():
    for b in (TREFOIL, FIG8, HOPF, BraidWord(3, (1, 2, 1, 2))):
        mirror = BraidWord(b.strands, tuple(-x for x in b.word))
        for l in (4, 5, 6):
            assert jones_at_root(mirror, l) == jones_at_root(b, l).conjugate()


@settings(max_examples=40, deadline=None)
@given(small_braids(max_strands=4, max_len=8),
       st.lists(st.integers(-3, 3).filter(bool), max_size=3),
       st.sampled_from([3, 4, 5]), st.sampled_from([1, -1]))
def test_markov_invariance(b, gword, l, sign):
    v = jones_at_root(b, l)
    g = BraidWord(b.strands, tuple(x for x in gword if abs(x) < b.strands))
    assert jones_at_root(conjugate(b, g), l) == v
    assert jones_at_root(stabilize(b, sign), l) == v


# ---------------------------------------------------------------------------
# state-sum oracle

def test_statesum_unknots():
    assert kauffman_bracket_statesum(BraidWord(1, ()), 5) == 1
    for l in (3, 4, 5, 6):
        assert kauffman_bracket_statesum(BraidWord(2, (1,)), l) == 1


def test_statesum_matches_tl_on_trefoil():
    v = kauffman_bracket_statesum(TREFOIL, 5)
    assert v == jones_at_root(TREFOIL, 5)
    t = cmath.exp(2j * cmath.pi / 5)
    assert cmath.isclose(v.to_complex(), -t ** -4 + t ** -3 + t ** -1,
                         abs_tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(small_braids(max_strands=4, max_len=8), st.sampled_from([3, 4, 5, 6, 10]))
def test_statesum_equals_tl_route(b, l):
    assert kauffman_bracket_statesum(b, l) == jones_at_root(b, l)


def test_statesum_cap():
    with pytest.raises(BudgetError) as exc:
        kauffman_bracket_statesum(BraidWord(2, (1,) * 30), 5)
    assert exc.value.required == 2 ** 30
    # explicit larger cap lifts the refusal; closure is the 2-unlink here
    long_word = BraidWord(2, (1, -1) * 5)
    assert kauffman_bracket_statesum(long_word, 5, max_crossings=10) == \
        jones_at_root(long_word, 5)
    assert jones_at_root(long_word, 5) == loop_parameter(5)


def test_level3_law_small_sample():
    # V = (-1)^(c-1) at l = 3
    assert jones_at_root(TREFOIL, 3) == 1
    assert jones_at_root(HOPF, 3) == -1
    assert jones_at_root(BraidWord(2, ()), 3) == -1
    assert jones_at_root(BraidWord(3, ()), 3) == 1

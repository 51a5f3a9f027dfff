"""Diagram algebra, braid representation, closure trace, and the state-sum
oracle.  The two Jones routes are independent and must agree exactly."""

import ast
import cmath
import random
import tracemalloc
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qll.algebra
import qll.tl_jones
from qll.algebra import BudgetError, CyclotomicNumber, UsageError
from qll.braid import BraidWord, conjugate, stabilize
from qll.tl_jones import (
    TLElement,
    _basis_index,
    _closure_loops,
    _closure_loops_table,
    _compose_right_table,
    _matchings,
    braid_to_tl,
    jones_at_root,
    kauffman_bracket_statesum,
    loop_parameter,
    markov_trace,
)

from oracles import TLDiagram, e_diagram, identity_diagram, tl_compose

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


def oracle_basis(n):
    """The runtime's partner tuples, each validated by the oracle."""
    return tuple(TLDiagram(n, p) for p in _matchings(n))


def coefficient(x, d):
    """The coefficient of diagram d in the TLElement x."""
    k = _basis_index(x.n).get(d.partner)
    return x.coeffs.get(k, CyclotomicNumber.zero(4 * x.l))


# ---------------------------------------------------------------------------
# diagrams

def test_catalan_counts():
    assert [len(_matchings(n)) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


def all_matchings(m):
    """Every perfect matching of 0..m-1, as partner tuples."""
    if m == 0:
        return [()]
    out = []
    for k in range(1, m):
        rest = [x for x in range(1, m) if x != k]
        for sub in all_matchings(m - 2):
            p = [0] * m
            p[0], p[k] = k, 0
            for x, y in enumerate(sub):
                p[rest[x]] = rest[y]
            out.append(tuple(p))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_matchings_are_the_diagram_basis(n):
    tuples = _matchings(n)
    assert list(tuples) == [d.partner for d in oracle_basis(n)]
    assert len(set(tuples)) == comb(2 * n, n) // (n + 1)
    for p in tuples:
        assert TLDiagram(n, p).partner == p
    if n <= 5:  # against the planar ones among all (2n-1)!! matchings
        planar = []
        for p in all_matchings(2 * n):
            try:
                TLDiagram(n, p)
            except UsageError:
                continue
            planar.append(p)
        assert list(tuples) == sorted(planar)


def test_jones_builds_no_diagram():
    b = BraidWord(4, (1, -2, 3, 1, 2, -3, 2))
    expected = kauffman_bracket_statesum(b, 5)
    for cached in (_matchings, _basis_index, _closure_loops_table,
                   _compose_right_table):
        cached.cache_clear()
    assert jones_at_root(b, 5) == expected
    assert not hasattr(qll.tl_jones, "TLDiagram")


def test_oracles_share_no_code_with_routes():
    # the test oracles take only the exception type from qll, and the
    # runtime no longer defines what moved to them or was deleted
    path = Path(__file__).with_name("oracles.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [(a.name, None) for a in node.names
                      if a.name.split(".")[0] == "qll"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "qll":
                taken += [(node.module, a.name) for a in node.names]
    assert taken == [("qll.algebra", "UsageError")]
    for name in ("TLDiagram", "identity_diagram", "e_diagram", "tl_compose",
                 "diagram_basis", "closure_loop_count", "dataclass"):
        assert not hasattr(qll.tl_jones, name), name
    assert not hasattr(TLElement, "coefficient")
    assert not hasattr(qll.algebra, "smith_normal_form")


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


def test_compose_right_table_matches_tl_compose():
    # the table rewires two chords; tl_compose walks the whole composite
    for n in range(2, 8):
        basis = oracle_basis(n)
        index = {d: k for k, d in enumerate(basis)}
        for i in range(1, n):
            e = e_diagram(n, i)
            expected, closed = [], []
            for d in basis:
                r, loops = tl_compose(d, e)
                expected.append(index[r])
                closed.append(loops)
                assert loops in (0, 1)
            table = _compose_right_table(n, i)
            assert table == tuple(expected)
            # a loop closes exactly where the entry keeps its index
            assert [int(rk == k) for k, rk in enumerate(table)] == closed
    for i in (0, 3):
        with pytest.raises(UsageError):
            _compose_right_table(3, i)


def test_compose_right_tables_hold_one_pointer_per_entry():
    # Each entry is the int object already held as a value of _basis_index,
    # so a table costs one tuple slot (8 bytes) per entry.  The 24-byte
    # bound holds only while entries reuse those ints: a fresh int per entry
    # (28 bytes) or a (index, loops) pair per entry (64 bytes) breaks it.
    n = 10
    _basis_index(n)
    _compose_right_table.cache_clear()
    tracemalloc.start()
    try:
        tables = [_compose_right_table(n, i) for i in range(1, n)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = sum(len(t) for t in tables)
    assert entries == (n - 1) * comb(2 * n, n) // (n + 1)
    assert held <= 24 * entries


def test_closure_loop_counts():
    assert _closure_loops(3, identity_diagram(3).partner) == 3
    assert _closure_loops(2, e_diagram(2, 1).partner) == 1


# ---------------------------------------------------------------------------
# braid representation

def test_empty_word_maps_to_identity():
    assert braid_to_tl(BraidWord(2, ()), 5) == TLElement.identity(2, 5)


def test_generator_image():
    l = 5
    x = braid_to_tl(BraidWord(2, (1,)), l)
    A = CyclotomicNumber.zeta(4 * l)
    assert coefficient(x, identity_diagram(2)) == A
    assert coefficient(x, e_diagram(2, 1)) == CyclotomicNumber.zeta(4 * l, -1)


def test_sigma_squared_collected_coefficients():
    # independent symbolic expansion of (A + A^-1 e)^2 with e^2 = d*e
    for l in (3, 4, 7):
        x = braid_to_tl(BraidWord(2, (1, 1)), l)
        A = CyclotomicNumber.zeta(4 * l)
        Ainv = CyclotomicNumber.zeta(4 * l, -1)
        d = loop_parameter(l)
        assert coefficient(x, identity_diagram(2)) == A * A
        assert coefficient(x, e_diagram(2, 1)) == Ainv * Ainv * d + 2


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
            rk = table[k]
            nxt[k] = nxt.get(k, 0) + c * c_id
            nxt[rk] = nxt.get(rk, 0) + c * c_e * (d if rk == k else 1)
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
        assert coefficient(x, one) == a and coefficient(x, e) == b
    rng = random.Random(l)
    word = tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(150))
    inverse = tuple(-x for x in reversed(word))
    assert braid_to_tl(BraidWord(5, word + inverse), l) == TLElement.identity(5, l)
    # the packed route is exact modulo 2^(2lw) + 1 whatever the width, so
    # only an output with large coefficients (30-odd bits at l = 5) shows a
    # width too small
    assert braid_to_tl(BraidWord(5, word), l) == \
        _reference_braid_to_tl(BraidWord(5, word), l)


@settings(max_examples=40, deadline=None)
@given(small_braids(max_strands=7, max_len=30), st.integers(3, 12))
def test_braid_to_tl_keeps_no_zero_coefficient(b, l):
    assert 0 not in braid_to_tl(b, l).packed.values()


@pytest.mark.parametrize("l", [3, 5, 10])
def test_conjugated_relator_cancels_to_one_term(l):
    # w g r g^-1 w^-1 is the trivial braid for a braid relator r, so every
    # diagram but the identity ends with coefficient exactly 0 in
    # Z[A]/(A^{2l}+1), and each must have been deleted
    n, rng = 6, random.Random(l)

    def word(m):
        return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(m))

    def inv(u):
        return tuple(-x for x in reversed(u))

    relators = [(i, i + 1, i, -i - 1, -i, -i - 1) for i in range(1, n - 1)]
    relators += [(1, 3, -1, -3), (2, 5, -2, -5)]
    for r in relators:
        w, g = word(12), word(5)
        b = BraidWord(n, w + g + r + inv(g) + inv(w))
        assert braid_to_tl(b, l).packed == TLElement.identity(n, l).packed


# ---------------------------------------------------------------------------
# closure trace

def test_markov_trace_examples():
    l = 5
    d = loop_parameter(l)
    assert markov_trace(TLElement.identity(2, l)) == d
    e_elt = TLElement(2, l, {1: CyclotomicNumber.one(4 * l)})
    # basis of TL_2 is [e_1, identity] sorted by partner tuple
    names = list(_matchings(2))
    e_idx = names.index(e_diagram(2, 1).partner)
    e_elt = TLElement(2, l, {e_idx: CyclotomicNumber.one(4 * l)})
    assert markov_trace(e_elt) == CyclotomicNumber.one(4 * l)
    assert markov_trace(TLElement.zero(2, l)).is_zero()


def reference_trace(x):
    """Sum of c_k d^(loops-1) in CyclotomicNumber arithmetic, read from the
    reduced coefficients only."""
    d = loop_parameter(x.l)
    loops = _closure_loops_table(x.n)
    total = CyclotomicNumber.zero(4 * x.l)
    for k, c in x.coeffs.items():
        term = c
        for _ in range(loops[k] - 1):
            term = term * d
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(small_braids(max_strands=6, max_len=20), st.integers(3, 12))
def test_packed_trace_matches_reference_sum(b, l):
    x = braid_to_tl(b, l)
    expected = reference_trace(x)
    assert markov_trace(x) == expected
    rebuilt = TLElement(b.strands, l, x.coeffs)
    assert rebuilt == x
    assert markov_trace(rebuilt) == expected


# at l = 3 the digit ring is the smallest, 2l = 6; the powers of s1 put the
# identity coefficient A^k on every digit, the top two included, which wrap
# round in the products by A^2 and A^-2
@pytest.mark.parametrize("b, l", [(BraidWord(1, ()), 3)]
                         + [(BraidWord(2, (s,) * k), 3) for s in (1, -1) for k in range(7)]
                         + [(BraidWord(3, (1, -2, 1)), 1000)])
def test_trace_horner_edge_cases(b, l):
    x = braid_to_tl(b, l)
    assert markov_trace(x) == reference_trace(x)
    assert jones_at_root(b, l) == kauffman_bracket_statesum(b, l)


def test_large_coefficients_round_trip():
    l, big = 5, 2 ** 100
    A = CyclotomicNumber.zeta(4 * l)
    coeffs = {0: CyclotomicNumber.from_int(big, 4 * l),
              1: A * -big + 3,
              2: CyclotomicNumber.from_int(-big, 4 * l)}
    x = TLElement(3, l, coeffs)
    assert x.coeffs == coeffs
    assert markov_trace(x) == reference_trace(x)
    d = loop_parameter(l)
    loops = _closure_loops_table(3)[1]
    assert markov_trace(TLElement(3, l, {1: coeffs[1]})) == \
        coeffs[1] * d ** (loops - 1)


def test_packed_multiple_of_the_cyclotomic_polynomial_is_zero():
    # Phi_20 = A^8 - A^6 + A^4 - A^2 + 1 is nonzero in Z[A]/(A^10 + 1) but
    # zero in Z[zeta_20]: equality and the trace see the reduced value.  The
    # width w = 6 bounds the digit mass 11 of y below 2^(w-2)
    l, w = 5, 6
    phi20 = 0
    for digit in reversed((1, 0, -1, 0, 1, 0, -1, 0, 1, 0)):
        phi20 = (phi20 << w) + digit
    x = TLElement._from_packed(2, l, w, {0: phi20})
    assert x.packed == {0: phi20} and phi20
    assert x.coeffs == {}
    assert x == TLElement.zero(2, l)
    assert markov_trace(x).is_zero()
    y = TLElement._from_packed(2, l, w, {0: phi20, 1: phi20 + 1})
    assert y == TLElement.identity(2, l)
    assert markov_trace(y) == loop_parameter(l)


def test_jones_route_price():
    b = BraidWord(4, (1, -2, 3, 1, 2, -3, 2))
    price = 14 * (7 + 16)  # C_4 (m + n^2)
    with pytest.raises(BudgetError) as exc:
        jones_at_root(b, 5, budget=price - 1)
    assert exc.value.required == price
    assert jones_at_root(b, 5, budget=price) == kauffman_bracket_statesum(b, 5)
    with pytest.raises(UsageError):
        jones_at_root(b, 2, budget=1)


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
    assert exc.value.required == 2 ** 30 * 32
    # a budget of the exact price 2^m (n + m) admits the sum; closure is the
    # 2-unlink here
    long_word = BraidWord(2, (1, -1) * 5)
    assert kauffman_bracket_statesum(long_word, 5, budget=2 ** 10 * 12) == \
        jones_at_root(long_word, 5)
    assert jones_at_root(long_word, 5) == loop_parameter(5)


def test_level3_law_small_sample():
    # V = (-1)^(c-1) at l = 3
    assert jones_at_root(TREFOIL, 3) == 1
    assert jones_at_root(HOPF, 3) == -1
    assert jones_at_root(BraidWord(2, ()), 3) == -1
    assert jones_at_root(BraidWord(3, ()), 3) == 1

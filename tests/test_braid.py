"""Braid word combinatorics: parsing, permutations, closures, Markov moves."""

import pytest
from hypothesis import given, strategies as st

from qll.algebra import UsageError
from qll.braid import (
    BraidWord,
    Permutation,
    closure_components,
    component_of_strand,
    concat,
    conjugate,
    free_reduce,
    inverse,
    linking_matrix,
    parse_braid,
    stabilize,
    underlying_permutation,
    writhe,
)


def braid_strategy(max_strands=5, max_len=12):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=max_len,
        ).map(lambda w: BraidWord(n, tuple(w)))
    )


# ---------------------------------------------------------------------------
# parsing

def test_parse_trefoil():
    b = parse_braid("1 1 1", 2)
    assert b == BraidWord(2, (1, 1, 1))


def test_parse_empty():
    assert parse_braid("", 3) == BraidWord(3, ())


def test_parse_figure_eight():
    assert parse_braid("1 -2 1 -2", 3).word == (1, -2, 1, -2)


@pytest.mark.parametrize("text", ["3", "0", "x", "1 2 z"])
def test_parse_rejects_bad_letters(text):
    with pytest.raises(UsageError):
        parse_braid(text, 3)


# ---------------------------------------------------------------------------
# permutations

def test_sigma1_is_transposition():
    assert underlying_permutation(BraidWord(2, (1,))).images == (2, 1)


def test_empty_word_is_identity():
    assert underlying_permutation(BraidWord(4, ())).images == (1, 2, 3, 4)


def test_two_transpositions_give_three_cycle():
    # left-to-right convention: s1 then s2 sends 1->3, 2->1, 3->2
    p = underlying_permutation(BraidWord(3, (1, 2)))
    assert p.images == (3, 1, 2)
    assert p.cycles() == [(1, 3, 2)]


@given(braid_strategy(), braid_strategy())
def test_permutation_is_homomorphism(a, b):
    if a.strands != b.strands:
        b = BraidWord(a.strands, tuple(x for x in b.word if abs(x) < a.strands))
    ab = concat(a, b)
    assert underlying_permutation(ab) == underlying_permutation(a).then(
        underlying_permutation(b))


def test_closure_components_examples():
    assert closure_components(BraidWord(2, (1, 1, 1))) == 1
    assert closure_components(BraidWord(2, (1, 1))) == 2
    assert closure_components(BraidWord(3, ())) == 3


def test_writhe_examples():
    assert writhe(BraidWord(2, (1, 1, 1))) == 3
    assert writhe(BraidWord(2, (1, -1))) == 0
    assert writhe(BraidWord(3, (1, -2, 1, -2))) == 0


# ---------------------------------------------------------------------------
# linking matrix

def test_linking_hopf():
    assert linking_matrix(BraidWord(2, (1, 1))) == ((0, 1), (1, 0))


def test_linking_unlink():
    assert linking_matrix(BraidWord(2, ())) == ((0, 0), (0, 0))


def test_linking_negative_hopf():
    assert linking_matrix(BraidWord(2, (-1, -1))) == ((0, -1), (-1, 0))


@given(braid_strategy(max_strands=4, max_len=10))
def test_linking_symmetric_zero_diagonal(b):
    m = linking_matrix(b)
    for i, row in enumerate(m):
        assert row[i] == 0
        for j, x in enumerate(row):
            assert x == m[j][i]


@given(braid_strategy(max_strands=4, max_len=8),
       st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=4))
def test_linking_invariant_under_conjugation(b, gword):
    g = BraidWord(b.strands, tuple(x for x in gword if abs(x) < b.strands))
    # conjugation permutes strands but not components-as-sets of the closure;
    # compare multisets of off-diagonal entries
    def multiset(m):
        return sorted(x for i, row in enumerate(m) for j, x in enumerate(row) if i < j)
    assert multiset(linking_matrix(conjugate(b, g))) == multiset(linking_matrix(b))


# ---------------------------------------------------------------------------
# Markov moves and word operations

def test_conjugate_is_formal():
    b = BraidWord(2, (1, 1, 1))
    assert conjugate(b, BraidWord(2, (1,))).word == (1, 1, 1, 1, -1)


def test_stabilize():
    assert stabilize(BraidWord(2, (1, 1, 1)), +1) == BraidWord(3, (1, 1, 1, 2))
    assert stabilize(BraidWord(1, ()), -1) == BraidWord(2, (-1,))
    with pytest.raises(UsageError):
        stabilize(BraidWord(2, (1,)), 2)


def test_concat_rejects_mismatched_strands():
    with pytest.raises(UsageError):
        concat(BraidWord(2, (1,)), BraidWord(3, (1,)))


@given(braid_strategy())
def test_inverse_cancels(b):
    assert free_reduce(concat(b, inverse(b))).word == ()


@given(braid_strategy())
def test_free_reduce_preserves_closure_data(b):
    r = free_reduce(b)
    assert underlying_permutation(r) == underlying_permutation(b)
    assert writhe(r) == writhe(b)
    assert linking_matrix(r) == linking_matrix(b)


def test_component_of_strand_trefoil_and_unlink():
    assert component_of_strand(BraidWord(2, (1, 1, 1))) == [0, 0]
    assert component_of_strand(BraidWord(3, ())) == [0, 1, 2]


def test_permutation_validation():
    with pytest.raises(UsageError):
        Permutation((1, 1))

"""Homomorphism counting: builtin group tables, the Hurwitz action, exact
counts against a Wirtinger-presentation oracle, and the seeded estimator."""

import hashlib
import itertools
import math
import random
import runpy
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qll.homcount
from qll.algebra import BudgetError, UsageError
from qll.braid import BraidWord, closure_components, conjugate, stabilize
from qll.homcount import (_SLICE, FiniteGroup, _act, _parse_group, _word_ops,
                          builtin_group, hom_count_estimate, hom_count_exact,
                          hurwitz_act, wirtinger_hom_count)

import test_cli
from oracles import hurwitz_move

Z2 = builtin_group("cyclic 2")
Z3 = builtin_group("cyclic 3")
Z6 = builtin_group("cyclic 6")
V4 = builtin_group("dihedral 2")
S3 = builtin_group("symmetric 3")
D4 = builtin_group("dihedral 4")
Q8 = builtin_group("quaternion8")
Q8_S3 = builtin_group("quaternion8 x symmetric 3")
SMALL_GROUPS = [Z2, Z3, Z6, V4, S3, D4, Q8]


def relabelled(G, perm):
    """G with element a renamed perm[a]."""
    table = [[0] * G.size for _ in range(G.size)]
    for a, b in itertools.product(range(G.size), repeat=2):
        table[perm[a]][perm[b]] = perm[G.mul[a][b]]
    return FiniteGroup(G.name + " relabelled", tuple(map(tuple, table)))


S3_RELABELLED = relabelled(S3, (4, 2, 0, 5, 1, 3))

UNKNOT = BraidWord(1, ())
UNKNOT_B2 = BraidWord(2, (1,))
UNLINK2 = BraidWord(2, ())
HOPF = BraidWord(2, (1, 1))
TREFOIL = BraidWord(2, (1, 1, 1))
FIG8 = BraidWord(3, (1, -2, 1, -2))
GRANNY = BraidWord(3, (1, 1, 1, 2, 2, 2))
SQUARE = BraidWord(3, (1, 1, 1, -2, -2, -2))


def element_order(G, a):
    x, k = a, 1
    while x != G.identity:
        x = G.mul[x][a]
        k += 1
    return k


# ---------------------------------------------------------------------------
# builtin groups


@pytest.mark.parametrize("spec,size", [
    ("cyclic 1", 1), ("cyclic 7", 7), ("dihedral 3", 6), ("dihedral 4", 8),
    ("symmetric 3", 6), ("symmetric 4", 24), ("quaternion8", 8),
    ("cyclic 2 x cyclic 3", 6), ("cyclic 2 x quaternion8 x cyclic 3", 48),
])
def test_builtin_orders(spec, size):
    assert builtin_group(spec).size == size


@pytest.mark.parametrize("spec,abelian", [
    ("cyclic 6", True), ("dihedral 1", True), ("dihedral 2", True),
    ("dihedral 3", False), ("symmetric 3", False), ("quaternion8", False),
    ("cyclic 2 x cyclic 2", True),
])
def test_builtin_abelian(spec, abelian):
    assert builtin_group(spec).is_abelian() is abelian


def test_product_of_coprime_cyclics_is_cyclic():
    prod = builtin_group("cyclic 2 x cyclic 3")
    orders = sorted(element_order(prod, a) for a in range(prod.size))
    assert orders == sorted(element_order(Z6, a) for a in range(6)) == [1, 2, 3, 3, 6, 6]


def test_quaternion_structure():
    # 0..7 = +1,+i,+j,+k,-1,-i,-j,-k
    assert Q8.mul[1][2] == 3 and Q8.mul[2][1] == 7  # ij = k, ji = -k
    assert Q8.mul[2][3] == 1 and Q8.mul[3][1] == 2  # jk = i, ki = j
    assert all(Q8.mul[a][a] == 4 for a in (1, 2, 3))  # squares of i,j,k
    assert [a for a in range(8) if element_order(Q8, a) == 2] == [4]
    center = [a for a in range(8) if all(Q8.mul[a][b] == Q8.mul[b][a] for b in range(8))]
    assert center == [0, 4]


def test_dihedral_presentation():
    # index a + k*b for r^a s^b
    k = 5
    G = builtin_group("dihedral 5")
    r, s = 1, k
    assert element_order(G, r) == k and element_order(G, s) == 2
    assert G.mul[s][r] == G.mul[G.inv[r]][s]  # s r = r^-1 s


def test_symmetric_composes_left_to_right():
    # elements are lexicographically sorted permutation tuples
    perms = list(itertools.permutations(range(3)))
    a, b = perms.index((1, 0, 2)), perms.index((0, 2, 1))
    composed = tuple(perms[b][perms[a][i]] for i in range(3))
    assert S3.mul[a][b] == perms.index(composed)


def test_group_validation_rejects_bad_tables():
    with pytest.raises(UsageError):
        FiniteGroup("empty", ())
    with pytest.raises(UsageError):
        FiniteGroup("ragged", ((0, 1), (1,)))
    with pytest.raises(UsageError):
        FiniteGroup("no identity", ((1, 0), (1, 0)))
    # left-zero semigroup with identity glued on: not associative
    with pytest.raises(UsageError):
        FiniteGroup("bad", ((0, 1, 2), (1, 2, 0), (2, 2, 1)))


def test_identity_and_inverses_are_not_settable():
    for kwargs in (dict(identity=1), dict(inv=(0, 1))):
        with pytest.raises(TypeError):
            FiniteGroup("c2", Z2.mul, **kwargs)


@pytest.mark.parametrize("spec", [
    "cyclic 1", "cyclic 2", "cyclic 3", "cyclic 6", "cyclic 100",
    "dihedral 2", "dihedral 4", "dihedral 5", "symmetric 3", "symmetric 4",
    "symmetric 5", "quaternion8", "quaternion8 x symmetric 3",
    "cyclic 2 x cyclic 3",
])
def test_builtin_identity_and_inverses(spec):
    # both are unique in a group, so values that satisfy the axioms are the
    # ones read off the table before; every builtin puts its identity at 0
    G = builtin_group(spec)
    assert G.identity == 0
    assert all(G.mul[0][x] == x == G.mul[x][0] for x in range(G.size))
    assert all(G.mul[a][b] == 0 == G.mul[b][a] for a, b in enumerate(G.inv))


@pytest.mark.parametrize("spec", ["", "cyclic", "cyclic -3", "cyclic x",
                                  "symmetric 9", "frobnitz 5",
                                  "cyclic 200 x cyclic 200"])
def test_builtin_rejects_bad_specs(spec):
    with pytest.raises(UsageError):
        builtin_group(spec)


def test_large_group_uses_spot_checked_validation():
    assert builtin_group("cyclic 100").size == 100


@pytest.mark.parametrize("spec", ["cyclic 1", "dihedral 5", "symmetric 4",
                                  "quaternion8 x symmetric 3",
                                  "cyclic 2 x cyclic 3 x dihedral 2"])
def test_group_table_priced_at_order_squared(spec):
    order = _parse_group(spec)[1]
    assert builtin_group(spec, budget=order ** 2).size == order
    with pytest.raises(BudgetError) as exc:
        builtin_group(spec, budget=order ** 2 - 1)
    assert exc.value.required == order ** 2


def no_table(k):
    raise AssertionError("symmetric %d table built" % k)


def test_refused_group_builds_no_table(monkeypatch, capsys):
    # symmetric 7 has 5040^2 = 25,401,600 table entries; under a budget of
    # 10^6 neither builtin_group nor any hom method starts building them
    monkeypatch.setattr(qll.homcount, "_symmetric_table", no_table)
    with pytest.raises(BudgetError):
        builtin_group("symmetric 7", budget=10 ** 6)
    argv = ("hom", "--strands", "2", "--word", "1 1 1", "--group",
            "symmetric 7", "--budget", "1000000")
    for extra in ((), ("--wirtinger",), ("--estimate", "10", "1")):
        code, _, err = test_cli.run(capsys, *argv, *extra)
        assert code == 3, extra
        assert "budget refused" in err
    code, _, err = test_cli.run(capsys, "invariants", "--strands", "2",
                                "--word", "1 1 1", "--hom", "symmetric 7",
                                "--budget", "1000000")
    assert code == 3
    assert "multiplication table of order 5040 needs 25401600" in err


def test_refused_count_builds_no_table(monkeypatch, capsys, tmp_path):
    # at the default budget the symmetric 7 table (25,401,600 steps) fits,
    # but neither a count on 4 strands nor 10^9 samples does: each is refused
    # before the table is built
    monkeypatch.setattr(qll.homcount, "_symmetric_table", no_table)
    argv = ("invariants", "--strands", "4", "--word", "1 2 3")
    code, _, err = test_cli.run(capsys, *argv, "--hom", "symmetric 7")
    assert code == 3 and "exact count over 5040^4 tuples" in err
    code, _, err = test_cli.run(capsys, *argv, "--hom-estimate", "symmetric 7",
                                "1000000000", "1")
    assert code == 3 and "estimate from 1000000000 samples" in err
    corpus = tmp_path / "s7.corpus"
    corpus.write_text("x ; 4 ; 1 2 3 ; hom.symmetric 7=0\n")
    code, out, _ = test_cli.run(capsys, "check-table", "--corpus", str(corpus),
                                "--no-timings")
    assert code == 0
    assert "[SKIP] x :: expected:hom.symmetric 7 :: exact count over 5040^4" in out


# ---------------------------------------------------------------------------
# Hurwitz action


def test_hurwitz_positive_move():
    b = BraidWord(2, (1,))
    mul, inv = S3.mul, S3.inv
    for a, c in itertools.product(range(6), repeat=2):
        assert hurwitz_act(b, (a, c), S3) == (mul[mul[a][c]][inv[a]], a)


def test_hurwitz_inverse_move_cancels():
    for word in [(1, -1), (-1, 1), (2, -2)]:
        b = BraidWord(3, word)
        for x in itertools.product(range(6), repeat=3):
            assert hurwitz_act(b, x, S3) == x


def test_hurwitz_braid_relation():
    lhs = BraidWord(3, (1, 2, 1))
    rhs = BraidWord(3, (2, 1, 2))
    for x in itertools.product(range(6), repeat=3):
        assert hurwitz_act(lhs, x, S3) == hurwitz_act(rhs, x, S3)


def test_hurwitz_far_commutation():
    lhs = BraidWord(4, (1, 3))
    rhs = BraidWord(4, (3, 1))
    for x in itertools.product(range(4), repeat=4):
        assert hurwitz_act(lhs, x, V4) == hurwitz_act(rhs, x, V4)


def test_hurwitz_wrong_length_rejected():
    with pytest.raises(UsageError):
        hurwitz_act(BraidWord(3, (1,)), (0, 0), S3)


@st.composite
def kernel_batch(draw):
    G = draw(st.sampled_from([Z2, S3, D4, Q8, Q8_S3]))
    n = draw(st.integers(1, 6))
    letters = [i for i in range(1 - n, n) if i]
    word = draw(st.lists(st.sampled_from(letters), max_size=20)) if letters else []
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    batch = [tuple(rng.randrange(G.size) for _ in range(n))
             for _ in range(draw(st.integers(1, 300)))]
    return G, tuple(word), batch


@given(kernel_batch())
@example((S3, (), [(0,)]))
@example((Q8_S3, (1, -1, 2, -2, 5, -5), [(47,) * 6] * 300))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_the_per_tuple_reference(case):
    G, word, batch = case
    cols = list(zip(*batch))
    moved = _act(cols, _word_ops(BraidWord(len(batch[0]), word)), G.mul, G.inv)
    assert list(zip(*moved)) == [hurwitz_move(word, x, G.mul, G.inv)
                                 for x in batch]
    assert list(zip(*cols)) == batch  # the input columns are not written


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8),
       st.tuples(*[st.integers(0, 5)] * 4))
@settings(max_examples=60, deadline=None)
def test_hurwitz_preserves_total_product(word, x):
    b = BraidWord(4, tuple(word))
    y = hurwitz_act(b, x, S3)
    def total(tup):
        acc = S3.identity
        for g in tup:
            acc = S3.mul[acc][g]
        return acc
    assert total(x) == total(y)


# ---------------------------------------------------------------------------
# exact counts


def test_unknot_counts_are_group_orders():
    for G in SMALL_GROUPS:
        assert hom_count_exact(UNKNOT, G) == G.size
        assert hom_count_exact(UNKNOT_B2, G) == G.size


def test_unlink_counts_are_order_powers():
    for G in (Z2, S3, Q8):
        assert hom_count_exact(UNLINK2, G) == G.size ** 2
        assert hom_count_exact(BraidWord(3, ()), G) == G.size ** 3


def test_hopf_counts_commuting_pairs():
    for G in SMALL_GROUPS:
        pairs = sum(1 for a, b in itertools.product(range(G.size), repeat=2)
                    if G.mul[a][b] == G.mul[b][a])
        assert hom_count_exact(HOPF, G) == pairs
    assert hom_count_exact(HOPF, Z2) == 4
    assert hom_count_exact(HOPF, Z3) == 9
    assert hom_count_exact(HOPF, S3) == 18


def test_trefoil_counts_braid_relation_pairs():
    # the closure's group is generated by two meridians with aba = bab
    for G in SMALL_GROUPS:
        pairs = sum(1 for a, b in itertools.product(range(G.size), repeat=2)
                    if G.mul[G.mul[a][b]][a] == G.mul[G.mul[b][a]][b])
        assert hom_count_exact(TREFOIL, G) == pairs
    assert hom_count_exact(TREFOIL, S3) == 12
    assert hom_count_exact(TREFOIL, Q8) == 8
    assert hom_count_exact(TREFOIL, Z6) == 6


def test_figure_eight_s3_count():
    # no 3-torsion in the double branched cover, so only cyclic images
    assert hom_count_exact(FIG8, S3) == 6


def test_composite_knot_counts():
    assert hom_count_exact(GRANNY, S3) == 30
    assert hom_count_exact(SQUARE, S3) == 30


def test_split_sum_is_multiplicative():
    # adding an unused strand multiplies the count by |G|
    split = BraidWord(3, (1, 1, 1))
    assert hom_count_exact(split, S3) == 12 * 6
    assert hom_count_exact(split, Z6) == 6 * 6


@given(st.integers(2, 4), st.lists(st.integers(-3, 3).filter(lambda x: x != 0),
                                   min_size=0, max_size=7))
@settings(max_examples=40, deadline=None)
def test_abelian_count_is_order_to_components(n, raw):
    word = tuple(x for x in raw if abs(x) < n)
    b = BraidWord(n, word)
    c = closure_components(b)
    for G in (Z6, V4):
        assert hom_count_exact(b, G) == G.size ** c


@given(st.integers(2, 3), st.lists(st.integers(-2, 2).filter(lambda x: x != 0),
                                   min_size=1, max_size=6),
       st.lists(st.integers(-2, 2).filter(lambda x: x != 0),
                min_size=1, max_size=3),
       st.sampled_from([1, -1]))
@settings(max_examples=30, deadline=None)
def test_markov_moves_preserve_counts(n, raw, conj, sign):
    word = tuple(x for x in raw if abs(x) < n)
    b = BraidWord(n, word)
    g = BraidWord(n, tuple(x for x in conj if abs(x) < n))
    for G in (S3, Z6):
        base = hom_count_exact(b, G)
        assert hom_count_exact(conjugate(b, g), G) == base
        assert hom_count_exact(stabilize(b, sign), G) == base


def naive_hom_count(b, G):
    return sum(1 for x in itertools.product(range(G.size), repeat=b.strands)
               if hurwitz_move(b.word, x, G.mul, G.inv) == x)


def test_relabelled_group_moves_the_identity():
    assert S3_RELABELLED.identity == 4
    assert S3_RELABELLED.inv[S3_RELABELLED.identity] == 4


@st.composite
def group_and_braid(draw):
    # at most 8000 tuples, so the naive enumeration stays cheap
    G = draw(st.sampled_from([Z6, S3, D4, Q8, Q8_S3, S3_RELABELLED]))
    n = draw(st.integers(1, max(k for k in range(1, 6) if G.size ** k <= 8000)))
    letters = [i for i in range(-n + 1, n) if i]
    word = draw(st.lists(st.sampled_from(letters), max_size=12)) if letters else []
    return G, BraidWord(n, tuple(word))


@given(group_and_braid())
@example((Q8_S3, BraidWord(1, ())))
@example((S3_RELABELLED, BraidWord(3, ())))
# C(i, j) x C((12), (123)) is the centre {+1, -1} of Q8 x S3, so the last
# position below such a pair is enumerated plainly
@example((Q8_S3, BraidWord(3, (1, -2, 1, -2))))
# a pure braid: every position heads its own cycle, so nothing is pruned
@example((S3, BraidWord(3, (1, 1, 2, 2))))
# a 6-strand knot: positions 1..5 draw from the class of position 0
@example((S3, BraidWord(6, (1, 2, 3, 4, 5))))
# two components, on positions 0, 2, 4 and 1, 3, 5
@example((S3, BraidWord(6, (1, -2, 3, -4, 5, 1, -2, 3, -4, 5))))
@example((S3_RELABELLED, BraidWord(4, (1, -2, 3, 1, -2, 3))))
# C((12), (13)) is trivial, so positions 2 and 3 are left to the central
# branch, and position 3's cycle head is position 2
@example((S3, BraidWord(4, (1, 1, 3))))
@settings(max_examples=60, deadline=None)
def test_orbit_count_matches_naive_and_wirtinger(case):
    G, b = case
    count = hom_count_exact(b, G)
    assert count == naive_hom_count(b, G)
    assert count == wirtinger_hom_count(b, G)


def counted_act(monkeypatch):
    # the tuples the kernel is given, summed over its calls: each batch holds
    # one label column per strand, one entry per tuple
    calls = [0]
    act = qll.homcount._act

    def counting(cols, *args):
        calls[0] += len(cols[0])
        return act(cols, *args)

    monkeypatch.setattr(qll.homcount, "_act", counting)
    return calls


@pytest.mark.parametrize("b,G", [
    (TREFOIL, S3), (FIG8, S3), (GRANNY, Q8), (FIG8, Q8_S3),
    (BraidWord(4, (1, -2, 3, -2, 1)), D4), (BraidWord(3, (1, 2)), Z6),
    (BraidWord(6, (1, 2, 3, 4, 5)), S3), (UNLINK2, S3),
])
def test_work_stays_within_the_price(monkeypatch, b, G):
    calls = counted_act(monkeypatch)
    expected = naive_hom_count(b, G)
    calls[0] = 0
    assert hom_count_exact(b, G) == expected
    price = G.size ** b.strands * max(1, len(b.word))
    assert calls[0] * max(1, len(b.word)) <= price
    with pytest.raises(BudgetError) as info:
        hom_count_exact(b, G, budget=price - 1)
    assert info.value.required == price


@pytest.mark.parametrize("b,G,applications", [
    (FIG8, Q8_S3, 140),
    (BraidWord(6, (1, 2, 3, 4, 5)), S3, 155),
    (BraidWord(3, ()), Q8, 176),
    (BraidWord(4, (1, -2, 3, -2, 1)), D4, 296),
    (BraidWord(4, (1, 2, 3, 1, 2, 3, 1)), builtin_group("symmetric 4"), 311),
    (GRANNY, Q8, 14),
])
def test_central_tails_cost_no_more(monkeypatch, b, G, applications):
    # the word applications of an enumeration that listed the positions
    # after a central centraliser plainly, by class or over all of G: the
    # middle four reach such a centraliser (the unlink with no head labelled
    # yet), FIG8 and GRANNY never do
    calls = counted_act(monkeypatch)
    assert hom_count_exact(b, G) == wirtinger_hom_count(b, G)
    assert 0 < calls[0] <= applications


def conjugation_orbit_count(G, n):
    """Orbits of G on G^n under simultaneous conjugation, by Burnside: the
    mean over g of |C_G(g)|^n."""
    centralisers = [sum(1 for h in range(G.size) if G.mul[g][h] == G.mul[h][g])
                    for g in range(G.size)]
    return sum(c ** n for c in centralisers) // G.size


def test_class_pruning_cuts_the_work(monkeypatch):
    # every fixed label of a knot is conjugate to the first one; without
    # that, this count applies the word 8,051 times
    calls = counted_act(monkeypatch)
    assert hom_count_exact(BraidWord(6, (1, 2, 3, 4, 5)), S3) == 6
    assert 0 < calls[0] <= 200
    # a pure braid prunes nothing and costs nothing more: one application
    # per orbit of simultaneous conjugation
    for G in (S3, Q8_S3):
        calls[0] = 0
        b = BraidWord(3, (1, 1, 2, 2))
        assert hom_count_exact(b, G) == wirtinger_hom_count(b, G)
        assert calls[0] == conjugation_orbit_count(G, 3)


def test_three_component_link_over_q8_x_s3():
    # the benchmark's heaviest exact job shape: 8,624 leaves of 16 letters
    b = BraidWord(3, (-1, -1, 2, 1, 2, 1, 2, 2, 2, 1, 2, -1, 2, 2, -1, -2))
    assert closure_components(b) == 3
    assert hom_count_exact(b, Q8_S3) == 14784
    assert wirtinger_hom_count(b, Q8_S3) == 14784


def test_orbit_route_skips_tuples(monkeypatch):
    calls = counted_act(monkeypatch)
    assert hom_count_exact(SQUARE, S3) == 30
    assert 0 < calls[0] < 6 ** 3


def test_oracles_do_not_use_the_orbit_route(monkeypatch, capsys):
    def broken(*args):
        raise AssertionError("orbit route called")

    # the orbit enumeration, and the cycle heads and class ids that prune it
    for helper in ("_conjugation_orbits", "_cycle_heads", "_class_members"):
        with monkeypatch.context() as patch:
            patch.setattr(qll.homcount, helper, broken)
            with pytest.raises(AssertionError):
                hom_count_exact(TREFOIL, S3)
            assert wirtinger_hom_count(TREFOIL, S3) == 12
            assert wirtinger_hom_count(FIG8, S3) == 6
            test_cli.test_hom_estimate_full_text(capsys)  # the estimator's frozen text


def test_wirtinger_does_not_call_the_kernel(monkeypatch):
    def broken(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(qll.homcount, "_act", broken)
    assert wirtinger_hom_count(TREFOIL, S3) == 12
    assert wirtinger_hom_count(FIG8, Q8) == naive_hom_count(FIG8, Q8)


def test_exact_budget_refusal():
    big = BraidWord(10, (1,))
    with pytest.raises(BudgetError) as info:
        hom_count_exact(big, builtin_group("symmetric 4"), budget=10 ** 6)
    assert info.value.required == 24 ** 10
    assert hom_count_exact(big, Z2, budget=1025) == 2 ** 9


# ---------------------------------------------------------------------------
# Wirtinger oracle


@pytest.mark.parametrize("b", [UNKNOT, UNKNOT_B2, UNLINK2, HOPF, TREFOIL,
                               FIG8, GRANNY, SQUARE,
                               BraidWord(2, (1, 1, 1, 1)),
                               BraidWord(3, (1, 1, 2, 2)),
                               BraidWord(3, (-1, -1, -1)),
                               BraidWord(4, (1, -2, 3, -2, 1))])
def test_wirtinger_agrees_with_fixed_point_count(b):
    for G in SMALL_GROUPS:
        assert wirtinger_hom_count(b, G) == hom_count_exact(b, G)


@given(st.integers(2, 4), st.lists(st.integers(-3, 3).filter(lambda x: x != 0),
                                   min_size=0, max_size=8))
@settings(max_examples=40, deadline=None)
def test_wirtinger_agrees_on_random_braids(n, raw):
    word = tuple(x for x in raw if abs(x) < n)
    b = BraidWord(n, word)
    for G in (Z6, S3, Q8):
        assert wirtinger_hom_count(b, G) == hom_count_exact(b, G)


def test_wirtinger_budget_refusal():
    with pytest.raises(BudgetError) as info:
        wirtinger_hom_count(BraidWord(12, (1,)), S3, budget=10)
    assert info.value.required > 10


# ---------------------------------------------------------------------------
# estimator


def test_estimate_is_exact_on_one_strand():
    est, err = hom_count_estimate(UNKNOT, Z2, samples=50, seed=0)
    assert est == Fraction(2) and err == 0


def test_estimate_is_deterministic():
    a = hom_count_estimate(TREFOIL, S3, samples=500, seed=42)
    b = hom_count_estimate(TREFOIL, S3, samples=500, seed=42)
    assert a == b
    assert isinstance(a[0], Fraction) and isinstance(a[1], Fraction)


def test_estimate_near_exact_value():
    est, err = hom_count_estimate(TREFOIL, S3, samples=4000, seed=7)
    assert err > 0
    assert abs(est - 12) <= 4 * err
    est, err = hom_count_estimate(HOPF, Z3, samples=2000, seed=11)
    assert abs(est - 9) <= 4 * err


def test_estimate_rejects_zero_samples():
    with pytest.raises(UsageError):
        hom_count_estimate(TREFOIL, S3, samples=0, seed=1)


def reference_estimate(b, G, samples, seed, shake=hashlib.shake_256):
    """The estimator's stream, written out sample by sample as the oracle:
    sample idx hashes its block b"<seed>:<idx // 1024>" afresh, reads its own
    slot, redraws while the value is at or above the largest multiple of
    |G|^n below 2^(8 nb), and reads its labels off the code by powers of
    |G|, most significant first."""
    n, size = b.strands, G.size
    total = size ** n
    nb = (total.bit_length() + 71) // 8
    top = 256 ** nb
    hits = 0
    for idx in range(samples):
        slot = idx % 1024
        digest = shake(b"%d:%d" % (seed, idx // 1024)).digest((slot + 1) * nb)
        value = int.from_bytes(digest[slot * nb:], "big")
        redraw = 0
        while value >= top - top % total:
            redraw += 1
            value = int.from_bytes(
                shake(b"%d:%d:%d" % (seed, idx, redraw)).digest(nb), "big")
        code = value % total
        tup = tuple(code // size ** (n - 1 - j) % size for j in range(n))
        if hurwitz_move(b.word, tup, G.mul, G.inv) == tup:
            hits += 1
    total = size ** n
    estimate = Fraction(hits * total, samples)
    if not b.word:
        return estimate, Fraction(0)
    D = 10 ** 9
    var = Fraction(D * D * total * total * (hits + 1) * (samples + 1 - hits),
                   (samples + 2) ** 2 * samples)
    c = -(-var.numerator // var.denominator)
    r = math.isqrt(c)
    return estimate, Fraction(r + (r * r < c), D)


class LazySymmetric:
    """The symmetric group on k points, labelled as `builtin_group` labels
    it, with products computed on demand: a stand-in for "symmetric 7",
    whose full table would hold 5040^2 entries.  The estimator reads only
    `size`, `mul[a][b]` and `inv[a]`."""

    class Row:
        __slots__ = ("group", "p")

        def __init__(self, group, p):
            self.group, self.p = group, p

        def __getitem__(self, b):  # apply p first, then q
            p, q = self.p, self.group.elements[b]
            return self.group.index[tuple(q[x] for x in p)]

    def __init__(self, k):
        self.elements = list(itertools.permutations(range(k)))
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.size = len(self.elements)
        self.mul = self
        self.inv = tuple(self.index[tuple(sorted(range(k), key=p.__getitem__))]
                         for p in self.elements)

    def __getitem__(self, a):
        return LazySymmetric.Row(self, self.elements[a])


S7_LAZY = LazySymmetric(7)
ESTIMATOR_GROUPS = [builtin_group("cyclic 1"), Z2, Z3, S3, Q8,
                    builtin_group("symmetric 4"), builtin_group("symmetric 5"),
                    S7_LAZY]


def test_lazy_symmetric_matches_the_builtin_table():
    G, lazy = builtin_group("symmetric 4"), LazySymmetric(4)
    assert lazy.inv == G.inv
    assert all(lazy.mul[a][b] == G.mul[a][b]
               for a in range(G.size) for b in range(G.size))
    assert S7_LAZY.size == 5040


@st.composite
def estimator_case(draw):
    G = draw(st.sampled_from(ESTIMATOR_GROUPS))
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(1 - n, n - 1).filter(lambda x: x != 0),
                        max_size=8)) if n > 1 else []
    samples = draw(st.integers(1, 300))
    seed = draw(st.integers(-10 ** 12, 10 ** 12))
    return BraidWord(n, tuple(raw)), G, samples, seed


@given(estimator_case())
@example((BraidWord(3, ()), S3, 40, -7))
@example((BraidWord(1, ()), ESTIMATOR_GROUPS[0], 1, 0))
@example((BraidWord(3, (1, -2, 1, -2)), S3, 300, -1))
@example((BraidWord(6, (1, 2, -3, 4, 5)), ESTIMATOR_GROUPS[0], 7, 3))
@example((BraidWord(6, (5, -4, 3, 2, -1)), Z3, 300, -10 ** 12))
@example((BraidWord(6, (1, -2, 3, -4, 5, 1)), S7_LAZY, 60, -5))
@example((BraidWord(3, (1, -2, 1, -2)), S3, 216, 4))  # a table of 6^3 verdicts
@example((BraidWord(3, (1, -2, 1, -2)), S3, 215, 4))  # one sample short: none
@example((BraidWord(2, (1, 1, 1)), Q8, 1023, 9))  # one short of a block
@example((BraidWord(3, (1, -2)), S3, 1024, 9))  # exactly one block
@example((BraidWord(4, (1, -2, 3)), Z3, 1025, -2))  # one into the second
@example((BraidWord(6, (1, 2, -3, 4)), S7_LAZY, 2049, 5))  # one into the third
@example((BraidWord(2, (1,)), ESTIMATOR_GROUPS[0], 5, 2))
@settings(max_examples=120, deadline=None)
def test_estimate_matches_the_reference_stream(case):
    # orders 1..5040, powers of two and not, give |G|^n from 1 to past
    # 2^73, so a sample takes from 9 to 18 bytes
    b, G, samples, seed = case
    assert hom_count_estimate(b, G, samples, seed) == \
        reference_estimate(b, G, samples, seed)


def test_estimate_redraws_a_slot_past_the_last_multiple(monkeypatch):
    # 6^3 = 216 does not divide 2^72, so an all-0xff 9-byte slot lies past
    # the last multiple and is redrawn; the first redraw reads all 0xff too
    b, seed = BraidWord(3, (1, -2, 1, -2)), 4
    forced = {b"4:0", b"4:0:1"}
    keys = []

    class Forced:
        def __init__(self, data):
            self.data = data

        def digest(self, length):
            keys.append(self.data)
            out = hashlib.shake_256(self.data).digest(length)
            if self.data in forced:
                out = b"\xff" * 9 + out[9:]
            return out

    class FakeHashlib:
        shake_256 = Forced

    monkeypatch.setattr(qll.homcount, "hashlib", FakeHashlib)
    result = hom_count_estimate(b, S3, 300, seed)
    assert keys == [b"4:0", b"4:0:1", b"4:0:2"]
    assert result == reference_estimate(b, S3, 300, seed, shake=Forced)
    assert result != reference_estimate(b, S3, 300, seed)


def test_estimate_redraws_a_slot_in_a_later_slice(monkeypatch):
    # slot 299 of block 1, sample 1,323, lies in the second slice of its
    # block; its redraw is keyed by the sample's own index, and the redrawn
    # tuple is fixed while both the slot's own and the all-0xff one are not
    b, seed = BraidWord(3, (1, -2, 1, -2)), 4
    keys = []

    class Forced:
        def __init__(self, data):
            self.data = data

        def digest(self, length):
            keys.append(self.data)
            out = hashlib.shake_256(self.data).digest(length)
            if self.data == b"4:1" and length >= 300 * 9:
                out = out[:299 * 9] + b"\xff" * 9 + out[300 * 9:]
            return out

    class FakeHashlib:
        shake_256 = Forced

    monkeypatch.setattr(qll.homcount, "hashlib", FakeHashlib)
    result = hom_count_estimate(b, S3, 1500, seed)
    assert keys == [b"4:0", b"4:1", b"4:1323:1"]
    assert result == reference_estimate(b, S3, 1500, seed, shake=Forced)
    assert result != reference_estimate(b, S3, 1500, seed)


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_memory_does_not_grow_with_the_tuple_space():
    # 5040^6 tuples: nothing may be allocated per tuple or per sample
    b = BraidWord(6, (1, -2, 3, 4, -5, 2))
    result, peak = traced_peak(lambda: hom_count_estimate(b, S7_LAZY, 200, 11))
    assert result == reference_estimate(b, S7_LAZY, 200, 11)
    assert peak < 10 ** 6


def test_estimate_applies_the_word_once_per_distinct_tuple(monkeypatch):
    calls = counted_act(monkeypatch)
    b = BraidWord(3, (1, -2, 1, -2))
    for samples in (216, 3000):
        calls[0] = 0
        assert hom_count_estimate(b, S3, samples, 8) == \
            reference_estimate(b, S3, samples, 8)
        assert 0 < calls[0] <= 6 ** 3
    calls[0] = 0
    assert hom_count_estimate(b, S3, 215, 8) == reference_estimate(b, S3, 215, 8)
    assert calls[0] == 215


@pytest.mark.parametrize("b,G", [
    (BraidWord(3, (1, -2, 1, -2)), S3),  # 216 tuples
    (BraidWord(3, (1, 2, -1, 2)), Q8),  # 512 tuples, two whole slices
    (BraidWord(4, (1, -2, 3, 2)), S3),  # 1,296 tuples, past one block
])
def test_estimate_at_the_table_and_slice_edges(b, G):
    # both sides of the table regime, and sample counts that end inside a
    # slice, on a slice boundary and inside a later block
    total = G.size ** b.strands
    for samples in sorted({total - 1, total, total + 1, _SLICE - 1, _SLICE,
                           _SLICE + 1, 2 * _SLICE + 5, 1024 + _SLICE + 3}):
        assert hom_count_estimate(b, G, samples, 17) == \
            reference_estimate(b, G, samples, 17), samples


def test_estimate_table_memory_is_one_byte_per_tuple():
    b = BraidWord(6, (1, -2, 3, -4, 5, 1, -2))
    _, peak = traced_peak(lambda: hom_count_estimate(b, S3, 50000, 6))
    assert peak <= 6 ** 6 + 10 ** 5


def test_estimate_budget():
    price = 100 * (len(FIG8.word) + FIG8.strands)
    with pytest.raises(BudgetError) as info:
        hom_count_estimate(FIG8, S3, 100, 5, budget=price - 1)
    assert info.value.required == price
    assert hom_count_estimate(FIG8, S3, 100, 5, budget=price) == \
        hom_count_estimate(FIG8, S3, 100, 5)


def test_calibrate_script_smoke(monkeypatch, capsys):
    script = (Path(__file__).resolve().parents[1] / "scripts"
              / "calibrate_estimator.py")
    calibrate = runpy.run_path(str(script))
    monkeypatch.setattr(sys, "argv", ["calibrate_estimator.py",
                                      "--samples", "50", "--seeds", "3"])
    assert calibrate["main"]() == 0
    out = capsys.readouterr().out
    assert "exact count 12" in out
    assert "samples=50 " in out

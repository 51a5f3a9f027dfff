"""Image classification: exact matrices, closure enumeration, the
infinite-order trace certificate, and end-to-end verdicts."""

import random
import runpy
import sys
import time
from functools import lru_cache, partial
from itertools import islice
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qll.algebra import CyclotomicNumber, UsageError, euler_phi
from qll.braid import BraidWord
from qll.burau import burau_mod_p
from qll.image import (_WITNESS_LEN, CycMatrix, FpMatrix, ImageReport, RepSpec,
                       _admissible_primes, _braided, _coxeter_finite,
                       _columns, _fp_column, _fp_normal, _inverse_letter,
                       _order_mod_p, _paths, _periodic, _perm_group_order,
                       _perm_mul, _point_key, _point_orbit_order, _qint,
                       _qint_inverse, _reduce_mod_p, _root_powers,
                       _tl_generators, _trace_certificate, _zeta_multiple,
                       classify_image, group_closure, infinite_order_witness,
                       quotient_dimension, rep_generators)
from qll.tl_jones import braid_to_tl, loop_parameter, markov_trace

from oracles import (canonical_key, enumerated_order, fp_product,
                     perm_closure_order, residue_key)


def fusion_end_dim(n, l):
    """Independent oracle: endomorphism dimension of the n-th tensor power
    of the generating object, by truncated Bratteli path counting."""
    v = [0] * (l - 1)
    v[0] = 1
    for _ in range(n):
        w = [0] * (l - 1)
        for j, m in enumerate(v):
            if m:
                if j - 1 >= 0:
                    w[j - 1] += m
                if j + 1 <= l - 2:
                    w[j + 1] += m
        v = w
    return sum(m * m for m in v)


def cyc_mat(order, int_rows, den=1):
    return CycMatrix(order, [[CyclotomicNumber.from_int(x, order) for x in row]
                             for row in int_rows], den)


# ---------------------------------------------------------------------------
# representation generators


@pytest.mark.parametrize("l", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quotient_dimension_matches_fusion_rules(n, l):
    assert quotient_dimension(n, l) == fusion_end_dim(n, l)


@pytest.mark.parametrize("n,l", [(3, 3), (3, 4), (3, 5), (3, 6), (2, 4), (4, 4)])
def test_tl_generators_satisfy_braid_relations(n, l):
    gens = rep_generators(RepSpec("tl", n, l=l))
    assert len(gens) == n - 1
    ident = gens[0].identity_like()
    for g in gens:
        assert g.mul(_inverse_letter(g)) == ident
    for a, b in zip(gens, gens[1:]):
        assert a.mul(b).mul(a) == b.mul(a).mul(b)
    for a in gens:
        for b in gens[2:]:
            if gens.index(b) - gens.index(a) >= 2:
                assert a.mul(b) == b.mul(a)


def quantum_integer(m, l):
    """[m] = q^(m-1) + q^(m-3) + ... + q^(1-m) at q = -A^2, A = zeta_{4l}."""
    q = -CyclotomicNumber.zeta(4 * l, 2)
    qinv = -CyclotomicNumber.zeta(4 * l, -2)
    return sum((q ** (m - 1 - j) * qinv ** j for j in range(m)),
               CyclotomicNumber.zero(4 * l))


def test_quantum_integer_inverses_are_exact():
    # [k+1] c_k = r_k, with [k+1] = (-1)^k (A^2k + A^(2k-4) + ... + A^-2k)
    # summed from monomials, for every quantum integer the path basis uses
    for l in range(3, 61):
        N = 4 * l
        for k in range(l - 1):
            qint = sum((CyclotomicNumber.zeta(N, 2 * k - 4 * j) for j in range(k + 1)),
                       CyclotomicNumber.zero(N)) * (-1) ** k
            c, r = _qint_inverse(k, l)
            assert r == l // gcd(l, k + 1) > 1
            assert qint * c == r


def test_quantum_integers_in_closed_form_match_the_recurrence():
    # [0] = 0, [1] = 1 and [m+1] = d [m] - [m-1], d the loop parameter
    for l in range(3, 61):
        d = loop_parameter(l)
        qint = [CyclotomicNumber.zero(4 * l), CyclotomicNumber.one(4 * l)]
        while len(qint) < l:
            qint.append(d * qint[-1] - qint[-2])
        assert [_qint(m, l) for m in range(l)] == qint, l


def test_tl_generators_at_large_l_are_prompt():
    started = time.perf_counter()
    (a, b) = _tl_generators.__wrapped__(3, 160)
    assert time.perf_counter() - started < 1.0
    assert a.mul(b).mul(a) == b.mul(a).mul(b)


@lru_cache(maxsize=None)
def path_letter(n, l, letter):
    g = rep_generators(RepSpec("tl", n, l=l))[abs(letter) - 1]
    return g if letter > 0 else _inverse_letter(g)


def braids(max_strands, max_len):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=max_len,
        ).map(lambda w: BraidWord(n, tuple(w))))


@settings(max_examples=100, deadline=None)
@given(braids(max_strands=6, max_len=12), st.integers(3, 12))
def test_path_trace_matches_markov_trace(b, l):
    # d tr(x) = sum over paths p of [p_n + 1] rho(x)_pp: the quantum
    # dimensions weight the irreducible blocks of the path representation
    n = b.strands
    rho = rep_generators(RepSpec("tl", n, l=l))[0].identity_like()
    for letter in b.word:
        rho = rho.mul(path_letter(n, l, letter))
    weighted = sum((quantum_integer(p[-1] + 1, l) * rho.rows[r][r]
                    for r, p in enumerate(_paths(n, l))),
                   CyclotomicNumber.zero(4 * l))
    jones_side = loop_parameter(l) * markov_trace(braid_to_tl(b, l))
    assert weighted == jones_side * rho.den


def test_path_dimensions_at_l5_n6():
    assert quotient_dimension(6, 5) == 89
    assert rep_generators(RepSpec("tl", 6, l=5))[0].dim == 13


def test_tl_two_strand_generator_spectrum():
    # eigenvalues A and -A^-3, visible in trace and determinant
    (g,) = rep_generators(RepSpec("tl", 2, l=4))
    assert g.dim == 2
    z = CyclotomicNumber.zeta(16)
    assert g.trace() == (z - z ** 13) * g.den
    (r00, r01), (r10, r11) = g.rows
    assert r00 * r11 - r01 * r10 == -(z ** 14) * g.den ** 2


def test_burau_generators_satisfy_braid_relations():
    a, b = (g.rows for g in rep_generators(RepSpec("burau", 3, p=5, t0=2)))
    mul = partial(fp_product, 5)
    assert mul(mul(a, b), a) == mul(mul(b, a), b)
    a_inv = FpMatrix(5, burau_mod_p(BraidWord(3, (-1,)), 5, 2)).rows
    assert mul(a, a_inv) == ((1, 0), (0, 1))
    g = [x.rows for x in rep_generators(RepSpec("burau", 4, p=7, t0=3))]
    assert fp_product(7, g[0], g[2]) == fp_product(7, g[2], g[0])


def test_burau_generators_are_equal_and_equally_hashed_per_spec():
    # FpMatrix compares and hashes (p, rows), so a new build of one spec's
    # generators finds the cached columns of the previous one
    spec = RepSpec("burau", 4, p=7, t0=3)
    first, second = rep_generators(spec), rep_generators(spec)
    assert first is not second and first[0] is not second[0]
    assert first == second and hash(first) == hash(second)
    assert first != rep_generators(RepSpec("burau", 4, p=7, t0=2))
    report = classify_image(spec)
    hits = _columns.cache_info().hits
    assert classify_image(spec) == report
    assert _columns.cache_info().hits == hits + 1


def test_tl_generators_are_equal_and_equally_hashed_across_a_rebuild():
    # CycMatrix hashes its key once, and a rebuild of one spec's letters
    # compares and hashes as the first build, so a classification after the
    # rebuild finds the residues cached for the first
    spec = RepSpec("tl", 4, l=7)
    first = rep_generators(spec)
    report = classify_image(spec)
    assert report.witness == (1, -2)
    _tl_generators.cache_clear()
    second = rep_generators(spec)
    assert first is not second and first[0] is not second[0]
    assert first == second and hash(first) == hash(second)
    assert all(hash(g) == hash(g.key()) for g in second)
    assert first != rep_generators(RepSpec("tl", 4, l=8))
    hits = _reduce_mod_p.cache_info().hits
    assert classify_image(spec) == report
    assert _reduce_mod_p.cache_info().hits == hits + 1


@pytest.mark.parametrize("kwargs", [
    dict(family="tl", strands=3, l=2),
    dict(family="tl", strands=7, l=5),
    dict(family="tl", strands=0, l=5),
    dict(family="burau", strands=3, p=6, t0=1),
    dict(family="burau", strands=3, p=5, t0=5),
    dict(family="burau", strands=1, p=5, t0=2),
    dict(family="hecke", strands=3),
])
def test_rep_spec_validation(kwargs):
    with pytest.raises(UsageError):
        RepSpec(**kwargs)


@pytest.mark.parametrize("strands,message", [
    (0, "strand count must be >= 1"),
    (-1, "strand count must be >= 1"),
    (7, "TL images are capped at 6 strands"),
])
def test_tl_strand_count_messages(strands, message):
    with pytest.raises(UsageError, match=message):
        RepSpec("tl", strands, l=5)


# ---------------------------------------------------------------------------
# matrices and projective identification


def test_cyc_matrix_normalizes_to_lowest_terms():
    m = cyc_mat(4, [[2, 0], [0, 4]], den=6)
    assert m.den == 3
    assert m.rows[0][0].coeffs[0] == 1


def test_scalar_multiples_share_canonical_key():
    (g,) = rep_generators(RepSpec("tl", 2, l=5))
    z = CyclotomicNumber.zeta(20)
    for j in (1, 7, 13):
        scaled = CycMatrix(g.order, [[e * z ** j for e in row] for row in g.rows],
                           g.den)
        assert scaled.key() != g.key()
        assert canonical_key(scaled) == canonical_key(g)
    neg = CycMatrix(g.order, [[-e for e in row] for row in g.rows], g.den)
    assert canonical_key(neg) == canonical_key(g)


def test_fp_scalar_multiples_share_canonical_key():
    # the test oracles' key over F_p
    a = FpMatrix(7, ((2, 0), (1, 3)))
    b = FpMatrix(7, ((6, 0), (3, 2)))  # 3 * a mod 7
    assert a != b
    assert canonical_key(a) == canonical_key(b)
    assert canonical_key(a) != canonical_key(FpMatrix(7, ((2, 0), (1, 4))))


def test_matrix_types_carry_only_what_the_routes_read():
    # products and projective keys over F_p, and the projective key over
    # Q(zeta_N), are the test oracles' own (tests/oracles.py)
    for name in ("mul", "identity_like", "key", "canonical_key"):
        assert not hasattr(FpMatrix, name), name
    assert not hasattr(CycMatrix, "canonical_key")
    (g,) = rep_generators(RepSpec("burau", 2, p=5, t0=2))
    assert isinstance(g, FpMatrix) and (g.p, g.rows, g.dim) == (5, ((3,),), 1)


def word_matrix(n, l, word):
    M = rep_generators(RepSpec("tl", n, l=l))[0].identity_like()
    for a in word:
        M = M.mul(path_letter(n, l, a))
    return M


def scaled(M, c):
    return CycMatrix(M.order, [[e * c for e in row] for row in M.rows], M.den)


@st.composite
def scaled_word_pairs(draw):
    """(l, n, w1, w2, j, sign): two words of at most 6 TL letters, the
    second half the time equal to the first, and a scalar +-zeta_{4l}^j."""
    l, n = draw(st.integers(3, 12)), draw(st.integers(2, 4))
    letters = st.lists(st.integers(1, n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])), max_size=6).map(tuple)
    w1 = draw(letters)
    w2 = draw(st.one_of(st.just(w1), letters))
    return l, n, w1, w2, draw(st.integers(0, 4 * l - 1)), draw(st.sampled_from([1, -1]))


@settings(max_examples=80, deadline=None)
@given(scaled_word_pairs())
@example((3, 2, (1,) * 6, (), 5, -1))  # sigma^6 = -1 at l = 3
@example((5, 3, (1, 2, 1), (2, 1, 2), 7, 1))
@example((4, 2, (1,), (-1,), 0, 1))
def test_projective_key_identifies_exactly_root_of_unity_multiples(case):
    l, n, w1, w2, j, sign = case
    N = 4 * l
    M1 = word_matrix(n, l, w1)
    M2 = scaled(word_matrix(n, l, w2), CyclotomicNumber.zeta(N, j) * sign)
    oracle = any(M2.key() == scaled(M1, CyclotomicNumber.zeta(N, k)).key()
                 for k in range(N))
    assert (canonical_key(M1) == canonical_key(M2)) == oracle


# ---------------------------------------------------------------------------
# closure enumeration


def test_closure_of_nothing_and_identity():
    assert enumerated_order([]) == 1
    assert enumerated_order([CycMatrix.identity(8, 2)]) == 1


def test_closure_of_scalars():
    minus_one = cyc_mat(1, [[-1]])
    assert enumerated_order([minus_one]) == 1
    i = CycMatrix(4, [[CyclotomicNumber.zeta(4)]])
    assert enumerated_order([i]) == 1


def test_closure_respects_bound():
    g = rep_generators(RepSpec("burau", 3, p=5, t0=2))
    assert enumerated_order(g, bound=2) is None


def test_burau_closure_orders():
    g = rep_generators(RepSpec("burau", 3, p=5, t0=2))
    proj = enumerated_order(g, 2000)
    assert proj == 24 and 120 % proj == 0  # Lagrange in PGL2(F5)


def test_closure_invariant_under_reordering_and_conjugation():
    g = rep_generators(RepSpec("burau", 3, p=5, t0=2))
    base = enumerated_order(g, 2000)
    assert enumerated_order(tuple(reversed(g)), 2000) == base
    t, t_inv = ((1, 2), (0, 3)), ((1, 1), (0, 2))
    mul = partial(fp_product, 5)
    assert mul(t, t_inv) == ((1, 0), (0, 1))
    conj = [FpMatrix(5, mul(mul(t, x.rows), t_inv)) for x in g]
    assert enumerated_order(conj, 2000) == base


# ---------------------------------------------------------------------------
# infinite-order certificate


def test_witness_found_at_l5_and_l7():
    for l in (5, 7):
        gens = rep_generators(RepSpec("tl", 3, l=l))
        w = infinite_order_witness(gens, max_len=4)
        assert w is not None and 1 <= len(w) <= 4


def test_no_witness_for_finite_images():
    gens = rep_generators(RepSpec("tl", 3, l=4))
    assert infinite_order_witness(gens, max_len=3) is None
    with pytest.raises(UsageError):  # not a letter A + A^-1 E at A = zeta_8
        infinite_order_witness([CycMatrix.identity(8, 2)], max_len=3)


def test_witness_requires_cyclotomic_entries():
    g = rep_generators(RepSpec("burau", 3, p=5, t0=2))
    with pytest.raises(UsageError):
        infinite_order_witness(g, max_len=2)


def test_witness_requires_unit_determinant():
    with pytest.raises(UsageError):
        infinite_order_witness([cyc_mat(1, [[2]])], max_len=2)


# ---------------------------------------------------------------------------
# classification verdicts


def test_verdicts_small_roots():
    r = classify_image(RepSpec("tl", 3, l=3))
    assert (r.verdict, r.order) == ("finite-abelian", 1)
    r = classify_image(RepSpec("tl", 4, l=3))
    assert (r.verdict, r.order) == ("finite-abelian", 1)


def test_verdicts_finite_nonabelian():
    r = classify_image(RepSpec("tl", 3, l=4))
    assert (r.verdict, r.order) == ("finite", 24)
    r = classify_image(RepSpec("tl", 4, l=4))
    assert (r.verdict, r.order) == ("finite", 192)
    r = classify_image(RepSpec("tl", 3, l=6))
    assert (r.verdict, r.order) == ("finite", 24)


def test_verdicts_infinite():
    for l in (5, 7):
        r = classify_image(RepSpec("tl", 3, l=l))
        assert r.verdict == "infinite"
        assert r.witness is not None and len(r.witness) <= 4
        assert r.order is None


@pytest.mark.parametrize("l,n,verdict,order,witness", [
    (10, 3, "finite", 600, None),
    (6, 4, "finite", 648, None),
    (5, 5, "infinite", None, (1, -2)),
    (5, 6, "infinite", None, (1, -2)),
])
def test_verdicts_of_larger_specs(l, n, verdict, order, witness):
    r = classify_image(RepSpec("tl", n, l=l))
    assert (r.verdict, r.order, r.witness) == (verdict, order, witness)


def test_verdict_burau():
    r = classify_image(RepSpec("burau", 3, p=5, t0=2))
    assert (r.verdict, r.order) == ("finite", 24)
    assert r.generators == 2


def test_verdict_unknown_on_tiny_bound():
    r = classify_image(RepSpec("burau", 4, p=7, t0=3), bound=10)
    assert r.verdict == "unknown"
    assert r.order is None and r.witness is None
    assert any("bound" in note for note in r.notes)


def test_single_strand_is_trivial():
    r = classify_image(RepSpec("tl", 1, l=5))
    assert (r.verdict, r.order, r.generators) == ("finite-abelian", 1, 0)


# ---------------------------------------------------------------------------
# mod-p Burau orders by Schreier-Sims on projective points


def burau_specs():
    return st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]),
                     st.integers(2, 4)).flatmap(
        lambda pn: st.integers(1, pn[0] - 1).map(
            lambda t0: RepSpec("burau", pn[1], p=pn[0], t0=t0)))


@settings(max_examples=30, deadline=None)
@given(burau_specs())
def test_burau_order_matches_closure(spec):
    gens = rep_generators(spec)
    reference = enumerated_order(gens, 20000)
    if reference is None:
        return
    # abelian exactly when every pair of generators commutes up to a scalar
    mul = partial(fp_product, spec.p)
    abelian = all(canonical_key(FpMatrix(spec.p, mul(a.rows, b.rows))) ==
                  canonical_key(FpMatrix(spec.p, mul(b.rows, a.rows)))
                  for i, a in enumerate(gens) for b in gens[:i])
    r = classify_image(spec)
    assert r.order == reference
    assert r.verdict == ("finite-abelian" if abelian else "finite")


def monomial_groups():
    # monomial matrices generate imprimitive groups with deep stabiliser
    # chains, where skipping the re-sift of lower levels undercounts
    def matrix(p, d):
        return st.tuples(st.permutations(range(d)),
                         st.lists(st.integers(1, p - 1), min_size=d, max_size=d)).map(
            lambda pc: FpMatrix(p, [[pc[1][r] if c == pc[0][r] else 0
                                     for c in range(d)] for r in range(d)]))
    return st.tuples(st.sampled_from([3, 5, 7]), st.integers(2, 4)).flatmap(
        lambda pd: st.lists(matrix(*pd), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(monomial_groups())
@example([FpMatrix(7, ((1, 0, 0), (0, 6, 0), (0, 0, 1))),
          FpMatrix(7, ((0, 3, 0), (4, 0, 0), (0, 0, 5)))])  # order 24, not 8
def test_schreier_sims_matches_closure_on_monomial_groups(gens):
    reference = enumerated_order(gens, 20000)
    if reference is None:
        return
    order, _ = _point_orbit_order(_columns(tuple(gens)),
                                  partial(_fp_normal, gens[0].p))
    assert order == reference


@pytest.mark.parametrize("n", range(3, 10))
def test_burau_at_t1_mod2_is_symmetric_group(n):
    # at t = 1 the Burau matrices are permutation matrices, so the image is
    # S_n acting on the reduced (n-1)-dimensional module
    r = classify_image(RepSpec("burau", n, p=2, t0=1))
    assert (r.verdict, r.order) == ("finite", factorial(n))


def test_burau_pgl4_f5():
    r = classify_image(RepSpec("burau", 5, p=5, t0=2))
    assert (r.verdict, r.order) == ("finite", 29_016_000_000)  # |PGL(4, 5)|


@pytest.mark.parametrize("p,t0", [(2, 1), (5, 2), (13, 12)])
def test_burau_two_strands_is_trivial(p, t0):
    r = classify_image(RepSpec("burau", 2, p=p, t0=t0))
    assert (r.verdict, r.order) == ("finite-abelian", 1)


@pytest.mark.parametrize("p,t0,n,order", [(5, 2, 4, 2400), (13, 12, 3, 1092)])
def test_burau_bound_below_need_is_unknown(p, t0, n, order):
    # the bound caps points x stored permutations: from the least multiple
    # of the point count that fits, the order is exact; below it, unknown
    spec = RepSpec("burau", n, p=p, t0=t0)
    points = (p ** (n - 1) - 1) // (p - 1)
    orders = [classify_image(spec, k * points).order for k in range(1, 80)]
    need = orders.index(order) + 1  # permutations stored
    assert orders == [None] * (need - 1) + [order] * (80 - need)
    for bound in (need * points - 1, (need - 1) * points):
        r = classify_image(spec, bound)
        assert (r.verdict, r.order) == ("unknown", None)
        assert any("exceeded bound %d" % bound in note for note in r.notes)
        assert r.notes[-1] == ("projective points x stored permutations "
                               "exceeded bound %d" % bound)


@pytest.mark.parametrize("p,t0,n,need,order", [
    (5, 2, 4, 1798, 2400), (5, 4, 4, 1829, 3000), (13, 12, 3, 518, 1092),
    (7, 6, 4, 6213, 16464), (3, 2, 5, 3400, 25920)])
def test_burau_least_bound_that_reports_the_order(p, t0, n, need, order):
    # `need` is the projective point count times the permutations
    # Schreier-Sims stores: it freezes what the transversals and strong
    # generators hold, so any change to what is stored moves it
    spec = RepSpec("burau", n, p=p, t0=t0)
    r = classify_image(spec, need)
    assert (r.verdict, r.order) == ("finite", order)
    r = classify_image(spec, need - 1)
    assert (r.verdict, r.order) == ("unknown", None)
    assert r.notes[-1] == ("projective points x stored permutations "
                           "exceeded bound %d" % (need - 1))


def test_tl_orbit_route_runs_once(monkeypatch):
    # (4, 4) is finite but not by Coxeter: one point-orbit run over
    # Z[zeta_16] with the caller's bound, and no reduction mod p
    bounds = []

    def record(gens, bound):
        bounds.append(bound)
        return None, None

    def reduce(gens, bound, p):
        raise AssertionError("mod-p route run on a spec Coxeter does not cover")
    monkeypatch.setattr("qll.image.group_closure", record)
    monkeypatch.setattr("qll.image._order_mod_p", reduce)
    r = classify_image(RepSpec("tl", 4, l=4), bound=10 ** 6)
    assert bounds == [10 ** 6]
    assert (r.verdict, r.order) == ("unknown", None)


def test_tl_mod_p_route_runs_once(monkeypatch):
    # one reduction mod p with the caller's bound, and no closure after it
    bounds = []

    def record(gens, bound, p):
        bounds.append(bound)
        return None, None

    def closure(gens, bound):
        raise AssertionError("closure run on a Coxeter-finite spec")
    monkeypatch.setattr("qll.image._order_mod_p", record)
    monkeypatch.setattr("qll.image.group_closure", closure)
    r = classify_image(RepSpec("tl", 3, l=4), bound=10 ** 6)
    assert bounds == [10 ** 6]
    assert (r.verdict, r.order) == ("unknown", None)


def test_tl_finite_spec_past_the_bound_runs_no_search(monkeypatch):
    # finite by the classification: past the bound the report is unknown at
    # once, and no word is certified
    calls = []

    def count(M):
        calls.append(M)
        return _trace_certificate(M)
    monkeypatch.setattr("qll.image._trace_certificate", count)
    for l, n in ((4, 4), (6, 4), (10, 3)):
        r = classify_image(RepSpec("tl", n, l=l), bound=50)
        assert (r.verdict, r.order, r.witness) == ("unknown", None, None)
        assert r.notes[-1] == "closure exceeded bound 50 without a certificate"
    assert calls == []


def test_tl_infinite_spec_without_witness_runs_no_closure(monkeypatch):
    # infinite by the classification: a search that certifies no word gives
    # unknown, with a note naming the search, not the closure
    def closure(gens, bound):
        raise AssertionError("closure run on an infinite image")
    monkeypatch.setattr("qll.image._trace_certificate", lambda M: False)
    monkeypatch.setattr("qll.image.group_closure", closure)
    r = classify_image(RepSpec("tl", 3, l=5), bound=50)
    assert (r.verdict, r.order, r.witness) == ("unknown", None, None)
    assert r.notes[-1] == ("no word of up to %d letters certified infinite "
                           "order" % _WITNESS_LEN)
    assert not any("bound" in note for note in r.notes)


def test_burau_over_bound_builds_no_generator(monkeypatch):
    def build(spec):
        raise LookupError("generators built")
    monkeypatch.setattr("qll.image.rep_generators", build)
    r = classify_image(RepSpec("burau", 400, p=2, t0=1))  # 2^399 - 1 points
    assert (r.verdict, r.order, r.generators) == ("unknown", None, 399)
    r = classify_image(RepSpec("burau", 10 ** 12, p=2, t0=1))
    assert (r.verdict, r.generators) == ("unknown", 10 ** 12 - 1)
    # refused exactly when the points alone exceed the bound
    for p in (2, 3, 7):
        for n in range(2, 40):
            points = (p ** (n - 1) - 1) // (p - 1)
            spec = RepSpec("burau", n, p=p, t0=1)
            for bound in {1, 5, max(points - 1, 1), points, points + 1, 10 ** 6}:
                if points > bound:
                    assert classify_image(spec, bound).verdict == "unknown"
                else:
                    with pytest.raises(LookupError):
                        classify_image(spec, bound)


def test_survey_script_smoke(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "survey_images.py"
    survey = runpy.run_path(str(script))
    monkeypatch.setattr(sys, "argv", ["survey_images.py", "--levels", "3", "4",
                                      "--strands", "2", "3",
                                      "--burau-primes", "3", "5"])
    assert survey["main"]() == 0
    out = capsys.readouterr().out
    assert "p=5  n=3  finite(60)" in out
    assert "l=4  n=3  finite(24)" in out
    monkeypatch.setattr(sys, "argv", ["survey_images.py", "--levels", "4",
                                      "--strands", "3", "--burau-primes",
                                      "--bound", "10"])
    assert survey["main"]() == 0
    line, = [x for x in capsys.readouterr().out.splitlines() if "l=4" in x]
    assert line.startswith("  l=4  n=3  unknown")
    assert line.endswith("closure exceeded bound 10 without a certificate")
    monkeypatch.setattr(sys, "argv", ["survey_images.py", "--levels", "6",
                                      "--strands", "5", "--burau-primes"])
    assert survey["main"]() == 0
    assert "l=6  n=5  finite(51840)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the order of the two certificates on Temperley-Lieb specs

TL_GRID = [(l, n) for l in range(3, 13) for n in range(2, 5)]


def test_certificate_never_fires_on_powers_of_one_letter():
    # sigma_i has the two distinct root-of-unity eigenvalues A and -A^-3, so
    # every sigma_i^(+-k) has finite projective order and the sound
    # certificate is False on it: the law behind the search skipping them
    for l, n in TL_GRID:
        for g in rep_generators(RepSpec("tl", n, l=l)):
            for letter in (g, _inverse_letter(g)):
                M = letter
                for k in range(1, 9):
                    assert not _trace_certificate(M), (l, n, k)
                    M = M.mul(letter)


def certifying_search(gens, max_len):
    """The witness search with the certificate tried on every new word,
    powers of one letter included: shortest words first, each length in the
    order sigma_1, sigma_1^-1, sigma_2, ...; a word whose projective key was
    seen before is dropped."""
    by_letter = {}
    for i, g in enumerate(gens, start=1):
        by_letter[i], by_letter[-i] = g, _inverse_letter(g)
    alphabet = [s * i for i in range(1, len(gens) + 1) for s in (1, -1)]
    seen, frontier = set(), [((), gens[0].identity_like())]
    for _ in range(max_len):
        nxt = []
        for word, M in frontier:
            for a in alphabet:
                if word and a == -word[-1]:
                    continue
                M2 = M.mul(by_letter[a])
                k = canonical_key(M2)
                if k in seen:
                    continue
                seen.add(k)
                if _trace_certificate(M2):
                    return word + (a,)
                nxt.append((word + (a,), M2))
        frontier = nxt
    return None


@pytest.mark.parametrize("l,n", TL_GRID)
def test_skipping_powers_keeps_the_witness(l, n):
    gens = rep_generators(RepSpec("tl", n, l=l))
    assert (infinite_order_witness(gens, _WITNESS_LEN)
            == certifying_search(gens, _WITNESS_LEN))


@pytest.mark.parametrize("l,n", [(l, n) for l in (5, 7, 8, 9, 11, 12)
                                 for n in (5, 6)])
def test_skipping_powers_keeps_the_witness_on_larger_specs(l, n):
    gens = rep_generators(RepSpec("tl", n, l=l))
    assert (infinite_order_witness(gens, _WITNESS_LEN)
            == certifying_search(gens, _WITNESS_LEN))


def fixed_route(spec, bound):
    """The Temperley-Lieb report by one fixed order for every spec: words of
    lengths 1-4, then the closure, then words of lengths 1-6."""
    n, l = spec.strands, spec.l
    notes = ["path representation of dimension %d; semisimple quotient "
             "dimension %d" % (len(_paths(n, l)), quotient_dimension(n, l))]
    gens = rep_generators(spec)
    if not gens:
        return ImageReport("finite-abelian", order=1, generators=0,
                           notes=tuple(notes + ["no generators: trivial image"]))
    witness, order = infinite_order_witness(gens, 4), None
    if witness is None:
        order = enumerated_order(gens, bound)
        if order is None:
            witness = infinite_order_witness(gens, _WITNESS_LEN)
    if witness is not None:
        notes.append("trace bound violated at a power of the witness")
        return ImageReport("infinite", witness=witness, generators=len(gens),
                           notes=tuple(notes))
    if order is None:
        notes.append("closure exceeded bound %d without a certificate" % bound)
        return ImageReport("unknown", generators=len(gens), notes=tuple(notes))
    abelian = all(canonical_key(gens[i].mul(gens[j])) ==
                  canonical_key(gens[j].mul(gens[i]))
                  for i in range(len(gens)) for j in range(i))
    notes.append("projective order %d" % order)
    return ImageReport("finite-abelian" if abelian else "finite", order=order,
                       generators=len(gens), notes=tuple(notes))


@pytest.mark.parametrize("l,n,bound", [
    (l, n, bound) for bound in (10 ** 6, 50)
    for l in range(3, 13) for n in range(1, 5)
] + [(4, 5, 10 ** 6), (5, 5, 10 ** 6), (5, 6, 10 ** 6)])
def test_route_order_does_not_change_the_report(l, n, bound):
    spec = RepSpec("tl", n, l=l)
    assert classify_image(spec, bound) == fixed_route(spec, bound)


def test_certificates_only_where_they_can_fire(monkeypatch):
    # finite by the classification: the closure decides and no word is
    # certified; (5, 3): only the witness (1, -2) is certified, since (1, 2)
    # is periodic, and no closure runs
    calls = []

    def count(M):
        calls.append(M)
        return _trace_certificate(M)

    def closure(gens, bound):
        raise AssertionError("closure run on an infinite image")
    monkeypatch.setattr("qll.image._trace_certificate", count)
    for l, n in ((4, 3), (6, 3), (10, 3), (4, 4)):
        assert classify_image(RepSpec("tl", n, l=l)).verdict == "finite"
    assert calls == []
    monkeypatch.setattr("qll.image.group_closure", closure)
    r = classify_image(RepSpec("tl", 3, l=5))
    assert (r.verdict, r.witness, len(calls)) == ("infinite", (1, -2), 1)


# ---------------------------------------------------------------------------
# words the search never certifies


def test_periodic_fixed_cases():
    # (1, 2) and (1, 2, 1) map to elements of orders 6 and 4 in SL(2, Z),
    # (1, 1, 2) to one of trace 0; 1 and 3 commute
    for word in [(1, 2), (1, 2, 1), (1, 1, 2), (1, 3, -1), (-2, -3), (2,),
                 (1, 2) * 3, (1, 3, 5, -3)]:
        assert _periodic(word), word
    # (1, -2) has trace 3, (1, 1, 2, 2) trace -2 and is not -I
    for word in [(1, -2), (1, 1, 2, 2), (2, -3), (1, 2, 3)]:
        assert not _periodic(word), word


def test_certificate_never_fires_on_periodic_words():
    # the law behind the skip: on every reduced periodic word of length
    # <= 4 (one per projective key) the unskipped certificate is False
    for l, n in TL_GRID:
        gens = rep_generators(RepSpec("tl", n, l=l))
        assert _braided(gens)
        letters = {}
        for i, g in enumerate(gens, start=1):
            letters[i], letters[-i] = g, _inverse_letter(g)
        seen, frontier = set(), [((), gens[0].identity_like())]
        for _ in range(4):
            nxt = []
            for word, M in frontier:
                for a in letters:
                    if word and a == -word[-1]:
                        continue
                    w, P = word + (a,), M.mul(letters[a])
                    nxt.append((w, P))
                    key = canonical_key(P)
                    if _periodic(w) and key not in seen:
                        seen.add(key)
                        assert not _trace_certificate(P), (l, n, w)
            frontier = nxt


def residue_prime(gens):
    p = next(_admissible_primes(gens))
    return p, _root_powers(gens[0].order, p)


@pytest.mark.parametrize("l,n", [(4, 4), (6, 4), (10, 3), (5, 4), (10, 4)])
def test_residue_key_classes_are_canonical_key_classes(l, n):
    # two words share a residue key and pass the exact check exactly when
    # their canonical keys are equal, on finite and infinite images
    gens = rep_generators(RepSpec("tl", n, l=l))
    p, powers = residue_prime(gens)
    rng = random.Random(100 * l + n)
    alphabet = [s * i for i in range(1, n) for s in (1, -1)]
    words = [tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
             for _ in range(60)]
    for i in range(1, n - 1):  # equal matrices by the braid relation
        head = tuple(rng.choice(alphabet) for _ in range(2))
        words += [head + (i, i + 1, i), head + (i + 1, i, i + 1)]
    mats = [word_matrix(n, l, w) for w in words]
    keys = [residue_key(M, powers, p) for M in mats]
    canon = [canonical_key(M) for M in mats]
    equal = 0
    for a in range(len(mats)):
        for b in range(a):
            (ka, fa), (kb, fb) = keys[a], keys[b]
            same = ka == kb and _zeta_multiple(mats[b], fb, mats[a], fa,
                                               powers, p)
            assert same == (canon[a] == canon[b]), (words[a], words[b])
            equal += same
    assert equal


def test_scalar_multiples_pass_and_a_forced_collision_fails():
    # X' = zeta^t X shares X's key and passes the exact check; X' with one
    # coefficient changed by p has X's residues but is no scalar multiple
    gens = rep_generators(RepSpec("tl", 4, l=5))
    p, powers = residue_prime(gens)
    M = word_matrix(4, 5, (1, -2, 3, 2))
    N = M.order
    key, f = residue_key(M, powers, p)
    for t in (0, 1, 7, N - 1):
        moved = scaled(M, CyclotomicNumber.zeta(N, t))
        k2, f2 = residue_key(moved, powers, p)
        assert k2 == key and _zeta_multiple(M, f, moved, f2, powers, p)
        rows = [list(row) for row in moved.rows]
        coeffs = list(rows[0][0].coeffs)
        coeffs[1] += p
        rows[0][0] = CyclotomicNumber(N, coeffs)
        forged = CycMatrix(N, rows, M.den)
        assert forged.den == M.den
        k3, f3 = residue_key(forged, powers, p)
        assert (k3, f3) == (k2, f2)
        assert canonical_key(forged) != canonical_key(M)
        assert not _zeta_multiple(M, f, forged, f3, powers, p)


@st.composite
def tl_words(draw):
    """(l, n, word): a word of at most 6 TL letters, inverse letters
    included, at l = 3..12 on n = 2..5 strands."""
    l, n = draw(st.integers(3, 12)), draw(st.integers(2, 5))
    word = draw(st.lists(st.integers(1, n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])), max_size=6).map(tuple))
    return l, n, word


@settings(max_examples=120, deadline=None)
@given(tl_words())
@example((12, 5, (1, -2, 3, -4, 2, 1)))
@example((3, 2, ()))
def test_fp_product_of_letter_residues_is_the_residue_key(case):
    # reduction at the degree-one prime is a ring homomorphism and den is a
    # unit mod p, so the search's F_p product of letter residues, scaled to
    # first nonzero entry 1, is the key of the exact word matrix's residues
    l, n, word = case
    gens = rep_generators(RepSpec("tl", n, l=l))
    p, powers = residue_prime(gens)
    alphabet = [s * i for i in range(1, n) for s in (1, -1)]
    letters = _reduce_mod_p(tuple(path_letter(n, l, a) for a in alphabet), p)
    columns = dict(zip(alphabet, letters))
    dim = gens[0].dim
    R = [[int(r == c) for r in range(dim)] for c in range(dim)]
    for a in word:
        R = [_fp_column(R, col, p) for col in columns[a]]
    res = [x for row in zip(*R) for x in row]
    s = pow(next(filter(None, res)), -1, p)
    key = tuple(x * s % p for x in res)
    assert key == residue_key(word_matrix(n, l, word), powers, p)[0]


@pytest.mark.parametrize("l,n", [(5, 4), (4, 4), (7, 3)])
def test_search_forms_one_product_per_longer_word(monkeypatch, l, n):
    # words are keyed by F_p products; an exact matrix is formed only for a
    # word whose matrix a check reads, as its prefix's matrix times one
    # letter.  With every word marked periodic no certificate (and no power)
    # is formed, so the collision checks are the only readers.  The exact
    # products are at most one per word of length >= 2 visited, and exactly
    # one per word read by a collision check or prefixing such a word.
    gens = rep_generators(RepSpec("tl", n, l=l))
    infinite_order_witness(gens, 1)  # inverse letters, braid check: cached
    products, read, kept = [], [], []
    mul = CycMatrix.mul

    def product(a, b):
        c = mul(a, b)
        products.append((a, b, c))
        return c

    def check(M0, f0, M, f, powers, p):
        read.extend((M0, M))
        return _zeta_multiple(M0, f0, M, f, powers, p)
    monkeypatch.setattr(CycMatrix, "mul", product)
    monkeypatch.setattr("qll.image._zeta_multiple", check)
    monkeypatch.setattr("qll.image._periodic",
                        lambda w: kept.append(w) or True)
    assert infinite_order_witness(gens, 4) is None
    visited = (2 * len(gens) - 1) * sum(1 for w in kept if len(w) < 4)
    assert 0 < len(products) <= visited
    # no (prefix, letter) pair is multiplied twice, so no word twice
    assert len({(id(a), id(b)) for a, b, _ in products}) == len(products)
    letters = [x for g in gens for x in (g, _inverse_letter(g))]
    made = {id(c): a for a, _, c in products}
    assert all(id(M) in made or any(M is x for x in letters) for M in read)
    needed, stack = set(), list(read)
    while stack:  # the words read and their prefixes
        M = stack.pop()
        if id(M) in made and id(M) not in needed:
            needed.add(id(M))
            stack.append(made[id(M)])
    assert needed == set(made)


def test_unbraided_generators_are_refused():
    # sigma_1 and a second copy of sigma_2 in place of sigma_3 break the
    # far commutation, so the periodic-word skip would be unsound on them
    g1, g2 = rep_generators(RepSpec("tl", 3, l=5))
    assert _braided((g1, g2)) and not _braided((g1, g2, g2))
    assert infinite_order_witness((g1, g2)) == (1, -2)
    with pytest.raises(UsageError, match="braid relations"):
        infinite_order_witness((g1, g2, g2))


# ---------------------------------------------------------------------------
# finite Temperley-Lieb orders by reduction mod p

# sigma^k is scalar for k = 6, 4, 3, 5 at l = 3, 4, 6, 10, and Coxeter's
# B_n / <<sigma_1^k>> is finite exactly when 2(n + k) > n k
COXETER_SPECS = [(3, 2), (4, 2), (4, 3), (6, 2), (6, 3), (6, 4), (10, 2), (10, 3)]


def test_coxeter_finite_specs():
    for l in range(3, 13):
        for n in range(2, 7):
            covered = n == 2 or (l, n) in COXETER_SPECS or (l, n) == (6, 5)
            gens = rep_generators(RepSpec("tl", n, l=l))
            assert _coxeter_finite(gens) == covered, (l, n)


def test_letter_power_is_the_scalar_a_to_the_k():
    # `_coxeter_finite` reads sigma_i^k = A^k from the letter's quadratic
    # relation; here the power is formed, k being the least with (-A^-4)^k = 1
    for l in range(3, 13):
        N = 4 * l
        ratio = -CyclotomicNumber.zeta(N, -4)
        k, power = 1, ratio
        while power != CyclotomicNumber.one(N):
            k, power = k + 1, power * ratio
        for n in range(2, 7):
            for g in rep_generators(RepSpec("tl", n, l=l)):
                P = g
                for _ in range(k - 1):
                    P = P.mul(g)
                scalar, zero = CyclotomicNumber.zeta(N, k), CyclotomicNumber.zero(N)
                assert P == CycMatrix(N, [[scalar if r == c else zero
                                           for c in range(g.dim)]
                                          for r in range(g.dim)]), (l, n)


@pytest.mark.parametrize("l,n", COXETER_SPECS)
def test_mod_p_order_matches_closure_at_two_primes(l, n):
    gens = rep_generators(RepSpec("tl", n, l=l))
    order = enumerated_order(gens)
    abelian = all(canonical_key(a.mul(b)) == canonical_key(b.mul(a))
                  for a in gens for b in gens)
    for p in islice(_admissible_primes(gens), 2):
        assert p % (4 * l) == 1
        assert _order_mod_p(gens, 10 ** 6, p) == (order, abelian), p


@pytest.mark.parametrize("l,n,order", [(4, 3, 24), (6, 3, 24), (10, 3, 600),
                                       (6, 4, 648)])
def test_mod_p_report_at_the_bound_matches_the_closure(monkeypatch, l, n, order):
    spec = RepSpec("tl", n, l=l)
    routed = [classify_image(spec, bound) for bound in (order - 1, order)]
    assert [r.order for r in routed] == [None, order]
    assert routed[0].notes[-1] == ("closure exceeded bound %d without a "
                                   "certificate" % (order - 1))
    monkeypatch.setattr("qll.image._coxeter_finite", lambda gens: False)
    assert routed == [classify_image(spec, bound) for bound in (order - 1, order)]


def test_coxeter_specs_never_reach_the_closure(monkeypatch):
    def closure(gens, bound):
        raise AssertionError("closure run on a Coxeter-finite spec")
    monkeypatch.setattr("qll.image.group_closure", closure)
    for l, n, order in ((4, 3, 24), (6, 3, 24), (10, 3, 600), (6, 4, 648),
                        (6, 5, 51840)):
        r = classify_image(RepSpec("tl", n, l=l))
        assert (r.verdict, r.order) == ("finite", order)


def test_l6_five_strands_is_the_e6_weyl_group():
    # 51,840 = |W(E6)| = 2 |PSp4(3)|, the same at the two smallest primes
    gens = rep_generators(RepSpec("tl", 5, l=6))
    orders = [_order_mod_p(gens, 10 ** 6, p)
              for p in islice(_admissible_primes(gens), 2)]
    assert orders == [(51840, False)] * 2
    r = classify_image(RepSpec("tl", 5, l=6))
    assert (r.verdict, r.order) == ("finite", 51840)
    assert r.notes[-1] == "projective order 51840"


def test_mod_p_route_stops_at_the_first_orbit_past_the_bound(monkeypatch):
    # the orbit of e_1 alone exceeds the bound: no permutation group is built
    def group(*args, **kwargs):
        raise AssertionError("Schreier-Sims run past the bound")
    monkeypatch.setattr("qll.image._perm_group_order", group)
    r = classify_image(RepSpec("tl", 4, l=6), bound=2)
    assert (r.verdict, r.order) == ("unknown", None)
    assert r.notes[-1] == "closure exceeded bound 2 without a certificate"


def test_perm_group_order_stops_past_max_order():
    # S_6 from a transposition and a 6-cycle, order 720
    perms = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    assert _perm_group_order(perms, 6) == 720
    assert _perm_group_order(perms, 6, max_order=720) == 720
    assert _perm_group_order(perms, 6, max_order=719) is None
    assert _perm_group_order(perms, 6, max_order=6) is None


def perm_lists():
    # generator lists over 1-7 points, identities drawn among them and the
    # first generator repeated at the end
    return st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.one_of(st.just(tuple(range(n))),
                                       st.permutations(range(n)).map(tuple)),
                             min_size=1, max_size=4).map(lambda g: g + g[:1])))


@settings(max_examples=150, deadline=None)
@given(perm_lists(), st.integers(1, 6000))
@example((1, [(0,), (0,)]), 1)
@example((7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]), 5039)
# S_5 and an imprimitive group of order 48: both undercount (20, 12) if a
# point's later pairs are marked sifted before they are
@example((5, [(0, 1, 3, 2, 4), (2, 4, 0, 1, 3)]), 120)
@example((6, [(3, 4, 5, 0, 1, 2), (0, 4, 2, 3, 1, 5), (0, 2, 1, 3, 4, 5)]), 47)
def test_perm_group_order_matches_the_closure_oracle(case, bound):
    n, perms = case
    for a in perms:  # a tuple of images on every degree, 1 included
        assert _perm_mul(a, perms[-1]) == tuple(perms[-1][x] for x in a)
    order = perm_closure_order(perms, n)
    assert _perm_group_order(perms, n) == order
    # max_order=b answers None exactly when the order exceeds b
    capped = _perm_group_order(perms, n, max_order=bound)
    assert capped == (None if order > bound else order)


# ---------------------------------------------------------------------------
# finite Temperley-Lieb orders from point orbits over Z[zeta_N]

def closure_order(gens):
    abelian = all(canonical_key(a.mul(b)) == canonical_key(b.mul(a))
                  for a in gens for b in gens)
    return enumerated_order(gens), abelian


@pytest.mark.parametrize("l,n", [(3, 3), (3, 4), (3, 5), (3, 6),
                                 (4, 3), (4, 4), (4, 5)])
def test_char0_order_matches_closure(l, n):
    gens = rep_generators(RepSpec("tl", n, l=l))
    assert group_closure(gens, 10 ** 6) == closure_order(gens)


@pytest.mark.parametrize("l,n", [(4, 3), (6, 3), (6, 4), (6, 5), (10, 3)])
def test_char0_order_matches_mod_p(l, n):
    gens = rep_generators(RepSpec("tl", n, l=l))
    p = next(_admissible_primes(gens))
    assert group_closure(gens, 10 ** 6) == _order_mod_p(gens, 10 ** 6, p)


@pytest.mark.parametrize("n", range(3, 7))
def test_l4_order_law(n):
    # the projective image at l = 4 has order 2^(n-1) n!
    r = classify_image(RepSpec("tl", n, l=4))
    assert (r.verdict, r.order) == ("finite", 2 ** (n - 1) * factorial(n))


@pytest.mark.parametrize("n,order", [(4, 192), (5, 1920)])
def test_char0_report_at_the_bound(n, order):
    spec = RepSpec("tl", n, l=4)
    below, at = (classify_image(spec, bound) for bound in (order - 1, order))
    assert (below.verdict, below.order) == ("unknown", None)
    assert below.notes[-1] == ("closure exceeded bound %d without a "
                               "certificate" % (order - 1))
    assert (at.verdict, at.order) == ("finite", order)


def cyclotomic_vectors():
    def vectors(N):
        entry = st.lists(st.integers(-3, 3), max_size=euler_phi(N)).map(
            lambda c: CyclotomicNumber(N, c))
        return st.tuples(st.just(N), st.lists(entry, min_size=1, max_size=4).filter(
            lambda v: any(not x.is_zero() for x in v)))
    return st.sampled_from([12, 16, 24, 40]).flatmap(vectors)


@settings(max_examples=60, deadline=None)
@given(cyclotomic_vectors(), st.integers(0, 39), st.integers(1, 12),
       st.integers(1, 12))
def test_point_key_ignores_roots_of_unity_and_positive_rationals(Nv, k, a, b):
    N, v = Nv
    z = CyclotomicNumber.zeta(N, k)
    assert _point_key([x * z * a for x in v]) == _point_key([x * b for x in v])


def test_point_key_classes():
    # one class exactly when v' = lam v with lam conj(lam) a positive
    # rational: 1 + i has norm 2 and stays; 1 + zeta_16 does not
    z = CyclotomicNumber.zeta(16)
    one, zero = CyclotomicNumber.one(16), CyclotomicNumber.zero(16)
    v = [one + z ** 3, zero, z * 2 - one]
    assert _point_key([x * (one + z ** 4) for x in v]) == _point_key(v)
    assert _point_key([x * (one + z) for x in v]) != _point_key(v)
    assert _point_key([one, zero]) != _point_key([zero, one])
    assert _point_key([one, one]) != _point_key([one, z])

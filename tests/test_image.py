"""Image classification: exact matrices, closure enumeration, the
infinite-order trace certificate, and end-to-end verdicts."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qll.algebra import CycFraction, CyclotomicNumber, UsageError
from qll.braid import BraidWord
from qll.image import (CycMatrix, FpMatrix, RepSpec, _paths, classify_image,
                       group_closure, infinite_order_witness,
                       quotient_dimension, rep_generators)
from qll.tl_jones import braid_to_tl, loop_parameter, markov_trace


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
        assert g.mul(g.inverse()) == ident
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


@lru_cache(maxsize=None)
def path_letter(n, l, letter):
    g = rep_generators(RepSpec("tl", n, l=l))[abs(letter) - 1]
    return g if letter > 0 else g.inverse()


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
    weighted = sum((CycFraction(quantum_integer(p[-1] + 1, l) * rho.rows[r][r],
                                rho.den)
                    for r, p in enumerate(_paths(n, l))),
                   CycFraction(CyclotomicNumber.zero(4 * l)))
    jones_side = loop_parameter(l) * markov_trace(braid_to_tl(b, l))
    assert weighted == CycFraction(jones_side)


def test_path_dimensions_at_l5_n6():
    assert quotient_dimension(6, 5) == 89
    assert rep_generators(RepSpec("tl", 6, l=5))[0].dim == 13


def test_tl_two_strand_generator_spectrum():
    # eigenvalues A and -A^-3, visible in trace and determinant
    (g,) = rep_generators(RepSpec("tl", 2, l=4))
    assert g.dim == 2
    z = CyclotomicNumber.zeta(16)
    assert g.trace() == CycFraction(z - z ** 13, 1)
    assert g.det() == CycFraction(-(z ** 14), 1)


def test_burau_generators_satisfy_braid_relations():
    g1, g2 = rep_generators(RepSpec("burau", 3, p=5, t0=2))
    assert g1.mul(g2).mul(g1) == g2.mul(g1).mul(g2)
    assert g1.mul(g1.inverse()) == g1.identity_like()
    g = rep_generators(RepSpec("burau", 4, p=7, t0=3))
    assert g[0].mul(g[2]) == g[2].mul(g[0])


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
        assert scaled.canonical_key(True) == g.canonical_key(True)
    neg = CycMatrix(g.order, [[-e for e in row] for row in g.rows], g.den)
    assert neg.canonical_key(True) == g.canonical_key(True)


def test_fp_scalar_multiples_share_canonical_key():
    a = FpMatrix(7, ((2, 0), (1, 3)))
    b = FpMatrix(7, ((6, 0), (3, 2)))  # 3 * a mod 7
    assert a.key() != b.key()
    assert a.canonical_key(True) == b.canonical_key(True)


def test_fp_inverse():
    a = FpMatrix(5, ((2, 1), (1, 1)))
    assert a.mul(a.inverse()) == a.identity_like()
    with pytest.raises(UsageError):
        FpMatrix(5, ((1, 1), (1, 1))).inverse()


# ---------------------------------------------------------------------------
# closure enumeration


def test_closure_of_nothing_and_identity():
    assert group_closure([]) == 1
    assert group_closure([CycMatrix.identity(8, 2)]) == 1


def test_closure_of_scalars():
    minus_one = cyc_mat(1, [[-1]])
    assert group_closure([minus_one]) == 2
    assert group_closure([minus_one], projective=True) == 1
    i = CycMatrix(4, [[CyclotomicNumber.zeta(4)]])
    assert group_closure([i]) == 4
    assert group_closure([i], projective=True) == 1


def test_closure_respects_bound():
    g = rep_generators(RepSpec("burau", 3, p=5, t0=2))
    assert group_closure(g, bound=2) is None


def test_burau_closure_orders():
    g = rep_generators(RepSpec("burau", 3, p=5, t0=2))
    full = group_closure(g, 2000)
    proj = group_closure(g, 2000, projective=True)
    assert full == 96 and 480 % full == 0  # Lagrange in GL2(F5)
    assert proj == 24 and 120 % proj == 0  # Lagrange in PGL2(F5)


def test_closure_invariant_under_reordering_and_conjugation():
    g = rep_generators(RepSpec("burau", 3, p=5, t0=2))
    base = group_closure(g, 2000)
    assert group_closure(tuple(reversed(g)), 2000) == base
    t = FpMatrix(5, ((1, 2), (0, 3)))
    conj = [t.mul(x).mul(t.inverse()) for x in g]
    assert group_closure(conj, 2000) == base


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
    assert infinite_order_witness([CycMatrix.identity(8, 2)], max_len=3) is None


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

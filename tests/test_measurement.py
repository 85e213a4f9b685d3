import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from povmlab import operators as op
from povmlab.errors import (
    DimensionMismatch,
    NonCommuting,
    NotPositive,
    Overcomplete,
    ValidationError,
    ZeroDenominator,
)
from povmlab.measurement import (
    COMMUTE_TOL,
    NO_DETECTION,
    DensityOperator,
    OperatorValuedMeasure,
    Pmf,
    Povm,
    PureState,
    commute,
    conditional_formal_values,
    conjugate_observable,
    existence_observable,
    first_clash,
    formal_product,
    ordered_product,
    outcome_pmf,
    product_observable,
    sample_outcomes,
    sample_pmf,
    tensor_observable,
)
from povmlab.measurement import _sum_in_order

from conftest import (
    random_commuting_povm_pair,
    random_effect,
    random_povm,
    random_state,
    random_unitary,
)

TOL = 1e-12

f1 = op.basis_vector(2, 0)
f2 = op.basis_vector(2, 1)
g1 = (f1 + f2) / np.sqrt(2)
g2 = (f1 - f2) / np.sqrt(2)


def two_point_observable(v1, v2):
    return Povm.from_vectors((1, 2), [v1, v2])


# ---------------------------------------------------------------- states


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]))
    # a norm check written as "fails when above the tolerance" let NaN through
    with pytest.raises(ValidationError, match="state vector norm nan is not 1"):
        PureState(np.array([np.nan, 1.0]))


def test_density_operator_checks():
    with pytest.raises(NotPositive):
        DensityOperator(np.diag([1.5, -0.5]))
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([0.5, 0.2]))
    rho = PureState(g1).density()
    assert np.max(np.abs(rho.matrix - op.projector(g1))) <= TOL


# ------------------------------------------------------------ validation


def test_povm_rejects_negative_effect():
    with pytest.raises(NotPositive):
        Povm((1, 2), [np.diag([1.0, -0.2]), np.diag([0.0, 1.0])])
    # the first offending outcome is named: c is Hermitian with a negative
    # eigenvalue, d is not Hermitian though its symmetric part is positive
    small = 0.1 * np.eye(2)
    skew = np.array([[0.1, 0.05], [0.0, 0.1]])
    negative = np.diag([0.2, -0.01])
    with pytest.raises(NotPositive, match="outcome 'c' is"):
        Povm("abcd", [small, small, negative, skew])
    with pytest.raises(NotPositive, match="outcome 'b' is"):
        Povm("abc", [small, skew, small])
    with pytest.raises(NotPositive, match="outcome 'b' is"):
        Povm("abc", [small, np.full((2, 2), np.nan), negative])


def test_povm_rejects_overcomplete_family():
    with pytest.raises(Overcomplete):
        Povm((1,), [2.0 * np.eye(2)])
    # each effect is below the identity, their sum is not
    with pytest.raises(Overcomplete):
        Povm((1, 2, 3), [0.5 * np.eye(2), np.diag([0.4, 0.2]), np.diag([0.3, 0.1])])


def test_povm_checks_everything_with_one_eigvalsh_on_finite_entries(monkeypatch):
    # a non-Hermitian effect, the non-finite ones among them, is refused
    # before LAPACK sees it, and so is the total it spoils
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.copy()) or eigvalsh(a))
    small = 0.1 * np.eye(2)
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 0.1]), np.array([[0.1, 0.05], [0.0, 0.1]])):
        with pytest.raises(NotPositive, match="outcome 'b' is"), np.errstate(invalid="ignore"):
            Povm("abc", [small, bad, small])
    Povm("ab", [small, small])
    assert [a.shape for a in seen] == [(4, 2, 2)] * 3 + [(3, 2, 2)]
    assert all(np.isfinite(a).all() for a in seen)
    assert all(not a[1].any() and not a[3].any() for a in seen[:3])


def test_povm_refuses_a_total_that_overflows():
    # each effect passes; the total's NaN spectrum once passed the excess check
    with pytest.raises(Overcomplete):
        Povm("ab", [np.diag([6e307, 0.0])] * 2)


def test_povm_refuses_an_infinite_entry_without_a_warning():
    # the residual's inf - inf once warned, which the suite raises in place of NotPositive
    with pytest.raises(NotPositive, match="outcome 'b' is"):
        Povm("ab", [0.1 * np.eye(2), np.diag([np.inf, 0.1])])


def test_povm_total_is_a_read_only_matrix_of_its_own():
    # the total outlives the check's (n + 1, d, d) buffer instead of keeping
    # it, and with it a second copy of the effects, alive
    total = Povm("ab", [0.25 * np.eye(2), 0.5 * np.eye(2)]).total()
    assert total.base is None and total.shape == (2, 2)
    assert np.array_equal(total, 0.75 * np.eye(2))
    with pytest.raises(ValueError):
        total[0, 0] = 1.0


def test_povm_accepts_subnormalized_family():
    o = Povm((1,), [0.5 * np.eye(2)])
    assert not o.is_normalized()
    p = outcome_pmf(o, PureState(f1))
    assert p[1] == pytest.approx(0.5, abs=TOL)
    assert p.no_detection == pytest.approx(0.5, abs=TOL)


def test_effect_of_is_additive_and_empty_is_zero():
    o = two_point_observable(f1, f2)
    assert np.max(np.abs(o.effect_of([]))) == 0.0
    assert np.max(np.abs(o.effect_of([1, 2]) - np.eye(2))) <= TOL


def test_pmf_mass_must_close():
    with pytest.raises(ValidationError):
        Pmf({1: 0.5, 2: 0.4}, no_detection=0.0)
    p = Pmf({1: 0.5, 2: 0.25}, no_detection=0.25)
    assert p.total_mass() == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pmf_rejects_non_finite_masses(bad):
    # every comparison with NaN is False, so a range check written as
    # "fails when below or above" lets NaN through and the pmf emits nan
    with pytest.raises(ValidationError):
        Pmf({1: bad})
    with pytest.raises(ValidationError):
        Pmf({1: 0.5, 2: bad}, 0.5)
    with pytest.raises(ValidationError):
        Pmf({1: 0.5}, bad)
    with pytest.raises(ValidationError):
        Pmf({1: 1.0}, bad)


# -------------------------------------------------------- probability rule


def test_uniform_split_for_plus_state():
    p = outcome_pmf(two_point_observable(f1, f2), PureState(g1))
    assert p[1] == pytest.approx(0.5, abs=TOL)
    assert p[2] == pytest.approx(0.5, abs=TOL)
    assert p.no_detection == pytest.approx(0.0, abs=TOL)


def test_density_and_pure_agree():
    rng = np.random.default_rng(11)
    o = random_povm(rng, 3, 3)
    s = random_state(rng, 3)
    p1 = outcome_pmf(o, s)
    p2 = outcome_pmf(o, s.density())
    for x in o.outcomes:
        assert p1[x] == pytest.approx(p2[x], abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5000), st.integers(2, 4), st.integers(2, 4))
def test_pmf_mass_closes_for_random_instances(seed, dim, n):
    rng = np.random.default_rng(seed)
    o = random_povm(rng, dim, n)
    u = random_state(rng, dim)
    p = outcome_pmf(o, u)
    assert p.no_detection <= 1e-10
    assert sum(p[x] for x in o.outcomes) + p.no_detection == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5000), st.integers(2, 4))
def test_effect_expectations_stay_in_unit_interval(seed, dim):
    rng = np.random.default_rng(seed)
    e = random_effect(rng, dim)
    assert op.is_positive(e)
    assert op.is_positive(np.eye(dim) - e)
    u = random_state(rng, dim)
    p = np.vdot(u.vector, e @ u.vector).real
    assert -1e-10 <= p <= 1.0 + 1e-10


# --------------------------------------------------------------- sampling


def test_sampling_is_deterministic_and_ordered():
    o = two_point_observable(f1, f2)
    u = PureState(g1)
    a = sample_outcomes(o, u, 100, seed=5)
    b = sample_outcomes(o, u, 100, seed=5)
    assert a == b
    assert set(a) <= {1, 2}


def test_sampling_refuses_a_negative_seed():
    # numpy's generator refuses one only after the caller's work is done
    with pytest.raises(ValidationError):
        sample_pmf(Pmf({1: 0.5, 2: 0.5}), 10, -1)


def test_sampling_includes_no_detection_mass():
    o = Povm((1,), [0.25 * np.eye(2)])
    draws = sample_outcomes(o, PureState(f1), 4000, seed=3)
    frac = draws.count(NO_DETECTION) / 4000
    assert abs(frac - 0.75) <= 3 * np.sqrt(0.75 * 0.25 / 4000)


def test_sampling_matches_pmf_at_three_sigma():
    o = two_point_observable(g1, g2)
    u = PureState(f1)
    n = 100_000
    draws = sample_outcomes(o, u, n, seed=17)
    for x, p in ((1, 0.5), (2, 0.5)):
        freq = draws.count(x) / n
        assert abs(freq - p) <= 3 * np.sqrt(p * (1 - p) / n)


# ------------------------------------------------------ products, tensors


def test_commute_and_product_for_same_basis():
    o = two_point_observable(f1, f2)
    assert commute(o, o)
    prod = product_observable(o, o)
    p = outcome_pmf(prod, PureState(g1))
    assert p[(1, 1)] == pytest.approx(0.5, abs=TOL)
    assert p[(2, 2)] == pytest.approx(0.5, abs=TOL)
    assert p[(1, 2)] == pytest.approx(0.0, abs=TOL)


def test_non_commuting_pair_is_rejected_with_witness():
    of = two_point_observable(f1, f2)
    og = two_point_observable(g1, g2)
    assert not commute(of, og)
    with pytest.raises(NonCommuting) as err:
        product_observable(of, og)
    assert err.value.norm == pytest.approx(0.5, abs=TOL)


def test_tensor_observable_uniform_case():
    o = two_point_observable(f1, f2)
    joint = tensor_observable(o, o)
    u = PureState(op.tensor_vec(g1, g1))
    p = outcome_pmf(joint, u)
    for x in joint.outcomes:
        assert p[x] == pytest.approx(0.25, abs=TOL)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.integers(2, 3), st.integers(2, 3))
def test_product_marginal_recovers_factor(seed, na, nb):
    rng = np.random.default_rng(seed)
    a, b = random_commuting_povm_pair(rng, 3, na, nb)
    prod = product_observable(a, b)
    u = random_state(rng, 3)
    joint = outcome_pmf(prod, u)
    single = outcome_pmf(a, u)
    for x in a.outcomes:
        marg = sum(joint[(x, y)] for y in b.outcomes)
        assert marg == pytest.approx(single[x], abs=1e-10)


# ------------------------------------------------------------ conjugation


def test_conjugation_by_unitary_matches_evolved_state():
    rng = np.random.default_rng(23)
    o = random_povm(rng, 3, 3)
    u = random_unitary(rng, 3)
    s = random_state(rng, 3)
    pulled = outcome_pmf(conjugate_observable(o, u), s)
    pushed = outcome_pmf(o, PureState(u @ s.vector))
    for x in o.outcomes:
        assert pulled[x] == pytest.approx(pushed[x], abs=TOL)


def test_conjugation_by_projection_subnormalizes():
    o = two_point_observable(g1, g2)
    p = op.projector(f1)
    squeezed = conjugate_observable(o, p)
    pmf = outcome_pmf(squeezed, PureState(f2))
    assert pmf.no_detection == pytest.approx(1.0, abs=TOL)


def test_conjugation_guard_rejects_expanding_map():
    o = two_point_observable(f1, f2)
    with pytest.raises(Overcomplete):
        conjugate_observable(o, 2.0 * np.eye(2))


# --------------------------------------------------- formal pair measures


def test_formal_product_coincides_with_product_iff_commuting():
    rng = np.random.default_rng(31)
    a, b = random_commuting_povm_pair(rng, 3, 2, 3)
    prod = product_observable(a, b)
    form = formal_product(a, b)
    assert form.is_observable()
    for o in prod.outcomes:
        assert np.max(np.abs(prod.effect(o) - form.value(o))) <= 1e-10
        # one kernel builds both, so commuting factors give the same bits
        assert np.array_equal(prod.effect(o), form.value(o))

    of = two_point_observable(f1, f2)
    og = two_point_observable(g1, g2)
    form2 = formal_product(of, og)
    assert not form2.is_observable()
    assert form2.hermiticity_residual() > 0.1


def test_formal_product_values_multiply():
    of = two_point_observable(f1, f2)
    og = two_point_observable(g1, g2)
    form = formal_product(of, og)
    for x, y in form.outcomes:
        expected = of.effect(x) @ og.effect(y)
        assert np.max(np.abs(form.value((x, y)) - expected)) <= TOL


# ------------------------------------- batched kernel against plain loops


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def first_clash_loop(factors, tol):
    """The gate one outcome pair at a time; a strict > keeps the first max."""
    for i, a in enumerate(factors):
        for j in range(i + 1, len(factors)):
            b = factors[j]
            worst = (0.0, None, None)
            for x in a.outcomes:
                for y in b.outcomes:
                    n = op.commutator_norm(a.effect(x), b.effect(y))
                    if n > worst[0]:
                        worst = (n, x, y)
            if worst[0] > tol:
                return i, j, worst[1], worst[2], worst[0]
    return None


def test_first_clash_matches_the_pairwise_loop():
    rng = np.random.default_rng(71)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        factors = [random_povm(rng, dim, int(rng.integers(2, 5))) for _ in range(3)]
        clash = first_clash(factors, 1e-10)
        assert clash is not None and clash == first_clash_loop(factors, 1e-10)

    # ties: every outcome pair of a and b has the same commutator bits, so
    # the first pair in row-major (x, y) order must be reported
    pf, pg = op.projector(f1), op.projector(g1)
    a = Povm(("a1", "a2"), [0.5 * pf, 0.5 * pf])
    b = Povm(("b1", "b2", "b3"), [pg / 3, pg / 3, pg / 3])
    clash = first_clash((existence_observable(2), a, b), 1e-10)
    assert clash[:4] == (1, 2, "a1", "b1")
    assert clash == first_clash_loop((existence_observable(2), a, b), 1e-10)

    # all-commuting families, including zero commutators, pass the gate
    c, d = random_commuting_povm_pair(rng, 3, 3, 2)
    assert first_clash((c, d, c), 1e-10) is None
    assert first_clash_loop((c, d, c), 1e-10) is None
    o = two_point_observable(f1, f2)
    assert first_clash((o, o), 0.0) is None


def turned(o, h, eps):
    """``o`` conjugated by the unitary exp(i eps h), for a Hermitian h."""
    w, v = np.linalg.eigh(h)
    return conjugate_observable(o, (v * np.exp(1j * eps * w)) @ v.conj().T)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 5000), st.integers(2, 4), st.integers(2, 4), st.integers(2, 4),
    st.floats(-3.0, 3.0), st.sampled_from([COMMUTE_TOL, 0.0, -1.0]),
)
def test_the_screened_gate_returns_the_unscreened_loops_result(seed, dim, na, nb, decade, tol):
    # a commuting pair with b turned by exp(i eps h), eps set so that the
    # worst commutator is about 10**decade * COMMUTE_TOL; a with itself
    # commutes to roundoff, so the gate passes a pair before it decides
    rng = np.random.default_rng(seed)
    a, b = random_commuting_povm_pair(rng, dim, na, nb)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = z + z.conj().T
    worst = first_clash_loop((a, turned(b, h, 1e-6)), -1.0)[4]
    assume(worst > 1e-9)
    factors = (a, a, turned(b, h, 1e-6 * 10.0**decade * COMMUTE_TOL / worst))
    clash, loop = first_clash(factors, tol), first_clash_loop(factors, tol)
    assert clash == loop
    if clash is not None:
        assert clash[4].hex() == loop[4].hex()


def test_the_gate_settles_commuting_pairs_without_an_svd(monkeypatch):
    rng = np.random.default_rng(89)
    c, d = random_commuting_povm_pair(rng, 3, 3, 2)

    def svd(*args, **kwargs):
        raise AssertionError("the entry bound should have settled this")

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert first_clash((c, d, c), COMMUTE_TOL) is None
    assert commute(c, d) and product_observable(c, d).dim == 3


def test_ordered_product_matches_the_left_to_right_loop():
    rng = np.random.default_rng(73)
    factors = [random_povm(rng, 3, n) for n in (2, 3, 4)]
    outcomes, products = ordered_product(factors)
    expected = [(x, y, z) for x in (1, 2) for y in (1, 2, 3) for z in (1, 2, 3, 4)]
    assert outcomes == expected
    assert products.shape == (24, 3, 3)
    for k, combo in enumerate(expected):
        acc = factors[0].effect(combo[0])
        for o, x in zip(factors[1:], combo[1:]):
            acc = acc @ o.effect(x)
        assert same_bits(products[k], acc)


def test_conjugate_observable_matches_per_effect_products():
    rng = np.random.default_rng(79)
    o = random_povm(rng, 4, 3)
    for a in (random_unitary(rng, 4), op.projector(op.basis_vector(4, 1))):
        conj = conjugate_observable(o, a)
        ad = a.conj().T
        assert conj.outcomes == o.outcomes
        for x in o.outcomes:
            assert same_bits(conj.effect(x), ad @ o.effect(x) @ a)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 6), st.integers(1, 4), st.integers(1, 4))
def test_first_clash_norms_are_the_two_norms_bit_for_bit(seed, dim, na, nb):
    # the gate reads the first of LAPACK's descending singular values, where
    # np.linalg.norm(c, 2) takes their maximum; d = 1 commutes exactly
    rng = np.random.default_rng(seed)
    a, b = random_povm(rng, dim, na), random_povm(rng, dim, nb)
    norms = [
        np.linalg.norm(a.effect(x) @ b.effect(y) - b.effect(y) @ a.effect(x), 2)
        for x in a.outcomes for y in b.outcomes
    ]
    k = int(np.argmax(norms))
    x, y = a.outcomes[k // nb], b.outcomes[k % nb]
    clash = first_clash((a, b), -1.0)
    assert clash[:4] == (0, 1, x, y) and clash[4].hex() == float(norms[k]).hex()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 4), st.integers(1, 300))
def test_the_total_is_python_sums_bits(seed, dim, n):
    # sum() adds in table order from 0, so a sum of negative zeros is +0.0;
    # stack.sum(axis=0) adds 1 x 1 effects pairwise and keeps the -0.0
    rng = np.random.default_rng(seed)
    mags = 10.0 ** rng.uniform(-8, 8, size=(n, dim, dim))
    stack = mags * rng.normal(size=(n, dim, dim)) + 1j * mags * rng.normal(size=(n, dim, dim))
    zeros = rng.random(size=(2, n, dim, dim)) < 0.3
    signs = np.where(rng.random(size=(2, n, dim, dim)) < 0.5, -0.0, 0.0)
    stack.real[zeros[0]] = signs[0][zeros[0]]
    stack.imag[zeros[1]] = signs[1][zeros[1]]
    stack[:, 0, 0] = complex(-0.0, -0.0)
    assert same_bits(_sum_in_order(stack), sum(stack))
    # and through a Povm: diagonal effects whose off-diagonal entries are
    # signed zeros in every effect, Hermitian to the bit
    weights = 0.99 * rng.dirichlet(np.ones(n), size=dim)
    effects = [np.diag(weights[:, k]).astype(complex) for k in range(n)]
    for e in effects:
        e[np.triu_indices(dim, 1)] = complex(-0.0, -0.0)
        e[np.tril_indices(dim, -1)] = complex(-0.0, 0.0)
        e.imag[np.diag_indices(dim)] = -0.0
    assert same_bits(Povm(range(n), effects).total(), sum(effects))


def test_conditional_values_reduce_to_bayes_for_commuting_pairs():
    rng = np.random.default_rng(41)
    a, b = random_commuting_povm_pair(rng, 4, 2, 3)
    u = random_state(rng, 4)
    form = formal_product(a, b)
    joint = outcome_pmf(product_observable(a, b), u)
    cond = conditional_formal_values(form, u, condition=[1])
    p1 = sum(joint[(1, y)] for y in b.outcomes)
    for y in b.outcomes:
        assert cond[y].real == pytest.approx(joint[(1, y)] / p1, abs=1e-10)
        assert abs(cond[y].imag) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.integers(2, 4))
def test_conditional_values_sum_to_one(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_povm(rng, dim, 2)
    b = random_povm(rng, dim, 3)
    u = random_state(rng, dim)
    form = formal_product(a, b)
    try:
        cond = conditional_formal_values(form, u, condition=[1])
    except ZeroDenominator:
        return
    assert sum(cond.values()) == pytest.approx(1.0, abs=1e-10)


def test_conditional_values_zero_denominator():
    a = two_point_observable(f1, f2)
    form = formal_product(a, a)
    with pytest.raises(ZeroDenominator):
        conditional_formal_values(form, PureState(f2), condition=[1])


# ---------------------------------------------------------------- plumbing


def test_dimension_mismatch_is_reported():
    o2 = two_point_observable(f1, f2)
    o3 = Povm.from_vectors((1, 2, 3), [op.basis_vector(3, i) for i in range(3)])
    with pytest.raises(DimensionMismatch):
        product_observable(o2, o3)
    with pytest.raises(DimensionMismatch):
        outcome_pmf(o2, PureState(op.basis_vector(3, 0) + 0.0))
    # a ragged family, a vector among matrices, a single matrix for two outcomes
    for effects in ([op.identity(2), op.identity(3)], [op.identity(2), np.ones(2)], np.eye(2)):
        with pytest.raises(DimensionMismatch):
            Povm((1, 2), effects)
    with pytest.raises(ValidationError, match="count"):
        Povm((1, 2, 3), np.stack([op.identity(2)] * 2))


O2 = Povm.from_vectors((1, 2), [f1, f2])
O3 = existence_observable(3)
PAIRS = formal_product(O2, O2)


# one case per refusal: the call, its error and a fragment of its message
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: Povm((), []), ValidationError, "needs at least one outcome"),
    (lambda: Povm((1, 1), [op.identity(2), np.zeros((2, 2))]), ValidationError,
     "outcome labels must be unique"),
    (lambda: conjugate_observable(O2, op.identity(3)), DimensionMismatch,
     "conjugator dim 3 does not match observable dim 2"),
    (lambda: formal_product(O2, O3), DimensionMismatch, "observable dims 2 and 3 differ"),
    (lambda: conditional_formal_values(PAIRS, PureState(g1), condition=[]), ValidationError,
     "condition must name at least one"),
    (lambda: conditional_formal_values(OperatorValuedMeasure((1, 2), [op.identity(2)] * 2),
                                       PureState(g1), condition=[1]), ValidationError,
     "need a measure over outcome pairs"),
    (lambda: conditional_formal_values(PAIRS, PureState(g1), condition=[7]), ValidationError,
     "condition labels [7] are not first-slot outcomes"),
], ids=["no-outcomes", "repeated", "conjugator", "formal-product", "no-condition", "not-pairs",
        "unknown-condition"])
def test_observables_refuse_each_bad_input(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_the_sentinel_and_an_observable_print_what_they_are():
    assert repr(NO_DETECTION) == "NO_DETECTION"
    assert str(NO_DETECTION) == "none"
    assert repr(O2) == "Povm(dim=2, outcomes=[1, 2])"
    assert repr(PAIRS).startswith("OperatorValuedMeasure(dim=2, outcomes=[(1, 1), (1, 2), ")


def test_existence_observable_is_trivial():
    o = existence_observable(5)
    rng = np.random.default_rng(2)
    u = random_state(rng, 5)
    p = outcome_pmf(o, u)
    assert p[1] == pytest.approx(1.0, abs=TOL)

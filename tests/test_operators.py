import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmlab import operators as op
from povmlab.errors import DimensionMismatch

TOL = 1e-12


def random_op(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_vec(rng, dim):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


dims = st.integers(min_value=2, max_value=4)
seeds = st.integers(min_value=0, max_value=10_000)


def test_inner_is_conjugate_linear_in_first_argument():
    a = np.array([1 + 1j, 2.0])
    b = np.array([3.0, -1j])
    assert op.inner(2j * a, b) == pytest.approx(np.conj(2j) * op.inner(a, b))
    assert op.inner(a, 2j * b) == pytest.approx(2j * op.inner(a, b))


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        op.inner(np.ones(2), np.ones(3))


# one case per refusal: the call and a fragment of its message
@pytest.mark.parametrize("call, fragment", [
    (lambda: op.as_vector([]), "expected a nonempty 1-d vector, got shape (0,)"),
    (lambda: op.as_vector(np.eye(2)), "expected a nonempty 1-d vector, got shape (2, 2)"),
    (lambda: op.as_operator(np.ones((2, 3))), "expected a square operator, got shape (2, 3)"),
    (lambda: op.as_operator(np.ones(4)), "expected a square operator, got shape (4,)"),
], ids=["empty-vector", "matrix-as-vector", "rectangle", "vector-as-operator"])
def test_coercions_refuse_the_wrong_shape(call, fragment):
    with pytest.raises(DimensionMismatch, match=re.escape(fragment)):
        call()


def test_tensor_vec_against_nested_loop():
    rng = np.random.default_rng(3)
    a = random_vec(rng, 3)
    b = random_vec(rng, 2)
    t = op.tensor_vec(a, b)
    for i in range(3):
        for j in range(2):
            assert t[i * 2 + j] == pytest.approx(a[i] * b[j], abs=TOL)


def test_tensor_op_against_nested_loop():
    rng = np.random.default_rng(4)
    a = random_op(rng, 2)
    b = random_op(rng, 3)
    t = op.tensor_op(a, b)
    for i in range(2):
        for j in range(3):
            for k in range(2):
                for m in range(3):
                    assert t[i * 3 + j, k * 3 + m] == pytest.approx(
                        a[i, k] * b[j, m], abs=TOL
                    )


def test_tensor_products_give_the_bits_of_kron():
    rng = np.random.default_rng(6)
    for da, db in ((2, 3), (3, 2), (1, 4), (4, 5)):
        a = random_op(rng, da)
        b = random_op(rng, db)
        assert op.tensor_op(a, b).tobytes() == np.kron(a, b).tobytes()
        assert op.tensor_op(a, b).shape == (da * db, da * db)
        u = random_vec(rng, da)
        v = random_vec(rng, db)
        assert op.tensor_vec(u, v).tobytes() == np.kron(u, v).tobytes()
        assert op.tensor_vec(u, v).shape == (da * db,)


def test_tensor_basis_convention():
    f1 = op.basis_vector(2, 0)
    f2 = op.basis_vector(2, 1)
    u = (f1 + f2) / np.sqrt(2)
    p = op.tensor_op(op.projector(f1), op.projector(f2))
    out = p @ op.tensor_vec(u, u)
    expected = 0.5 * op.tensor_vec(f1, f2)
    assert np.max(np.abs(out - expected)) <= TOL


@settings(max_examples=60, deadline=None)
@given(seeds, dims, dims)
def test_tensor_op_is_multiplicative(seed, da, db):
    rng = np.random.default_rng(seed)
    a, c = random_op(rng, da), random_op(rng, da)
    b, d = random_op(rng, db), random_op(rng, db)
    lhs = op.tensor_op(a, b) @ op.tensor_op(c, d)
    rhs = op.tensor_op(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@settings(max_examples=60, deadline=None)
@given(seeds, dims, dims)
def test_adjoint_distributes_over_tensor(seed, da, db):
    rng = np.random.default_rng(seed)
    a, b = random_op(rng, da), random_op(rng, db)
    lhs = op.adjoint(op.tensor_op(a, b))
    rhs = op.tensor_op(op.adjoint(a), op.adjoint(b))
    assert np.max(np.abs(lhs - rhs)) <= TOL


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_commutator_norm_symmetry(seed, dim):
    rng = np.random.default_rng(seed)
    a, b = random_op(rng, dim), random_op(rng, dim)
    assert abs(op.commutator_norm(a, b) - op.commutator_norm(b, a)) <= 1e-12


def test_commutator_norm_of_half_turned_projectors():
    # two rank-one projectors at 45 degrees have commutator norm exactly 1/2
    f1 = op.basis_vector(2, 0)
    g1 = np.array([1.0, 1.0]) / np.sqrt(2)
    n = op.commutator_norm(op.projector(f1), op.projector(g1))
    assert n == pytest.approx(0.5, abs=TOL)
    # brute-force singular value oracle
    a, b = op.projector(f1), op.projector(g1)
    s = np.linalg.svd(a @ b - b @ a, compute_uv=False)
    assert n == pytest.approx(s.max(), abs=TOL)


def test_commutator_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        op.commutator_norm(np.eye(2), np.eye(3))


def test_is_positive_rejects_non_hermitian_product():
    # G({1}) F({1}) for the three-box pair is a non-Hermitian rank-one product
    f = [op.basis_vector(3, i) for i in range(3)]
    u = (f[0] + f[1] + f[2]) / np.sqrt(3)
    g1 = (f[0] + f[1] - f[2]) / np.sqrt(3)
    prod = op.projector(g1) @ op.projector(f[0])
    assert not op.is_positive(prod)
    expected = np.outer(f[0] + f[1] - f[2], f[0]) / 3.0
    assert np.max(np.abs(prod - expected)) <= TOL


def test_is_positive_accepts_gram_matrices():
    rng = np.random.default_rng(8)
    a = random_op(rng, 4)
    assert op.is_positive(a.conj().T @ a)


def test_operator_norm_is_largest_singular_value():
    rng = np.random.default_rng(9)
    a = random_op(rng, 4)
    s = np.linalg.svd(a, compute_uv=False)
    assert op.operator_norm(a) == pytest.approx(s.max(), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 8), st.sampled_from([1e-9, 1.0, 1e9]))
def test_operator_and_commutator_norms_are_the_two_norm_bit_for_bit(seed, dim, scale):
    # the first of LAPACK's descending singular values, where
    # np.linalg.norm(a, 2) takes their maximum
    rng = np.random.default_rng(seed)
    a, b = scale * random_op(rng, dim), random_op(rng, dim)
    assert op.operator_norm(a).hex() == float(np.linalg.norm(a, 2)).hex()
    assert op.commutator_norm(a, b).hex() == float(np.linalg.norm(a @ b - b @ a, 2)).hex()
    stack = np.stack([a, b, a @ b])
    assert op.operator_norms(stack).tobytes() == np.linalg.norm(stack, 2, axis=(-2, -1)).tobytes()


# ------------------------------------------------------- the entry bound


@pytest.mark.parametrize("tol", [1e-10, 1.0, 1e300])
@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_the_entry_bound_is_tight_on_the_all_ones_matrix(dim, tol):
    # ||s J||_2 = d s, the bound itself: d s just below tol / 2 is proved
    # inside, just above it is not, and neither is d s = tol, inside as it is
    ones = np.ones((2, dim, dim), dtype=complex)
    for phase in (1.0, 1j, (1 - 1j) / np.sqrt(2)):
        for factor, proved in ((1 - 1e-12, True), (1 + 1e-12, False), (2.0, False)):
            stack = (tol / 2 / dim * factor) * phase * ones
            assert op.operator_norms(stack) == pytest.approx(tol / 2 * factor, rel=1e-13)
            assert op.norms_within_half(stack, tol) == proved
            assert op.norms_within_half(stack[0], tol) == proved


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf), complex(np.nan, np.inf)]
)
def test_the_entry_bound_never_passes_a_non_finite_entry(bad):
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1, 0, 1] = bad
    for tol in (1e-10, 1e300):
        assert not op.norms_within_half(stack, tol)


def test_the_entry_bound_of_huge_entries_raises_no_warning():
    # np.abs of a complex entry near 1e308 can overflow; the parts cannot
    # (the suite turns every RuntimeWarning into an error)
    stack = np.full((2, 3, 3), complex(1.7e308, -1.7e308))
    assert not op.norms_within_half(stack, 1e-10)
    assert not op.norms_within_half(stack, 1.7e308)
    assert op.norms_within_half(np.full((1, 2, 2), complex(4e307, 0.0)), 1.7e308)

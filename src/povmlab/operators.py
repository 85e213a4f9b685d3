"""Dense complex vectors and operators on finite-dimensional spaces.

Vectors are one-dimensional complex ndarrays, operators are square complex
ndarrays.  Everything here is a thin, validating layer over numpy so the
measurement layer can state its contracts in terms of a handful of named
operations.  Each operation takes single operators; ``measurement`` keeps
an observable's effects as one ``(n, d, d)`` stack and applies the same
arithmetic to whole stacks itself, one product per entry as here, so its
batched forms give these functions' bits.  The tensor products are the
broadcast products ``np.kron`` computes, without its generic set-up, and
the operator norms are the first singular values, ``np.linalg.norm(a,
2)``'s bits without its generic wrapper (``operator_norms``).  A check
that only compares a norm with a tolerance may first ask
``norms_within_half`` whether the entries alone already settle it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "as_vector",
    "as_operator",
    "basis_vector",
    "identity",
    "inner",
    "norm",
    "outer",
    "projector",
    "adjoint",
    "tensor_vec",
    "tensor_op",
    "hermiticity_residual",
    "is_hermitian",
    "is_positive",
    "operator_norm",
    "commutator_norm",
]

# Hermiticity / positivity slack used when the caller does not override it.
DEFAULT_TOL = 1e-10


def as_vector(entries) -> np.ndarray:
    """Coerce to a 1-d complex array, rejecting anything of other rank."""
    v = np.asarray(entries, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected a nonempty 1-d vector, got shape {v.shape}")
    return v


def as_operator(entries) -> np.ndarray:
    """Coerce to a square 2-d complex array."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a square operator, got shape {a.shape}")
    return a


def basis_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def inner(a, b) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector dims {a.size} and {b.size} differ")
    return complex(np.vdot(a, b))


def norm(a) -> float:
    return float(np.linalg.norm(as_vector(a)))


def outer(a, b) -> np.ndarray:
    """Rank-one operator |a><b|."""
    a = as_vector(a)
    b = as_vector(b)
    return np.outer(a, b.conj())


def projector(a) -> np.ndarray:
    """Projector onto the line spanned by a unit vector."""
    return outer(a, a)


def adjoint(a) -> np.ndarray:
    return as_operator(a).conj().T


def tensor_vec(a, b) -> np.ndarray:
    """Kronecker product of vectors; index (i, j) maps to i*dim_b + j."""
    a = as_vector(a)
    b = as_vector(b)
    return (a[:, None] * b[None, :]).reshape(-1)


def tensor_op(a, b) -> np.ndarray:
    """Kronecker product of operators, same index convention as tensor_vec."""
    a = as_operator(a)
    b = as_operator(b)
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def hermiticity_residual(a) -> float:
    """Largest entry of |A - A*|; zero iff A is Hermitian."""
    a = as_operator(a)
    return float(np.max(np.abs(a - a.conj().T)))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    return hermiticity_residual(a) <= tol


def is_positive(a, tol: float = DEFAULT_TOL) -> bool:
    """True when A is Hermitian within tol and its spectrum is >= -tol."""
    a = as_operator(a)
    if not is_hermitian(a, tol):
        return False
    eigs = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return bool(eigs.min() >= -tol)


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack, unchecked.

    LAPACK returns the singular values in descending order, so the first is
    the largest, and the bits are those of ``np.linalg.norm(a, 2)``, which
    takes the maximum of the same values behind a generic wrapper.  Shared
    with ``measurement``; not in ``__all__``.
    """
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def norms_within_half(stack: np.ndarray, tol: float) -> bool:
    """Whether the entries alone prove every matrix's operator norm <= tol / 2.

    For a ``d x d`` matrix C, ``||C||_2 <= ||C||_F <= d * hypot(max |Re c|,
    max |Im c|)`` (Golub & Van Loan, *Matrix Computations*, 2.3), tight for
    a multiple of the all-ones matrix.  The maxima are taken over the whole
    stack, from the real and imaginary parts: ``np.abs`` of a complex entry
    near 1e308 could overflow, and these cannot.  True means that
    ``operator_norms(stack)`` would put every norm at or below ``tol``:
    LAPACK's largest singular value is within a few ulps times ``d`` of the
    exact one, and the halving leaves it a factor of 2.  False says nothing;
    for any finite ``tol``, a NaN or infinite entry gives False, so it
    reaches the SVD as before.  Shared with ``measurement`` and
    ``causality``; not in ``__all__``.
    """
    real = float(np.abs(stack.real).max())
    imag = float(np.abs(stack.imag).max())
    bound = stack.shape[-1] * math.hypot(real, imag)
    return bound <= tol / 2


def operator_norm(a) -> float:
    """Largest singular value."""
    return float(operator_norms(as_operator(a)))


def commutator_norm(a, b) -> float:
    """Operator norm of AB - BA."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"operator dims {a.shape[0]} and {b.shape[0]} differ")
    return float(operator_norms(a @ b - b @ a))

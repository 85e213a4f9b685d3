"""States, discrete observables, and the probability rule.

An observable is a finite family of positive effects summing to at most the
identity.  Sub-normalized families are allowed on purpose: the missing mass
is reported as a ``no detection`` outcome rather than silently renormalized.
Products of observables exist only when every pair of effects commutes;
without that gate the operator products are still available, but only as a
formal operator-valued measure whose values need not be positive or even
Hermitian.  One kernel, ``ordered_product``, builds every such product and
one gate, ``first_clash``, tests it: ``product_observable`` and
``causality.realize_sequential`` apply both, ``formal_product`` the kernel
alone.  ``Povm`` and ``OperatorValuedMeasure`` share one outcome table.

The table holds an observable's effects as one read-only ``(n, d, d)``
stack, and the kernel works on whole stacks: the gate takes the
commutators of all outcome pairs of two factors and their norms in one
batched call, the product folds the factor stacks with one batched matmul
per factor, and conjugation multiplies the whole stack at once.  Every
entry is the same single product the one-matrix form computes, so the
results are bit for bit those of the per-effect loops.  ``outcome_pmf``
stays per effect: a batched sum would add in another order.  ``Povm``
checks its effects and their total in one buffer, with one ``eigvalsh``.

The gate, per factor pair, first asks ``op.norms_within_half`` whether the
commutators' entries bound every norm by half the tolerance, and takes the
SVD only when they do not.  The bound cannot change a result: where it
holds, LAPACK's norm is below the tolerance with a margin of 2 over its
rounding, and at a finite tolerance a NaN or infinite entry always falls
through to the SVD.  A clash's reported norm is always the SVD's, as is every norm a scenario
prints (``causality.CausalMap`` screens its unitarity check the same way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositive,
    Overcomplete,
    NonCommuting,
    ZeroDenominator,
    ValidationError,
)
from . import operators as op

__all__ = [
    "NO_DETECTION",
    "PureState",
    "DensityOperator",
    "State",
    "Povm",
    "OperatorValuedMeasure",
    "Pmf",
    "existence_observable",
    "outcome_pmf",
    "sample_pmf",
    "sample_outcomes",
    "commute",
    "product_observable",
    "tensor_observable",
    "conjugate_observable",
    "formal_product",
    "conditional_formal_values",
]

Label = Hashable

UNIT_TOL = 1e-12
EFFECT_TOL = 1e-10
COMMUTE_TOL = 1e-10
PMF_TOL = 1e-10
ZERO_TOL = 1e-13  # a conditioning mass at or below this is numerically zero


class _NoDetection:
    """Sentinel outcome for the mass an observable does not account for."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NO_DETECTION"

    def __str__(self):
        return "none"


NO_DETECTION = _NoDetection()


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureState:
    """Unit vector, checked at construction."""

    vector: np.ndarray

    def __post_init__(self):
        v = op.as_vector(self.vector)
        if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:  # NaN fails too
            raise ValidationError(
                f"state vector norm {np.linalg.norm(v):.12g} is not 1"
            )
        object.__setattr__(self, "vector", _readonly(v))

    @property
    def dim(self) -> int:
        return self.vector.size

    def density(self) -> "DensityOperator":
        return DensityOperator(op.projector(self.vector))


@dataclass(frozen=True)
class DensityOperator:
    """Positive unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = op.as_operator(self.matrix)
        if not op.is_positive(m, EFFECT_TOL):
            raise NotPositive("density operator is not positive semidefinite")
        if abs(np.trace(m).real - 1.0) > EFFECT_TOL or abs(np.trace(m).imag) > EFFECT_TOL:
            raise ValidationError(f"density operator trace {np.trace(m):.12g} is not 1")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


State = Union[PureState, DensityOperator]


def _expectation(state: State, a: np.ndarray) -> complex:
    if isinstance(state, PureState):
        return complex(np.vdot(state.vector, a @ state.vector))
    return complex(np.trace(state.matrix @ a))


def _as_stack(outcomes: tuple, operators) -> np.ndarray:
    """One new complex ``(n, d, d)`` array of a sequence of matrices or a stack."""
    try:
        stack = np.array(operators, dtype=complex)
    except ValueError:  # a ragged sequence
        raise DimensionMismatch("effects do not share one shape") from None
    if stack.shape[:1] != (len(outcomes),):
        raise ValidationError("effect count does not match outcome count")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise DimensionMismatch(f"expected a stack of square operators, got shape {stack.shape}")
    return stack


def _sum_in_order(stack: np.ndarray) -> np.ndarray:
    """``sum(stack)``'s bits: ``((0 + E0) + E1) + ...``, one effect at a time.

    The total's bits are part of every pmf's no-detection mass.  An
    accumulation adds strictly in order, where ``stack.sum(axis=0)`` adds
    pairwise once an effect is 1 x 1; the final ``+ 0.0`` is the leading
    ``0 +``, which turns a sum of negative zeros into a positive one.
    """
    return np.add.accumulate(stack, axis=0)[-1] + 0.0


class _OutcomeTable:
    """Operators indexed by a finite, ordered outcome set.

    The shared part of ``Povm`` and ``OperatorValuedMeasure``: table
    coercion, ``dim`` and lookup.  The operators live in one read-only
    ``(n, d, d)`` stack in outcome order, which the batched kernels below
    read whole; the table's values are views of it.
    """

    def __init__(self, outcomes: Sequence[Label], operators):
        outcomes = tuple(outcomes)
        if len(outcomes) == 0:
            raise ValidationError("an observable needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValidationError("outcome labels must be unique")
        self.outcomes = outcomes
        self._stack = _as_stack(outcomes, operators)
        self._stack.setflags(write=False)
        self._table = dict(zip(outcomes, self._stack))

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    def _at(self, outcome: Label) -> np.ndarray:
        return self._table[outcome]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, outcomes={list(self.outcomes)!r})"


class Povm(_OutcomeTable):
    """Positive operator-valued measure over a finite, ordered outcome set.

    ``effects`` is a sequence of matrices in outcome order.  Construction
    validates every effect (Hermitian and positive) and the total (at most
    the identity), each within the fixed ``EFFECT_TOL``.  Totals strictly
    below the identity are legal; the deficit appears as the no-detection
    mass of every pmf computed from the observable.
    """

    # huge or infinite entries overflow the total or make inf - inf in the
    # residual; the checks refuse them, so numpy need not warn
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, outcomes: Sequence[Label], effects):
        super().__init__(outcomes, effects)
        stack = self._stack
        n = len(stack)
        # the effects and their total in one buffer: one adjoint, one
        # residual, one symmetrization and one eigvalsh check them all
        both = np.empty((n + 1,) + stack.shape[1:], dtype=complex)
        both[:n] = stack
        both[n] = _sum_in_order(stack)
        adjoint = both.conj().transpose(0, 2, 1)
        hermitian = np.abs(both - adjoint).max(axis=(1, 2))[:n] <= EFFECT_TOL
        sym = 0.5 * (both + adjoint)
        if np.count_nonzero(hermitian) < n:
            # a non-Hermitian effect fails whatever its spectrum, and then the
            # total goes unread; zeroing both keeps non-finite entries, which
            # are never Hermitian, away from eigvalsh
            sym[:n][~hermitian] = 0.0
            sym[n] = 0.0
        # each spectrum comes sorted ascending: an effect's least eigenvalue
        # is its first, the total's greatest its last
        spectra = np.linalg.eigvalsh(sym)
        positive = hermitian & (spectra[:n, 0] >= -EFFECT_TOL)
        if np.count_nonzero(positive) < n:
            x = self.outcomes[np.argmin(positive)]
            raise NotPositive(f"effect for outcome {x!r} is not positive")
        excess = spectra[n, -1] - 1.0
        # an overflowed total has a NaN spectrum, which no comparison passes
        if not excess <= EFFECT_TOL:
            raise Overcomplete(f"effects exceed the identity by {excess:.3e}")
        self._total = _readonly(both[n])

    effect = _OutcomeTable._at

    def effect_of(self, outcomes: Iterable[Label]) -> np.ndarray:
        """Additive extension to subsets; the empty subset gives zero."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for x in outcomes:
            acc = acc + self._table[x]
        return acc

    def total(self) -> np.ndarray:
        return self._total

    def is_normalized(self) -> bool:
        return op.operator_norm(self._total - op.identity(self.dim)) <= EFFECT_TOL

    @classmethod
    def from_vectors(cls, outcomes: Sequence[Label], vectors) -> "Povm":
        """Rank-one observable |v_x><v_x| from one vector per outcome."""
        return cls(outcomes, [op.projector(op.as_vector(v)) for v in vectors])


def existence_observable(dim: int) -> Povm:
    """The trivial one-outcome observable whose single effect is the identity."""
    return Povm((1,), [op.identity(dim)])


class OperatorValuedMeasure(_OutcomeTable):
    """Finite family of arbitrary operators indexed by outcomes.

    No positivity or normalization is imposed; this is the home of formal
    products of observables that fail the commutativity gate.
    """

    value = _OutcomeTable._at

    def hermiticity_residual(self) -> float:
        return max(op.hermiticity_residual(v) for v in self._table.values())

    def is_observable(self) -> bool:
        """Whether the family happens to be a valid sub-normalized Povm."""
        try:
            Povm(self.outcomes, self._stack)
        except (NotPositive, Overcomplete):
            return False
        return True


@dataclass(frozen=True)
class Pmf:
    """Probabilities over declared outcomes plus an explicit no-detection mass."""

    probabilities: Mapping[Label, float]
    no_detection: float = 0.0

    def __post_init__(self):
        probs = {}
        for x, p in dict(self.probabilities).items():
            p = float(p)
            if not -PMF_TOL <= p <= 1.0 + PMF_TOL:  # NaN fails too
                raise ValidationError(f"probability {p:.12g} for {x!r} outside [0, 1]")
            probs[x] = min(max(p, 0.0), 1.0)
        nd = float(self.no_detection)
        if not -PMF_TOL <= nd <= 1.0 + PMF_TOL:
            raise ValidationError(f"no-detection mass {nd:.12g} outside [0, 1]")
        # sub-tolerance no-detection mass is roundoff from a complete
        # observable, not a physical deficit; snap it away
        nd = 0.0 if nd <= PMF_TOL else min(nd, 1.0)
        total = sum(probs.values()) + nd
        if not abs(total - 1.0) <= PMF_TOL:
            raise ValidationError(f"pmf mass {total:.12g} is not 1")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "no_detection", nd)

    @property
    def outcomes(self) -> tuple:
        return tuple(self.probabilities.keys())

    def __getitem__(self, outcome: Label) -> float:
        return self.probabilities[outcome]

    def total_mass(self) -> float:
        return sum(self.probabilities.values()) + self.no_detection


def outcome_pmf(observable: Povm, state: State) -> Pmf:
    """Probability of each outcome: the expectation of its effect.

    Whatever mass the total effect fails to account for becomes the
    no-detection probability.
    """
    if observable.dim != state.dim:
        raise DimensionMismatch(
            f"observable dim {observable.dim} does not match state dim {state.dim}"
        )
    probs = {}
    for x in observable.outcomes:
        p = _expectation(state, observable.effect(x)).real
        probs[x] = min(max(p, 0.0), 1.0)
    accounted = _expectation(state, observable.total()).real
    nd = min(max(1.0 - accounted, 0.0), 1.0)
    return Pmf(probs, nd)


def sample_pmf(pmf: Pmf, shots: int, seed: int) -> list:
    """Draw outcomes by inverse CDF over the declared order, no-detection last."""
    if shots < 0 or seed < 0:
        raise ValidationError("shots and seed must be nonnegative")
    labels = list(pmf.outcomes) + [NO_DETECTION]
    weights = np.array([pmf[x] for x in pmf.outcomes] + [pmf.no_detection])
    edges = np.cumsum(weights)
    edges[-1] = max(edges[-1], 1.0)  # guard the last edge against roundoff
    rng = np.random.default_rng(seed)
    draws = rng.random(shots)
    idx = np.searchsorted(edges, draws, side="right")
    return [labels[i] for i in idx]


def sample_outcomes(observable: Povm, state: State, shots: int, seed: int) -> list:
    """Measure repeatedly: sample the observable's pmf in the given state."""
    return sample_pmf(outcome_pmf(observable, state), shots, seed)


def commute(a: Povm, b: Povm) -> bool:
    """Whether every effect of ``a`` commutes with every effect of ``b``."""
    return first_clash((a, b), COMMUTE_TOL) is None


def first_clash(factors: Sequence[Povm], tol: float) -> tuple | None:
    """The commutativity gate of an ordered product of observables.

    Returns ``(i, j, x, y, norm)`` for the first factor pair ``i < j`` whose
    effects fail to commute within ``tol``, with the pair's worst outcome
    pair ``(x, y)`` and its commutator norm, or None when all commute.
    Factors on different dimensions raise DimensionMismatch.  Shared with
    ``causality``; not in ``__all__``.

    Each factor pair takes all its commutators in one batched product.  If
    their entries bound every norm by ``tol / 2`` (``op.norms_within_half``),
    the pair passes with no SVD; the SVD would have passed it too.
    Otherwise their norms come in one batched call, ``op.commutator_norm``
    on every outcome pair at once, and the worst pair is the first maximum
    in row-major ``(x, y)`` order, so a reported norm is always the SVD's.
    The batch holds ``na * nb`` matrices, never more than the ordered
    product it gates.
    """
    for i, a in enumerate(factors):
        for j in range(i + 1, len(factors)):
            b = factors[j]
            if a.dim != b.dim:
                raise DimensionMismatch(f"observable dims {a.dim} and {b.dim} differ")
            ea, eb = a._stack[:, None], b._stack[None, :]
            commutators = ea @ eb - eb @ ea
            if op.norms_within_half(commutators, tol):
                continue
            norms = op.operator_norms(commutators).ravel()
            k = int(np.argmax(norms))
            if norms[k] > tol:
                x, y = divmod(k, len(b.outcomes))
                return i, j, a.outcomes[x], b.outcomes[y], float(norms[k])
    return None


def ordered_product(factors: Sequence[Povm]) -> tuple[list, np.ndarray]:
    """Outcome tuples, one slot per factor, and their ungated effect products.

    The last slot varies fastest; each product multiplies the effects left
    to right, starting from the first factor's.  The products come as one
    ``(n, d, d)`` stack in outcome order, folded factor by factor with one
    batched matmul each.  Shared with ``causality``; not in ``__all__``.
    """
    outcomes = [()]
    for o in factors:
        outcomes = [prev + (x,) for prev in outcomes for x in o.outcomes]
    d = factors[0].dim
    acc = factors[0]._stack
    for o in factors[1:]:
        acc = (acc[:, None] @ o._stack[None, :]).reshape(-1, d, d)
    return outcomes, acc


def product_observable(a: Povm, b: Povm) -> Povm:
    """Simultaneous observable with effects E_a(x) E_b(y) and paired outcomes.

    Exists only when the factors commute pairwise; otherwise NonCommuting is
    raised carrying the worst offending outcome pair.
    """
    clash = first_clash((a, b), COMMUTE_TOL)
    if clash is not None:
        _, _, x, y, norm = clash
        raise NonCommuting(x, y, norm)
    return Povm(*ordered_product((a, b)))


def tensor_observable(a: Povm, b: Povm) -> Povm:
    """Joint observable on the tensor product space, outcomes paired."""
    outcomes = [(x, y) for x in a.outcomes for y in b.outcomes]
    return Povm(outcomes, [op.tensor_op(a.effect(x), b.effect(y)) for x, y in outcomes])


def conjugate_observable(observable: Povm, by) -> Povm:
    """Transform every effect E to A* E A for a unitary or projection A.

    This is how dynamics act on observables (A unitary) and how an
    observable is squeezed onto a subspace (A a projection).  The result is
    revalidated; conjugation by a contraction always passes.
    """
    a = op.as_operator(by)
    if a.shape[0] != observable.dim:
        raise DimensionMismatch(
            f"conjugator dim {a.shape[0]} does not match observable dim {observable.dim}"
        )
    ad = a.conj().T
    return Povm(observable.outcomes, ad @ observable._stack @ a)


def formal_product(a: Povm, b: Povm) -> OperatorValuedMeasure:
    """Operator products E_a(x) E_b(y) with no commutativity gate.

    The result coincides with ``product_observable`` exactly when the
    factors commute; otherwise some values are non-Hermitian and the family
    is only formal.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"observable dims {a.dim} and {b.dim} differ")
    return OperatorValuedMeasure(*ordered_product((a, b)))


def conditional_formal_values(
    measure: OperatorValuedMeasure,
    state: State,
    condition: Iterable[Label],
    normalizer=None,
) -> dict:
    """Conditional values of a formal pair measure given first-slot outcomes.

    For a measure over pairs (c, y), the value assigned to y is

        sum over c in condition of <u, M(c, y) u>   divided by the denominator,

    where the denominator defaults to the total of the numerators and can be
    overridden with an explicit ``normalizer`` operator; one of magnitude at
    most ``ZERO_TOL`` raises ZeroDenominator.  Because the measure is only
    formal the results are complex and may lie outside [0, 1]; that is the
    point of computing them.
    """
    condition = list(condition)
    if not condition:
        raise ValidationError("condition must name at least one first-slot outcome")
    firsts = []
    seconds = []
    for o in measure.outcomes:
        if not (isinstance(o, tuple) and len(o) == 2):
            raise ValidationError("conditional values need a measure over outcome pairs")
        if o[0] not in firsts:
            firsts.append(o[0])
        if o[1] not in seconds:
            seconds.append(o[1])
    unknown = [c for c in condition if c not in firsts]
    if unknown:
        raise ValidationError(f"condition labels {unknown!r} are not first-slot outcomes")

    numerators = {}
    for y in seconds:
        acc = 0.0 + 0.0j
        for c in condition:
            acc += _expectation(state, measure.value((c, y)))
        numerators[y] = acc
    if normalizer is not None:
        denom = _expectation(state, op.as_operator(normalizer))
    else:
        denom = sum(numerators.values())
    if abs(denom) <= ZERO_TOL:
        raise ZeroDenominator(f"conditioning mass {abs(denom):.3e} is numerically zero")
    return {y: numerators[y] / denom for y in seconds}

"""Scenario drivers: canned measurement setups with checkable identities.

Each ``run_*`` function assembles states, observables and causal maps from
the lower layers, computes the scenario's distributions and conditional
values, and packages them with explicit residuals for every identity the
setup is supposed to satisfy.  Results serialize deterministically through
:mod:`povmlab.serialize`.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import _tridiag
from . import operators as op
from .causality import CausalMap, compose, pull_back
from .doubleslit import (
    DetectorBinning,
    Grid2D,
    PhysicalParams,
    Propagator,
    SlitGeometry,
    SpongeConfig,
    WavePacket2D,
    _integers,
    build_potential,
    detector_pmf,
    fringe_visibility,
    init_packet,
    momentum_expectation,
    which_way_mass,
)
from .errors import EmptyWindow, InvalidAmplitudes, NonCommuting, ValidationError
from .measurement import (
    NO_DETECTION,
    Pmf,
    Povm,
    PureState,
    conditional_formal_values,
    conjugate_observable,
    existence_observable,
    formal_product,
    outcome_pmf,
    product_observable,
    sample_pmf,
    tensor_observable,
)
from .serialize import emit, label_str

__all__ = [
    "IdentityCheck",
    "ScenarioResult",
    "EraserSpec",
    "DoubleSlitConfig",
    "run_eraser",
    "run_wheeler",
    "run_hardy",
    "run_three_boxes",
    "run_doubleslit",
    "run_scenario",
    "SCENARIO_NAMES",
    "emit",
]

# Fringe visibility margin between the open and separated double-slit
# branches, fixed from the reference run of the default configuration.
VISIBILITY_MARGIN = 0.2


@dataclass(frozen=True)
class IdentityCheck:
    """A named residual with the tolerance it was held to.

    ``passed`` usually means residual <= tol; checks that assert a gap
    (residual must exceed tol) say so in their name.
    """

    name: str
    residual: float
    tol: float
    passed: bool

    @classmethod
    def within(cls, name: str, residual: float, tol: float) -> "IdentityCheck":
        return cls(name, float(residual), float(tol), bool(abs(residual) <= tol))

    @classmethod
    def exceeds(cls, name: str, residual: float, tol: float) -> "IdentityCheck":
        return cls(name, float(residual), float(tol), bool(residual > tol))


@dataclass
class ScenarioResult:
    """Everything a scenario produced, ready for deterministic emission."""

    scenario: str
    parameters: dict
    pmfs: list  # (label, Pmf) pairs
    weak_values: list = field(default_factory=list)  # (label, [complex]) pairs
    identities: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)  # label -> Counter

    def pmf_named(self, label: str | None = None) -> Pmf:
        if label is None:
            return self.pmfs[0][1]
        for name, pmf in self.pmfs:
            if name == label:
                return pmf
        raise ValidationError(f"no pmf labeled {label!r}")

    def histogram_named(self, label: str | None = None) -> dict:
        if not self.histograms:
            raise ValidationError("this scenario produced no histograms")
        if label is None:
            label = next(iter(self.histograms))
        if label not in self.histograms:
            raise ValidationError(f"no histogram labeled {label!r}")
        return self.histograms[label]

    def identity(self, name: str) -> IdentityCheck:
        for check in self.identities:
            if check.name == name:
                return check
        raise ValidationError(f"no identity named {name!r}")

    def to_payload(self) -> dict:
        meta = dict(self.metadata)
        if self.histograms:
            meta["histograms"] = {
                label: {label_str(x): int(c) for x, c in counts.items()}
                for label, counts in self.histograms.items()
            }
        return {
            "scenario": self.scenario,
            "parameters": self.parameters,
            "pmfs": [
                {
                    "label": label,
                    "outcomes": [
                        {"label": label_str(x), "p": pmf[x]} for x in pmf.outcomes
                    ],
                    "no_detection": pmf.no_detection,
                }
                for label, pmf in self.pmfs
            ],
            "weak_values": [
                {
                    "label": label,
                    "values": [{"re": v.real, "im": v.imag} for v in values],
                }
                for label, values in self.weak_values
            ],
            "identities": [
                {"name": c.name, "residual": c.residual, "tol": c.tol, "pass": c.passed}
                for c in self.identities
            ],
            "metadata": meta,
        }


def _qubit_frames():
    f1 = op.basis_vector(2, 0)
    f2 = op.basis_vector(2, 1)
    g1 = (f1 + f2) / math.sqrt(2)
    g2 = (f1 - f2) / math.sqrt(2)
    return f1, f2, g1, g2


# ----------------------------------------------------------------- wheeler


def run_wheeler() -> ScenarioResult:
    """Delayed-choice interferometer on one qubit.

    A quarter-turn phase acts between preparation and detection.  Reading
    the path basis after one pass gives the even split; inserting the
    recombining stage (two passes, rotated basis) steers everything into a
    single port.  Removing that stage late is the same measurement as never
    having inserted it, so its pmf is listed separately but identical.
    """
    f1, f2, g1, g2 = _qubit_frames()
    u = PureState(g1)
    quarter = np.diag([1.0, 1j])
    leg = CausalMap(0, 1, quarter)
    path = Povm.from_vectors((1, 2), [f1, f2])
    ports = Povm.from_vectors((1, 2), [g1, g2])

    open_pmf = outcome_pmf(pull_back(leg, path), u)
    both_legs = compose(leg, CausalMap(1, 2, quarter))
    closed_pmf = outcome_pmf(pull_back(both_legs, ports), u)
    late_removal_pmf = outcome_pmf(pull_back(leg, path), u)

    residual = max(
        abs(open_pmf[x] - late_removal_pmf[x]) for x in open_pmf.outcomes
    )
    identities = [
        IdentityCheck.within("late-removal-equals-open-paths", residual, 1e-12),
        IdentityCheck.within(
            "closed-paths-single-port", abs(closed_pmf[2] - 1.0), 1e-12
        ),
    ]
    return ScenarioResult(
        scenario="wheeler",
        parameters={"phase": "quarter turn on the second path"},
        pmfs=[
            ("open-paths", open_pmf),
            ("closed-paths", closed_pmf),
            ("late-removal", late_removal_pmf),
        ],
        identities=identities,
        metadata={"state": "equal superposition of the two paths"},
    )


# ------------------------------------------------------------------- hardy


def run_hardy() -> ScenarioResult:
    """Two-particle interferometer with one jointly annihilating path pair.

    The interaction projects out the doubly-direct component.  Measuring
    both particles in the rotated basis, or one rotated and one in the path
    basis, gives the two listed pmfs; a quarter of the mass is lost to the
    projection in each case.  Conditioning the path-basis pair measure on
    the rotated outcome (2, 2) yields conditional path values 0, 1, 1, -1:
    a consistent bookkeeping with one negative entry, flagging that the
    conditioned pair measure is only formal.
    """
    f1, f2, g1, g2 = _qubit_frames()
    u_hat = PureState(op.tensor_vec(g1, g1))
    killer = op.identity(4) - op.projector(op.tensor_vec(f1, f1))

    path = Povm.from_vectors((1, 2), [f1, f2])
    ports = Povm.from_vectors((1, 2), [g1, g2])

    gg = conjugate_observable(tensor_observable(ports, ports), killer)
    gf = conjugate_observable(tensor_observable(ports, path), killer)
    pmf_gg = outcome_pmf(gg, u_hat)
    pmf_gf = outcome_pmf(gf, u_hat)

    pair_measure = formal_product(gg, tensor_observable(path, path))
    cond = conditional_formal_values(pair_measure, u_hat, condition=[(2, 2)])
    order = [(1, 1), (1, 2), (2, 1), (2, 2)]
    values = [cond[y] for y in order]

    identities = [
        IdentityCheck.within(
            "rotated-joint-loss-is-quarter", abs(pmf_gg.no_detection - 0.25), 1e-12
        ),
        IdentityCheck.within(
            "mixed-joint-loss-is-quarter", abs(pmf_gf.no_detection - 0.25), 1e-12
        ),
        IdentityCheck.within(
            "conditional-path-values-sum-to-one", abs(sum(values) - 1.0), 1e-12
        ),
        IdentityCheck.within(
            "conditional-path-values-real", max(abs(v.imag) for v in values), 1e-10
        ),
    ]
    return ScenarioResult(
        scenario="hardy",
        parameters={"annihilating_pair": "both particles on the direct path"},
        pmfs=[("rotated-rotated", pmf_gg), ("rotated-path", pmf_gf)],
        weak_values=[("path-pair-given-rotated-(2,2)", values)],
        identities=identities,
        metadata={"path_value_order": [label_str(y) for y in order]},
    )


# ------------------------------------------------------------- three boxes


def run_three_boxes() -> ScenarioResult:
    """One particle over three boxes with a passing filter.

    The filter projector and the box projectors do not commute, so there is
    no joint observable; the product is rejected and only a formal pair
    measure exists.  Conditioning it on passing the filter gives box values
    1, 1, -1, which sum to the certain total 1 while assigning the particle
    to the first and second box simultaneously.
    """
    f = [op.basis_vector(3, i) for i in range(3)]
    u = PureState((f[0] + f[1] + f[2]) / math.sqrt(3))
    g1 = (f[0] + f[1] - f[2]) / math.sqrt(3)

    filter_obs = Povm(
        (1, 2), [op.projector(g1), op.identity(3) - op.projector(g1)]
    )
    boxes = Povm.from_vectors((1, 2, 3), [f[0], f[1], f[2]])

    pmf_filter = outcome_pmf(filter_obs, u)
    pmf_boxes = outcome_pmf(boxes, u)

    try:
        product_observable(filter_obs, boxes)
        product_rejected = False
        witness = 0.0
    except NonCommuting as err:
        product_rejected = True
        witness = err.norm

    pair = formal_product(filter_obs, boxes)
    cond = conditional_formal_values(pair, u, condition=[1])
    values = [cond[y] for y in (1, 2, 3)]

    identities = [
        IdentityCheck.exceeds(
            "filter-box-product-rejected-gap", witness if product_rejected else 0.0, 1e-10
        ),
        IdentityCheck.exceeds(
            "conditioned-pair-measure-non-hermitian-gap",
            pair.hermiticity_residual(),
            1e-10,
        ),
        IdentityCheck.within(
            "box-values-sum-to-one", abs(sum(values) - 1.0), 1e-12
        ),
    ]
    return ScenarioResult(
        scenario="three-boxes",
        parameters={"filter": "projector onto (1, 1, -1)/sqrt(3)"},
        pmfs=[("filter", pmf_filter), ("boxes", pmf_boxes)],
        weak_values=[("box-values-given-filter-pass", values)],
        identities=identities,
        metadata={"box_value_order": ["1", "2", "3"]},
    )


# ------------------------------------------------------------------ eraser


@dataclass(frozen=True)
class EraserSpec:
    """Amplitudes of the two marked paths plus the inner observable.

    The inner space is a qubit carrying orthonormal path states u1, u2;
    ``observable`` defaults to the projector onto (u1 + u2)/sqrt(2) and its
    complement, the most interference-sensitive two-outcome choice.
    """

    alpha1: complex = 1 / math.sqrt(2)
    alpha2: complex = 1 / math.sqrt(2)
    observable: Povm | None = None

    def __post_init__(self):
        closure = abs(self.alpha1) ** 2 + abs(self.alpha2) ** 2
        if abs(closure - 1.0) > 1e-12:
            raise InvalidAmplitudes(
                f"|alpha1|^2 + |alpha2|^2 = {closure:.12g}, expected 1"
            )


def run_eraser(spec: EraserSpec | None = None) -> ScenarioResult:
    """Which-path marker qubit measured in the erasing basis.

    The system is alpha1 |m1, u1> + alpha2 |m2, u2>: an inner qubit whose
    path is recorded on a marker qubit.  Ignoring the marker gives the
    interference-free distribution; reading the marker in its diagonal
    basis splits that same distribution into two conditional slices whose
    interference terms cancel pairwise.  Effect-level and pmf-level forms
    of that splitting identity are both reported.
    """
    spec = spec if spec is not None else EraserSpec()
    f1, f2, g1, _ = _qubit_frames()
    u1, u2 = f1, f2
    inner = spec.observable
    if inner is None:
        inner = Povm((1, 2), [op.projector(g1), op.identity(2) - op.projector(g1)])

    psi = PureState(
        spec.alpha1 * op.tensor_vec(f1, u1) + spec.alpha2 * op.tensor_vec(f2, u2)
    )

    marker = Povm.from_vectors((1, -1), [g1, (f1 - f2) / math.sqrt(2)])
    ignore = existence_observable(2)

    erased_joint = outcome_pmf(tensor_observable(ignore, inner), psi)
    erased = Pmf(
        {y: erased_joint[(1, y)] for y in inner.outcomes}, erased_joint.no_detection
    )

    def slice_pmf(mark):
        effects = [op.tensor_op(marker.effect(mark), inner.effect(y)) for y in inner.outcomes]
        return outcome_pmf(Povm(inner.outcomes, effects), psi)

    marked_plus = slice_pmf(1)
    marked_minus = slice_pmf(-1)

    marker_closure = op.operator_norm(
        marker.effect(1) + marker.effect(-1) - op.identity(2)
    )
    effect_residual = max(
        op.operator_norm(
            op.tensor_op(op.identity(2), inner.effect(y))
            - op.tensor_op(marker.effect(1), inner.effect(y))
            - op.tensor_op(marker.effect(-1), inner.effect(y))
        )
        for y in inner.outcomes
    )
    pmf_residual = max(
        abs(erased[y] - marked_plus[y] - marked_minus[y]) for y in inner.outcomes
    )

    identities = [
        IdentityCheck.within("marker-basis-complete", marker_closure, 1e-12),
        IdentityCheck.within("erased-equals-marked-sum-effects", effect_residual, 1e-12),
        IdentityCheck.within("erased-equals-marked-sum-pmf", pmf_residual, 1e-12),
    ]
    return ScenarioResult(
        scenario="eraser",
        parameters={
            "alpha1": {"re": spec.alpha1.real, "im": spec.alpha1.imag},
            "alpha2": {"re": spec.alpha2.real, "im": spec.alpha2.imag},
        },
        pmfs=[
            ("erased", erased),
            ("marked-plus", marked_plus),
            ("marked-minus", marked_minus),
        ],
        identities=identities,
        metadata={
            "inner_observable": "projector onto (u1+u2)/sqrt(2) and complement"
            if spec.observable is None
            else "caller-supplied",
        },
    )


# -------------------------------------------------------------- double slit


# The stop rule's fixed constants: the screen-side mass is checked every
# CHECK_INTERVAL steps, a fall from at least PEAK_FLOOR is the peak, and
# reaching MASS_TARGET stops outright.  The histogram check skips outcomes
# expecting fewer than MIN_EXPECTED_COUNTS counts.
CHECK_INTERVAL = 25
PEAK_FLOOR = 0.02
MASS_TARGET = 0.9
MIN_EXPECTED_COUNTS = 25.0


@dataclass(frozen=True)
class DoubleSlitConfig:
    """Full parameterization of a double-slit run.

    The fields named in ``EXPOSED`` are the command-line flags of
    ``povmlab doubleslit`` and the ``parameters`` block of the result; the
    others are declared defaults, and the output metadata records the
    ``GEOMETRY`` ones and most of the rest.  Construction refuses bad
    settings, keeps numbers as Python ints and floats, and builds the
    run's ``grid``, ``params``, ``geometry`` and ``sponge`` once, as
    attributes that are not fields.  Fixed, not fields: natural
    units (hbar = mass = 1), the class constants ``septum_strength``,
    ``sponge_width`` and ``sponge_strength``, and the stop rule's
    ``CHECK_INTERVAL``, ``PEAK_FLOOR`` and ``MASS_TARGET``.  The packet
    starts off-axis (``source_y``) so the two openings are unevenly lit: in
    the window on the weakly lit side the strong beam's envelope tail and the
    weak beam arrive with comparable amplitude, giving branch-1 fringes
    near-unit contrast.  In branch 2 the absorbing separator removes
    everything that approaches the axis, so the same window sees one beam
    and stays smooth.
    """

    EXPOSED: ClassVar[tuple[str, ...]] = (
        "branch", "nx", "ny", "dt", "max_steps", "k0", "sigma", "delta", "b", "shots", "seed",
    )
    GEOMETRY: ClassVar[tuple[str, ...]] = (
        "slit_x", "hole_center", "hole_width", "wall_thickness", "wedge_apex_x",
        "septum_half_width", "septum_strength",
    )
    BRANCHES: ClassVar[tuple[str, ...]] = ("1", "2", "both")
    septum_strength: ClassVar[float] = 3.0
    sponge_width: ClassVar[int] = 28
    sponge_strength: ClassVar[float] = 6.0

    branch: str = "both"
    nx: int = 512
    ny: int = 384
    dt: float = 0.004
    max_steps: int = 3400
    k0: float = 5.0
    sigma: float = 5.0
    delta: float = 0.6
    b: float = 28.0
    shots: int = 100_000
    seed: int = 7

    lx: float = 76.8
    ly: float = 57.6
    source_x: float = -24.0
    source_y: float = 1.3
    hole_center: float = 5.5
    hole_width: float = 3.0
    wall_thickness: float = 0.3
    wedge_apex_x: float | None = None
    septum_half_width: float = 3.6
    slit_x: float = 0.0
    window_lo: int = -10
    window_hi: int = -4
    smooth: int = 3
    ordering_check: bool = True

    def __post_init__(self):
        if self.branch not in self.BRANCHES:
            raise ValidationError(f"branch must be '1', '2' or 'both', got {self.branch!r}")
        counts = ("nx", "ny", "max_steps", "shots", "seed", "window_lo", "window_hi", "smooth")
        _integers(**{name: getattr(self, name) for name in counts})
        # numpy's numbers pass, and are kept as the Python ints and floats that
        # the result's parameters and metadata can serialize
        for name in counts:
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        reals = ("dt", "k0", "sigma", "delta", "b", "lx", "ly", "source_x", "source_y", "slit_x",
                 "hole_center", "hole_width", "wall_thickness", "septum_half_width", "wedge_apex_x")
        for name in reals:
            value = getattr(self, name)
            if value is None and name == "wedge_apex_x":
                continue
            if not isinstance(value, numbers.Real):
                raise ValidationError(f"{name} must be a real number, not {value!r}")
            object.__setattr__(self, name, float(value))
        if self.shots < 0 or self.seed < 0 or self.max_steps < 1:
            raise ValidationError("shots and seed must be >= 0 and max_steps >= 1")
        if self.smooth < 0:
            raise ValidationError(f"smooth must be >= 0, not {self.smooth}")
        if not self.window:
            raise EmptyWindow(
                f"window {self.window_lo}..{self.window_hi} holds no screen strip"
            )
        object.__setattr__(self, "grid", Grid2D(self.nx, self.ny, self.lx, self.ly))
        object.__setattr__(self, "params", PhysicalParams(self.k0, self.sigma, self.delta, self.b))
        walls = {name: getattr(self, name) for name in self.GEOMETRY}
        object.__setattr__(self, "geometry", SlitGeometry(**walls))
        object.__setattr__(self, "sponge", SpongeConfig(self.sponge_width, self.sponge_strength))

    @property
    def window(self) -> list[int]:
        """The screen strips of the fringe window: ``window_lo..window_hi`` but 0."""
        return [n for n in range(self.window_lo, self.window_hi + 1) if n != 0]


def _on_fields(pool, work, fields):
    """``work(field, pool)`` on a lone field, ``work(field, None)`` on each of a pair.

    A lone field runs from this thread and steps its two line blocks on
    ``pool``, so no pool worker waits on its own pool.  A pair goes through
    ``_tridiag._on_both``: field 1 on ``pool``'s thread and field 0 on this
    one, each stepping its blocks inline.  On the production grid a
    branch-1 and a branch-2 field stepped one per thread took 2.44-2.48 ms
    per pair-step, against 2.51-2.53 ms when each field's line blocks ran
    on the pool in turn (medians of 5 rounds of 100 steps in each of 3
    processes, 2-vCPU Xeon VM; one per thread was faster in each process).
    Either way a field's arithmetic is the same as stepping it alone.
    """
    if len(fields) == 1:
        return [work(fields[0], pool)]
    first, second = fields
    return _tridiag._on_both(pool, lambda k: work((first, second)[k], None))


def _step_fields(pool, props, packets, steps):
    """Advance each packet ``steps`` steps under its propagator, in order, by ``_on_fields``."""
    return _on_fields(
        pool, lambda pair, on: pair[0].run(pair[1], steps, pool=on), list(zip(props, packets))
    )


def _propagate_lockstep(config, pool, potentials, packet):
    """Step fields in lockstep chunks; stop at the first field's screen-mass peak.

    Every field starts from ``packet`` once and its ``Stepping`` advances
    chunk by chunk under ``_on_fields``; each chunk's packet is read on the
    thread that stepped it.  Mass beyond the screen of the first field
    rises while the transmitted packet arrives and falls once its front
    reaches the edge absorber, so its peak is the moment the pattern is
    fully formed.  The peak is seen one chunk late; every field keeps its
    previous chunk and rolls back with the first.  Reaching
    ``MASS_TARGET`` outright also stops; ``max_steps`` always caps the
    run.  Returns (packets, steps, stop reason).
    """
    props = [Propagator(potential, config.dt, sponge=config.sponge) for potential in potentials]
    fields = [prop.start(packet) for prop in props]
    packets = [packet] * len(props)
    done = 0
    reason = "step-cap"
    mass = packet.mass_beyond(config.b)

    def step(field, on):
        field.advance(chunk, on)
        return field.read()

    while done < config.max_steps:
        chunk = min(CHECK_INTERVAL, config.max_steps - done)
        stepped = _on_fields(pool, step, fields)
        stepped_mass = stepped[0].mass_beyond(config.b)
        if stepped_mass >= MASS_TARGET:
            packets, done = stepped, done + chunk
            reason = "mass-target"
            break
        if mass >= PEAK_FLOOR and stepped_mass < mass:
            reason = "screen-mass-peak"
            break
        mass = stepped_mass
        packets, done = stepped, done + chunk
    return packets, done, reason


def _ordering_spot_check(pool) -> dict:
    """Order sensitivity of the two branch dynamics on a coarse grid.

    Applies 'propagate under branch i, keep the screen-side part, undo the
    propagation' in both orders to one packet and reports the distance of
    the results.  A nonzero value witnesses that the branch evolutions
    cannot share one observable tree.  The two orders are two fields that
    ``_step_fields`` steps side by side, under branches (2, 1) and then
    under (1, 2).
    """
    grid = Grid2D(128, 96, 38.4, 28.8)
    params = PhysicalParams(k0=3.0, sigma=1.4, delta=0.5, b=8.0)
    geometry = SlitGeometry(
        hole_center=2.0, hole_width=1.6, septum_half_width=1.0, septum_strength=3.0
    )
    packet = init_packet(grid, params, center=(-4.0, 0.6))
    steps = 480
    props = {
        branch: Propagator(build_potential(grid, params, branch, geometry), 0.01)
        for branch in (1, 2)
    }

    beyond = (grid.x[None, :] >= params.b) * np.ones((grid.ny, 1))

    # each stage is forward, clip, backward, with conjugation standing in
    # for the inverse evolution.  That is exact for branch 1 only, whose
    # generator is real; branch 2's separator is a complex-stretched layer,
    # so its backward leg is not the inverse (ROADMAP open item 1)
    packets = [packet, packet]
    for branches in ((2, 1), (1, 2)):
        stage = [props[branch] for branch in branches]
        forward = _step_fields(pool, stage, packets, steps)
        clipped = [WavePacket2D(grid, np.conj(p.amplitudes * beyond)) for p in forward]
        backward = _step_fields(pool, stage, clipped, steps)
        packets = [WavePacket2D(grid, np.conj(p.amplitudes)) for p in backward]
    first, second = (p.amplitudes for p in packets)
    residual = float(np.sqrt(np.sum(np.abs(first - second) ** 2) * grid.cell_area))
    return {
        "residual_norm": residual,
        "steps": steps,
        "grid": [grid.nx, grid.ny],
        "note": "norm of the order difference of screen-side clipping under the two branch dynamics",
    }


def _three_sigma_deviation(pmf: Pmf, counts: Counter, shots: int) -> float:
    """Largest per-outcome deviation in units of the binomial sigma.

    Outcomes expecting fewer than ``MIN_EXPECTED_COUNTS`` counts are skipped:
    the normal band is meaningless there and a hundred near-empty strips
    would otherwise trip the bound almost surely.
    """
    worst = 0.0
    labels = list(pmf.outcomes) + [NO_DETECTION]
    for x in labels:
        p = pmf.no_detection if x is NO_DETECTION else pmf[x]
        if min(p, 1 - p) * shots < MIN_EXPECTED_COUNTS:
            continue
        freq = counts.get(x, 0) / shots
        sig = math.sqrt(p * (1 - p) / shots)
        worst = max(worst, abs(freq - p) / sig)
    return worst


def run_doubleslit(config: DoubleSlitConfig | None = None) -> ScenarioResult:
    """Propagate through the slit barrier and read the screen strips.

    Branch 1 leaves both openings connected to the whole far side; branch 2
    adds the separator along y = 0, which pins every screen-side detection
    to the opening on its own side.  With ``branch='both'`` the run also
    produces the single-opening reference fields and checks that branch 2
    is their incoherent sum on the strips, that the fringe window is
    visibly striped only in branch 1, and that seeded shot histograms track
    the pmfs.

    The run uses two threads: this one and a pool of one worker.
    ``_on_fields`` steps the branch fields chunk by chunk, then, through
    ``_step_fields``, the two single-opening fields and the two orders of
    the ordering check.  Each field's arithmetic is the same as stepping
    it alone and inline, so the result does not depend on scheduling.
    """
    config = config if config is not None else DoubleSlitConfig()
    grid, params = config.grid, config.params
    walls = {name: getattr(config, name) for name in config.GEOMETRY}
    binning = DetectorBinning(params.b, params.delta)
    packet0 = init_packet(grid, params, center=(config.source_x, config.source_y))

    px, py = momentum_expectation(packet0)
    momentum_residual = max(abs(px - params.k0) / params.k0, abs(py) / params.k0)

    wanted = ("1", "2") if config.branch == "both" else (config.branch,)
    potentials = [build_potential(grid, params, int(name), config.geometry) for name in wanted]
    ordering = None
    with ThreadPoolExecutor(max_workers=1) as pool:
        # the branch fields in lockstep, the first deciding the stop
        packets, steps, reason = _propagate_lockstep(config, pool, potentials, packet0)
        if config.branch == "both":
            # the upper-only and lower-only reference fields; the branch
            # propagators are released by now, so no more than two are alive
            # at once.  They are built on this thread, like the branch ones,
            # so their arrays reuse what those freed.  Built on the pool
            # threads they went to per-thread heaps, and a round's peak RSS
            # varied by 27 MB.
            sealed = [
                Propagator(build_potential(grid, params, 2, replace(config.geometry, **seal)),
                           config.dt, sponge=config.sponge)
                for seal in ({"seal_lower": True}, {"seal_upper": True})
            ]
            single_packets = _step_fields(pool, sealed, [packet0] * len(sealed), steps)
            if config.ordering_check:
                ordering = _ordering_spot_check(pool)

    window = config.window
    pmfs = []
    identities = [
        IdentityCheck.within("initial-momentum-relative", momentum_residual, 0.02),
    ]
    histograms = {}
    metadata = {
        "grid": {"nx": grid.nx, "ny": grid.ny, "lx": grid.lx, "ly": grid.ly,
                 "spacing": grid.dx},
        "source": [config.source_x, config.source_y],
        "geometry": {**walls, "separator_end": "right-edge"},
        "dt": config.dt,
        "sponge": {"width": config.sponge_width, "strength": config.sponge_strength},
        "window": window,
        "smooth": config.smooth,
        "mass_target": MASS_TARGET,
        "natural_units": {"hbar": 1.0, "mass": 1.0},
    }

    for name, packet in zip(wanted, packets):
        label = f"branch-{name}"
        pmf = detector_pmf(packet, binning)
        pmfs.append((label, pmf))
        closure = abs(1.0 - (packet.norm() ** 2 + packet.absorbed))
        identities.append(IdentityCheck.within(f"norm-closure-{label}", closure, 1e-4))
        if config.shots > 0:
            counts = Counter(sample_pmf(pmf, config.shots, config.seed + int(name)))
            histograms[label] = counts
            identities.append(
                IdentityCheck.within(
                    f"histogram-three-sigma-{label}",
                    _three_sigma_deviation(pmf, counts, config.shots),
                    3.0,
                )
            )
        metadata[f"steps-{label}"] = steps
        # the other fields follow the first for exactly its step count
        metadata[f"stop-{label}"] = reason if name == wanted[0] else "step-cap"
        metadata[f"absorbed-{label}"] = packet.absorbed

    if config.branch == "both":
        (_, pmf1), (_, pmf2) = pmfs
        vis1 = fringe_visibility(pmf1, window, config.smooth)
        vis2 = fringe_visibility(pmf2, window, config.smooth)
        identities.append(
            IdentityCheck.exceeds(
                "visibility-gap-exceeds-margin", vis1 - vis2, VISIBILITY_MARGIN
            )
        )
        metadata["visibility"] = {"branch-1": vis1, "branch-2": vis2}

        upper, lower = (detector_pmf(packet, binning) for packet in single_packets)
        pmfs += [("upper-only", upper), ("lower-only", lower)]

        # one grid and one binning: the three pmfs have the same strips, in order
        tv = 0.0
        for n, p in pmf2.probabilities.items():
            if n != 0:
                tv += abs(p - (upper if n >= 1 else lower)[n])
        identities.append(IdentityCheck.within("superposition-of-paths", tv, 1e-3))

        way = which_way_mass(pmf2)
        metadata["which-way-branch-2"] = {
            "upper": way.upper, "lower": way.lower, "remainder": way.remainder,
        }
        if ordering is not None:
            metadata["ordering-check"] = ordering

    return ScenarioResult(
        scenario="doubleslit",
        parameters={name: getattr(config, name) for name in config.EXPOSED},
        pmfs=pmfs,
        identities=identities,
        metadata=metadata,
        histograms=histograms,
    )


# scenario name -> its run function and the one keyword it takes, if any
_SCENARIOS = {
    "eraser": (run_eraser, "spec"),
    "wheeler": (run_wheeler, None),
    "hardy": (run_hardy, None),
    "three-boxes": (run_three_boxes, None),
    "doubleslit": (run_doubleslit, "config"),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def run_scenario(name: str, **kwargs) -> ScenarioResult:
    """Dispatch by frozen scenario name; a keyword the scenario does not take is an error."""
    if name not in _SCENARIOS:
        raise ValidationError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    run, keyword = _SCENARIOS[name]
    unknown = sorted(set(kwargs) - {keyword})
    if unknown:
        raise ValidationError(
            f"scenario {name!r} takes {keyword or 'no keyword'}, not {', '.join(unknown)}"
        )
    return run(**kwargs)

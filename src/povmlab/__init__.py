"""Finite-dimensional measurement algebra with a double-slit grid backend.

The package has three layers:

* :mod:`povmlab.operators`, :mod:`povmlab.measurement`,
  :mod:`povmlab.causality`: vectors, effects, observables, pmfs, causal
  maps over finite trees and their sequential realization.
* :mod:`povmlab.doubleslit`: an alternating-direction Crank-Nicolson
  propagator on a 2D grid with hard walls, an absorbing edge layer and
  strip detectors.
* :mod:`povmlab.scenarios`, :mod:`povmlab.serialize`, :mod:`povmlab.cli`:
  canned experiments with identity checks and deterministic JSON/CSV
  emission.
"""

from . import causality, doubleslit, measurement, operators, scenarios, serialize
from .causality import CausalMap, CausalTree, compose, identity_map, pull_back, realize_sequential
from .doubleslit import (
    DetectorBinning,
    Grid2D,
    PhysicalParams,
    Propagator,
    SlitGeometry,
    SpongeConfig,
    WavePacket2D,
    build_potential,
    detector_pmf,
    evolve,
    fringe_visibility,
    init_packet,
    momentum_expectation,
    which_way_mass,
)
from .errors import (
    NUMERIC_ERRORS,
    DimensionMismatch,
    EmptyWindow,
    GeometryOutOfDomain,
    InvalidAmplitudes,
    IoFailure,
    NodeMismatch,
    NonCommuting,
    NotPositive,
    Overcomplete,
    PovmLabError,
    StabilityViolation,
    UnresolvableScale,
    ValidationError,
    ZeroDenominator,
)
from .measurement import (
    NO_DETECTION,
    DensityOperator,
    OperatorValuedMeasure,
    Pmf,
    Povm,
    PureState,
    conditional_formal_values,
    conjugate_observable,
    existence_observable,
    formal_product,
    outcome_pmf,
    product_observable,
    sample_outcomes,
    sample_pmf,
    tensor_observable,
)
from .scenarios import (
    SCENARIO_NAMES,
    DoubleSlitConfig,
    EraserSpec,
    IdentityCheck,
    ScenarioResult,
    run_doubleslit,
    run_eraser,
    run_hardy,
    run_scenario,
    run_three_boxes,
    run_wheeler,
)
from .serialize import emit

__version__ = "0.1.0"

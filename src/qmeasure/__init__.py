"""Quantum measurement statistics on finite-dimensional and Gaussian systems.

Operator algebra and Born statistics, measuring processes and the CP
instruments they induce, rms error-disturbance relations with their
universally valid strengthenings, joint-distribution precision theory,
and two exactly solvable Gaussian position-measurement models.
"""

from .operators import (
    DEFAULT_CONSTANTS,
    DEFAULT_TOL,
    DensityOperator,
    HermitianObservable,
    PhysicalConstants,
    SpectralDecomposition,
    Tolerances,
    ValidationError,
    as_operator,
    commutator,
    dagger,
    expectation,
    hermitian_part,
    operator_distance,
    partial_trace,
    robertson_bound,
    spectral_decompose,
    std_dev,
    tensor,
)
from .instruments import (
    CPInstrument,
    MeasuringProcess,
    OutcomeDistribution,
    POVM,
    RepeatabilityReport,
    ZeroProbabilityError,
    born_distribution,
    check_repeatability,
    dilate,
    instrument_choi_distance,
    instrument_from_process,
    kraus_from_choi,
    luders_instrument,
    outcome_probabilities,
    post_state,
    povm_of,
)
from .edr import (
    EDRReport,
    cyclic_subspace,
    disturbance_moment_operator,
    edr_ledger,
    locally_uniform_rms_disturbance,
    locally_uniform_rms_error,
    mean_disturbance_operator,
    mean_noise_operator,
    noise_moment_operator,
    rms_disturbance,
    rms_error,
)
from .jpd import (
    JointDistribution,
    PrecisionReport,
    commute_in_state,
    gauss_rms,
    is_nondisturbing,
    is_precise,
    joint_distribution,
    probability_reproducible,
    theorem2_check,
    weak_joint_distribution,
)
from .gaussian import (
    GaussianState,
    LinearModel,
    ModelEDR,
    OZAWA_1988,
    VON_NEUMANN,
    build_model,
    conditional_position_spread,
    min_uncertainty_packet,
    model_edr,
    output_distribution,
    position_density,
    propagate,
)
from .sampling import (
    haar_unitary,
    random_cp_instrument,
    random_density_operator,
    random_hermitian,
    random_measuring_process,
    random_pure_state,
    rng_from,
)
from .sweep import SweepCensus, TrialRecord, run_sweep

__version__ = "0.1.0"

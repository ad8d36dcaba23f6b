"""Workbench for finite operational probabilistic theories.

Represents theories as explicit probability tables, instantiates them from
quantum mechanics via the Born rule, and checks correlation-level claims:
CHSH and Bell nonlocality, no-signalling, two monogamy bounds, local-model
LPs, broadcasting of commuting families, preparation/channel duality, and
the fine-grained uncertainty bound.
"""
from .broadcast import (
    BroadcastCheck,
    Theorem1Result,
    broadcast_commuting,
    commutator_norm,
    interference_flag,
    pairwise_commuting,
    theorem1_construct,
)
from .correlations import (
    ChshValue,
    CorrelationBox,
    MonogamyReport,
    NoSignallingReport,
    check_no_signalling,
    check_ns_monogamy,
    check_strong_monogamy,
    chsh,
    chsh_prepare_measure,
    correlator,
    is_bell_nonlocal,
)
from .duality import (
    SpatialScenario,
    TemporalScenario,
    spatial_scenario,
    spatial_to_temporal,
    temporal_scenario,
    temporal_to_spatial,
    verify_ocj,
)
from .errors import (
    ArityError,
    DimensionMismatchError,
    GptwError,
    PreconditionError,
    SizeLimitError,
    SolverError,
    UnknownIdError,
    ValidationError,
)
from .game import (
    FineGrainedReport,
    GameReport,
    GameStrategy,
    UncertaintyTriple,
    a3_strategy,
    build_quadruple,
    check_finegrained,
    game_value,
    max_sum_state,
    simulate_game,
    triples_from_theory,
    win_probability,
    FINEGRAINED_BOUND,
    TSIRELSON_WIN,
)
from .ontic import (
    ChshRefutation,
    ConditionViolation,
    LocalModelCertificate,
    NoncontextualVerdict,
    OnticModel,
    certificate_to_ontic_model,
    chsh_gate,
    find_local_model,
    noncontextual_chsh_bound,
    predict,
    validate_model,
)
from .quantum import (
    Channel,
    ChoiState,
    DensityMatrix,
    Povm,
    bipartite_box,
    born_table,
    choi_of_channel,
    conditional_channel,
    ginibre_state,
    kraus_from_choi,
    leifer_ensemble,
    marginal_channel,
    multipartite_box,
    partial_trace,
    random_povm,
    random_projective_qubit,
    trace_distance,
    transpose_povm,
    transpose_state,
)
from .theory import (
    EnsemblePreparation,
    JointDistribution,
    Measurement,
    OperationalTheory,
    SubtheoryDimension,
    absorb_transformation,
    affine_dimension,
    are_orthogonal,
    ensemble_joint,
    operationally_equivalent,
    outcome_distribution,
)

__version__ = "0.1.0"

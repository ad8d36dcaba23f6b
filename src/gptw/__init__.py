"""Workbench for finite operational probabilistic theories.

Represents theories as explicit probability tables, instantiates them from
quantum mechanics via the Born rule, and checks correlation-level claims:
CHSH and Bell nonlocality, no-signalling, two monogamy bounds, local-model
LPs, broadcasting of commuting families, preparation/channel duality, and
the fine-grained uncertainty bound.

`import gptw` loads no submodule: each public name below is imported from its
module on first use (PEP 562), so a CLI process pays only for what it runs.
"""
from importlib import import_module

# module -> the public names it exports at package level
_EXPORTS = {
    "broadcast": """BroadcastCheck Theorem1Result broadcast_commuting commutator_norm
        interference_flag pairwise_commuting theorem1_construct""",
    "correlations": """ChshValue CorrelationBox MonogamyReport NoSignallingReport
        check_no_signalling check_ns_monogamy check_strong_monogamy chsh chsh_margin
        exact_chsh_witness is_bell_nonlocal""",
    "duality": """SpatialScenario TemporalScenario distribution_error spatial_scenario
        spatial_to_temporal temporal_scenario temporal_to_spatial""",
    "errors": """ArityError DimensionMismatchError GptwError PreconditionError SizeLimitError
        SolverError UnknownIdError ValidationError""",
    "game": """FineGrainedReport GameReport GameStrategy UncertaintyTriple a3_strategy
        build_quadruple check_finegrained game_value max_sum_state simulate_game
        triples_from_theory win_probability FINEGRAINED_BOUND TSIRELSON_WIN""",
    "ontic": """ConditionViolation LocalModelCertificate NoncontextualVerdict
        OnticModel certificate_to_ontic_model chsh_gate find_local_model
        noncontextual_chsh_bound predict validate_model""",
    "quantum": """Channel ChoiState DensityMatrix Povm bipartite_box born_table choi_of_channel
        conditional_channel ginibre_state leifer_ensemble multipartite_box partial_trace random_povm
        random_projective_qubit trace_distance transpose_povm""",
    "theory": """EnsemblePreparation JointDistribution Measurement OperationalTheory
        SubtheoryDimension absorb_transformation affine_dimension are_orthogonal
        ensemble_joint operationally_equivalent outcome_distribution""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # after a bare `import gptw`, `gptw.quantum` and the others still resolve
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})

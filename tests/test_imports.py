"""The package's import graph: lazy public names, and the modules each subcommand loads."""
from __future__ import annotations

import importlib
import json

import pytest

import gptw

from conftest import SAMPLES, run_src

# every public name, by module: `gptw.__all__` must list exactly these, each resolving to its
# module's object, so a name dropped from or added to the lazy table fails here
PUBLIC_NAMES = {
    "broadcast": "BroadcastCheck Theorem1Result broadcast_commuting commutator_norm interference_flag "
    "pairwise_commuting theorem1_construct",
    "correlations": "ChshValue CorrelationBox MonogamyReport NoSignallingReport check_no_signalling "
    "check_ns_monogamy check_strong_monogamy chsh chsh_margin exact_chsh_witness is_bell_nonlocal",
    "duality": "SpatialScenario TemporalScenario distribution_error spatial_scenario spatial_to_temporal "
    "temporal_scenario temporal_to_spatial",
    "errors": "ArityError DimensionMismatchError GptwError PreconditionError SizeLimitError SolverError "
    "UnknownIdError ValidationError",
    "game": "FineGrainedReport GameReport GameStrategy UncertaintyTriple a3_strategy build_quadruple "
    "check_finegrained game_value max_sum_state simulate_game triples_from_theory win_probability "
    "FINEGRAINED_BOUND TSIRELSON_WIN",
    "ontic": "ConditionViolation LocalModelCertificate NoncontextualVerdict OnticModel "
    "certificate_to_ontic_model chsh_gate find_local_model noncontextual_chsh_bound predict validate_model",
    "quantum": "Channel ChoiState DensityMatrix Povm bipartite_box born_table choi_of_channel "
    "conditional_channel ginibre_state leifer_ensemble multipartite_box partial_trace random_povm "
    "random_projective_qubit trace_distance transpose_povm",
    "theory": "EnsemblePreparation JointDistribution Measurement OperationalTheory SubtheoryDimension "
    "absorb_transformation affine_dimension are_orthogonal ensemble_joint operationally_equivalent "
    "outcome_distribution",
}
# exported once, deleted with no caller: neither the package nor the module has them
DELETED_NAMES = {
    "correlations": "chsh_prepare_measure correlator",
    "duality": "verify_ocj",
    "ontic": "ChshRefutation",
    "quantum": "kraus_from_choi marginal_channel transpose_state",
}


def test_all_lists_exactly_the_public_names():
    assert sorted(gptw.__all__) == sorted(n for names in PUBLIC_NAMES.values() for n in names.split())


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_public_names_resolve_to_their_module_objects(module):
    owner = importlib.import_module(f"gptw.{module}")
    for name in PUBLIC_NAMES[module].split():
        namespace: dict = {}
        exec(f"from gptw import {name}", namespace)
        assert namespace[name] is getattr(owner, name), name
        assert getattr(gptw, name) is getattr(owner, name), name
        assert name in dir(gptw), name
    assert getattr(gptw, module) is owner
    assert module in dir(gptw)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gptw.no_such_name
    with pytest.raises(ImportError):
        exec("from gptw import no_such_name", {})
    assert gptw.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(DELETED_NAMES))
def test_deleted_names_raise_attribute_error(module):
    owner = importlib.import_module(f"gptw.{module}")
    for name in DELETED_NAMES[module].split():
        with pytest.raises(AttributeError, match=name):
            getattr(gptw, name)
        assert not hasattr(owner, name), name
        assert name not in dir(gptw), name


def test_import_gptw_loads_no_submodule():
    code = (
        "import json, sys, gptw; loaded = sorted(m for m in sys.modules if m.startswith('gptw.')); "
        "print(json.dumps(loaded)); "
        "print(gptw.quantum.DensityMatrix is gptw.DensityMatrix, 'gptw.quantum' in sys.modules)"
    )
    loaded, resolved = run_src(code)
    assert json.loads(loaded) == []
    assert resolved == "True True"


BOX, SHARED = str(SAMPLES / "pr_box.json"), str(SAMPLES / "shared_bit_box.json")
NOT_CORRELATIONS = {"quantum", "ontic", "duality", "game", "broadcast"}
SUBCOMMANDS = [
    pytest.param(["chsh", "--box", BOX], NOT_CORRELATIONS, id="chsh"),
    pytest.param(["nosignal", "--box", BOX], NOT_CORRELATIONS, id="nosignal"),
    pytest.param(["monogamy", "ns", "--box", SHARED], NOT_CORRELATIONS, id="monogamy-ns"),
    pytest.param(["monogamy", "strong", "--box", SHARED], NOT_CORRELATIONS, id="monogamy-strong"),
    pytest.param(["dim", "--theory", str(SAMPLES / "qubit_theory.json")], NOT_CORRELATIONS, id="dim"),
    pytest.param(["local-model", "--box", str(SAMPLES / "singlet_opt_box.json")],
                 {"quantum", "duality", "game", "broadcast"}, id="local-model"),
    pytest.param(["validate-model", "--model", str(SAMPLES / "classical_bit_model.json")],
                 {"quantum", "duality", "game", "broadcast"}, id="validate-model"),
    pytest.param(["theorem1", "--box", str(SAMPLES / "singlet_opt_box.json")],
                 {"quantum", "duality", "game", "ontic"}, id="theorem1"),
    pytest.param(["verify-cj", "--state", str(SAMPLES / "random_two_qubit.json"),
                  "--povm", str(SAMPLES / "z_basis.json"), "--povm", str(SAMPLES / "x_basis.json")],
                 {"game", "broadcast", "ontic"}, id="verify-cj"),
]


@pytest.mark.parametrize("argv, absent", SUBCOMMANDS)
def test_subcommand_loads_only_its_modules(argv, absent):
    code = (
        "import contextlib, io, json, sys; from gptw.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
        "print(code); print(json.dumps(sorted(m[5:] for m in sys.modules if m.startswith('gptw.'))))"
    )
    code_line, loaded = run_src(code, *argv)
    assert code_line in ("0", "1")  # the check ran to a verdict, not to an input error
    assert not absent & set(json.loads(loaded))

"""Duality between joint preparations and prepare-evolve-measure scenarios.

A spatial scenario measures each party of a joint preparation once; a
temporal scenario draws a branch from an ensemble, feeds it through a channel
(jointly producing all downstream systems), and measures each output.  The
constructions here map one to the other inside quantum mechanics so that the
full joint distribution -- branch index included -- is preserved:

  spatial -> temporal:  ensemble  = branch decomposition of rho_A^T along the
                        transposed first-party POVM (weights Tr(M_i rho_A),
                        states sqrt(rho_A^T) M_i^T sqrt(rho_A^T) / p_i),
                        channel = the conditional channel recovered from the
                        joint state (see quantum.conditional_channel)
  temporal -> spatial:  joint preparation = (identity x channel) applied to
                        the canonical purification of rho_bar^T (rho_bar the
                        ensemble average), first-party measurement = the
                        transpose of the ensemble's recovered POVM

All transposes are computational-basis.  Both directions verify the
distribution equality they promise and raise ValidationError if the
reconstruction misses it, so a returned scenario is already checked.
Supports 2 and 3 total systems (one upstream system plus 1 or 2 outputs).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DimensionMismatchError, ValidationError
from .quantum import (
    Channel,
    DensityMatrix,
    LeiferEnsemble,
    Povm,
    conditional_channel,
    kron_all,
    leifer_ensemble,
    partial_trace,
    purification,
    transpose_povm,
    transpose_state,
    _psd_inv_sqrt,
)
from .theory import JointDistribution

CONSTRUCTION_TOL = 1e-8
EPS_BRANCH = 1e-12


@dataclass(frozen=True)
class SpatialScenario:
    """A joint preparation measured once per party."""

    state: DensityMatrix
    povms: tuple[Povm, ...]
    distribution: JointDistribution


@dataclass(frozen=True)
class TemporalScenario:
    """An ensemble preparation, one joint channel, one measurement per output."""

    ensemble: LeiferEnsemble
    channel: Channel
    povms: tuple[Povm, ...]
    distribution: JointDistribution


def spatial_scenario(state: DensityMatrix, povms: tuple[Povm, ...] | list[Povm]) -> SpatialScenario:
    """Assemble a spatial scenario, computing its joint outcome distribution."""
    povms = tuple(povms)
    dims = state.dims
    if len(dims) != len(povms):
        raise DimensionMismatchError("one POVM per party required")
    if len(dims) not in (2, 3):
        raise DimensionMismatchError("2 or 3 parties supported")
    for k, (d, povm) in enumerate(zip(dims, povms)):
        if povm.dim != d:
            raise DimensionMismatchError(f"party {k}: POVM dim {povm.dim} != system dim {d}")
    arities = tuple(len(p) for p in povms)
    joint = np.zeros(arities)
    for idx in np.ndindex(*arities):
        effect = kron_all([povms[k].elements[x] for k, x in enumerate(idx)])
        joint[idx] = np.trace(effect @ state.matrix).real
    axes = [(f"M{k + 1}", a) for k, a in enumerate(arities)]
    return SpatialScenario(state, povms, JointDistribution(axes, joint))


def temporal_scenario(
    ensemble: LeiferEnsemble, channel: Channel, povms: tuple[Povm, ...] | list[Povm]
) -> TemporalScenario:
    """Assemble a temporal scenario, computing p(i, x_2..x_n) through the channel."""
    povms = tuple(povms)
    out_dims = channel.output_dims
    if len(out_dims) != len(povms):
        raise DimensionMismatchError("one POVM per channel output required")
    for k, (d, povm) in enumerate(zip(out_dims, povms)):
        if povm.dim != d:
            raise DimensionMismatchError(f"output {k}: POVM dim {povm.dim} != factor dim {d}")
    arities = tuple(len(p) for p in povms)
    joint = np.zeros((len(ensemble.weights),) + arities)
    for i, (w, rho_i, dead) in enumerate(
        zip(ensemble.weights, ensemble.states, ensemble.zero_weight)
    ):
        if dead or w <= EPS_BRANCH:
            continue
        if rho_i.dim != channel.dim_in:
            raise DimensionMismatchError("branch state does not match channel input")
        evolved = channel.apply(rho_i.matrix)
        for idx in np.ndindex(*arities):
            effect = kron_all([povms[k].elements[x] for k, x in enumerate(idx)])
            joint[(i,) + idx] = w * np.trace(effect @ evolved).real
    axes = [("branch", len(ensemble.weights))] + [(f"M{k + 2}", a) for k, a in enumerate(arities)]
    return TemporalScenario(ensemble, channel, povms, JointDistribution(axes, joint))


def ensemble_from_states(weights, states) -> LeiferEnsemble:
    """Package an explicit (weights, states) ensemble, flagging dead branches."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != len(states):
        raise ValidationError("one weight per branch state required")
    if not w.min() >= -1e-9:
        raise ValidationError("ensemble weights must be finite and non-negative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError(f"ensemble weights sum to {w.sum()}, not 1")
    zero = tuple(bool(x <= EPS_BRANCH) for x in w)
    w = np.clip(w, 0.0, None)
    w.flags.writeable = False
    return LeiferEnsemble(w, tuple(states), zero)


def _check_match(got: JointDistribution, want: JointDistribution, tol: float, what: str) -> None:
    if got.probabilities.shape != want.probabilities.shape:
        raise ArityError(f"{what}: distribution shapes differ")
    worst = float(np.max(np.abs(got.probabilities - want.probabilities)))
    if worst > tol:
        raise ValidationError(f"{what}: reconstruction off by {worst:.3e} (tol {tol:.1e})")


def spatial_to_temporal(spatial: SpatialScenario, tol: float = CONSTRUCTION_TOL) -> TemporalScenario:
    """Replace the first party by an ensemble-plus-channel with identical statistics.

    The first party's POVM becomes the branch variable; the remaining parties
    become outputs of the conditional channel recovered from the joint state.
    """
    dims = spatial.state.dims
    if len(dims) not in (2, 3):
        raise DimensionMismatchError("2 or 3 parties supported")
    d_a = dims[0]
    d_rest = spatial.state.dim // d_a
    rho_a = DensityMatrix(partial_trace(spatial.state.matrix, (d_a, d_rest), keep=(0,)))
    ensemble = leifer_ensemble(transpose_state(rho_a), transpose_povm(spatial.povms[0]))
    channel = conditional_channel(spatial.state)
    temporal = temporal_scenario(ensemble, channel, spatial.povms[1:])
    _check_match(temporal.distribution, spatial.distribution, tol, "spatial_to_temporal")
    return temporal


def temporal_to_spatial(temporal: TemporalScenario, tol: float = CONSTRUCTION_TOL) -> SpatialScenario:
    """Realize an ensemble-plus-channel scenario as one joint preparation.

    The branch variable becomes a measurement on a fresh first system: the
    joint preparation is (identity x channel) applied to the canonical
    purification of the transposed ensemble average, and the first-party
    measurement is the transpose of the POVM that induces the ensemble.
    """
    weights = temporal.ensemble.weights
    states = temporal.ensemble.states
    live = [
        (w, s)
        for w, s, dead in zip(weights, states, temporal.ensemble.zero_weight)
        if not dead and w > EPS_BRANCH
    ]
    if not live:
        raise ValidationError("ensemble has no live branches")
    d = live[0][1].dim
    rho_bar = DensityMatrix(sum(w * s.matrix for w, s in live))

    inv_root, support = _psd_inv_sqrt(rho_bar.matrix)
    effects = []
    for w, s, dead in zip(weights, states, temporal.ensemble.zero_weight):
        if dead or w <= EPS_BRANCH:
            effects.append(np.zeros((d, d), dtype=complex))
        else:
            e = w * (inv_root @ s.matrix @ inv_root)
            effects.append(0.5 * (e + e.conj().T))
    leftover = np.eye(d) - support
    if np.max(np.abs(leftover)) > 1e-12:
        effects[-1] = effects[-1] + leftover  # complete the POVM off the support
    induced = Povm(effects)
    first_meas = transpose_povm(induced)

    psi = purification(transpose_state(rho_bar))  # on dims (d, d)
    dressed = np.outer(psi, psi.conj())
    chan = temporal.channel
    if chan.dim_in != d:
        raise DimensionMismatchError(
            f"channel input dim {chan.dim_in} != ensemble system dim {d}"
        )
    lifted = [np.kron(np.eye(d), k) for k in chan.kraus]
    joint_mat = sum(k @ dressed @ k.conj().T for k in lifted)
    joint_state = DensityMatrix(joint_mat, dims=(d,) + chan.output_dims)

    spatial = spatial_scenario(joint_state, (first_meas,) + temporal.povms)
    _check_match(spatial.distribution, temporal.distribution, tol, "temporal_to_spatial")
    return spatial


def verify_ocj(spatial: SpatialScenario, temporal: TemporalScenario, tol: float = CONSTRUCTION_TOL) -> bool:
    """Entrywise equality of the two scenarios' joint distributions."""
    a, b = spatial.distribution.probabilities, temporal.distribution.probabilities
    if a.shape != b.shape:
        raise ArityError(f"distribution shapes differ: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b))) <= tol

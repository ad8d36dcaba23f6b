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
    Povm,
    conditional_channel,
    leifer_ensemble,
    partial_trace,
    purification,
    transpose_povm,
    transpose_state,
    _born,
    _effects,
    _psd_inv_sqrt,
)
from .theory import EPS_BRANCH, EnsemblePreparation, JointDistribution

CONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True)
class SpatialScenario:
    """A joint preparation measured once per party."""

    state: DensityMatrix
    povms: tuple[Povm, ...]
    distribution: JointDistribution


@dataclass(frozen=True)
class TemporalScenario:
    """An ensemble preparation, one joint channel, one measurement per output."""

    ensemble: EnsemblePreparation  # branches are DensityMatrix states
    channel: Channel
    povms: tuple[Povm, ...]
    distribution: JointDistribution


def _joint(matrix: np.ndarray, dims: tuple[int, ...], povms: tuple[Povm, ...]) -> np.ndarray:
    """p(x_1..x_n) = Tr((M_1 x ... x M_n) rho) for one POVM per factor."""
    return _born(matrix, dims, [_effects([p]) for p in povms]).reshape([len(p) for p in povms])


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
    axes = [(f"M{k + 1}", len(p)) for k, p in enumerate(povms)]
    return SpatialScenario(state, povms, JointDistribution(axes, _joint(state.matrix, dims, povms)))


def temporal_scenario(
    ensemble: EnsemblePreparation, channel: Channel, povms: tuple[Povm, ...] | list[Povm]
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
    joint = np.zeros((len(ensemble),) + arities)
    for i, (w, rho_i) in enumerate(zip(ensemble.weights, ensemble.branches)):
        if w <= EPS_BRANCH:
            continue
        if rho_i.dim != channel.dim_in:
            raise DimensionMismatchError("branch state does not match channel input")
        joint[i] = w * _joint(channel.apply(rho_i.matrix), out_dims, povms)
    axes = [("branch", len(ensemble))] + [(f"M{k + 2}", a) for k, a in enumerate(arities)]
    return TemporalScenario(ensemble, channel, povms, JointDistribution(axes, joint))


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
    states = temporal.ensemble.branches
    live = [(w, s) for w, s in zip(weights, states) if w > EPS_BRANCH]
    if not live:
        raise ValidationError("ensemble has no live branches")
    d = live[0][1].dim
    rho_bar = DensityMatrix(sum(w * s.matrix for w, s in live))

    inv_root, support = _psd_inv_sqrt(rho_bar.matrix)
    effects = []
    for w, s in zip(weights, states):
        if w <= EPS_BRANCH:
            effects.append(np.zeros((d, d), dtype=complex))
        else:
            e = w * (inv_root @ s.matrix @ inv_root)
            effects.append(0.5 * (e + e.conj().T))
    leftover = np.eye(d) - support
    if np.max(np.abs(leftover)) > 1e-12:
        effects[-1] = effects[-1] + leftover  # complete the POVM off the support
    induced = Povm(effects)
    first_meas = transpose_povm(induced)

    psi = purification(transpose_state(rho_bar)).reshape(d, d)  # on dims (d, d)
    chan = temporal.channel
    if chan.dim_in != d:
        raise DimensionMismatchError(
            f"channel input dim {chan.dim_in} != ensemble system dim {d}"
        )
    # (I x K_k) psi is psi K_k^T read row-major as a (first, output) vector
    vecs = (psi @ chan.kraus_stack.transpose(0, 2, 1)).reshape(len(chan.kraus), -1)
    joint_mat = vecs.T @ vecs.conj()
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

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
                        the canonical purifying vector of rho_bar^T (rho_bar the
                        ensemble average), first-party measurement = the
                        transpose of the ensemble's recovered POVM

All transposes are computational-basis.  Each stage's arithmetic runs on the
stacked branches, effects and Kraus operators: the branch weights as one
matrix-vector product, the branch states as one stacked product, the channel
as two matrix products on the stack of weighted branches (`Channel.apply`).
Python loops only to wrap each checked branch matrix as a state.  Each
marginal (rho_A one way, rho_bar the other) is decomposed once, by
`quantum._transposed_state`: one `eigh` of its transpose gives the checked
state rho^T, sqrt(rho^T), and rho^{-1/2} with rho's support, which are what
both directions need.  A matrix passes the
validating checks iff its transpose does, up to the rounding of its
eigenvalues, so each such pair is checked once: the marginal, and the
first-party POVM, whose transpose goes to the ensemble as a bare effect stack.
Both directions verify the distribution equality they promise and raise
ValidationError if the reconstruction misses it, so a returned scenario is
already checked.
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
    _born,
    _check_povm_dims,
    _conditional_channel,
    _leifer_ensemble,
    _transposed_state,
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
    """p(x_1..x_n) = Tr((M_1 x ... x M_n) rho) for one POVM per factor, per leading batch index."""
    probs = _born(matrix, dims, [p.elements[None] for p in povms])
    return probs.reshape(matrix.shape[:-2] + tuple(len(p) for p in povms))


def _live_branches(ensemble: EnsemblePreparation, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask of live branches, and w_i rho_i stacked over them; each rho_i must be dim x dim."""
    live = ensemble.weights > EPS_BRANCH
    states = [s for s, on in zip(ensemble.branches, live) if on]
    if not states:
        raise ValidationError("ensemble has no live branches")
    if any(s.dim != dim for s in states):
        raise DimensionMismatchError("branch state does not match channel input")
    return live, ensemble.weights[live][:, None, None] * np.array([s.matrix for s in states])


def spatial_scenario(state: DensityMatrix, povms: tuple[Povm, ...] | list[Povm]) -> SpatialScenario:
    """Assemble a spatial scenario, computing its joint outcome distribution."""
    povms = tuple(povms)
    dims = state.dims
    _check_povm_dims(dims, [(p,) for p in povms], "one POVM per party required")
    if len(dims) not in (2, 3):
        raise DimensionMismatchError("2 or 3 parties supported")
    axes = [(f"M{k + 1}", len(p)) for k, p in enumerate(povms)]
    return SpatialScenario(state, povms, JointDistribution(axes, _joint(state.matrix, dims, povms)))


def temporal_scenario(
    ensemble: EnsemblePreparation, channel: Channel, povms: tuple[Povm, ...] | list[Povm]
) -> TemporalScenario:
    """Assemble a temporal scenario, computing p(i, x_2..x_n) through the channel."""
    povms = tuple(povms)
    out_dims = channel.output_dims
    _check_povm_dims(out_dims, [(p,) for p in povms], "one POVM per channel output required", "output", "factor")
    arities = tuple(len(p) for p in povms)
    live, weighted = _live_branches(ensemble, channel.dim_in)
    joint = np.zeros((len(ensemble),) + arities)
    # the channel and the Born rule are linear: the branch weights go in first
    joint[live] = _joint(channel.apply(weighted), out_dims, povms)
    axes = [("branch", len(ensemble))] + [(f"M{k + 2}", a) for k, a in enumerate(arities)]
    return TemporalScenario(ensemble, channel, povms, JointDistribution(axes, joint))


def distribution_error(a: JointDistribution, b: JointDistribution) -> float:
    """max |a - b| over the entries of two joint distributions of one shape."""
    if a.probabilities.shape != b.probabilities.shape:
        raise ArityError(f"distribution shapes differ: {a.probabilities.shape} vs {b.probabilities.shape}")
    return float(np.abs(a.probabilities - b.probabilities).max())


def _check_match(got: JointDistribution, want: JointDistribution, tol: float, what: str) -> None:
    worst = distribution_error(got, want)
    if not worst <= tol:  # a NaN tol fails
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
    rho_a = np.trace(spatial.state.matrix.reshape(d_a, d_rest, d_a, d_rest), axis1=1, axis2=3)
    rho_a_t, root, inv_root, support = _transposed_state(rho_a)
    ensemble = _leifer_ensemble(rho_a_t, spatial.povms[0].elements.transpose(0, 2, 1), root)
    channel = _conditional_channel(spatial.state, inv_root, support)
    temporal = temporal_scenario(ensemble, channel, spatial.povms[1:])
    _check_match(temporal.distribution, spatial.distribution, tol, "spatial_to_temporal")
    return temporal


def temporal_to_spatial(temporal: TemporalScenario, tol: float = CONSTRUCTION_TOL) -> SpatialScenario:
    """Realize an ensemble-plus-channel scenario as one joint preparation.

    The branch variable becomes a measurement on a fresh first system: the
    joint preparation is (identity x channel) applied to the canonical
    purifying vector of the transposed ensemble average, and the first-party
    measurement is the transpose of the POVM that induces the ensemble.
    """
    chan = temporal.channel
    live, mats = _live_branches(temporal.ensemble, chan.dim_in)
    d = chan.dim_in
    # psi = sqrt(rho_bar^T), read row-major, is the canonical purifying vector of rho_bar^T, on dims (d, d)
    _, psi, inv_root, support = _transposed_state(mats.sum(axis=0))
    e = inv_root @ mats @ inv_root
    effects = np.zeros((len(live), d, d), dtype=complex)
    effects[live] = 0.5 * (e + e.conj().transpose(0, 2, 1))
    leftover = np.eye(d) - support
    if np.abs(leftover).max() > 1e-12:
        effects[-1] += leftover  # complete the POVM off the support
    first_meas = Povm(effects.transpose(0, 2, 1))  # the transpose of the POVM inducing the ensemble

    # (I x K_k) psi is psi K_k^T read row-major as a (first, output) vector
    vecs = (psi @ chan.kraus.transpose(0, 2, 1)).reshape(len(chan.kraus), -1)
    joint_mat = vecs.T @ vecs.conj()
    joint_state = DensityMatrix(joint_mat, dims=(d,) + chan.output_dims)

    spatial = spatial_scenario(joint_state, (first_meas,) + temporal.povms)
    _check_match(spatial.distribution, temporal.distribution, tol, "temporal_to_spatial")
    return spatial

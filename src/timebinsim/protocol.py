"""Sequential composition of cycle maps into N-photon hybrid states.

State ordering convention: the spin is the first tensor factor, photons
follow in emission order, so after N cycles the density operator lives on
spin (x) photon_1 (x) ... (x) photon_N with dimension 2^(N+1).

Post-selected representation: branches in which a cycle yields no photon
in either time bin are pruned every round; only their probability is kept
(``success_probability``). Detected-but-orthogonal weight is carried as a
scalar beside the density operator, normalized so that
``trace(rho) + orthogonal_error_mass = 1``.

Each round is one 16x4 spin superoperator (the cycle map's Kraus blocks
summed, with the round's normalization folded in). Photons are never acted
on after emission, so a state is kept as its sequence of superoperators:
the normalizations come from a forward recursion on the 2x2 spin-reduced
state, and stabilizer expectations are contracted round by round, as in the
matrix-product picture of sequential photon sources (Schoen et al., PRL 95,
110503, 2005). The ideal target is a state of the same kind, the ideal
protocol's own run, so a fidelity is one contraction of two such chains.
Every PhysicalParams run, noisy or not, is built from one cached phase
split of a round's superoperator.
The dense rho is built only when ``HybridState.rho`` is read, one matrix
product per round on the (i j) x (rest, rest) view of rho.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .budget import _DRIFT_C_MODEL
from .cyclemap import (
    SPLIT_PHASES,
    CycleMap,
    CycleOptions,
    arm_phases,
    ideal_cycle_map,
    phase_split_maps,
    rotation_matrix,
)
from .params import ParamError, PhysicalParams, _real, _real_fields, _whole

# largest photon number for which a dense 2^(N+1) state is built
PHOTON_CAP = 10

# spin state after initialization: R(pi/2) applied to spin-down
_PSI0 = rotation_matrix(math.pi / 2.0) @ np.array([1.0, 0.0], dtype=complex)
_RHO0 = np.outer(_PSI0, _PSI0.conj())

# Fourier weights e^{-i k d} / 3 (k = 0, +1, -1) that split superoperators
# built at the phase differences d of SPLIT_PHASES into S0, S+, S-
_SPLIT_WEIGHTS = np.exp(-1j * np.outer([0, 1, -1], SPLIT_PHASES)) / 3.0


class CapacityError(RuntimeError):
    """A dense state for more than PHOTON_CAP photons was requested."""


class TargetKind(Enum):
    GHZ = "ghz"
    CLUSTER = "cluster"

    @property
    def rotation_angle(self):
        return math.pi if self is TargetKind.GHZ else math.pi / 2.0


@dataclass(frozen=True)
class NoiseConfig:
    """Quasi-static Overhauser noise plus optional slow intra-cycle drift.

    ``overhauser_sigma`` is the std of the Gaussian ground-splitting shift
    (rad/ns), related to the inhomogeneous dephasing time by
    sigma = sqrt(2) / t2_star. ``drift_diffusion`` (rad^2/ns^3) feeds a
    per-cycle Wiener phase imbalance of variance drift_diffusion *
    t_cycle^3 that the echo does not cancel. Both add to the static
    ``quasistatic_detuning`` and ``drift_phase`` of the caller's
    CycleOptions.
    """

    overhauser_sigma: float
    drift_diffusion: float = 0.0
    sample_count: int = 1
    rng_seed: int = 0

    _BOUNDS = {"overhauser_sigma": "[0, inf)", "drift_diffusion": "[0, inf)"}

    def __post_init__(self):
        for name, least in (("sample_count", 1), ("rng_seed", 0)):
            _whole(name, getattr(self, name), least)
        _real_fields(self)


def drift_diffusion_from_t2(t2, t_cycle, c_model=_DRIFT_C_MODEL):
    """Diffusion constant giving per-cycle error c_model*(t_cycle/t2)^2."""
    _real(("t2", t2, "(0, inf)"), ("t_cycle", t_cycle, "(0, inf)"),
          ("c_model", c_model, "[0, inf)"))
    return 4.0 * c_model / (t2**2 * t_cycle)


@dataclass(frozen=True, eq=False)
class HybridState:
    """Post-selected state of spin (x) N time-bin qubits, held as its cycle sequence.

    ``superoperators`` has shape (samples, N, 16, 4): the normalized spin
    superoperator of every round for every noise sample. The state is the
    equal-weight average of its samples, with their mean success
    probability and their common orthogonal mass; its trace is
    ``1 - orthogonal_error_mass``. A single-sample state also serves as a
    fidelity target (``ideal_target``). The dense rho is built on first
    read and only up to PHOTON_CAP photons.
    """

    superoperators: np.ndarray
    success_probability: float
    orthogonal_error_mass: float

    @property
    def photon_count(self):
        return self.superoperators.shape[1]

    @property
    def dim(self):
        return 2 ** (self.photon_count + 1)

    @cached_property
    def rho(self):
        """Dense density operator, the sample average, summed one sample at a time."""
        if self.photon_count > PHOTON_CAP:
            raise CapacityError(
                f"{self.photon_count} photons exceeds the cap of {PHOTON_CAP} for a "
                f"dense density operator ({self.dim}-dimensional)"
            )
        total = None
        for sample in self.superoperators:
            rho = _RHO0
            for sup in sample:
                rho = _apply_superoperator(rho, sup)
            total = rho if total is None else total + rho
        count = len(self.superoperators)
        return total / count if count > 1 else total


def _spin_superoperator(cycle):
    """S[(a p),(b c),i,j] = sum_k K[(a p),i] conj(K[(b c),j]), shape (4, 4, 2, 2)."""
    k = np.asarray(cycle.kraus, dtype=complex).reshape(-1, 4, 2)
    return np.einsum("kxi,kyj->xyij", k, k.conj())


def _apply_superoperator(rho, s):
    """Apply a 16x4 spin superoperator to rho; appends the new photon last."""
    d = rho.shape[0]
    r = d // 2
    x = rho.reshape(2, r, 2, r).transpose(0, 2, 1, 3).reshape(4, r * r)
    out = (s @ x).reshape(2, 2, 2, 2, r, r)  # [a, p, b, c, rest, rest]
    # (spin, photon_new, rest | ...) -> (spin, rest, photon_new | ...)
    return out.transpose(0, 4, 1, 2, 5, 3).reshape(2 * d, 2 * d)


def run_protocol_cycles(cycles):
    """Run the protocol with an explicit per-round sequence of cycle maps.

    Only the forward recursion on the 2x2 spin-reduced state runs here; it
    fixes each round's normalization, the success probability and the
    orthogonal mass. Nothing of size 2^(N+1) is built.
    """
    if not cycles:
        raise ParamError("cycles must hold at least one cycle map")
    # one superoperator per distinct map: [cycle] * n repeats a single object
    built = {id(c): _spin_superoperator(c) for c in {id(c): c for c in cycles}.values()}
    sups = np.stack([built[id(c)] for c in cycles]).reshape(1, len(cycles), 16, 4)
    return _normalized_state(sups, np.array([c.orthogonal_prob for c in cycles]))


def _normalized_state(sups, orth_probs):
    """State of raw per-round superoperators (samples, N, 16, 4).

    Of the weight detected in round t, the fraction orth_probs[t] is
    orthogonal, and the orthogonal sector keeps taking part in later rounds
    with the coherent detection probability. So a round's normalization is
    its detection probability det for a unit-trace spin input (the success
    probability is their product), the round's superoperator is scaled by
    (1 - orth_probs[t]) / det, and the final trace is the product of the
    (1 - orth_probs). Only det depends on the state: one forward recursion
    on the 2x2 spin-reduced state, batched over samples.
    """
    samples, n = sups.shape[:2]
    # the new photon traced out: spin transfer [(a b), (i j)] of each round
    reduced = np.einsum("stapbpx->stabx", sups.reshape(samples, n, 2, 2, 2, 2, 4))
    reduced = reduced.reshape(samples, n, 4, 4)
    sigma = _RHO0.reshape(1, 4, 1)
    dets = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n):
            sigma = reduced[:, t] @ sigma
            dets.append(sigma[:, :1] + sigma[:, 3:])
            sigma = sigma / dets[-1]
    det = np.concatenate(dets, axis=1).real.reshape(samples, n)
    if not (det > 0.0).all():
        raise ParamError("protocol lost all probability; check the cycle map")
    return HybridState(
        superoperators=sups * ((1.0 - orth_probs) / det)[..., None, None],
        success_probability=sum(det.prod(axis=1).tolist()) / samples,
        orthogonal_error_mass=-math.expm1(np.log1p(-orth_probs).sum()),
    )


def run_protocol(cycle, n_photons, kind=TargetKind.GHZ, noise=None, options=None):
    """Apply initialization and N identical cycles.

    ``cycle`` may be a ready CycleMap or a PhysicalParams from which a map
    with the kind's rotation angle is built. With a NoiseConfig, samples of
    the quasi-static detuning (and drift) are averaged at the density-
    operator level (one state with a sample axis); reproducible for a
    fixed rng_seed. The options' ``quasistatic_detuning`` and
    ``drift_phase`` are static offsets that the sampled shifts add to.
    Without noise, a PhysicalParams run is the one-sample, zero-shift case
    of the same path. The kind sets the rotation angle: ``options`` may give
    the kind's own or the default, pi, which cannot be told apart from an
    unset angle and so is accepted for a cluster too; any other is refused.
    """
    n = _whole("n_photons", n_photons, 1)
    if isinstance(cycle, CycleMap):
        if noise is not None:
            raise ParamError("noise averaging needs PhysicalParams, not a fixed CycleMap")
        if options is not None:
            raise ParamError("options need PhysicalParams; a fixed CycleMap is already built")
        return run_protocol_cycles([cycle] * n)

    if not isinstance(cycle, PhysicalParams):
        raise ParamError(f"expected CycleMap or PhysicalParams, got {type(cycle)}")
    if options is not None and options.rotation_angle not in (
            CycleOptions.rotation_angle, kind.rotation_angle):
        raise ParamError(f"rotation_angle is set by the target kind; leave it at its "
                         f"default or give the kind's {kind.rotation_angle}")
    base = replace(options or CycleOptions(), rotation_angle=kind.rotation_angle)
    return _noise_state(cycle, n, base, noise or NoiseConfig(0.0))


def _noise_state(params, n, base, noise):
    """All noise samples as one state; sample i draws from child seed i.

    Child seeds are spawned from ``noise.rng_seed``, so results do not
    depend on evaluation order. A sample draws its detuning shift, then one
    drift kick per round; both add to the static offsets in ``base``.
    They enter a round only through the early-late phase difference D of
    the main Kraus block, so its superoperator is S0 + e^{iD} S+ +
    e^{-iD} S-, split from three cycle maps once per (params, options).
    D leaves the spin-reduced map unchanged, so every sample has the same
    success probability and the equal-weight average is the
    success-weighted one.
    """
    parts, options, orth_prob = _split_superoperators(params, base)
    drift_std = math.sqrt(noise.drift_diffusion * params.t_cycle**3)
    shifts = np.zeros((noise.sample_count, 1))
    kicks = np.zeros((noise.sample_count, n))
    for i, seq in enumerate(np.random.SeedSequence(noise.rng_seed).spawn(noise.sample_count)):
        rng = np.random.default_rng(seq)
        if noise.overhauser_sigma:
            shifts[i] = rng.normal(0.0, noise.overhauser_sigma)
        if drift_std:
            kicks[i] = rng.normal(0.0, drift_std, size=n)
    early, late = arm_phases(options, shifts, kicks)
    phase = np.exp(1j * (early - late))[..., None]
    sups = parts[0] + phase * parts[1] + phase.conj() * parts[2]
    return _normalized_state(sups.reshape(noise.sample_count, n, 16, 4), np.full(n, orth_prob))


@lru_cache(maxsize=32)
def _split_superoperators(params, base):
    """S0, S+ and S- of one round as read-only rows of shape (3, 64), the
    resolved options and the orthogonal probability, per (params, options).

    Every run with the same inputs, noisy or not, shares them, so the three
    cycle maps of ``phase_split_maps`` are built once.
    """
    maps, options = phase_split_maps(params, base)
    parts = _SPLIT_WEIGHTS @ np.stack([_spin_superoperator(m) for m in maps]).reshape(3, 64)
    parts.flags.writeable = False
    return parts, options, maps[0].orthogonal_prob


@lru_cache(maxsize=32, typed=True)
def _ideal_chain(n_photons, kind):
    """The ideal run's read-only chain and two scalars, shared by every ``ideal_target``."""
    n = _whole("n_photons", n_photons, 1)
    state = run_protocol_cycles([ideal_cycle_map(kind.rotation_angle)] * n)
    state.superoperators.flags.writeable = False
    return state.superoperators, state.success_probability, state.orthogonal_error_mass


def ideal_target(n_photons, kind):
    """The imperfection-free protocol's output: a single-sample, pure HybridState.

    Each call returns a new state on the cached, read-only chain, so a
    dense ``rho`` read on it lives only as long as the caller keeps it.
    """
    return HybridState(*_ideal_chain(n_photons, kind))


def conditional_fidelity(state, target):
    """Overlap with the target within the detected sector.

    Tr(rho_target rho), averaged over the state's samples; a HybridState
    holds tr rho + orthogonal mass at 1, so this is the overlap over the
    whole detected sector. For a pure target such as
    ``ideal_target(n, kind)`` it is <psi|rho|psi>. Neither rho is built.
    """
    return float(_overlaps(state, target).mean())


def _overlaps(state, target):
    """Tr(rho_target rho_s) for every noise sample s, one environment push per round.

    The environment E[(i j), (k l)] is rho_s's spin block (i j) against the
    conjugate of rho_target's (k l), with every photon emitted so far traced
    pairwise. A round applies S_t to (i j) and conj(T_t) to (k l) and traces
    the new photon pair; the spins are traced pairwise at the end.
    """
    if not isinstance(target, HybridState):
        raise ParamError(
            f"target must be a HybridState such as ideal_target(n, kind), "
            f"got {type(target).__name__}"
        )
    if len(target.superoperators) != 1:
        raise ParamError(
            f"target must be a single-sample state, got {len(target.superoperators)} samples"
        )
    if target.photon_count != state.photon_count:
        raise ParamError(
            f"target has {target.photon_count} photons, the state {state.photon_count}"
        )
    samples, n = state.superoperators.shape[:2]
    # S[(a p), (b c), (i j)] -> [(a b p c), (i j)], and conj(T) -> [(a b), (p c k l)]
    sups = state.superoperators.reshape(samples, n, 2, 2, 2, 2, 4).transpose(0, 1, 2, 4, 3, 5, 6)
    sups = sups.reshape(samples, n, 16, 4)
    tgt = target.superoperators[0].conj().reshape(n, 2, 2, 2, 2, 4).transpose(0, 1, 3, 2, 4, 5)
    tgt = tgt.reshape(n, 4, 16).transpose(0, 2, 1)
    env = np.broadcast_to(np.outer(_RHO0, _RHO0.conj()), (samples, 4, 4))
    for t in range(n):
        env = (sups[:, t] @ env).reshape(samples, 4, 16) @ tgt[t]
    return np.trace(env, axis1=1, axis2=2).real


def canonical_stabilizers(n_photons, kind):
    """Unsigned stabilizer generator labels over I, X, Z, in state order
    (spin, p1..pN).

    The chain underlying both kinds is (p1, ..., pN, spin): photons in
    emission order with the spin at the end.
    """
    n = n_photons
    chain_to_state = list(range(1, n + 1)) + [0]
    gens = []
    if kind is TargetKind.GHZ:
        gens.append("X" * (n + 1))
        for j in range(n):
            labels = ["I"] * (n + 1)
            labels[chain_to_state[j]] = "Z"
            labels[chain_to_state[j + 1]] = "Z"
            gens.append("".join(labels))
    else:
        for j in range(n + 1):
            labels = ["I"] * (n + 1)
            labels[chain_to_state[j]] = "X"
            if j > 0:
                labels[chain_to_state[j - 1]] = "Z"
            if j < n:
                labels[chain_to_state[j + 1]] = "Z"
            gens.append("".join(labels))
    return gens


# I, X, Z on one qubit, and the label letters that pick them
_PAULIS = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], np.diag([1.0, -1.0])], dtype=complex)
_PAULI_INDEX = {"I": 0, "X": 1, "Z": 2}


def _pauli_traces(state, labels):
    """Tr(P rho_s) per noise sample (rows) and Pauli label (columns).

    A forward recursion on the 2x2 spin operator Tr_photons[(P_1..P_t) rho_t]:
    round t traces its new photon against the label's Pauli on that photon,
    and the spin's Pauli closes the chain. All labels run at once.
    """
    codes = np.array([[_PAULI_INDEX[c] for c in label] for label in labels])
    samples, n = state.superoperators.shape[:2]
    sup = state.superoperators.reshape(samples, n, 2, 2, 2, 2, 4)  # [a, p, b, c, (i j)]
    # sum_{p c} P[c, p] S[(a p), (b c), (i j)] for each round and Pauli
    reduced = np.einsum("stapbcx,kcp->stkabx", sup, _PAULIS).reshape(samples, n, 3, 4, 4)
    sigma = np.broadcast_to(_RHO0.reshape(4), (samples, len(labels), 4))
    for t in range(n):
        # [sample, label, (a b), (i j)] applied to [sample, label, (i j)]
        sigma = np.einsum("sgxy,sgy->sgx", reduced[:, t, codes[:, t + 1]], sigma)
    # Tr(P sigma) = sum_{a b} P[b, a] sigma[a, b]
    close = _PAULIS.transpose(0, 2, 1).reshape(3, 4)[codes[:, 0]]
    return (sigma * close).sum(axis=-1).real


@lru_cache(maxsize=32)
def _frame_signs(n_photons, kind):
    """Signs fixing the local frame of the ideal protocol output."""
    labels = canonical_stabilizers(n_photons, kind)
    signs = []
    for label, val in zip(labels, _pauli_traces(ideal_target(n_photons, kind), labels)[0]):
        if abs(abs(val) - 1.0) > 1e-9:
            raise RuntimeError(
                f"stabilizer {label} is not +-1 on the ideal state ({val}); "
                "frame convention broken"
            )
        signs.append(1.0 if val > 0 else -1.0)
    return tuple(signs)


def stabilizer_expectations(state, kind):
    """Expectations of the N+1 frame-corrected stabilizers, without rho.

    Tr(P rho) over the detected sector, whose weight tr rho + orthogonal
    mass a HybridState holds at 1.
    """
    n = state.photon_count
    vals = _pauli_traces(state, canonical_stabilizers(n, kind)).mean(axis=0)
    return [sign * float(v) for sign, v in zip(_frame_signs(n, kind), vals)]


def overhauser_average(params, n_photons, kind, noise, options=None):
    """Monte Carlo average of the conditional fidelity over Overhauser noise.

    The options' ``quasistatic_detuning`` and ``drift_phase`` are static
    offsets that the sampled shifts add to.
    """
    state = run_protocol(params, n_photons, kind=kind, noise=noise, options=options)
    fids = _overlaps(state, ideal_target(n_photons, kind))
    std_err = float(fids.std(ddof=1) / math.sqrt(len(fids))) if len(fids) > 1 else 0.0
    return {"mean_fidelity": float(fids.mean()), "std_error": std_err}

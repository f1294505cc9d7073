"""Sequential composition of cycle maps into N-photon hybrid states.

State ordering convention: the spin is the first tensor factor, photons
follow in emission order, so after N cycles the density operator lives on
spin (x) photon_1 (x) ... (x) photon_N with dimension 2^(N+1).

Post-selected representation: branches in which a cycle yields no photon
in either time bin are pruned every round; only their probability is kept
(``success_probability``). Detected-but-orthogonal weight is carried as a
scalar alongside the density operator, normalized so that
``trace(rho) + orthogonal_error_mass = 1`` after each round.

Each round applies one 16x4 spin superoperator (the cycle map's Kraus
blocks summed, with the round's normalization folded in) to rho as a single
matrix product on the (i j) x (rest, rest) view of rho.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .cyclemap import (
    CycleMap,
    CycleOptions,
    build_cycle_map,
    ideal_cycle_map,
    rotation_matrix,
)
from .params import ParamError, PhysicalParams

# largest photon number for which the dense 2^(N+1) density operator is built
PHOTON_CAP = 10

# spin state after initialization: R(pi/2) applied to spin-down
_PSI0 = rotation_matrix(math.pi / 2.0) @ np.array([1.0, 0.0], dtype=complex)


class CapacityError(RuntimeError):
    """Requested photon number exceeds the density-operator cap PHOTON_CAP."""


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
    t_cycle^3 that the echo does not cancel.
    """

    overhauser_sigma: float
    drift_diffusion: float = 0.0
    sample_count: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ParamError(f"sample_count must be >= 1, got {self.sample_count}")
        for name in ("overhauser_sigma", "drift_diffusion"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParamError(f"{name} must be finite and >= 0, got {value}")


def drift_diffusion_from_t2(t2, t_cycle, c_model=0.5):
    """Diffusion constant giving per-cycle error c_model*(t_cycle/t2)^2."""
    return 4.0 * c_model / (t2**2 * t_cycle)


@dataclass
class HybridState:
    """Post-selected state of spin (x) N time-bin qubits."""

    rho: np.ndarray
    success_probability: float
    orthogonal_error_mass: float
    photon_count: int

    @property
    def dim(self):
        return self.rho.shape[0]


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
    """Run the protocol with an explicit per-round sequence of cycle maps."""
    n = len(cycles)
    if n > PHOTON_CAP:
        raise CapacityError(
            f"{n} photons exceeds the cap of {PHOTON_CAP} "
            f"(density operator would be {2**(n+1)}-dimensional)"
        )
    rho = np.outer(_PSI0, _PSI0.conj())
    orth = 0.0
    success = 1.0
    for cycle in cycles:
        tr_in = float(np.trace(rho).real)
        sup = _spin_superoperator(cycle)
        # detected weight: diagonal of S against the photon-traced spin state
        t = rho.reshape(2, rho.shape[0] // 2, 2, -1)
        det = float(np.einsum("xxij,irjr->", sup, t).real)
        p_o = cycle.orthogonal_prob
        # the orthogonal sector keeps taking part in later rounds; its
        # per-round detection probability is taken equal to the coherent one
        d_rate = det / max(tr_in, 1e-300)
        orth = orth * d_rate + p_o * det
        total = (1.0 - p_o) * det + orth
        if total <= 0.0:
            raise ParamError("protocol lost all probability; check the cycle map")
        success *= total
        rho = _apply_superoperator(rho, sup.reshape(16, 4) * ((1.0 - p_o) / total))
        orth = orth / total
    return HybridState(
        rho=rho,
        success_probability=success,
        orthogonal_error_mass=orth,
        photon_count=n,
    )


def run_protocol(cycle, n_photons, kind=TargetKind.GHZ, noise=None, options=None):
    """Apply initialization and N identical cycles.

    ``cycle`` may be a ready CycleMap or a PhysicalParams from which a map
    with the kind's rotation angle is built. With a NoiseConfig, samples of
    the quasi-static detuning (and drift) are averaged at the density-
    operator level; reproducible for a fixed rng_seed.
    """
    n = int(n_photons)
    if n < 1:
        raise ParamError(f"n_photons must be >= 1, got {n_photons}")
    if isinstance(cycle, CycleMap):
        if noise is not None:
            raise ParamError("noise averaging needs PhysicalParams, not a fixed CycleMap")
        if options is not None:
            raise ParamError("options need PhysicalParams; a fixed CycleMap is already built")
        return run_protocol_cycles([cycle] * n)

    if not isinstance(cycle, PhysicalParams):
        raise ParamError(f"expected CycleMap or PhysicalParams, got {type(cycle)}")
    base = replace(options or CycleOptions(), rotation_angle=kind.rotation_angle)
    if noise is None:
        return run_protocol_cycles([build_cycle_map(cycle, base)] * n)

    states = list(_noise_samples(cycle, n, base, noise))
    rho = sum(s.rho for s in states) / len(states)
    orth = sum(s.orthogonal_error_mass for s in states) / len(states)
    succ = sum(s.success_probability for s in states) / len(states)
    return HybridState(rho, succ, orth, n)


def _noise_samples(params, n, base, noise):
    """Run the protocol once per noise sample; sample i draws from child seed i.

    Child seeds are spawned from ``noise.rng_seed``, so results do not
    depend on evaluation order. Detuning and drift enter the cycle map only
    as phases of its main Kraus block, so every sample has the same success
    probability and the equal-weight average is the success-weighted one.
    """
    for seq in np.random.SeedSequence(noise.rng_seed).spawn(noise.sample_count):
        cycles = _noisy_cycles(params, n, base, noise, np.random.default_rng(seq))
        yield run_protocol_cycles(cycles)


def _noisy_cycles(params, n, base, noise, rng):
    delta_shift = rng.normal(0.0, noise.overhauser_sigma) if noise.overhauser_sigma else 0.0
    drift_std = (
        math.sqrt(noise.drift_diffusion * params.t_cycle**3)
        if noise.drift_diffusion
        else 0.0
    )

    def cycle_map(kick):
        opts = replace(base, quasistatic_detuning=delta_shift, drift_phase=kick)
        return build_cycle_map(params, opts)

    if not drift_std:
        # no per-cycle draw: every round shares one map
        return [cycle_map(0.0)] * n
    return [cycle_map(rng.normal(0.0, drift_std)) for _ in range(n)]


@lru_cache(maxsize=32)
def ideal_target(n_photons, kind):
    """Statevector output of the imperfection-free protocol."""
    n = int(n_photons)
    if n < 1:
        raise ParamError(f"n_photons must be >= 1, got {n_photons}")
    # ideal cycle isometry as [spin_out, photon, spin_in]
    v = ideal_cycle_map(kind.rotation_angle).kraus[0].reshape(2, 2, 2)
    psi = _PSI0
    for _ in range(n):
        r = psi.size // 2
        t = psi.reshape(2, r)
        t = np.einsum("api,ir->arp", v, t)
        psi = t.reshape(-1)
    return psi


def conditional_fidelity(state, target):
    """Overlap with the target within the detected sector."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (state.dim,):
        raise ParamError(
            f"dimension mismatch: state dim {state.dim}, target {target.shape}"
        )
    num = float(np.real(target.conj() @ state.rho @ target))
    den = float(np.trace(state.rho).real) + state.orthogonal_error_mass
    return num / den


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


def _pauli_action(label, dim):
    """P|j> = s_j |j ^ x> for a label over I, X, Z; returns (j ^ x, s_j).

    The first label character is the most significant bit of the index;
    s_j = (-1)^popcount(j & z) with x, z the label's X and Z bit masks.
    """
    x = z = 0
    for c in label:
        x, z = (x << 1) | (c == "X"), (z << 1) | (c == "Z")
    j = np.arange(dim)
    parity = np.bitwise_count(j & z).astype(int) & 1
    return j ^ x, 1 - 2 * parity


@lru_cache(maxsize=32)
def _frame_signs(n_photons, kind):
    """Signs fixing the local frame of the ideal protocol output."""
    psi = ideal_target(n_photons, kind)
    signs = []
    for label in canonical_stabilizers(n_photons, kind):
        flipped, s = _pauli_action(label, psi.size)
        val = float(np.real(np.vdot(psi[flipped], s * psi)))
        if abs(abs(val) - 1.0) > 1e-9:
            raise RuntimeError(
                f"stabilizer {label} is not +-1 on the ideal state ({val}); "
                "frame convention broken"
            )
        signs.append(1.0 if val > 0 else -1.0)
    return tuple(signs)


def stabilizer_expectations(state, kind):
    """Expectations of the N+1 frame-corrected stabilizers.

    Tr(P rho) = sum_j s_j rho[j, j ^ x] needs no dense Pauli operator.
    """
    n = state.photon_count
    signs = _frame_signs(n, kind)
    den = float(np.trace(state.rho).real) + state.orthogonal_error_mass
    rows = np.arange(state.dim)
    out = []
    for sign, label in zip(signs, canonical_stabilizers(n, kind)):
        flipped, s = _pauli_action(label, state.dim)
        out.append(sign * float(np.sum(s * state.rho[rows, flipped]).real) / den)
    return out


def overhauser_average(params, n_photons, kind, noise, options=None):
    """Monte Carlo average of the conditional fidelity over Overhauser noise."""
    base = replace(options or CycleOptions(), rotation_angle=kind.rotation_angle)
    target = ideal_target(n_photons, kind)
    fids = np.asarray([
        conditional_fidelity(st, target)
        for st in _noise_samples(params, n_photons, base, noise)
    ])
    std_err = float(fids.std(ddof=1) / math.sqrt(len(fids))) if len(fids) > 1 else 0.0
    return {"mean_fidelity": float(fids.mean()), "std_error": std_err}

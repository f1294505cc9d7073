"""The completely positive map of one protocol cycle.

One cycle takes the spin qubit to spin x one detected time-bin photon:
excitation (early bin) -> emission -> Raman pi flip -> excitation (late
bin) -> emission -> ground rotation R. The detected sector is held as a
finite set of operator summands (4x2 Kraus blocks); re-excitation-type
events that pass post-selection but carry no overlap with the target are
tracked as a scalar orthogonal-error probability, and undetected branches
as a loss probability.

Spin basis: index 0 = spin-down (the optically driven ground state),
index 1 = spin-up. Photon basis: index 0 = early, index 1 = late.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .params import (
    BranchingBetas,
    ParamError,
    PhysicalParams,
    _real_fields,
    betas_from_branching,
    indistinguishability as indist_fn,
)
from .budget import EXC_COEFFICIENT

SPIN_DOWN, SPIN_UP = 0, 1
EARLY, LATE = 0, 1

# Pauli Z on the photon and Pauli Y on the spin of a (spin x photon) block
_Z_PHOTON = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
_Y_SPIN = np.kron(np.array([[0, -1j], [1j, 0]]), np.eye(2)).astype(complex)


@dataclass(frozen=True)
class CycleOptions:
    """Imperfection switches for one protocol cycle.

    ``orthogonal_error_prob``   per-cycle probability of a detected photon
        orthogonal to the target wavepacket (re-excitation double emission,
        unfiltered off-resonant light); a scalar ledger, first-order
        equivalent to enlarging the photonic basis.
    ``off_resonant_prob``       per-pulse which-path marking probability of
        the spectator arm (its branch still reaches the detector but loses
        coherence with the main branch).
    ``quasistatic_detuning``    slowly drifting ground-splitting shift
        (rad/ns), constant over the cycle.
    ``drift_phase``             extra early-late phase imbalance (rad) from
        intra-cycle diffusion; not cancelled by the echo.
    ``echo``                    when False the built-in pi flip refocussing
        is removed from the bookkeeping and the quasistatic detuning
        dephases the full inter-bin delay.
    ``rotation_error_std``      std (rad) of a Gaussian over-rotation of R.
    """

    rotation_angle: float = math.pi
    indistinguishability: float = 1.0
    filter_on: bool = True
    orthogonal_error_prob: float = 0.0
    off_resonant_prob: float = 0.0
    quasistatic_detuning: float = 0.0
    drift_phase: float = 0.0
    echo: bool = True
    half_cycle_time: float = 1.0
    rotation_error_std: float = 0.0

    _BOUNDS = {"rotation_angle": "(-inf, inf)", "indistinguishability": "[0, 1]",
               "orthogonal_error_prob": "[0, 1)", "off_resonant_prob": "[0, 1)",
               "quasistatic_detuning": "(-inf, inf)", "drift_phase": "(-inf, inf)",
               "half_cycle_time": "(0, inf)", "rotation_error_std": "[0, inf)"}

    def __post_init__(self):
        _real_fields(self)
        for name in ("echo", "filter_on"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ParamError(f"{name} must be a bool, got {getattr(self, name)!r}")


def rotation_matrix(angle):
    """Ground-state Raman rotation about the y axis."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass
class CycleMap:
    """Trace-non-increasing map from spin to spin x detected photon.

    ``kraus`` holds 4x2 blocks acting C^2 -> C^2 (x) C^2 with the photon
    index varying fastest (row index = 2*spin + photon). ``orthogonal_prob``
    is the conditional probability that a cycle passing post-selection
    carries an orthogonal photon instead of the coherent output.
    """

    kraus: list = field(default_factory=list)
    orthogonal_prob: float = 0.0

    def detected_weight(self, rho_spin):
        """Probability that the cycle yields a detected coherent output."""
        return float(
            sum(np.trace(k @ rho_spin @ k.conj().T).real for k in self.kraus)
        )

    def weights(self, rho_spin=None):
        """Detected / orthogonal / loss probability split for an input state."""
        if rho_spin is None:
            rho_spin = np.eye(2, dtype=complex) / 2.0
        det = self.detected_weight(rho_spin)
        coherent = det * (1.0 - self.orthogonal_prob)
        orth = det * self.orthogonal_prob
        return {
            "detected": coherent,
            "orthogonal": orth,
            "loss": 1.0 - coherent - orth,
        }

    def choi_matrix(self):
        """Characteristic (Choi) matrix of the detected-sector map, 8x8.

        Block (i, j) of size 4 holds K |i><j| K^dag summed over the operator
        set (input (x) output ordering).
        """
        c = np.zeros((8, 8), dtype=complex)
        for k in self.kraus:
            for i in range(2):
                for j in range(2):
                    c[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4] += np.outer(
                        k[:, i], k[:, j].conj()
                    )
        return c


def _ket(spin, photon):
    v = np.zeros(4, dtype=complex)
    v[2 * spin + photon] = 1.0
    return v


def _mix(kraus, op, p):
    """Each block k becomes sqrt(1 - p) k and sqrt(p) op k: a p-weighted op error."""
    keep, flip = math.sqrt(1.0 - p), math.sqrt(p)
    return [m for k in kraus for m in (keep * k, flip * (op @ k))]


def _resolve(betas_or_params, options):
    """The branching weights and options a map is built from.

    PhysicalParams set the indistinguishability, the excitation-error
    weight and the half-cycle time of the options, so options that also set
    one of them are refused.
    """
    if options is None:
        options = CycleOptions()
    if isinstance(betas_or_params, BranchingBetas):
        return betas_or_params, options
    if not isinstance(betas_or_params, PhysicalParams):
        raise ParamError(
            f"expected BranchingBetas or PhysicalParams, got {type(betas_or_params)}"
        )
    for name in ("indistinguishability", "orthogonal_error_prob", "half_cycle_time"):
        if getattr(options, name) != getattr(CycleOptions, name):
            raise ParamError(
                f"{name} is set by PhysicalParams; leave it at its default "
                "or build from BranchingBetas"
            )
    p = betas_or_params
    return betas_from_branching(p.branching), replace(
        options,
        indistinguishability=indist_fn(p.gamma, p.gamma_d),
        orthogonal_error_prob=EXC_COEFFICIENT * p.gamma / p.delta,
        half_cycle_time=p.t_cycle / 2.0,
    )


def arm_phases(options, detuning_shift=0.0, drift_shift=0.0):
    """Phases (rad) of the early- and late-emitting arms of the main Kraus block.

    Quasi-static detuning phase accumulates while an arm sits in spin-up.
    The arm emitting early spends the late half there; the arm emitting
    late spends the early half. With the pi flip both halves are equal and
    the phase is common (the built-in spin echo); without it, one arm
    dephases over the full inter-bin delay. The drift phase adds to the
    early arm either way. The shifts add to the options'
    ``quasistatic_detuning`` and ``drift_phase`` and may be numpy arrays.
    """
    tau = options.half_cycle_time
    detuning = options.quasistatic_detuning + detuning_shift
    drift = options.drift_phase + drift_shift
    if options.echo:
        return detuning * tau + drift, detuning * tau
    return detuning * 2.0 * tau + drift, 0.0


# early-late phase differences of the three maps of a phase split
SPLIT_PHASES = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)


def phase_split_maps(betas_or_params, options=None):
    """Maps at early-late phase differences SPLIT_PHASES, and their options.

    Detuning and drift enter a map only through the phase difference D of
    its main Kraus block, so every derived Kraus block is A + e^{iD} B up to
    a global phase, and the map's superoperator is S0 + e^{iD} S+ +
    e^{-iD} S-: three maps fix it for every D. The returned options are the
    caller's with PhysicalParams applied; ``arm_phases`` on them gives D for
    any detuning and drift shift.
    """
    betas, options = _resolve(betas_or_params, options)
    flat = replace(options, quasistatic_detuning=0.0)
    maps = [build_cycle_map(betas, replace(flat, drift_phase=d)) for d in SPLIT_PHASES]
    return maps, options


def build_cycle_map(betas_or_params, options=None):
    """Compose one excite-emit-flip-excite-emit-rotate round into a CycleMap.

    Accepts either a BranchingBetas or a PhysicalParams; in the latter case
    the branching weights come from ``params.branching`` (unit internal
    efficiency), the photon indistinguishability from the dephasing rate and
    the per-cycle excitation errors from the optimized closed form.

    Per decay, the vertical waveguide photon (``beta_par``) is detected and
    keeps the spin; every diagonal decay (``beta_perp + beta_perp_leak``)
    flips it. With the frequency filter on, diagonal photons are removed;
    with it off, the waveguide-coupled ones (``beta_perp``) reach the
    detector as orthogonal-error photons.
    """
    betas, options = _resolve(betas_or_params, options)
    q_det = betas.beta_par
    q_flip = betas.beta_perp + betas.beta_perp_leak
    p_off = options.off_resonant_prob

    phase_early_arm, phase_late_arm = arm_phases(options)
    amp_main = math.sqrt(q_det * (1.0 - p_off))
    k_main = amp_main * (
        np.exp(1j * phase_early_arm) * np.outer(_ket(SPIN_UP, EARLY), [1, 0])
        + np.exp(1j * phase_late_arm) * np.outer(_ket(SPIN_DOWN, LATE), [0, 1])
    )

    kraus = [k_main]
    # early diagonal decay, then a detected vertical late photon
    if q_flip > 0.0:
        kraus.append(
            math.sqrt(q_flip * q_det) * np.outer(_ket(SPIN_DOWN, LATE), [1, 0])
        )
    # which-path marking of the spectator arm by off-resonant emission
    if p_off > 0.0:
        kraus.append(
            math.sqrt(p_off * q_det) * np.outer(_ket(SPIN_DOWN, LATE), [0, 1])
        )
        kraus.append(
            math.sqrt(p_off * q_det) * np.outer(_ket(SPIN_UP, EARLY), [1, 0])
        )
    # unfiltered diagonal photon: detected but orthogonal; enters the scalar
    # ledger together with any configured re-excitation weight
    orth = options.orthogonal_error_prob + (0.0 if options.filter_on else betas.beta_perp)

    # phonon dephasing of the early-late coherence: scale by I via a photon
    # phase-flip channel, exact for the coherence factor
    p_z = (1.0 - options.indistinguishability) / 2.0
    if p_z > 0.0:
        kraus = _mix(kraus, _Z_PHOTON, p_z)

    # ground rotation R, with optional Gaussian over-rotation implemented as
    # the averaged channel (rotation followed by partial y-dephasing)
    u_r = np.kron(rotation_matrix(options.rotation_angle), np.eye(2))
    kraus = [u_r @ k for k in kraus]
    if options.rotation_error_std > 0.0:
        coh = math.exp(-(options.rotation_error_std**2) / 2.0)
        kraus = _mix(kraus, _Y_SPIN, (1.0 - coh) / 2.0)

    return CycleMap(kraus=kraus, orthogonal_prob=orth)


def ideal_cycle_map(rotation_angle=math.pi):
    """The imperfection-free cycle isometry."""
    betas = BranchingBetas(
        beta_par=1.0, beta_perp=0.0, beta_par_leak=0.0, beta_perp_leak=0.0
    )
    return build_cycle_map(betas, CycleOptions(rotation_angle=rotation_angle))

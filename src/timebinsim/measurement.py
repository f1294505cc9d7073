"""Time-bin measurement model: interferometer bases, finite efficiency,
shot sampling and estimator-based GHZ fidelity extraction.

A photon routed through a single interferometer arm is measured in the
time-bin (Z) basis; interfering the early and late components yields a
phase basis X(phi), with Y = X(pi/2). Finite efficiency eta adds a
no-click element (1 - eta) * identity to every setting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .params import _real, _whole
from .protocol import _frame_signs, canonical_stabilizers

NO_CLICK = "no_click"


class MeasurementError(ValueError):
    pass


@dataclass(frozen=True)
class BasisSetting:
    """Z or phase basis, with active (deterministic) or passive routing."""

    kind: str  # "Z" or "X"
    phase: float = 0.0
    routing: str = "active"

    def __post_init__(self):
        if self.kind not in ("Z", "X"):
            raise MeasurementError(f"basis kind must be 'Z' or 'X', got {self.kind!r}")
        _real(("phase", self.phase, "[0, 2pi)"), error=MeasurementError)
        if self.routing not in ("active", "passive"):
            raise MeasurementError(f"routing must be active or passive, got {self.routing!r}")

    @classmethod
    def z(cls):
        return cls(kind="Z")

    @classmethod
    def x(cls, phase=0.0):
        return cls(kind="X", phase=phase % (2.0 * math.pi))

    @classmethod
    def y(cls):
        return cls.x(math.pi / 2.0)


@dataclass(frozen=True)
class DetectionRecord:
    shot: int
    qubit: int
    setting: BasisSetting
    outcome: str


@dataclass(frozen=True, eq=False)
class ShotRecords:
    """Shots of one run: ``combo[s]`` indexes the joint outcome tuple of shot s.

    Reads as a sequence of DetectionRecord rows (shot-major), built on demand.
    """

    settings: tuple
    outcomes: list
    combo: np.ndarray

    def __len__(self):
        return len(self.combo) * len(self.settings)

    def __iter__(self):
        for shot, ci in enumerate(self.combo.tolist()):
            for q, (out, setting) in enumerate(zip(self.outcomes[ci], self.settings)):
                yield DetectionRecord(shot=shot, qubit=q, setting=setting, outcome=out)

    def __eq__(self, other):
        return (
            isinstance(other, ShotRecords)
            and (self.settings, self.outcomes) == (other.settings, other.outcomes)
            and np.array_equal(self.combo, other.combo)
        )


def _phase_kets(phi):
    plus = np.array([1.0, np.exp(1j * phi)], dtype=complex) / math.sqrt(2.0)
    minus = np.array([1.0, -np.exp(1j * phi)], dtype=complex) / math.sqrt(2.0)
    return plus, minus


def povm_elements(setting, eta=1.0):
    """Positive operators of one time-bin qubit measurement.

    Returns a list of (outcome label, 2x2 operator); elements sum to the
    identity. Passive routing splits each shot evenly between the Z and
    phase branches.
    """
    _real(("eta", eta, "[0, 1]"), error=MeasurementError)
    z_els = [
        ("early", eta * np.diag([1.0, 0.0]).astype(complex)),
        ("late", eta * np.diag([0.0, 1.0]).astype(complex)),
    ]
    plus, minus = _phase_kets(setting.phase)
    x_els = [
        ("plus", eta * np.outer(plus, plus.conj())),
        ("minus", eta * np.outer(minus, minus.conj())),
    ]
    if setting.routing == "passive":
        els = [(lbl, 0.5 * op) for lbl, op in z_els + x_els]
    elif setting.kind == "Z":
        els = z_els
    else:
        els = x_els
    els.append((NO_CLICK, (1.0 - eta) * np.eye(2, dtype=complex)))
    return els


def joint_outcome_distribution(rho, settings, eta=1.0):
    """Exact joint POVM distribution over per-qubit outcome tuples.

    ``settings`` must have one entry per tensor factor of ``rho`` (spin
    first when included). Returns (outcome label tuples, probabilities).
    """
    rho = np.asarray(rho, dtype=complex)
    n = len(settings)
    if rho.shape != (2**n, 2**n):
        raise MeasurementError(
            f"state dimension {rho.shape} does not match {n} settings"
        )
    element_sets = [povm_elements(s, eta) for s in settings]
    labels = [[lbl for lbl, _ in els] for els in element_sets]
    t = rho.reshape((2,) * n + (2,) * n)
    for q, els in enumerate(element_sets):
        ops = np.stack([op for _, op in els])  # (k, 2, 2)
        # Tr(E rho) per qubit: E[i, j] pairs with rho's ket index j and bra
        # index i. After q contractions the outcome axes occupy 0..q-1, so
        # qubit q's ket axis sits at q and its bra axis at n.
        t = np.tensordot(ops, t, axes=[[2, 1], [q, n]])
        # tensordot puts the outcome axis first; rotate it behind previous ones
        t = np.moveaxis(t, 0, q)
    probs = np.real(t.reshape(-1))
    outcomes = list(product(*labels))
    return outcomes, np.clip(probs, 0.0, None)


def sample_measurements(state, settings, shots, seed=0, eta=1.0):
    """Draw i.i.d. shots from the joint outcome distribution at efficiency eta.

    ``state`` is a HybridState (or density operator); the orthogonal-error
    mass of a HybridState contributes click patterns drawn from the
    maximally mixed photon populations, as its photons still trigger the
    detectors. Returns a ShotRecords table. Deterministic for a fixed seed.
    """
    shots = _whole("shots", shots, 1, error=MeasurementError)
    seed = _whole("seed", seed, 0, error=MeasurementError)
    rho, orth = _as_rho(state)
    outcomes, probs = joint_outcome_distribution(rho, settings, eta=eta)
    if orth > 0.0:
        mixed = np.eye(rho.shape[0], dtype=complex) / rho.shape[0]
        _, p2 = joint_outcome_distribution(mixed, settings, eta=eta)
        probs = probs + orth * p2
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    combo = np.repeat(np.arange(len(outcomes)), rng.multinomial(shots, probs / probs.sum()))
    # multinomial counts come grouped by outcome; shuffle the shot order so
    # consecutive shots (and hence jackknife blocks) are exchangeable
    rng.shuffle(combo)
    return ShotRecords(settings=tuple(settings), outcomes=outcomes, combo=combo)


# earlier name of the same sampler, kept for existing callers
sample_measurements_with_eta = sample_measurements


def _as_rho(state):
    if hasattr(state, "rho"):
        tr = float(np.trace(state.rho).real)
        return state.rho / tr, state.orthogonal_error_mass / tr
    rho = np.asarray(state, dtype=complex)
    return rho / float(np.trace(rho).real), 0.0


def ghz_parity_settings(n_qubits):
    """Phase settings phi_k = k pi / n, k = 0..2n-1, for the parity scan."""
    return [
        BasisSetting.x(phase=(k * math.pi / n_qubits) % (2.0 * math.pi))
        for k in range(2 * n_qubits)
    ]


def estimate_ghz_fidelity(records_by_setting, n_qubits, target_phase=0.0, n_blocks=20):
    """Population-plus-parity GHZ fidelity with jackknife error bars.

    ``records_by_setting`` maps a setting signature to a ShotRecords table: key
    "Z" for the all-Z run and keys equal to the parity phases phi_k (k pi /
    n, k = 0..2n-1) for the all-X(phi_k) runs. Shots without a click on
    every qubit are discarded (post-selection). ``target_phase`` is the
    phase of the GHZ coherence of the target state (0 or pi for the
    protocol's frame); any other phase raises MeasurementError. The
    jackknife needs ``n_blocks`` >= 2, and at least ``n_blocks`` all-click
    shots per setting, so that no block is empty.
    """
    n = _whole("n_qubits", n_qubits, 1, error=MeasurementError)
    n_blocks = _whole("n_blocks", n_blocks, 2, error=MeasurementError)
    _real(("target_phase", target_phase, "(-inf, inf)"), error=MeasurementError)
    phase = target_phase % (2.0 * math.pi)
    if min(phase, abs(phase - math.pi), 2.0 * math.pi - phase) > 1e-9:
        raise MeasurementError(f"target_phase must be 0 or pi (mod 2pi), got {target_phase}")
    phases = [(k * math.pi / n) % (2.0 * math.pi) for k in range(2 * n)]
    keys = [
        next((key for key in records_by_setting if key != "Z" and _phase_match(key, p)), None)
        for p in phases
    ]
    missing = ["Z"] if "Z" not in records_by_setting else []
    missing += [f"X({p:.6g})" for p, key in zip(phases, keys) if key is None]
    if missing:
        raise MeasurementError(f"estimator is missing settings: {missing}")

    z_blocks = _block_statistics(records_by_setting["Z"], n, _population_indicator, n_blocks)
    parity_blocks = [
        ((-1) ** k, _block_statistics(records_by_setting[key], n, _parity_value, n_blocks))
        for k, key in enumerate(keys)
    ]

    sign = -1.0 if abs(phase - math.pi) <= 1e-9 else 1.0

    def estimator(drop=None):
        pop = _block_mean(z_blocks, drop)
        amp = 0.0
        for s, blocks in parity_blocks:
            amp += s * _block_mean(blocks, drop)
        amp = sign * amp / (2.0 * n)
        return (pop + amp) / 2.0

    full = estimator()
    jk = np.asarray([estimator(drop=j) for j in range(n_blocks)])
    var = (n_blocks - 1) / n_blocks * np.sum((jk - jk.mean()) ** 2)
    return {"fidelity": float(full), "std_error": float(math.sqrt(var))}


def _phase_match(key, phase, tol=1e-9):
    try:
        return abs(float(key) - phase) < tol
    except (TypeError, ValueError):
        return False


def _population_indicator(outcomes):
    return 1.0 if set(outcomes) in ({"early"}, {"late"}) else 0.0


def _parity_value(outcomes):
    return math.prod(1.0 if o == "plus" else -1.0 for o in outcomes)


def _all_click_values(records, func):
    """``func`` of each all-click shot's outcome tuple, in shot order; it
    runs once per joint outcome and is gathered by each shot's index."""
    keep = np.array([NO_CLICK not in outs for outs in records.outcomes])[records.combo]
    return np.array([func(outs) for outs in records.outcomes])[records.combo[keep]]


def _block_statistics(records, n_qubits, func, n_blocks):
    """Per-block (sum, count) of an all-click shot statistic, blocks filled
    round-robin in shot order."""
    if len(records.settings) != n_qubits:
        raise MeasurementError(
            f"records hold {len(records.settings)} qubits per shot but n_qubits is {n_qubits}"
        )
    values = _all_click_values(records, func)
    if values.size < n_blocks:
        s = records.settings[0]
        label = "Z" if s.kind == "Z" else f"X({s.phase:.6g})"
        raise MeasurementError(
            f"setting {label} has {values.size} all-click shots, fewer than n_blocks = {n_blocks}"
        )
    block = np.arange(values.size) % n_blocks
    sums = np.bincount(block, weights=values, minlength=n_blocks)
    counts = np.bincount(block, minlength=n_blocks).astype(float)
    return sums, counts


def sample_stabilizer_expectations(state, kind, shots=2000, seed=0, eta=1.0):
    """Shot-based estimate of the frame-corrected stabilizer expectations.

    Diagnostic cross-check of the exact ``stabilizer_expectations``: each
    generator is measured in its local eigenbasis (Z or X per qubit;
    identity factors are measured in Z and ignored) and the +-1 outcome
    product is averaged over all-click shots.
    """
    n = state.photon_count
    signs = _frame_signs(n, kind)
    estimates = []
    for g, (sign, label) in enumerate(zip(signs, canonical_stabilizers(n, kind))):
        settings = [
            BasisSetting.x(0.0) if c == "X" else BasisSetting.z() for c in label
        ]
        records = sample_measurements(state, settings, shots, seed=seed + g, eta=eta)
        values = _all_click_values(records, lambda outs: math.prod(
            1.0 if o in ("early", "plus") else -1.0 for c, o in zip(label, outs) if c != "I"
        ))
        if values.size == 0:
            raise MeasurementError(f"no all-click shots for stabilizer {label}")
        estimates.append(sign * float(values.sum()) / values.size)
    return estimates


def _block_mean(blocks, drop=None):
    sums, counts = blocks
    if drop is None:
        return sums.sum() / counts.sum()
    return (sums.sum() - sums[drop]) / (counts.sum() - counts[drop])

"""Time-bin measurement model: interferometer bases, finite efficiency,
shot sampling and estimator-based GHZ fidelity extraction.

A photon routed through a single interferometer arm is measured in the
time-bin (Z) basis; interfering the early and late components yields a
phase basis X(phi), with Y = X(pi/2). Finite efficiency eta adds a
no-click element (1 - eta) * identity to every setting.

Readout statistics are arrays over the joint-outcome grid: POVM stacks are
cached read-only per setting and efficiency, and each shot statistic is a
per-qubit factor table multiplied over qubits, gathered by joint-outcome index.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .params import _real, _whole
from .protocol import HybridState, _frame_signs, _generator_codes, canonical_stabilizers

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
        # a tiny negative phase wraps to 2pi itself in floating point, which is 0
        wrapped = phase % (2.0 * math.pi)
        return cls(kind="X", phase=0.0 if wrapped == 2.0 * math.pi else wrapped)

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


def povm_elements(setting, eta=1.0):
    """Positive operators of one time-bin qubit measurement.

    Returns a list of (outcome label, 2x2 operator); elements sum to the
    identity. Passive routing splits each shot evenly between the Z and
    phase branches.
    """
    labels, ops = _povms([setting], eta)[0]
    return [(lbl, op.copy()) for lbl, op in zip(labels, ops)]


def _povms(settings, eta):
    """Each setting's cached (labels, stack), after the checks that the cache key needs."""
    bad = [s for s in settings if not isinstance(s, BasisSetting)]
    if bad:
        raise MeasurementError(f"settings must hold BasisSetting entries, got {bad[0]!r}")
    _real(("eta", eta, "[0, 1]"), error=MeasurementError)
    return [_povm(s, float(eta)) for s in settings]


@lru_cache(maxsize=256)
def _povm(setting, eta):
    """Outcome labels and a read-only (k, 2, 2) stack of their operators."""
    e = np.exp(1j * setting.phase)
    kets = {
        "early": np.array([1.0, 0.0]), "late": np.array([0.0, 1.0]),
        "plus": np.array([1.0, e]) / math.sqrt(2.0), "minus": np.array([1.0, -e]) / math.sqrt(2.0),
    }
    if setting.routing == "passive":
        labels = ("early", "late", "plus", "minus")
    elif setting.kind == "Z":
        labels = ("early", "late")
    else:
        labels = ("plus", "minus")
    ops = [eta * np.outer(kets[lbl], kets[lbl].conj()) for lbl in labels]
    if setting.routing == "passive":
        ops = [0.5 * op for op in ops]
    stack = np.stack([*ops, (1.0 - eta) * np.eye(2)]).astype(complex)
    stack.flags.writeable = False
    return (*labels, NO_CLICK), stack


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
    povms = _povms(settings, eta)
    t = rho.reshape((2,) * n + (2,) * n)
    for q, (_, ops) in enumerate(povms):
        # Tr(E rho) per qubit: E[i, j] pairs with rho's ket index j and bra
        # index i. After q contractions the outcome axes occupy 0..q-1, so
        # qubit q's ket axis sits at q and its bra axis at n.
        t = np.tensordot(ops, t, axes=[[2, 1], [q, n]])
        # tensordot puts the outcome axis first; rotate it behind previous ones
        t = np.moveaxis(t, 0, q)
    probs = np.real(t.reshape(-1))
    outcomes = list(product(*(labels for labels, _ in povms)))
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
    # both unnormalized: the draw below renormalizes, so rho is neither copied nor traced
    rho, orth = (state.rho, state.orthogonal_error_mass) if hasattr(state, "rho") else (state, 0.0)
    outcomes, probs = joint_outcome_distribution(rho, settings, eta=eta)
    if orth > 0.0:
        probs = probs + orth * _mixed_distribution(settings, eta)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    combo = np.repeat(np.arange(len(outcomes)), rng.multinomial(shots, probs / probs.sum()))
    # multinomial counts come grouped by outcome; shuffle the shot order so
    # consecutive shots (and hence jackknife blocks) are exchangeable
    rng.shuffle(combo)
    return ShotRecords(settings=tuple(settings), outcomes=outcomes, combo=combo)


def _mixed_distribution(settings, eta):
    """The maximally mixed state's outcome distribution: the product over qubits of Tr(E) / 2."""
    return _grid([ops.trace(axis1=1, axis2=2).real / 2.0 for _, ops in _povms(settings, eta)])


# earlier name of the same sampler, kept for existing callers
sample_measurements_with_eta = sample_measurements


def ghz_parity_settings(n_qubits):
    """Phase settings phi_k = k pi / n, k = 0..2n-1, for the parity scan."""
    n = _whole("n_qubits", n_qubits, 1, error=MeasurementError)
    return [BasisSetting.x(phase=(k * math.pi / n) % (2.0 * math.pi)) for k in range(2 * n)]


def estimate_ghz_fidelity(records_by_setting, n_qubits, target_phase=0.0, n_blocks=20):
    """Population-plus-parity GHZ fidelity with jackknife error bars.

    ``records_by_setting`` holds ShotRecords tables under any keys; the keys
    are labels only. Each required setting, all-Z and all-X(phi_k) with
    phi_k = k pi / n, k = 0..2n-1, is read from the first table whose every
    qubit was measured in it (same kind and routing; X phases within 1e-9
    mod 2 pi); a setting no table matches raises MeasurementError. Shots
    without a click on every qubit are discarded (post-selection).
    ``target_phase`` is the phase of the GHZ coherence of the target state
    (0 or pi for the protocol's frame); any other phase raises
    MeasurementError. The jackknife needs ``n_blocks`` >= 2, and at least
    ``n_blocks`` all-click shots per setting, so that no block is empty.
    """
    n = _whole("n_qubits", n_qubits, 1, error=MeasurementError)
    if not isinstance(records_by_setting, Mapping):
        kind = type(records_by_setting).__name__
        raise MeasurementError(f"records_by_setting must map keys to ShotRecords, got {kind}")
    n_blocks = _whole("n_blocks", n_blocks, 2, error=MeasurementError)
    _real(("target_phase", target_phase, "(-inf, inf)"), error=MeasurementError)
    phase = target_phase % (2.0 * math.pi)
    if min(phase, abs(phase - math.pi), 2.0 * math.pi - phase) > 1e-9:
        raise MeasurementError(f"target_phase must be 0 or pi (mod 2pi), got {target_phase}")
    wanted = [BasisSetting.z(), *ghz_parity_settings(n)]
    tables = [
        next((r for r in records_by_setting.values() if _measured_in(r, want)), None)
        for want in wanted
    ]
    missing = [_label(want) for want, r in zip(wanted, tables) if r is None]
    if missing:
        raise MeasurementError(f"estimator is missing settings: {missing}")

    z = [BasisSetting.z()] * n
    population = sum(_table(z, lambda q, o, w=w: float(o == w)) for w in ("early", "late"))
    parity = _table([BasisSetting.x()] * n, lambda q, o: 1.0 if o == "plus" else -1.0)
    statistics = [population] + [parity] * (2 * n)
    # axes: table, (sums, counts), block
    stats = np.array([_block_statistics(r, n, t, n_blocks) for r, t in zip(tables, statistics)])
    total = stats.sum(axis=2, keepdims=True)
    loo = np.concatenate([total, total - stats], axis=2)
    # column 0: each table's mean over all blocks; column j + 1: its mean without block j
    means = loo[:, 0] / loo[:, 1]
    sign = -1.0 if abs(phase - math.pi) <= 1e-9 else 1.0
    amp = sum((-1) ** k * row for k, row in enumerate(means[1:]))  # in k order
    est = (means[0] + sign * amp / (2.0 * n)) / 2.0
    var = (n_blocks - 1) / n_blocks * np.sum((est[1:] - est[1:].mean()) ** 2)
    return {"fidelity": float(est[0]), "std_error": float(math.sqrt(var))}


def _measured_in(records, want):
    """Every qubit of ``records`` measured in ``want``, X phases within 1e-9 mod 2 pi."""
    return all(
        (s.kind, s.routing) == (want.kind, want.routing)
        and (s.kind == "Z" or abs((s.phase - want.phase + math.pi) % math.tau - math.pi) < 1e-9)
        for s in records.settings
    )


def _label(setting):
    return "Z" if setting.kind == "Z" else f"X({setting.phase:.6g})"


def _grid(factors):
    """Per-qubit factor tables multiplied over qubits, flat in the itertools.product
    order of the joint outcomes (bool tables: true where every factor is)."""
    return reduce(np.multiply.outer, factors).reshape(-1)


def _table(settings, value):
    """``value(qubit, label)`` multiplied over qubits, one entry per joint outcome of
    ``settings`` (the labels do not depend on eta)."""
    factors = [np.array([value(q, o) for o in _povm(s, 1.0)[0]]) for q, s in enumerate(settings)]
    return _grid(factors)


def _all_click_values(records, table):
    """``table`` (one value per joint outcome) at each all-click shot, in shot order."""
    keep = _table(records.settings, lambda q, o: o != NO_CLICK)
    return table.take(np.compress(keep.take(records.combo), records.combo))


def _block_statistics(records, n_qubits, table, n_blocks):
    """Per-block (sum, count) of an all-click shot statistic, blocks filled
    round-robin in shot order."""
    if len(records.settings) != n_qubits:
        raise MeasurementError(
            f"records hold {len(records.settings)} qubits per shot but n_qubits is {n_qubits}"
        )
    values = _all_click_values(records, table)
    m = values.size
    if m < n_blocks:
        raise MeasurementError(
            f"setting {_label(records.settings[0])} has {m} all-click shots, "
            f"fewer than n_blocks = {n_blocks}"
        )
    # shot i sits in column i % n_blocks; each column adds its shots in shot order
    sums = np.concatenate([values, np.zeros(-m % n_blocks)]).reshape(-1, n_blocks).sum(axis=0)
    counts = np.full(n_blocks, float(m // n_blocks))
    counts[: m % n_blocks] += 1.0
    return sums, counts


def sample_stabilizer_expectations(state, kind, shots=2000, seed=0, eta=1.0):
    """Shot-based estimate of the frame-corrected stabilizer expectations.

    Diagnostic cross-check of the exact ``stabilizer_expectations``: each
    generator is measured in its local eigenbasis (Z or X per qubit;
    identity factors are measured in Z and ignored) and the +-1 outcome
    product is averaged over all-click shots.
    """
    if not isinstance(state, HybridState):
        raise MeasurementError(f"state must be a HybridState, got {type(state).__name__}")
    n = state.photon_count
    signs = _frame_signs(n, kind)
    estimates = []
    for g, (sign, codes) in enumerate(zip(signs, _generator_codes(n, kind))):
        # codes: 0 = I, 1 = X, 2 = Z (see protocol._generator_codes)
        settings = [BasisSetting.x(0.0) if c == 1 else BasisSetting.z() for c in codes]
        records = sample_measurements(state, settings, shots, seed=seed + g, eta=eta)
        # the -1 outcomes of each non-identity factor; no-click values are never read
        table = _table(settings, lambda q, o: -1.0 if codes[q] and o in ("late", "minus") else 1.0)
        values = _all_click_values(records, table)
        if values.size == 0:
            label = canonical_stabilizers(n, kind)[g]
            raise MeasurementError(f"no all-click shots for stabilizer {label}")
        estimates.append(sign * float(values.sum()) / values.size)
    return estimates


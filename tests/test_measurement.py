import math

import numpy as np
import pytest

from timebinsim import measurement
from timebinsim.cyclemap import CycleOptions, build_cycle_map, ideal_cycle_map
from timebinsim.measurement import (
    NO_CLICK,
    BasisSetting,
    DetectionRecord,
    MeasurementError,
    estimate_ghz_fidelity,
    ghz_parity_settings,
    joint_outcome_distribution,
    povm_elements,
    sample_measurements,
    sample_measurements_with_eta,
    sample_stabilizer_expectations,
)
from timebinsim.params import BranchingBetas, preset
from timebinsim.protocol import (
    TargetKind,
    _frame_signs,
    canonical_stabilizers,
    ideal_target,
    run_protocol,
    stabilizer_expectations,
)

VERTICAL_ONLY = BranchingBetas(1.0, 0.0, 0.0, 0.0)


def _collect(state, nq, shots, seed0, eta=1.0, sample=sample_measurements_with_eta):
    """Record sets for the GHZ estimator: all-Z plus the 2*nq parity scans."""
    recs = {"Z": sample(state, [BasisSetting.z()] * nq, shots, seed=seed0, eta=eta)}
    for k in range(2 * nq):
        phase = (k * math.pi / nq) % (2.0 * math.pi)
        recs[phase] = sample(
            state, [BasisSetting.x(phase)] * nq, shots, seed=seed0 + 1 + k, eta=eta
        )
    return recs


# -- reference: the per-object readout path that the columnar ShotRecords
# table replaced (one DetectionRecord per shot and qubit, regrouped by shot)


def _reference_sample(state, settings, shots, seed=0, eta=1.0):
    tr = float(np.trace(state.rho).real)
    rho, orth = state.rho / tr, state.orthogonal_error_mass / tr
    outcomes, probs = joint_outcome_distribution(rho, settings, eta=eta)
    if orth > 0.0:
        mixed = np.eye(rho.shape[0], dtype=complex) / rho.shape[0]
        _, p2 = joint_outcome_distribution(mixed, settings, eta=eta)
        probs = probs + orth * p2
    probs = np.asarray(probs, dtype=float)
    probs = probs / probs.sum()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.multinomial(shots, probs)
    combo_indices = np.repeat(np.arange(len(outcomes)), counts)
    rng.shuffle(combo_indices)
    records = []
    for shot_idx, ci in enumerate(combo_indices):
        for q, (out, setting) in enumerate(zip(outcomes[ci], settings)):
            records.append(
                DetectionRecord(shot=shot_idx, qubit=q, setting=setting, outcome=out)
            )
    return records


def _reference_group_by_shot(records):
    shots = {}
    for r in records:
        shots.setdefault(r.shot, {})[r.qubit] = r
    return list(shots.values())


def _reference_block_statistics(records, n_qubits, func, n_blocks):
    shots = _reference_group_by_shot(records)
    sums = np.zeros(n_blocks)
    counts = np.zeros(n_blocks)
    kept = 0
    for sh in shots:
        outs = [sh[q].outcome for q in sorted(sh)]
        if len(outs) != n_qubits or NO_CLICK in outs:
            continue
        b = kept % n_blocks
        sums[b] += func(outs)
        counts[b] += 1.0
        kept += 1
    if kept == 0:
        raise MeasurementError("no all-click shots available for estimation")
    return sums, counts


def _reference_stabilizer_estimates(state, kind, shots, seed, eta):
    n = state.photon_count
    estimates = []
    for g, (sign, label) in enumerate(zip(_frame_signs(n, kind), canonical_stabilizers(n, kind))):
        settings = [BasisSetting.x(0.0) if c == "X" else BasisSetting.z() for c in label]
        total = 0.0
        count = 0
        for shot in _reference_group_by_shot(
            _reference_sample(state, settings, shots, seed=seed + g, eta=eta)
        ):
            outs = [shot[q].outcome for q in sorted(shot)]
            if NO_CLICK in outs:
                continue
            v = 1.0
            for c, o in zip(label, outs):
                if c == "I":
                    continue
                v *= 1.0 if o in ("early", "plus") else -1.0
            total += v
            count += 1
        estimates.append(sign * total / count)
    return estimates


def test_povm_completeness():
    settings = [
        BasisSetting.z(),
        BasisSetting.x(0.0),
        BasisSetting.y(),
        BasisSetting.x(1.3),
        BasisSetting(kind="X", phase=0.5, routing="passive"),
    ]
    for s in settings:
        for eta in (1.0, 0.84, 0.0):
            total = sum(op for _, op in povm_elements(s, eta))
            assert np.allclose(total, np.eye(2), atol=1e-12)


def test_povm_basic_outcomes():
    early = np.array([1.0, 0.0], dtype=complex)
    for lbl, op in povm_elements(BasisSetting.z(), eta=1.0):
        p = float(np.real(early.conj() @ op @ early))
        assert p == pytest.approx(1.0 if lbl == "early" else 0.0)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for lbl, op in povm_elements(BasisSetting.x(0.0), eta=1.0):
        p = float(np.real(plus.conj() @ op @ plus))
        assert p == pytest.approx(1.0 if lbl == "plus" else 0.0)


def test_no_click_probability():
    rng = np.random.default_rng(0)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    for s in (BasisSetting.z(), BasisSetting.x(0.9)):
        for lbl, op in povm_elements(s, eta=0.84):
            if lbl == "no_click":
                assert float(np.real(v.conj() @ op @ v)) == pytest.approx(0.16)


def test_basis_setting_validation():
    with pytest.raises(MeasurementError):
        BasisSetting(kind="W")
    with pytest.raises(MeasurementError):
        BasisSetting(kind="X", phase=7.0)
    with pytest.raises(MeasurementError):
        BasisSetting(kind="Z", routing="magic")


def test_ghz_all_z_patterns():
    rho = ideal_target(2, TargetKind.GHZ).rho
    outs, probs = joint_outcome_distribution(rho, [BasisSetting.z()] * 3)
    support = {o for o, p in zip(outs, probs) if p > 1e-12}
    assert support == {("early",) * 3, ("late",) * 3}
    assert probs.sum() == pytest.approx(1.0)


def test_sampling_determinism_and_frequencies():
    rho = ideal_target(2, TargetKind.GHZ).rho
    settings = [BasisSetting.x(0.0)] * 3
    a = sample_measurements(rho, settings, shots=2000, seed=42)
    b = sample_measurements(rho, settings, shots=2000, seed=42)
    assert a == b
    # frequencies against exact probabilities, 5 sigma binomial
    outs, probs = joint_outcome_distribution(rho, settings)
    shots = 100000
    recs = sample_measurements(rho, settings, shots=shots, seed=0)
    counts = {}
    for r in recs:
        counts.setdefault(r.shot, {})[r.qubit] = r.outcome
    freq = {}
    for shot in counts.values():
        combo = tuple(shot[q] for q in sorted(shot))
        freq[combo] = freq.get(combo, 0) + 1
    for o, p in zip(outs, probs):
        sigma = math.sqrt(max(shots * p * (1.0 - p), 1.0))
        assert abs(freq.get(o, 0) - shots * p) < 5.0 * sigma


def test_dimension_mismatch():
    with pytest.raises(MeasurementError):
        joint_outcome_distribution(np.eye(4) / 4.0, [BasisSetting.z()] * 3)


def test_estimator_ideal_ghz():
    st = run_protocol(ideal_cycle_map(), 2)
    nq = 3
    # two photons: the protocol's GHZ coherence phase is 2 pi, i.e. 0
    out = estimate_ghz_fidelity(_collect(st, nq, 20000, 10), nq, target_phase=0.0)
    assert abs(out["fidelity"] - 1.0) <= max(3.0 * out["std_error"], 1e-3)


def test_estimator_dephasing_oracle():
    ind = 0.9
    cm = build_cycle_map(VERTICAL_ONLY, CycleOptions(indistinguishability=ind))
    st = run_protocol(cm, 3)
    nq = 4
    out = estimate_ghz_fidelity(_collect(st, nq, 100000, 20), nq, target_phase=math.pi)
    oracle = (1.0 + ind**3) / 2.0
    assert abs(out["fidelity"] - oracle) < 3.0 * out["std_error"]
    assert out["std_error"] < 0.01


def test_estimator_efficiency_cancels_under_postselection():
    ind = 0.9
    cm = build_cycle_map(VERTICAL_ONLY, CycleOptions(indistinguishability=ind))
    st = run_protocol(cm, 3)
    nq = 4
    full = estimate_ghz_fidelity(_collect(st, nq, 100000, 30), nq, target_phase=math.pi)
    lossy = estimate_ghz_fidelity(
        _collect(st, nq, 100000, 30, eta=0.84), nq, target_phase=math.pi
    )
    assert abs(full["fidelity"] - lossy["fidelity"]) < 3.0 * (
        full["std_error"] + lossy["std_error"]
    )
    assert lossy["std_error"] > full["std_error"]


@pytest.mark.parametrize("shots", [2.5, 3.0, True, "3", None, 0, -1])
def test_shot_count_must_be_a_whole_number(shots):
    st = run_protocol(ideal_cycle_map(), 1)
    with pytest.raises(MeasurementError, match="shots"):
        sample_measurements(st, [BasisSetting.z()] * 2, shots)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_seed_must_be_a_whole_number_of_at_least_zero(seed):
    with pytest.raises(MeasurementError, match="^seed must be"):
        sample_measurements(np.eye(2) / 2.0, [BasisSetting.z()], 10, seed=seed)


@pytest.mark.parametrize("kind", [np.int64, np.uint32])
def test_numpy_integer_seed_draws_the_same_shots(kind):
    rho = ideal_target(2, TargetKind.GHZ).rho
    settings = [BasisSetting.x(0.0)] * 3
    want = sample_measurements(rho, settings, shots=500, seed=7)
    assert sample_measurements(rho, settings, shots=500, seed=kind(7)) == want


def test_estimator_needs_an_all_click_shot_per_block():
    # one shot per setting: every jackknife block but one would be empty
    cm = build_cycle_map(VERTICAL_ONLY, CycleOptions(indistinguishability=0.5))
    recs = _collect(run_protocol(cm, 3), 4, 1, 0)
    with pytest.raises(MeasurementError, match="Z has 1 all-click shots, fewer than n_blocks = 20"):
        estimate_ghz_fidelity(recs, 4, target_phase=math.pi)


def test_estimator_accepts_one_all_click_shot_per_block():
    # no loss: every shot clicks on every qubit, so n_blocks shots are enough
    recs = _collect(run_protocol(ideal_cycle_map(), 2), 3, 4, 5)
    out = estimate_ghz_fidelity(recs, 3, n_blocks=4)
    assert math.isfinite(out["fidelity"]) and math.isfinite(out["std_error"])


@pytest.mark.parametrize("n_blocks", [2.5, 20.0, True, "20", None, 0, 1])
def test_block_count_must_be_a_whole_number_of_at_least_two(n_blocks):
    # one block has no jackknife spread to report
    recs = _collect(run_protocol(ideal_cycle_map(), 2), 3, 200, 5)
    with pytest.raises(MeasurementError, match="n_blocks"):
        estimate_ghz_fidelity(recs, 3, n_blocks=n_blocks)
    assert estimate_ghz_fidelity(recs, 3, n_blocks=2)["std_error"] >= 0.0


def test_estimator_missing_settings():
    st = run_protocol(ideal_cycle_map(), 2)
    recs = {"Z": sample_measurements(st, [BasisSetting.z()] * 3, 100, seed=0)}
    with pytest.raises(MeasurementError) as err:
        estimate_ghz_fidelity(recs, 3)
    assert "X(" in str(err.value)


def test_estimator_rejects_target_phase_other_than_0_or_pi():
    st = run_protocol(ideal_cycle_map(), 2)
    recs = _collect(st, 3, 200, 5)
    for phase in (math.pi / 2.0, 1.0, math.pi + 1e-6):
        with pytest.raises(MeasurementError) as err:
            estimate_ghz_fidelity(recs, 3, target_phase=phase)
        assert "target_phase" in str(err.value)
    # phases are taken mod 2 pi
    for phase, same in ((2.0 * math.pi, 0.0), (-math.pi, math.pi)):
        assert estimate_ghz_fidelity(recs, 3, target_phase=phase) == estimate_ghz_fidelity(
            recs, 3, target_phase=same
        )


def test_columnar_readout_matches_per_object_reference(monkeypatch):
    # a reference-preset cluster state carries orthogonal-error mass
    st = run_protocol(preset("reference"), 2, kind=TargetKind.CLUSTER)
    assert st.orthogonal_error_mass > 0.0
    settings = [
        BasisSetting(kind="X", phase=0.5, routing="passive"),
        BasisSetting.z(),
        BasisSetting.y(),
    ]
    recs = sample_measurements(st, settings, 3000, seed=9, eta=0.84)
    assert len(recs) == 3 * 3000
    assert list(recs) == _reference_sample(st, settings, 3000, seed=9, eta=0.84)
    for eta in (1.0, 0.84):
        assert sample_stabilizer_expectations(
            st, TargetKind.CLUSTER, shots=3000, seed=3, eta=eta
        ) == _reference_stabilizer_estimates(st, TargetKind.CLUSTER, 3000, 3, eta)

    cm = build_cycle_map(VERTICAL_ONLY, CycleOptions(indistinguishability=0.9))
    ghz = run_protocol(cm, 3)
    for eta in (1.0, 0.84):
        out = estimate_ghz_fidelity(_collect(ghz, 4, 2000, 40, eta), 4, target_phase=math.pi)
        ref_recs = _collect(ghz, 4, 2000, 40, eta, sample=_reference_sample)
        with monkeypatch.context() as m:
            m.setattr(measurement, "_block_statistics", _reference_block_statistics)
            ref = estimate_ghz_fidelity(ref_recs, 4, target_phase=math.pi)
        assert out == ref


def test_estimator_names_qubit_count_mismatch():
    st = run_protocol(ideal_cycle_map(), 2)
    recs = {"Z": sample_measurements(st, [BasisSetting.z()] * 3, 200, seed=0)}
    for s in ghz_parity_settings(4):
        recs[s.phase] = sample_measurements(st, [s] * 3, 200, seed=1)
    with pytest.raises(MeasurementError, match="3 qubits per shot but n_qubits is 4"):
        estimate_ghz_fidelity(recs, 4)


def test_ghz_parity_settings():
    settings = ghz_parity_settings(3)
    assert len(settings) == 6
    assert settings[0].phase == 0.0
    assert settings[1].phase == pytest.approx(math.pi / 3.0)


def test_stabilizer_sampling_diagnostic():
    st = run_protocol(preset("reference"), 2, kind=TargetKind.CLUSTER)
    exact = stabilizer_expectations(st, TargetKind.CLUSTER)
    est = sample_stabilizer_expectations(st, TargetKind.CLUSTER, shots=20000, seed=3)
    for e, s in zip(exact, est):
        assert abs(e - s) < 0.02

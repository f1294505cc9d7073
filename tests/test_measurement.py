import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from timebinsim import measurement
from timebinsim.cyclemap import CycleOptions, build_cycle_map, ideal_cycle_map
from timebinsim.measurement import (
    NO_CLICK,
    BasisSetting,
    DetectionRecord,
    MeasurementError,
    ShotRecords,
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


def _population(outs):
    return float(set(outs) in ({"early"}, {"late"}))


def _parity(outs):
    return math.prod(1.0 if o == "plus" else -1.0 for o in outs)


def _reference_ghz_estimate(records_by_key, n, target_phase, n_blocks=20):
    # the scalar leave-one-out form that the array jackknife replaced, on
    # tables keyed as _collect keys them
    z = _reference_block_statistics(records_by_key["Z"], n, _population, n_blocks)
    parity = [
        ((-1) ** k, _reference_block_statistics(
            records_by_key[(k * math.pi / n) % (2.0 * math.pi)], n, _parity, n_blocks
        ))
        for k in range(2 * n)
    ]
    sign = -1.0 if abs(target_phase % (2.0 * math.pi) - math.pi) <= 1e-9 else 1.0

    def block_mean(blocks, drop=None):
        sums, counts = blocks
        if drop is None:
            return sums.sum() / counts.sum()
        return (sums.sum() - sums[drop]) / (counts.sum() - counts[drop])

    def estimator(drop=None):
        amp = sum(s * block_mean(blocks, drop) for s, blocks in parity)
        return (block_mean(z, drop) + sign * amp / (2.0 * n)) / 2.0

    jk = np.asarray([estimator(drop=j) for j in range(n_blocks)])
    var = (n_blocks - 1) / n_blocks * np.sum((jk - jk.mean()) ** 2)
    return {"fidelity": float(estimator()), "std_error": float(math.sqrt(var))}


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


@pytest.mark.parametrize(
    "phase", [-1e-17, -0.0, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi - 1e-16]
)
def test_x_setting_wraps_phases_at_a_whole_turn_to_zero(phase):
    # -1e-17 % 2pi rounds to 2pi itself, which the setting's own check refuses
    setting = BasisSetting.x(phase)
    assert setting.phase == 0.0 and math.copysign(1.0, setting.phase) == 1.0
    assert setting == BasisSetting.x(0.0)


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


# float.hex of fidelity and std_error, recorded before the jackknife became one
# array expression: photons, eta, n_blocks, target phase, shots per setting, state
ESTIMATOR_PINS = {
    "n1-ideal-eta": (1, 1.0, 2, math.pi, 600, "dephased",
                     "0x1.e666666666666p-1", "0x1.b4e81b4e81c00p-10"),
    "n1-reference": (1, 0.84, 20, math.pi, 2000, "reference",
                     "0x1.e3afa32f7c480p-1", "0x1.d60a09efa8b7ap-9"),
    "n2-dephased": (2, 0.84, 7, 0.0, 2000, "dephased",
                    "0x1.d1ffa78ac6270p-1", "0x1.07dbb03e72ed0p-8"),
    "n2-reference": (2, 1.0, 20, 0.0, 2000, "reference",
                     "0x1.c6ff513cc1e0ap-1", "0x1.13d2db2db4944p-8"),
    # the readout benchmark's input: 9 settings of 20 000 shots at eta = 0.84
    "n3-readout": (3, 0.84, 20, math.pi, 20000, "dephased",
                   "0x1.bb6b1bda531a4p-1", "0x1.0a1976071a1acp-10"),
    "n3-reference": (3, 1.0, 7, math.pi, 2000, "reference",
                     "0x1.a204189374bc6p-1", "0x1.a96c9f0c12967p-9"),
    "n5-dephased": (5, 0.84, 7, math.pi, 3000, "dephased",
                    "0x1.956d8876b0d7cp-1", "0x1.743b1e9a9c58fp-9"),
    "n5-reference": (5, 1.0, 2, math.pi, 1000, "reference",
                     "0x1.6b17e4b17e4b1p-1", "0x1.b4e81b4e81b40p-8"),
}


@pytest.mark.parametrize("case", ESTIMATOR_PINS.values(), ids=ESTIMATOR_PINS.keys())
def test_estimator_results_are_pinned(case):
    photons, eta, n_blocks, target_phase, shots, state, fidelity, std_error = case
    if state == "dephased":
        cycle = build_cycle_map(VERTICAL_ONLY, CycleOptions(indistinguishability=0.9))
    else:
        cycle = preset("reference")
    recs = _collect(run_protocol(cycle, photons), photons + 1, shots, 11 * photons, eta)
    out = estimate_ghz_fidelity(recs, photons + 1, target_phase=target_phase, n_blocks=n_blocks)
    assert (out["fidelity"].hex(), out["std_error"].hex()) == (fidelity, std_error)


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


def _mismeasured(nq, z_setting, x_setting, shots=200):
    """The estimator's keys over records measured in the given settings."""
    st = run_protocol(ideal_cycle_map(), nq - 1)
    recs = {"Z": sample_measurements(st, [z_setting] * nq, shots, seed=0)}
    for k, s in enumerate(ghz_parity_settings(nq)):
        recs[s.phase] = sample_measurements(st, [x_setting(s.phase)] * nq, shots, seed=1 + k)
    return recs


def test_estimator_rejects_records_measured_in_another_setting():
    def passive(phase):
        return BasisSetting(kind="X", phase=phase, routing="passive")

    # X-basis records under "Z": no table holds the all-Z run
    with pytest.raises(MeasurementError, match=r"missing settings: \['Z'\]$"):
        estimate_ghz_fidelity(_mismeasured(3, BasisSetting.x(0.0), BasisSetting.x), 3)
    # passive routing sends half the shots to Z, so no table holds an active parity run
    labels = [f"X({s.phase:.6g})" for s in ghz_parity_settings(3)]
    with pytest.raises(MeasurementError, match=re.escape(f"missing settings: {labels}") + "$"):
        estimate_ghz_fidelity(_mismeasured(3, BasisSetting.z(), passive), 3)
    # every parity table one step off its key: together they still hold every setting
    shifted = _mismeasured(3, BasisSetting.z(), lambda p: BasisSetting.x(p + math.pi / 3.0))
    phases = [s.phase for s in ghz_parity_settings(3)]
    keyed = {"Z": shifted["Z"], **{p: shifted[phases[k - 1]] for k, p in enumerate(phases)}}
    assert estimate_ghz_fidelity(shifted, 3) == _reference_ghz_estimate(keyed, 3, 0.0)
    # phases are compared mod 2 pi: a phase just below 2 pi measures X(0)
    wrapped = _mismeasured(
        3, BasisSetting.z(), lambda p: BasisSetting.x(p if p else 2.0 * math.pi - 1e-12)
    )
    assert estimate_ghz_fidelity(wrapped, 3)["fidelity"] > 0.9


@pytest.mark.parametrize(
    "rekey",
    [lambda p: p + 2.0 * math.pi, lambda p: p - 2.0 * math.pi,
     lambda p: p if p else 2.0 * math.pi - 1e-12],
    ids=["plus-2pi", "minus-2pi", "zero-below-2pi"],
)
def test_estimator_finds_parity_keys_mod_2pi(rekey):
    # the keys are labels only, so rekeying a phase by 2 pi changes nothing
    recs = _collect(run_protocol(ideal_cycle_map(), 2), 3, 200, 5)
    rekeyed = {k if k == "Z" else rekey(k): v for k, v in recs.items()}
    assert estimate_ghz_fidelity(rekeyed, 3) == estimate_ghz_fidelity(recs, 3)


def _reversed_shots(records):
    return ShotRecords(records.settings, records.outcomes, records.combo[::-1])


@pytest.mark.parametrize(
    "relabel",
    [
        lambda recs: {f"table {i}": r for i, r in enumerate(recs.values())},
        lambda recs: dict(reversed(recs.items())),
        lambda recs: {str(i): r for i, r in enumerate(reversed(recs.values()))},
        # a later table of a setting already found is not read: here the same
        # shots in reverse order, which fill the jackknife blocks differently
        lambda recs: {**recs, "spare": _reversed_shots(recs[math.pi / 4.0])},
    ],
    ids=["strings", "reversed", "strings-reversed", "spare-table"],
)
def test_estimator_reads_settings_not_keys(relabel):
    cm = build_cycle_map(VERTICAL_ONLY, CycleOptions(indistinguishability=0.9))
    recs = _collect(run_protocol(cm, 3), 4, 2000, 7, eta=0.84)
    want = estimate_ghz_fidelity(recs, 4, target_phase=math.pi)
    assert estimate_ghz_fidelity(relabel(recs), 4, target_phase=math.pi) == want


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


def test_columnar_readout_matches_per_object_reference():
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
        assert out == _reference_ghz_estimate(ref_recs, 4, math.pi)


def test_sampling_reads_rho_without_a_copy():
    # the draw renormalizes the probabilities, so rho is passed on as it is: one
    # call peaks at joint_outcome_distribution's 2.06 rho (3.06 with a normalized copy)
    st = run_protocol(preset("reference"), 9)
    rho = st.rho
    tracemalloc.start()
    try:
        sample_measurements(st, [BasisSetting.x(0.3)] * 10, 1000, seed=1, eta=0.84)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * rho.nbytes


MIXED_SETTINGS = [
    BasisSetting.z(),
    BasisSetting.x(0.7),
    BasisSetting(kind="X", phase=1.1, routing="passive"),
    BasisSetting(kind="Z", routing="passive"),
    BasisSetting.y(),
]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("eta", [1.0, 0.84])
def test_mixed_distribution_matches_the_dense_identity(n, eta):
    # the orthogonal mass's click patterns: a product over qubits, in the
    # outcome order of joint_outcome_distribution on the maximally mixed state
    for settings in ([BasisSetting.z()] * n, [BasisSetting.x(2.5)] * n, MIXED_SETTINGS[:n]):
        d = 2**n
        _, want = joint_outcome_distribution(np.eye(d) / d, settings, eta=eta)
        got = measurement._mixed_distribution(settings, eta)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


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


# -- outcome-grid statistics: per-qubit factor tables against the row oracle


def _random_rho(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


GRID_SETTINGS = {
    "Z": lambda n: [BasisSetting.z()] * n,
    "X": lambda n: [BasisSetting.x(0.9)] * n,
    "passive": lambda n: [
        BasisSetting(kind="X", phase=0.4, routing="passive"), BasisSetting.z(), BasisSetting.y(),
        BasisSetting(kind="Z", routing="passive"),
    ][:n],
}


@pytest.mark.parametrize("eta", [1.0, 0.84, 0.5])
@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("kind", GRID_SETTINGS)
def test_grid_statistics_match_the_row_oracle(kind, n, eta):
    settings = GRID_SETTINGS[kind](n)
    records = sample_measurements(_random_rho(n, n), settings, 997, seed=n, eta=eta)
    kept = sum(NO_CLICK not in records.outcomes[c] for c in records.combo)
    # block counts that leave a remainder, so the padded reshape is exercised
    blocks = [b for b in (2, 3, 7, 13, 20) if kept % b][:3]
    assert blocks
    population = sum(
        measurement._table(settings, lambda q, o, w=w: float(o == w)) for w in ("early", "late")
    )
    parity = measurement._table(settings, lambda q, o: 1.0 if o == "plus" else -1.0)
    for table, func in ((population, _population), (parity, _parity)):
        assert table.shape == (len(records.outcomes),)
        for n_blocks in blocks:
            got = measurement._block_statistics(records, n, table, n_blocks)
            want = _reference_block_statistics(records, n, func, n_blocks)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


# sha256 of seeded records' combo bytes and of the exact probabilities, recorded when every
# statistic was still evaluated once per joint outcome: state, settings, eta. Three probability
# pins were taken again when a run's superoperators became one product of phase weights with
# the split rows, which moved the probabilities by at most 6.4e-16 relative
READOUT_PINS = {
    "ghz-z-ideal-eta": ("ghz", [BasisSetting.z()] * 4, 1.0,
                        "e66a3322204921c253b03a37b8704836910ccdc37822a59579fdecbefe8a66c6",
                        "f781a8fd879d5ab5f6afbe5544f2b617"),
    "ghz-x-lossy": ("ghz", [BasisSetting.x(math.pi / 4.0)] * 4, 0.84,
                    "c50fc05ec9a6e17d70fd68abc2dc0c0a2eedf4fa5b5d786f57c902ac500679cb",
                    "a632c28188cf67236770b074181ce1b0"),
    "cluster-mixed-half": ("cluster", [
        BasisSetting(kind="X", phase=0.5, routing="passive"), BasisSetting.z(), BasisSetting.y()
    ], 0.5, "759be626498688ea6e940c86ce2c65c99a1566e2ac01622cc30a2f38d9495457",
        "2b0b734ae2de9774c311d8589c67061f"),
    "cluster-passive-z": ("cluster", [
        BasisSetting(kind="Z", routing="passive"),
        BasisSetting(kind="X", phase=2.2, routing="passive"), BasisSetting.x(1.3),
    ], 0.84, "91dfdf96218a99e5016030ac5585593f3d715bf390ed26f8d67a52ce2a874aa6",
        "e33998a37bf758f3fd614ab42c7345f2"),
}


@pytest.mark.parametrize("case", READOUT_PINS.values(), ids=READOUT_PINS.keys())
def test_seeded_records_and_probabilities_are_pinned(case):
    # reference-preset states carry orthogonal-error mass
    kind, settings, eta, combo_sha, probs_sha = case
    st = (run_protocol(preset("reference"), 3) if kind == "ghz"
          else run_protocol(preset("reference"), 2, kind=TargetKind.CLUSTER))
    records = sample_measurements(st, settings, 4000, seed=17, eta=eta)
    assert records.combo.dtype == np.int64
    assert hashlib.sha256(records.combo.tobytes()).hexdigest() == combo_sha
    _, probs = joint_outcome_distribution(st.rho, settings, eta=eta)
    assert hashlib.sha256(probs.tobytes()).hexdigest()[:32] == probs_sha


def test_lossy_estimator_with_uneven_blocks_is_pinned():
    # eta = 0.5 leaves 3000 * 0.5^4 all-click shots, which neither 20 nor 7 divides
    cm = build_cycle_map(VERTICAL_ONLY, CycleOptions(indistinguishability=0.9))
    st = run_protocol(cm, 3)
    recs = {"Z": sample_measurements(st, [BasisSetting.z()] * 4, 3000, seed=33, eta=0.5)}
    for k, s in enumerate(ghz_parity_settings(4)):
        recs[s.phase] = sample_measurements(st, [s] * 4, 3000, seed=34 + k, eta=0.5)
    pins = {20: ("0x1.af1f908946532p-1", "0x1.00a740981dbcdp-7"),
            7: ("0x1.af1f908946532p-1", "0x1.ff63e2ec6c037p-8")}
    for n_blocks, want in pins.items():
        out = estimate_ghz_fidelity(recs, 4, target_phase=math.pi, n_blocks=n_blocks)
        assert (out["fidelity"].hex(), out["std_error"].hex()) == want


STABILIZER_PINS = {
    ("GHZ", 2): ["0x1.ad7beacc48c64p-1", "0x1.cd01ed5290f91p-1", "0x1.eb22f5d9a8090p-1"],
    ("GHZ", 3): ["0x1.8041946884869p-1", "0x1.bc493dd73bc49p-1", "0x1.bd42e83cabe71p-1",
                 "0x1.dfb701ee1a51cp-1"],
    ("GHZ", 4): ["0x1.62961c663cdb1p-1", "0x1.c512260147f41p-1", "0x1.c2b504b2f9aaap-1",
                 "0x1.b2b78c13521d0p-1", "0x1.d9e3d4eb49bc1p-1"],
    ("CLUSTER", 2): ["0x1.ace938df7b0ecp-1", "0x1.cbaa857392195p-1", "0x1.edc19e4edc19ep-1"],
    ("CLUSTER", 3): ["0x1.9713971397139p-1", "0x1.a3fc83bf2c170p-1", "0x1.bb3bea3677d47p-1",
                     "0x1.e371360e47650p-1"],
    ("CLUSTER", 4): ["0x1.a29e6dbe2781ep-1", "0x1.9dc0e60a623f2p-1", "0x1.92b2564ac9593p-1",
                     "0x1.b1e5f75270d04p-1", "0x1.db754eb07ae9dp-1"],
}


@pytest.mark.parametrize(
    "kind, photons", STABILIZER_PINS, ids=[f"{k}-{n}" for k, n in STABILIZER_PINS]
)
def test_stabilizer_sampling_is_pinned(kind, photons):
    st = run_protocol(preset("reference"), photons, kind=TargetKind[kind])
    assert st.orthogonal_error_mass > 0.0
    est = sample_stabilizer_expectations(st, TargetKind[kind], shots=3000, seed=7, eta=0.84)
    assert [e.hex() for e in est] == STABILIZER_PINS[kind, photons]


def _all_click_mean(state, kind, shots, seed, eta):
    """Each frame-signed generator's +-1 product averaged over the all-click shots of
    the records that sample_measurements draws with seed + g, read in shot order."""
    n = state.photon_count
    estimates = []
    for g, (sign, label) in enumerate(zip(_frame_signs(n, kind), canonical_stabilizers(n, kind))):
        settings = [BasisSetting.x(0.0) if c == "X" else BasisSetting.z() for c in label]
        records = sample_measurements(state, settings, shots, seed=seed + g, eta=eta)
        value = np.array([
            math.prod(-1.0 if c != "I" and o in ("late", "minus") else 1.0 for c, o in zip(label, outs))
            for outs in records.outcomes
        ])
        clicked = np.array([NO_CLICK not in outs for outs in records.outcomes])
        values = value[records.combo][clicked[records.combo]]
        estimates.append(sign * float(values.sum()) / values.size)
    return estimates


@pytest.mark.parametrize("eta", [1.0, 0.84, 0.5])
@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("kind", list(TargetKind), ids=lambda k: k.name)
def test_stabilizer_estimates_are_the_all_click_means_of_the_records(kind, n, eta):
    cm = build_cycle_map(
        VERTICAL_ONLY, CycleOptions(rotation_angle=kind.rotation_angle, indistinguishability=0.9)
    )
    st = run_protocol(cm, n, kind=kind)
    for shots, seed in ((777, n), (3000, 11 * n)):
        est = sample_stabilizer_expectations(st, kind, shots=shots, seed=seed, eta=eta)
        want = _all_click_mean(st, kind, shots, seed, eta)
        assert [e.hex() for e in est] == [w.hex() for w in want]


@pytest.mark.parametrize("kind", list(TargetKind), ids=lambda k: k.name)
def test_stabilizer_estimates_with_orthogonal_mass_are_the_all_click_means(kind):
    st = run_protocol(preset("reference"), 3, kind=kind)
    assert st.orthogonal_error_mass > 0.0
    for seed in range(5):
        est = sample_stabilizer_expectations(st, kind, shots=10000, seed=seed, eta=0.84)
        want = _all_click_mean(st, kind, 10000, seed, 0.84)
        assert [e.hex() for e in est] == [w.hex() for w in want]


@pytest.mark.parametrize("kind", list(TargetKind), ids=lambda k: k.name)
def test_stabilizer_sampling_without_an_all_click_shot_names_the_generator(kind):
    st = run_protocol(preset("reference"), 2, kind=kind)
    first = canonical_stabilizers(2, kind)[0]
    with pytest.raises(MeasurementError, match=f"^no all-click shots for stabilizer {first}$"):
        sample_stabilizer_expectations(st, kind, shots=500, seed=1, eta=0.0)


def test_cached_all_click_tables_are_read_only():
    for settings in (
        (BasisSetting.z(),) * 3,
        (BasisSetting.x(1.1), BasisSetting.z()),
        (BasisSetting(kind="X", routing="passive"), BasisSetting.y()),
    ):
        keep = measurement._all_click(settings)
        outcomes, _ = joint_outcome_distribution(np.eye(2 ** len(settings)), settings)
        assert keep.dtype == bool
        assert keep.tolist() == [NO_CLICK not in outs for outs in outcomes]
        assert not keep.flags.writeable
        with pytest.raises(ValueError):
            keep[0] = False


@pytest.mark.parametrize("kind", list(TargetKind), ids=lambda k: k.name)
def test_cached_stabilizer_sign_tables_match_a_fresh_table_and_are_read_only(kind):
    for n in (1, 3):
        for label in canonical_stabilizers(n, kind):
            codes = tuple("IXZ".index(c) for c in label)
            settings, table = measurement._sign_table(codes)
            assert measurement._sign_table(codes)[1] is table
            assert [s.kind for s in settings] == ["X" if c == "X" else "Z" for c in label]
            fresh = measurement._table(
                settings, lambda q, o: -1.0 if label[q] != "I" and o in ("late", "minus") else 1.0
            )
            assert table.tolist() == fresh.tolist()
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0


def test_mutating_a_returned_povm_leaves_the_distribution_unchanged():
    settings = [BasisSetting.x(0.4), BasisSetting(kind="Z", routing="passive")]
    rho = _random_rho(2, 0)
    _, want = joint_outcome_distribution(rho, settings, eta=0.84)
    for s in settings:
        for _, op in povm_elements(s, 0.84):
            op[...] = 7.0
    _, got = joint_outcome_distribution(rho, settings, eta=0.84)
    assert got.tobytes() == want.tobytes()


def test_cached_povm_stacks_are_read_only():
    for s in (BasisSetting.z(), BasisSetting.x(1.1), BasisSetting(kind="X", routing="passive")):
        labels, ops = measurement._povm(s, 0.84)
        assert ops.shape == (len(labels), 2, 2) and labels[-1] == NO_CLICK
        assert not ops.flags.writeable
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 1.0


@pytest.mark.parametrize("entry", ["Z", None, [BasisSetting.z()], {"kind": "Z"}])
def test_settings_entries_must_be_basis_settings(entry):
    # an unhashable entry is refused before the cached POVM lookup, not with a TypeError
    st = run_protocol(ideal_cycle_map(), 1)
    settings = [BasisSetting.z(), entry]
    with pytest.raises(MeasurementError, match="settings"):
        sample_measurements(st, settings, 10)
    with pytest.raises(MeasurementError, match="settings"):
        joint_outcome_distribution(np.eye(4) / 4.0, settings)


@pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, True, "3", None])
def test_ghz_parity_settings_needs_a_whole_qubit_count(n):
    with pytest.raises(MeasurementError, match="n_qubits"):
        ghz_parity_settings(n)


def test_readout_refuses_arguments_of_the_wrong_type():
    with pytest.raises(MeasurementError, match="^state must be a HybridState"):
        sample_stabilizer_expectations(np.eye(8) / 8.0, TargetKind.CLUSTER, shots=100)
    for records in ([], (), "Z"):
        with pytest.raises(MeasurementError, match="^records_by_setting must map"):
            estimate_ghz_fidelity(records, 4)

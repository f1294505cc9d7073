import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from timebinsim import cyclemap
from timebinsim.cyclemap import CycleMap, CycleOptions, build_cycle_map, ideal_cycle_map
from timebinsim.params import BranchingBetas, ParamError, betas_from_branching, preset
from timebinsim.protocol import (
    PHOTON_CAP,
    CapacityError,
    NoiseConfig,
    TargetKind,
    canonical_stabilizers,
    conditional_fidelity,
    drift_diffusion_from_t2,
    ideal_target,
    overhauser_average,
    run_protocol,
    run_protocol_cycles,
    stabilizer_expectations,
)

VERTICAL_ONLY = BranchingBetas(1.0, 0.0, 0.0, 0.0)
BRANCHED = betas_from_branching(20.0, beta_total=0.96)


def _reference_protocol(cycles):
    """Per-Kraus einsum kernel with explicit trace normalization.

    The slow path that the single-superoperator kernel of run_protocol_cycles
    replaced; kept here as its oracle.
    """
    psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    orth, success = 0.0, 1.0
    for cycle in cycles:
        d = rho.shape[0]
        r = d // 2
        tr_in = float(np.trace(rho).real)
        spin_rho = np.trace(rho.reshape(2, r, 2, r), axis1=1, axis2=3)
        det = cycle.detected_weight(spin_rho / tr_in) * tr_in
        p_o = cycle.orthogonal_prob
        t = rho.reshape(2, r, 2, r)
        out = np.zeros((2, 2, r, 2, 2, r), dtype=complex)
        for k in cycle.kraus:
            kt = k.reshape(2, 2, 2)  # [spin_out, photon, spin_in]
            out += np.einsum("api,irjq,bcj->aprbcq", kt, t, kt.conj(), optimize=True)
        rho = out.transpose(0, 2, 1, 3, 5, 4).reshape(2 * d, 2 * d) * (1.0 - p_o)
        orth = orth * det / tr_in + p_o * det
        total = float(np.trace(rho).real) + orth
        success *= total
        rho = rho / total
        orth = orth / total
    return rho, success, orth


def _dense_ideal_psi(n, kind):
    """The ideal output as a dense 2^(N+1) vector, one einsum per round.

    The dense target that ideal_target's HybridState replaced; kept here as
    its oracle.
    """
    v = ideal_cycle_map(kind.rotation_angle).kraus[0].reshape(2, 2, 2)  # [spin_out, photon, spin_in]
    psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for _ in range(n):
        psi = np.einsum("api,ir->arp", v, psi.reshape(2, -1)).reshape(-1)
    return psi


# (betas, options, Kraus term count): every imperfection switch of the map
ORACLE_MAPS = [
    (VERTICAL_ONLY, CycleOptions(), 1),
    (VERTICAL_ONLY, CycleOptions(indistinguishability=0.93), 2),
    (BRANCHED, CycleOptions(rotation_angle=math.pi / 2.0), 2),
    (BRANCHED, CycleOptions(filter_on=False, indistinguishability=0.9), 4),
    (VERTICAL_ONLY, CycleOptions(off_resonant_prob=0.05, rotation_error_std=0.2), 6),
    (
        BRANCHED,
        CycleOptions(
            rotation_angle=math.pi / 2.0,
            off_resonant_prob=0.04,
            indistinguishability=0.95,
            orthogonal_error_prob=0.02,
        ),
        8,
    ),
    (
        BRANCHED,
        CycleOptions(
            off_resonant_prob=0.03,
            indistinguishability=0.9,
            rotation_error_std=0.15,
            echo=False,
            quasistatic_detuning=0.07,
            drift_phase=0.1,
            half_cycle_time=13.5,
        ),
        16,
    ),
]


def _assert_matches_reference(state, cycles):
    rho, success, orth = _reference_protocol(cycles)
    scale = np.abs(rho).max()
    assert np.abs(state.rho - rho).max() <= 1e-12 * scale
    assert state.success_probability == pytest.approx(success, rel=1e-12)
    assert state.orthogonal_error_mass == pytest.approx(orth, rel=1e-12, abs=1e-300)


def test_ideal_protocol_reaches_unit_fidelity():
    for kind in TargetKind:
        cm = ideal_cycle_map(kind.rotation_angle)
        for n in (1, 2, 4):
            st = run_protocol(cm, n, kind=kind)
            assert st.success_probability == pytest.approx(1.0)
            assert st.orthogonal_error_mass == pytest.approx(0.0)
            f = conditional_fidelity(st, ideal_target(n, kind))
            assert f == pytest.approx(1.0, abs=1e-12)


def test_ideal_target_single_photon_ghz():
    # one cycle from (|down> + |up>)/sqrt(2): a spin-photon Bell pair up to
    # the final pi rotation
    target = ideal_target(1, TargetKind.GHZ)
    assert target.superoperators.shape == (1, 1, 16, 4)
    rho = target.rho
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.trace(rho @ rho).real == pytest.approx(1.0)
    probs = np.diag(rho).real
    # two equal-weight components, spin correlated with the time bin
    assert sorted(probs)[2:] == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("kind", list(TargetKind))
def test_ideal_target_matches_dense_psi(kind):
    for n in range(1, 9):
        target = ideal_target(n, kind)
        assert target.success_probability == pytest.approx(1.0, rel=1e-12)
        assert target.orthogonal_error_mass == 0.0
        psi = _dense_ideal_psi(n, kind)
        assert np.abs(target.rho - np.outer(psi, psi.conj())).max() <= 1e-12, n


def test_ideal_target_frees_its_dense_rho():
    target = ideal_target(9, TargetKind.GHZ)
    rho = target.rho
    dead = weakref.ref(target)
    del target
    gc.collect()
    assert dead() is None
    again = ideal_target(9, TargetKind.GHZ)
    assert "rho" not in vars(again)
    assert np.array_equal(again.rho, rho)
    assert not again.superoperators.flags.writeable
    with pytest.raises(ValueError):
        again.superoperators[0, 0, 0, 0] = 0.5


@pytest.mark.parametrize("n", [2.7, 3.0, True, "3", None, 0, -1])
def test_photon_count_must_be_a_whole_number(n):
    p = preset("reference")
    ideal_target(1, TargetKind.GHZ)  # a cached 1 must not answer for True
    noise = NoiseConfig(overhauser_sigma=0.1, sample_count=2)
    calls = (
        lambda: run_protocol(p, n),
        lambda: run_protocol(ideal_cycle_map(), n),
        lambda: ideal_target(n, TargetKind.GHZ),
        lambda: overhauser_average(p, n, TargetKind.GHZ, noise),
    )
    for call in calls:
        with pytest.raises(ParamError, match="n_photons"):
            call()


def test_photon_count_takes_numpy_integers():
    assert run_protocol(preset("reference"), np.int64(3)).photon_count == 3
    assert ideal_target(np.int32(2), TargetKind.CLUSTER).photon_count == 2


def test_dephasing_only_oracles():
    for ind in (0.9, 0.96, 0.98):
        opts = CycleOptions(indistinguishability=ind)
        for n in range(1, 7):
            for kind, oracle in (
                (TargetKind.GHZ, (1.0 + ind**n) / 2.0),
                (TargetKind.CLUSTER, ((1.0 + ind) / 2.0) ** n),
            ):
                cm = build_cycle_map(
                    VERTICAL_ONLY,
                    CycleOptions(rotation_angle=kind.rotation_angle, indistinguishability=ind),
                )
                st = run_protocol(cm, n, kind=kind)
                f = conditional_fidelity(st, ideal_target(n, kind))
                assert f == pytest.approx(oracle, abs=1e-6)


def test_branching_only_matches_first_order():
    for b in (50.0, 100.0, 200.0):
        cm = build_cycle_map(betas_from_branching(b))
        for n in (1, 3, 6):
            st = run_protocol(cm, n)
            infid = 1.0 - conditional_fidelity(st, ideal_target(n, TargetKind.GHZ))
            first_order = n / (2.0 * (b + 1.0)) - 1.0 / (4.0 * (b + 1.0))
            assert infid == pytest.approx(first_order, rel=0.15)


def test_capacity_cap():
    # the cap applies where a dense object is built, not to the run itself
    st = run_protocol(ideal_cycle_map(), PHOTON_CAP + 1)
    with pytest.raises(CapacityError, match=f"cap of {PHOTON_CAP}"):
        st.rho
    with pytest.raises(CapacityError, match=f"cap of {PHOTON_CAP}"):
        ideal_target(PHOTON_CAP + 1, TargetKind.GHZ).rho
    with pytest.raises(ParamError):
        run_protocol(ideal_cycle_map(), 0)


def test_stabilizers_on_ideal_states():
    for kind in TargetKind:
        for n in (1, 2, 3):
            gens = canonical_stabilizers(n, kind)
            assert len(gens) == n + 1
            st = run_protocol(ideal_cycle_map(kind.rotation_angle), n, kind=kind)
            for val in stabilizer_expectations(st, kind):
                assert val == pytest.approx(1.0, abs=1e-10)


def test_stabilizers_degrade_with_noise():
    st = run_protocol(preset("reference"), 3, kind=TargetKind.CLUSTER)
    vals = stabilizer_expectations(st, TargetKind.CLUSTER)
    assert all(0.5 < v < 1.0 for v in vals)


def test_echo_invariance_at_protocol_level():
    p = preset("reference")
    tgt = ideal_target(3, TargetKind.GHZ)
    f0 = conditional_fidelity(run_protocol(p, 3), tgt)
    for delta in (-0.5 * p.gamma, 0.3 * p.gamma, 0.5 * p.gamma):
        st = run_protocol(p, 3, options=CycleOptions(quasistatic_detuning=delta))
        assert abs(conditional_fidelity(st, tgt) - f0) < 1e-12


def test_no_echo_dephases():
    p = preset("reference")
    tgt = ideal_target(2, TargetKind.GHZ)
    f0 = conditional_fidelity(run_protocol(p, 2, options=CycleOptions(echo=False)), tgt)
    sigma = math.sqrt(2.0) / p.t2_star
    st = run_protocol(
        p, 2, options=CycleOptions(echo=False, quasistatic_detuning=sigma)
    )
    assert f0 - conditional_fidelity(st, tgt) > 0.01


def test_noise_averaging_is_seed_deterministic():
    p = preset("reference")
    noise = NoiseConfig(overhauser_sigma=0.3, sample_count=8, rng_seed=3)
    opts = CycleOptions(echo=False)
    a = overhauser_average(p, 2, TargetKind.GHZ, noise, options=opts)
    b = overhauser_average(p, 2, TargetKind.GHZ, noise, options=opts)
    assert a == b
    st1 = run_protocol(p, 2, noise=noise, options=opts)
    st2 = run_protocol(p, 2, noise=noise, options=opts)
    assert np.array_equal(st1.rho, st2.rho)


def test_noise_calls_share_the_split_superoperators(monkeypatch):
    p = preset("reference")
    noise = NoiseConfig(overhauser_sigma=0.3, drift_diffusion=0.01, sample_count=4, rng_seed=5)
    opts = CycleOptions(echo=False)
    first = run_protocol(p, 3, noise=noise, options=opts)
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_cycle_map(*args, **kwargs)

    monkeypatch.setattr(cyclemap, "build_cycle_map", counted)
    second = run_protocol(p, 3, noise=noise, options=opts)
    assert builds == []
    for field in ("superoperators", "success_probability", "orthogonal_error_mass"):
        assert np.array_equal(getattr(first, field), getattr(second, field))
    assert overhauser_average(p, 3, TargetKind.GHZ, noise, options=opts) == (
        overhauser_average(p, 3, TargetKind.GHZ, noise, options=opts)
    )
    # a noise-free run is the same path's one-sample case
    run_protocol(p, 3, options=opts)
    assert builds == []
    # other options are another cache entry
    run_protocol(p, 3, noise=noise, options=replace(opts, drift_phase=0.2))
    assert len(builds) == 3


def test_noise_requires_params():
    noise = NoiseConfig(overhauser_sigma=0.1, sample_count=2)
    with pytest.raises(ParamError):
        run_protocol(ideal_cycle_map(), 2, noise=noise)


def test_options_require_params():
    with pytest.raises(ParamError, match="options"):
        run_protocol(ideal_cycle_map(), 2, options=CycleOptions(echo=False))


@pytest.mark.parametrize("kind", list(TargetKind))
def test_params_refuse_a_rotation_angle(kind):
    # the kind sets the angle of a PhysicalParams run; another one was silently replaced
    p = preset("reference")
    opts = CycleOptions(rotation_angle=0.3)
    noise = NoiseConfig(overhauser_sigma=0.1, sample_count=2)
    for call in (
        lambda: run_protocol(p, 3, kind=kind, options=opts),
        lambda: run_protocol(p, 3, kind=kind, noise=noise, options=opts),
    ):
        with pytest.raises(ParamError, match="rotation_angle"):
            call()
    default = run_protocol(p, 3, kind=kind)
    # the kind's own angle, and the default pi, which looks unset, are accepted
    for angle in (kind.rotation_angle, math.pi):
        explicit = run_protocol(p, 3, kind=kind, options=CycleOptions(rotation_angle=angle))
        assert np.array_equal(explicit.superoperators, default.superoperators)


@pytest.mark.parametrize(
    "field, value",
    [
        ("overhauser_sigma", -0.1),
        ("overhauser_sigma", math.nan),
        ("overhauser_sigma", math.inf),
        ("drift_diffusion", -1e-6),
        ("drift_diffusion", math.nan),
        ("drift_diffusion", math.inf),
        ("sample_count", 2.5),
        ("sample_count", "3"),
        ("sample_count", True),
        ("rng_seed", 1.5),
        ("rng_seed", "0"),
        ("rng_seed", False),
        ("rng_seed", -1),
    ],
)
def test_noise_config_rejects_bad_fields(field, value):
    kwargs = {"overhauser_sigma": 0.1, field: value}
    with pytest.raises(ParamError, match=field):
        NoiseConfig(**kwargs)


@pytest.mark.parametrize("echo", [True, False])
def test_noise_samples_share_one_success_probability(echo):
    # detuning and drift only set phases of the main Kraus block, so every
    # sample keeps the noise-free success probability and an equal-weight
    # average over samples is the success-weighted one
    p = preset("reference")
    noise = NoiseConfig(
        overhauser_sigma=0.5,
        drift_diffusion=drift_diffusion_from_t2(p.t2, p.t_cycle),
        sample_count=20,
        rng_seed=5,
    )
    opts = CycleOptions(echo=echo)
    state = run_protocol(p, 4, noise=noise, options=opts)
    assert len(state.superoperators) == 20
    clean = run_protocol(p, 4, options=opts)
    for name in ("success_probability", "orthogonal_error_mass"):
        assert getattr(state, name) == pytest.approx(getattr(clean, name), rel=1e-12), name


def test_drift_diffusion_calibration():
    # per-cycle phase variance D * t_cycle^3 reproduces 2 (t_cycle / t2)^2
    t2, tc = 2700.0, 27.0
    d = drift_diffusion_from_t2(t2, tc)
    assert d * tc**3 == pytest.approx(4.0 * 0.5 * (tc / t2) ** 2)


def test_run_protocol_cycles_mixed_sequence():
    cycles = [ideal_cycle_map(), build_cycle_map(betas_from_branching(50.0))]
    st = run_protocol_cycles(cycles)
    assert st.photon_count == 2
    assert 0.9 < st.success_probability <= 1.0


def test_run_protocol_cycles_rejects_empty_sequence():
    with pytest.raises(ParamError, match="cycles"):
        run_protocol_cycles([])


def test_run_protocol_cycles_rejects_a_map_that_detects_nothing():
    dark = CycleMap(kraus=[np.zeros((4, 2), dtype=complex)])
    with pytest.raises(ParamError, match="lost all probability"):
        run_protocol_cycles([ideal_cycle_map(), dark])


def test_conditional_fidelity_dimension_check():
    # a photon-count mismatch, a dense vector and a multi-sample state
    st = run_protocol(ideal_cycle_map(), 2)
    bad_targets = (
        ideal_target(3, TargetKind.GHZ),
        _dense_ideal_psi(2, TargetKind.GHZ),
        STATES["noise-averaged"](TargetKind.GHZ, 2),
    )
    for target in bad_targets:
        with pytest.raises(ParamError, match="target"):
            conditional_fidelity(st, target)


@pytest.mark.parametrize("betas, opts, n_kraus", ORACLE_MAPS)
def test_superoperator_kernel_matches_per_kraus_reference(betas, opts, n_kraus):
    cm = build_cycle_map(betas, opts)
    assert len(cm.kraus) == n_kraus
    for n in range(1, 7):
        _assert_matches_reference(run_protocol_cycles([cm] * n), [cm] * n)


def test_superoperator_kernel_matches_reference_on_mixed_sequence():
    cycles = [build_cycle_map(b, o) for b, o, _ in ORACLE_MAPS]
    cycles.append(build_cycle_map(preset("reference")))
    for n in range(1, len(cycles) + 1):
        _assert_matches_reference(run_protocol_cycles(cycles[:n]), cycles[:n])


_PAULI = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Z": np.diag([1.0, -1.0])}


def _dense_pauli(label):
    op = np.ones((1, 1), dtype=complex)
    for c in label:
        op = np.kron(op, _PAULI[c])
    return op


def test_stabilizer_expectations_match_full_trace():
    for kind in TargetKind:
        for betas, opts, _ in ORACLE_MAPS[1::2]:
            cm = build_cycle_map(betas, replace(opts, rotation_angle=kind.rotation_angle))
            for n in range(1, 6):
                st = run_protocol(cm, n, kind=kind)
                psi = _dense_ideal_psi(n, kind)
                den = np.trace(st.rho).real + st.orthogonal_error_mass
                vals = stabilizer_expectations(st, kind)
                for val, label in zip(vals, canonical_stabilizers(n, kind)):
                    op = _dense_pauli(label)
                    # frame sign: the generator's sign on the ideal state
                    sign = np.sign((psi.conj() @ op @ psi).real)
                    full = sign * np.trace(op @ st.rho).real / den
                    assert val == pytest.approx(full, rel=1e-12, abs=1e-15), label


def _per_cycle_noisy_states(params, n, kind, noise, options):
    """Noise samples drawn as run_protocol does, with a fresh map per cycle.

    Sample i draws from child seed i: the detuning shift first, then one
    scalar drift kick per cycle; both add to the options' static offsets.
    """
    base = replace(options, rotation_angle=kind.rotation_angle)
    drift_std = math.sqrt(noise.drift_diffusion * params.t_cycle**3)
    states = []
    for seq in np.random.SeedSequence(noise.rng_seed).spawn(noise.sample_count):
        rng = np.random.default_rng(seq)
        delta = rng.normal(0.0, noise.overhauser_sigma) if noise.overhauser_sigma else 0.0
        cycles = []
        for _ in range(n):
            kick = rng.normal(0.0, drift_std) if drift_std else 0.0
            opts = replace(
                base,
                quasistatic_detuning=base.quasistatic_detuning + delta,
                drift_phase=base.drift_phase + kick,
            )
            cycles.append(build_cycle_map(params, opts))
        states.append(run_protocol_cycles(cycles))
    return states


def _assert_matches_per_cycle_oracle(params, n, kind, noise, options):
    states = _per_cycle_noisy_states(params, n, kind, noise, options)
    st = run_protocol(params, n, kind=kind, noise=noise, options=options)
    want = np.concatenate([s.superoperators for s in states])
    assert np.abs(st.superoperators - want).max() <= 1e-12 * np.abs(want).max()
    # every sample has the batched state's success probability and orthogonal mass
    for s in states:
        for name in ("success_probability", "orthogonal_error_mass"):
            assert getattr(st, name) == pytest.approx(
                getattr(s, name), rel=1e-12, abs=1e-300
            ), name
    fids = np.asarray([conditional_fidelity(s, ideal_target(n, kind)) for s in states])
    avg = overhauser_average(params, n, kind, noise, options=options)
    assert avg["mean_fidelity"] == pytest.approx(fids.mean(), rel=1e-12)
    std_error = fids.std(ddof=1) / math.sqrt(len(fids)) if len(fids) > 1 else 0.0
    assert avg["std_error"] == pytest.approx(std_error, rel=1e-12, abs=1e-12)


def test_driftless_noise_shares_one_map_per_sample():
    p = preset("reference")
    noise = NoiseConfig(overhauser_sigma=0.3, sample_count=6, rng_seed=11)
    opts = CycleOptions(echo=False)
    for kind in TargetKind:
        states = _per_cycle_noisy_states(p, 3, kind, noise, opts)
        fids = np.asarray([conditional_fidelity(s, ideal_target(3, kind)) for s in states])
        avg = overhauser_average(p, 3, kind, noise, options=opts)
        assert avg["mean_fidelity"] == pytest.approx(float(fids.mean()), rel=1e-12)
        assert avg["std_error"] == pytest.approx(
            float(fids.std(ddof=1) / math.sqrt(len(fids))), rel=1e-12
        )
        st = run_protocol(p, 3, kind=kind, noise=noise, options=opts)
        rho = sum(s.rho for s in states) / len(states)
        assert np.abs(st.rho - rho).max() <= 1e-12 * np.abs(rho).max()
        assert st.success_probability == pytest.approx(
            sum(s.success_probability for s in states) / len(states), rel=1e-12
        )
        assert st.orthogonal_error_mass == pytest.approx(
            sum(s.orthogonal_error_mass for s in states) / len(states), rel=1e-12
        )


# every option the noise path passes through to the map, with static offsets
NOISE_ORACLE_OPTIONS = [
    CycleOptions(),
    CycleOptions(echo=False),
    CycleOptions(quasistatic_detuning=0.05, drift_phase=0.4),
    CycleOptions(echo=False, quasistatic_detuning=-0.02, drift_phase=0.3),
    CycleOptions(off_resonant_prob=0.04, rotation_error_std=0.15, filter_on=False),
    CycleOptions(echo=False, off_resonant_prob=0.03, rotation_error_std=0.2, filter_on=False),
]


@pytest.mark.parametrize("options", NOISE_ORACLE_OPTIONS)
@pytest.mark.parametrize("drift", [False, True])
@pytest.mark.parametrize("preset_name", ["reference", "improved"])
def test_batched_noise_state_matches_per_cycle_maps(options, drift, preset_name):
    # the phase-split superoperators and the batched spin recursion against
    # one build_cycle_map per cycle and one run_protocol_cycles per sample
    p = preset(preset_name)
    noise = NoiseConfig(
        overhauser_sigma=0.4,
        drift_diffusion=drift_diffusion_from_t2(150.0, p.t_cycle) if drift else 0.0,
        sample_count=5,
        rng_seed=13,
    )
    for kind in TargetKind:
        for n in range(1, 7):
            _assert_matches_per_cycle_oracle(p, n, kind, noise, options)


@pytest.mark.parametrize("echo", [True, False])
def test_noise_path_keeps_static_phase_offsets(echo):
    # with no sampled noise, the noise path is the noise-free run at the
    # caller's detuning and drift phase
    p = preset("reference")
    opts = CycleOptions(echo=echo, quasistatic_detuning=0.3, drift_phase=0.7)
    noise = NoiseConfig(0.0, sample_count=3)
    for kind in TargetKind:
        clean = run_protocol(p, 4, kind=kind, options=opts)
        f0 = conditional_fidelity(clean, ideal_target(4, kind))
        avg = overhauser_average(p, 4, kind, noise, options=opts)
        assert avg["mean_fidelity"] == pytest.approx(f0, rel=1e-12)
        st = run_protocol(p, 4, kind=kind, noise=noise, options=opts)
        want = clean.superoperators[0]
        for sample in st.superoperators:
            assert np.abs(sample - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("options", NOISE_ORACLE_OPTIONS)
@pytest.mark.parametrize("preset_name", ["reference", "improved"])
def test_params_run_matches_one_built_map(options, preset_name):
    # a noise-free PhysicalParams run goes through the phase split; the
    # map built directly for the kind's rotation angle is its oracle
    p = preset(preset_name)
    for kind in TargetKind:
        cm = build_cycle_map(p, replace(options, rotation_angle=kind.rotation_angle))
        for n in (1, 4):
            st = run_protocol(p, n, kind=kind, options=options)
            want = run_protocol_cycles([cm] * n)
            scale = np.abs(want.superoperators).max()
            assert np.abs(st.superoperators - want.superoperators).max() <= 1e-12 * scale
            for name in ("success_probability", "orthogonal_error_mass"):
                assert getattr(st, name) == pytest.approx(
                    getattr(want, name), rel=1e-12, abs=1e-300
                ), name
            target = ideal_target(n, kind)
            assert conditional_fidelity(st, target) == pytest.approx(
                conditional_fidelity(want, target), rel=1e-12
            )


# -- oracles: the per-round contractions against the dense rho they replace


def _dephasing_map(kind):
    return build_cycle_map(
        VERTICAL_ONLY, CycleOptions(rotation_angle=kind.rotation_angle, indistinguishability=0.93)
    )


def _drifting_cycles(kind, n):
    params = preset("reference")
    return [
        build_cycle_map(
            params,
            CycleOptions(
                rotation_angle=kind.rotation_angle,
                echo=False,
                quasistatic_detuning=0.02 * (t + 1),
                drift_phase=0.3 * math.sin(t),
            ),
        )
        for t in range(n)
    ]


_NOISE = NoiseConfig(
    overhauser_sigma=0.4, drift_diffusion=2e-5, sample_count=4, rng_seed=7
)

# name -> state of n photons for a target kind
STATES = {
    "dephasing-oracle": lambda kind, n: run_protocol(_dephasing_map(kind), n, kind=kind),
    "improved": lambda kind, n: run_protocol(preset("improved"), n, kind=kind),
    "drifting": lambda kind, n: run_protocol_cycles(_drifting_cycles(kind, n)),
    "noise-averaged": lambda kind, n: run_protocol(
        preset("reference"), n, kind=kind, noise=_NOISE, options=CycleOptions(echo=False)
    ),
}


def _dense_fidelity(state, psi):
    return (psi.conj() @ state.rho @ psi).real / (
        np.trace(state.rho).real + state.orthogonal_error_mass
    )


@pytest.mark.parametrize("name", sorted(STATES))
@pytest.mark.parametrize("kind", list(TargetKind))
def test_contraction_matches_dense_fidelity(name, kind):
    for n in range(1, 9):
        st = STATES[name](kind, n)
        assert conditional_fidelity(st, ideal_target(n, kind)) == pytest.approx(
            _dense_fidelity(st, _dense_ideal_psi(n, kind)), rel=1e-12
        ), n


def test_contraction_matches_dense_fidelity_for_a_generic_target():
    # a mixed, complex, non-ideal target with orthogonal mass: Tr(rho_T rho) / (tr + orth)
    for kind in TargetKind:
        for n in range(1, 8):
            target = STATES["drifting"](kind, n)
            assert target.orthogonal_error_mass > 0.0
            assert np.abs(target.rho.imag).max() > 1e-3
            for name in ("improved", "noise-averaged"):
                st = STATES[name](kind, n)
                dense = np.trace(target.rho @ st.rho).real / (
                    np.trace(st.rho).real + st.orthogonal_error_mass
                )
                assert conditional_fidelity(st, target) == pytest.approx(
                    dense, rel=1e-12
                ), (kind, name, n)


@pytest.mark.parametrize("name", sorted(STATES))
def test_spin_recursion_matches_dense_trace(name):
    for kind in TargetKind:
        for n in range(1, 9):
            st = STATES[name](kind, n)
            assert 1.0 - st.orthogonal_error_mass == pytest.approx(
                np.trace(st.rho).real, rel=1e-12
            )


def test_noise_averaged_stabilizers_match_full_trace():
    for kind in TargetKind:
        for n in range(1, 6):
            st = STATES["noise-averaged"](kind, n)
            psi = _dense_ideal_psi(n, kind)
            den = np.trace(st.rho).real + st.orthogonal_error_mass
            scale = np.abs(st.rho).max()
            for val, label in zip(stabilizer_expectations(st, kind), canonical_stabilizers(n, kind)):
                op = _dense_pauli(label)
                sign = np.sign((psi.conj() @ op @ psi).real)
                full = sign * np.trace(op @ st.rho).real / den
                assert abs(val - full) <= 1e-12 * scale, label


# -- beyond the dense cap


def test_run_protocol_beyond_cap_builds_no_rho():
    st = run_protocol(_dephasing_map(TargetKind.GHZ), 1000)
    assert st.photon_count == 1000
    assert "rho" not in vars(st)
    assert st.success_probability == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind", list(TargetKind))
def test_stabilizers_beyond_cap_match_dephasing_closed_form(kind):
    # photon dephasing scales a generator by I once per photon X factor
    n, ind = 100, 0.93
    st = run_protocol(_dephasing_map(kind), n, kind=kind)
    for val, label in zip(stabilizer_expectations(st, kind), canonical_stabilizers(n, kind)):
        assert val == pytest.approx(ind ** label[1:].count("X"), abs=1e-12), label
    assert "rho" not in vars(st)


@pytest.mark.parametrize("kind", list(TargetKind))
@pytest.mark.parametrize("n", [100, 1000])
def test_fidelity_beyond_cap_matches_dephasing_closed_form(kind, n):
    ind = 0.93
    st = run_protocol(_dephasing_map(kind), n, kind=kind)
    target = ideal_target(n, kind)
    exact = (1.0 + ind**n) / 2.0 if kind is TargetKind.GHZ else ((1.0 + ind) / 2.0) ** n
    assert conditional_fidelity(st, target) == pytest.approx(exact, rel=1e-12)
    assert "rho" not in vars(st) and "rho" not in vars(target)

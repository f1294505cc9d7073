import gc
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from timebinsim import cyclemap, protocol
from timebinsim.cyclemap import CycleMap, CycleOptions, build_cycle_map, ideal_cycle_map
from timebinsim.measurement import sample_stabilizer_expectations
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
        lambda: canonical_stabilizers(n, TargetKind.GHZ),
    )
    for call in calls:
        with pytest.raises(ParamError, match="n_photons"):
            call()


@pytest.mark.parametrize("kind", ["ghz", None, 1], ids=["text", "none", "int"])
def test_target_kind_must_be_a_target_kind(kind):
    p = preset("reference")
    state = run_protocol(p, 2)
    calls = (
        lambda: canonical_stabilizers(2, kind),
        lambda: run_protocol(p, 2, kind=kind),
        lambda: ideal_target(2, kind),
        lambda: stabilizer_expectations(state, kind),
        lambda: overhauser_average(p, 2, kind, NoiseConfig(overhauser_sigma=0.1, sample_count=2)),
        lambda: sample_stabilizer_expectations(state, kind, shots=10),
    )
    for call in calls:
        with pytest.raises(ParamError, match=f"^kind must be a TargetKind, got {kind!r}$"):
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


# one imperfection on a vertical-only source: its option, and the exact fidelity at strength x
_SINGLE_SOURCE_FORMS = {
    "orthogonal": ("orthogonal_error_prob", lambda kind, x, n: (1.0 - x) ** n),
    "off-resonant": (
        "off_resonant_prob",
        lambda kind, x, n: (
            (1.0 + (1.0 - x) ** n) / 2.0 if kind is TargetKind.GHZ else (1.0 - x / 2.0) ** n
        ),
    ),
    "rotation": (
        "rotation_error_std",
        lambda kind, x, n: ((1.0 + math.exp(-x * x / 2.0)) / 2.0) ** n,
    ),
}


@pytest.mark.parametrize("source", list(_SINGLE_SOURCE_FORMS))
def test_single_source_fidelity_matches_its_closed_form(source):
    option, form = _SINGLE_SOURCE_FORMS[source]
    for kind in TargetKind:
        for x in (1e-4, 1e-2, 0.1, 0.3):
            opts = CycleOptions(rotation_angle=kind.rotation_angle, **{option: x})
            cm = build_cycle_map(VERTICAL_ONLY, opts)
            for n in (1, 2, 5, 40, 300, 1000):
                f = conditional_fidelity(run_protocol(cm, n, kind=kind), ideal_target(n, kind))
                assert f == pytest.approx(form(kind, x, n), rel=1e-12, abs=0.0)


def test_branching_only_matches_first_order():
    for b in (50.0, 100.0, 200.0):
        cm = build_cycle_map(betas_from_branching(b))
        for n in (1, 3, 6):
            st = run_protocol(cm, n)
            infid = 1.0 - conditional_fidelity(st, ideal_target(n, TargetKind.GHZ))
            first_order = n / (2.0 * (b + 1.0)) - 1.0 / (4.0 * (b + 1.0))
            assert infid == pytest.approx(first_order, rel=0.15)


def test_branching_only_matches_its_ghz_closed_form():
    # the exact GHZ infidelity of branching B alone, 1 - F = (2N - 1) / (4(B + 1) + 2N): the
    # first-order budget's numerator over a denominator that grows with N
    for b in (0.5, 1.0, 3.0, 10.0, 49.0, 200.0, 1e4):
        cm = build_cycle_map(betas_from_branching(b))
        for n in (1, 2, 3, 7, 50, 300, 1000):
            f = conditional_fidelity(run_protocol(cm, n), ideal_target(n, TargetKind.GHZ))
            exact = 1.0 - (2.0 * n - 1.0) / (4.0 * (b + 1.0) + 2.0 * n)
            assert f == pytest.approx(exact, rel=1e-12, abs=0.0), (b, n)


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


@pytest.mark.parametrize("drift", [0.0, 0.01], ids=["driftless", "drift"])
def test_fewer_samples_are_a_prefix_of_more(drift):
    # sample i takes draw i of the shift stream and row i of the kick stream; at N = 1 a
    # one-sample run is a one-row weight product
    p = preset("reference")
    opts = CycleOptions(echo=False)
    for n in (1, 3):
        runs = {
            k: run_protocol(p, n, noise=NoiseConfig(0.3, drift, sample_count=k, rng_seed=4),
                            options=opts)
            for k in (1, 5, 12)
        }
        for k in (1, 5):
            assert np.array_equal(runs[k].superoperators, runs[12].superoperators[:k]), (n, k)


@pytest.mark.parametrize("n, samples", [(3, 84), (3, 85), (3, 86), (4, 64), (4, 1000),
                                        (4, 85), (1, 341), (4, 86)])
def test_blocked_weight_product_matches_one_gemm(n, samples):
    # S * N + 1 rows of weights: 253 to 259 and 341 are one product, 341 the largest below
    # m*n*k = 65536; 342 and 345 take two blocks and 4001 twelve of 333 or 334 rows; each row's
    # bits are those of one product over all rows
    p = preset("reference")
    noise = NoiseConfig(0.3, drift_diffusion_from_t2(150.0, p.t_cycle), sample_count=samples)
    base = protocol._check_run(p, n, TargetKind.GHZ, noise, None)[1]
    parts, options, _ = protocol._split_superoperators(p, base)
    scale = protocol._normalization(p, base, n)[0]
    phase = scale * protocol._noise_phases(p, n, options, noise)
    w = np.stack([np.broadcast_to(scale, phase.shape), phase, phase.conj()], axis=-1)
    want = np.concatenate([w.reshape(-1, 3), np.zeros((1, 3))]) @ parts
    got = run_protocol(p, n, noise=noise).superoperators
    assert got.tobytes() == want[:-1].tobytes()


ROW_BLOCK_PROBE = """
import numpy as np
from timebinsim import protocol
# the noise averages' round products: (S x 16)(16 x 48) and (4S x 16)(16 x 4)
for rows, cols in [(2, 48), (85, 48), (86, 48), (171, 48), (10000, 48),
                   (1020, 4), (1024, 4), (1025, 4), (4001, 4)]:
    rng = np.random.default_rng(rows)
    a = rng.standard_normal((rows, 16)) + 1j * rng.standard_normal((rows, 16))
    b = rng.standard_normal((16, cols)) + 1j * rng.standard_normal((16, cols))
    assert protocol._gemm_rows(a, b).tobytes() == (a @ b).tobytes(), (rows, cols)
"""


def test_row_blocked_product_matches_one_gemm():
    # one product up to m*n*k < 65536, else nearly equal blocks of at least two rows; each row
    # has the bits of one GEMM over all rows, taken on one BLAS thread in a fresh process
    src = str(Path(protocol.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
               OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", ROW_BLOCK_PROBE], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_drift_leaves_the_shifts_alone(monkeypatch):
    seen = []

    def recorded(options, shifts, kicks):
        seen.append((shifts, kicks))
        return cyclemap.arm_phases(options, shifts, kicks)

    monkeypatch.setattr(protocol, "arm_phases", recorded)
    p = preset("reference")
    for drift in (0.0, 0.01):
        run_protocol(p, 3, noise=NoiseConfig(0.3, drift, sample_count=5, rng_seed=6))
    (shifts, no_kicks), (drifting_shifts, kicks) = seen
    assert shifts.shape == (5, 1) and kicks.shape == (5, 3)
    assert np.array_equal(shifts, drifting_shifts)
    assert not no_kicks.any() and kicks.all()


@pytest.mark.parametrize("samples", [4, 400])
def test_noise_draws_from_at_most_two_generators(monkeypatch, samples):
    p = preset("reference")
    run_protocol(p, 3)  # the split superoperators cached before counting
    made = []

    def counted(name):
        real = getattr(np.random, name)

        def make(*args, **kwargs):
            made.append(name)
            return real(*args, **kwargs)

        return make

    for name in ("SeedSequence", "default_rng"):
        monkeypatch.setattr(np.random, name, counted(name))
    overhauser_average(p, 3, TargetKind.GHZ, None)  # and its split transfer
    runs = (
        lambda noise: run_protocol(p, 3, noise=noise),
        lambda noise: overhauser_average(p, 3, TargetKind.GHZ, noise),
    )
    for run in runs:
        for noise, generators in (
            (NoiseConfig(0.3, 0.01, sample_count=samples, rng_seed=2), 2),
            (NoiseConfig(0.3, sample_count=samples, rng_seed=2), 1),
            (NoiseConfig(0.0, 0.01, sample_count=samples, rng_seed=2), 1),
        ):
            made.clear()
            run(noise)
            assert made == ["SeedSequence"] + ["default_rng"] * generators, noise
        # a source of width 0 draws nothing, and a noise-free run makes no stream at all
        made.clear()
        run(NoiseConfig(0.0, sample_count=samples, rng_seed=2))
        run(None)
        assert made == []


@pytest.mark.parametrize("noise", [{"overhauser_sigma": 0.3}, 0.3, CycleOptions()])
def test_run_protocol_rejects_a_noise_that_is_not_a_noise_config(noise):
    p = preset("reference")
    for call in (
        lambda: run_protocol(p, 2, noise=noise),
        lambda: run_protocol(ideal_cycle_map(), 2, noise=noise),
        lambda: overhauser_average(p, 2, TargetKind.GHZ, noise),
    ):
        with pytest.raises(ParamError, match="^noise must be a NoiseConfig"):
            call()


@pytest.mark.parametrize("options", [{"echo": False}, False, NoiseConfig(0.3)])
def test_run_protocol_rejects_options_that_are_not_cycle_options(options):
    p = preset("reference")
    noise = NoiseConfig(0.3, sample_count=2)
    for call in (
        lambda: run_protocol(p, 2, options=options),
        lambda: run_protocol(ideal_cycle_map(), 2, options=options),
        lambda: overhauser_average(p, 2, TargetKind.GHZ, noise, options=options),
    ):
        with pytest.raises(ParamError, match="^options must be a CycleOptions"):
            call()


def test_noise_calls_share_the_split_superoperators(monkeypatch):
    p = preset("reference")
    noise = NoiseConfig(overhauser_sigma=0.3, drift_diffusion=0.01, sample_count=4, rng_seed=5)
    opts = CycleOptions(echo=False)
    first = run_protocol(p, 3, noise=noise, options=opts)
    for n in (3, 4):
        ideal_target(n, TargetKind.GHZ)  # cached before counting, whatever ran before this test
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_cycle_map(*args, **kwargs)

    monkeypatch.setattr(cyclemap, "build_cycle_map", counted)
    second = run_protocol(p, 3, noise=noise, options=opts)
    assert builds == []
    for field in ("superoperators", "success_probability", "orthogonal_error_mass"):
        assert np.array_equal(getattr(first, field), getattr(second, field))
    # the average contracts the same split with the ideal chain once per (params, options, N, kind);
    # emptied first, so the misses counted below do not depend on what ran before this test
    protocol._split_transfer.cache_clear()
    transfers = protocol._split_transfer.cache_info
    average = overhauser_average(p, 3, TargetKind.GHZ, noise, options=opts)
    assert builds == []
    misses = transfers().misses
    assert overhauser_average(p, 3, TargetKind.GHZ, noise, options=opts) == average
    assert builds == [] and transfers().misses == misses
    # another N is a new transfer on the same split
    overhauser_average(p, 4, TargetKind.GHZ, noise, options=opts)
    assert builds == [] and transfers().misses == misses + 1
    # a noise-free run is the same path's one-sample case
    run_protocol(p, 3, options=opts)
    assert builds == []
    # other options are another cache entry
    run_protocol(p, 3, noise=noise, options=replace(opts, drift_phase=0.2))
    assert len(builds) == 3
    # and so is another kind, whose rotation angle makes another split
    overhauser_average(p, 3, TargetKind.CLUSTER, noise, options=opts)
    assert transfers().misses == misses + 2


def test_noise_requires_params():
    noise = NoiseConfig(overhauser_sigma=0.1, sample_count=2)
    with pytest.raises(ParamError):
        run_protocol(ideal_cycle_map(), 2, noise=noise)
    # an average needs PhysicalParams even without noise: a fixed map has no phase split
    for avg_noise in (noise, None):
        with pytest.raises(ParamError, match="PhysicalParams"):
            overhauser_average(ideal_cycle_map(), 2, TargetKind.GHZ, avg_noise)


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
    # both come from the one cached normalization of (params, options, N)
    for name in ("success_probability", "orthogonal_error_mass"):
        assert getattr(state, name) == getattr(clean, name), name


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


def _split_sequence():
    """Every oracle map and the reference preset's, most Kraus terms first, then the two
    lightest again: each cut at N // 2 falls between different maps, and N = 10 stays cheap."""
    cycles = [build_cycle_map(b, o) for b, o, _ in ORACLE_MAPS] + [build_cycle_map(preset("reference"))]
    cycles.sort(key=lambda c: -len(c.kraus))
    return cycles + cycles[-2:]


@pytest.mark.parametrize("n", range(PHOTON_CAP + 1))
def test_split_builder_matches_per_kraus_reference(n):
    # odd and even cuts; N = 0 is the initial spin state, which no run can return
    cycles = _split_sequence()[:n]
    if n:
        _assert_matches_reference(run_protocol_cycles(cycles), cycles)
    else:
        st = protocol.HybridState(np.zeros((1, 0, 16, 4), dtype=complex), 1.0, 0.0)
        assert np.abs(st.rho - _reference_protocol(cycles)[0]).max() <= 1e-12 * 0.5


@pytest.mark.parametrize("n", [8, 9])
def test_broadcast_kernel_matches_per_kraus_reference(n):
    betas, opts, n_kraus = ORACLE_MAPS[-1]
    cm = build_cycle_map(betas, opts)
    assert len(cm.kraus) == n_kraus == 16
    _assert_matches_reference(run_protocol_cycles([cm] * n), [cm] * n)


def _assert_noisy_rho_matches_reference(monkeypatch, n, samples):
    p = preset("reference")
    noise = NoiseConfig(
        overhauser_sigma=0.4,
        drift_diffusion=drift_diffusion_from_t2(150.0, p.t_cycle),
        sample_count=samples,
        rng_seed=5,
    )
    st = run_protocol(p, n, kind=TargetKind.CLUSTER, noise=noise)
    # each chunk of samples builds its two half-chain factors once
    chain, calls = protocol._chain, []
    monkeypatch.setattr(protocol, "_chain", lambda *a: calls.append(a) or chain(*a))
    got = st.rho
    assert len(calls) >= 4
    samples = _per_cycle_noisy_cycles(p, n, TargetKind.CLUSTER, noise, CycleOptions())
    rho = sum(_reference_protocol(cycles)[0] for cycles in samples) / len(samples)
    assert np.abs(got - rho).max() <= 1e-12 * np.abs(rho).max()


@pytest.mark.parametrize("n", [8, 9])
def test_broadcast_kernel_matches_per_kraus_reference_on_a_noisy_state(monkeypatch, n):
    # one sample to a chunk, so the later chunks are added row by row
    _assert_noisy_rho_matches_reference(monkeypatch, n, 3)


@pytest.mark.parametrize("n, samples", [(3, 40), (4, 30)])
def test_split_builder_matches_reference_across_sample_chunks(monkeypatch, n, samples):
    _assert_noisy_rho_matches_reference(monkeypatch, n, samples)


# cells per block of rest rows of the per-sample oracle builder
_ORACLE_BLOCK_CELLS = 4096


def _per_sample_factors(sups):
    """The half-chains of the per-sample oracle builder: rho_m as (samples, (i j), (rest rest'))
    and R / samples as (samples, (a P b C), (i j))."""
    samples, n = sups.shape[:2]
    rl = 2 ** (n // 2)
    left = protocol._chain(np.broadcast_to(protocol._RHO0, (samples, 1, 2, 2)), sups[:, :n // 2])
    left = left.reshape(-1, 2, rl, 2, rl).transpose(0, 1, 3, 2, 4).reshape(-1, 4, rl * rl)
    units = np.broadcast_to(protocol._SPIN_UNITS, (samples, 4, 2, 2))
    right = protocol._chain(units, sups[:, n // 2:])
    return left, right.reshape(samples, 4, -1).transpose(0, 2, 1) / samples


def _per_sample_product(left, right):
    """The dense builder that summed one complex product per sample in each block of rest rows
    and copied the block transposed into the output, which one broadcast product over a
    chunk's samples replaced; kept as its oracle."""
    samples, rl, rr = len(left), math.isqrt(left.shape[-1]), math.isqrt(right.shape[1] // 4)
    rows = max(1, _ORACLE_BLOCK_CELLS // (4 * rr * rr * rl))
    out = np.empty((2, rl, rr, 2, rl, rr), dtype=complex)
    for lo in range(0, rl, rows):
        cols = slice(lo * rl, (lo + rows) * rl)
        blk = right[0] @ left[0, :, cols]
        for s in range(1, samples):
            blk += right[s] @ left[s, :, cols]
        out[:, lo:lo + rows] = blk.reshape(2, rr, 2, rr, -1, rl).transpose(0, 4, 1, 2, 5, 3)
    return out.reshape(2 * rl * rr, 2 * rl * rr)


@pytest.mark.parametrize("drift", [0.0, 0.7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 10])
def test_real_dense_builder_matches_the_complex_product_within_its_rounding(n, drift):
    # the real GEMMs and the oracle's complex ones sum the same terms in another order, so an
    # entry may move by each side's dot-product rounding, at most 8 eps of sum |L| |R| for the
    # 8 real terms of a part; that sum is the same product run on the factors' absolute values.
    # A drift phase makes both factors complex, so the Li Ri terms are not negligible
    for kind in TargetKind:
        st = run_protocol(preset("reference"), n, kind=kind, options=CycleOptions(drift_phase=drift))
        left, right = _per_sample_factors(st.superoperators)
        want = _per_sample_product(left, right)
        tol = 2 * 8 * np.finfo(float).eps * _per_sample_product(np.abs(left), np.abs(right)).real
        got = st.rho
        assert np.all(np.abs(got.real - want.real) <= tol)
        assert np.all(np.abs(got.imag - want.imag) <= tol)


def _rho_peak(state):
    """The tracemalloc peak, in bytes, of the state's first dense rho read, and that rho."""
    tracemalloc.start()
    try:
        rho = state.rho
        return tracemalloc.get_traced_memory()[1], rho
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, samples, bound", [(10, 1, 1.05), (9, 2, 1.15)])
def test_dense_rho_peak_memory(n, samples, bound):
    # the output, written in place, and the half-chain factors of one chunk of samples;
    # N = 9 has one sample to a chunk, and its second chunk adds one rest row at a time
    st = run_protocol(preset("reference"), n, noise=NoiseConfig(0.3, sample_count=samples))
    peak, rho = _rho_peak(st)
    assert peak < bound * rho.nbytes


def test_dense_rho_peak_memory_of_many_drift_samples():
    # the samples' factors are built a bounded chunk at a time, so a 16 kB output
    # of 100 samples stays within a fixed budget
    p = preset("reference")
    noise = NoiseConfig(
        0.3, drift_diffusion=drift_diffusion_from_t2(150.0, p.t_cycle), sample_count=100
    )
    peak, _ = _rho_peak(run_protocol(p, 4, noise=noise))
    assert peak < 512 * 1024


@pytest.mark.parametrize("n, samples", [(4, 100), (9, 2)])
def test_two_thread_dense_rho_matches_one_thread(monkeypatch, n, samples):
    # the spin halves of the output written on two threads or one, for one chunk of samples and
    # for later chunks added a block of rows at a time
    p = preset("reference")
    noise = NoiseConfig(0.3, drift_diffusion_from_t2(150.0, p.t_cycle), sample_count=samples)
    sups = run_protocol(p, n, noise=noise).superoperators
    rhos = []
    for entries in (0, 2**62):
        monkeypatch.setattr(protocol, "_SPLIT_ENTRIES", entries)
        rhos.append(protocol._dense_rho(sups).tobytes())
    assert rhos[0] == rhos[1]


def test_dense_rho_split_raises_the_helper_threads_error():
    def write(a):
        if a.start == 1:
            raise MemoryError("spin row 1")
        done.append(a)

    done = []
    with pytest.raises(MemoryError, match="spin row 1"):
        protocol._both_spins(write, True)
    assert done == [slice(0, 1)]


def _blas_worker_times():
    """CPU time in ns of each native thread of this process that is not a Python thread (the
    BLAS's worker threads), by thread id, from /proc/self/task/<tid>/schedstat."""
    python = {t.native_id for t in threading.enumerate()}
    times = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) not in python:
            try:
                with open(f"/proc/self/task/{tid}/schedstat") as f:
                    times[tid] = int(f.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):  # a thread that has just ended
                pass
    return times


def _worker_growth(before, after):
    return sum(after[tid] - before[tid] for tid in before.keys() & after.keys())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_gated_products_leave_the_blas_worker_idle():
    # OpenBLAS hands a complex GEMM of m * n * k >= 65536 to its worker thread, which then spins
    # on the second core for about 0.1 s; the dense reads, a drift state and a noise average
    # must keep every product below that, or a two-thread dense read loses its second core
    if not _blas_worker_times():
        pytest.skip("no BLAS worker thread")
    p = preset("reference")
    drift = NoiseConfig(0.3, drift_diffusion_from_t2(150.0, p.t_cycle), sample_count=100)
    for _ in range(50):  # until a worker woken by an earlier test has gone back to sleep
        before = _blas_worker_times()
        time.sleep(0.02)
        if not _worker_growth(before, _blas_worker_times()):
            break
    before = _blas_worker_times()
    for n in (9, 10):
        run_protocol(p, n).rho
    st = run_protocol(p, 4, noise=drift)
    st.rho
    conditional_fidelity(st, ideal_target(4, TargetKind.GHZ))
    for samples in (40, 86, 10000):  # from 86 samples the rounds run in row blocks
        overhauser_average(p, 4, TargetKind.GHZ, NoiseConfig(0.3, sample_count=samples),
                           options=CycleOptions(echo=False))
    # from 256 samples the environment's (4S x 16)(16 x 4) product runs in row blocks
    noisy = run_protocol(p, 4, noise=NoiseConfig(0.3, sample_count=256))
    conditional_fidelity(noisy, ideal_target(4, TargetKind.GHZ))
    time.sleep(0.02)
    assert _worker_growth(before, _blas_worker_times()) == 0


def test_in_place_sample_sum_leaves_the_initial_spin_state_alone():
    # a photon-less state's samples are the initial spin state itself
    want = protocol._RHO0.copy()
    for _ in range(2):
        st = protocol.HybridState(np.zeros((3, 0, 16, 4), dtype=complex), 1.0, 0.0)
        assert np.abs(st.rho - want).max() <= 1e-15
    assert np.array_equal(protocol._RHO0, want)


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


def _per_cycle_noisy_cycles(params, n, kind, noise, options):
    """Noise samples drawn as run_protocol does, as one fresh map per cycle.

    Two streams are spawned from the seed, and each draws one scalar at a
    time: stream 0 one detuning shift per sample, stream 1 one drift kick
    per cycle of each sample in turn; both add to the options' static
    offsets. Returns the cycle sequence of every sample.
    """
    base = replace(options, rotation_angle=kind.rotation_angle)
    drift_std = math.sqrt(noise.drift_diffusion * params.t_cycle**3)
    shift_rng, kick_rng = map(np.random.default_rng, np.random.SeedSequence(noise.rng_seed).spawn(2))
    samples = []
    for _ in range(noise.sample_count):
        delta = shift_rng.normal(0.0, noise.overhauser_sigma) if noise.overhauser_sigma else 0.0
        cycles = []
        for _ in range(n):
            kick = kick_rng.normal(0.0, drift_std) if drift_std else 0.0
            opts = replace(
                base,
                quasistatic_detuning=base.quasistatic_detuning + delta,
                drift_phase=base.drift_phase + kick,
            )
            cycles.append(build_cycle_map(params, opts))
        samples.append(cycles)
    return samples


def _per_cycle_noisy_states(params, n, kind, noise, options):
    """One run_protocol_cycles state per noise sample, from per-cycle maps."""
    return [run_protocol_cycles(c) for c in _per_cycle_noisy_cycles(params, n, kind, noise, options)]


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


@pytest.mark.parametrize("n", [1, 4, 12, 20])
@pytest.mark.parametrize("echo", [True, False])
@pytest.mark.parametrize("kind", list(TargetKind))
def test_split_transfer_matches_the_state_path(kind, echo, n):
    # overhauser_average builds no state: the overlaps of run_protocol's noisy state with
    # the ideal target are its oracle, sample for sample in mean and spread
    p = preset("reference")
    opts = CycleOptions(echo=echo, quasistatic_detuning=0.02, drift_phase=0.3)
    drift = drift_diffusion_from_t2(150.0, p.t_cycle)
    for noise in (NoiseConfig(0.4, drift, sample_count=200, rng_seed=n),
                  NoiseConfig(0.4, drift, sample_count=1, rng_seed=n), None):
        avg = overhauser_average(p, n, kind, noise, options=opts)
        state = run_protocol(p, n, kind=kind, noise=noise, options=opts)
        fids = protocol._overlaps(state, ideal_target(n, kind))
        assert avg["mean_fidelity"] == pytest.approx(fids.mean(), rel=1e-12)
        if len(fids) == 1:
            assert avg["std_error"] == 0.0
        else:
            assert avg["std_error"] == pytest.approx(
                fids.std(ddof=1) / math.sqrt(len(fids)), rel=1e-12
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


# -- the generator code table against the label strings it replaced


def _label_stabilizers(n, kind):
    """The label builder that ``_generator_codes`` replaced: one string per
    generator, built letter by letter on the chain (p1..pN, spin)."""
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


def _label_pauli_traces(state, labels):
    """The label-parsing recursion that the code-table one replaced."""
    codes = np.array([[{"I": 0, "X": 1, "Z": 2}[c] for c in label] for label in labels])
    samples, n = state.superoperators.shape[:2]
    sup = state.superoperators.reshape(samples, n, 2, 2, 2, 2, 4)
    reduced = np.einsum("stapbcx,kcp->stkabx", sup, protocol._PAULIS).reshape(samples, n, 3, 4, 4)
    sigma = np.broadcast_to(protocol._RHO0.reshape(4), (samples, len(labels), 4))
    for t in range(n):
        sigma = np.einsum("sgxy,sgy->sgx", reduced[:, t, codes[:, t + 1]], sigma)
    close = protocol._PAULIS.transpose(0, 2, 1).reshape(3, 4)[codes[:, 0]]
    return (sigma * close).sum(axis=-1).real


def _label_stabilizer_expectations(state, kind):
    n = state.photon_count
    labels = _label_stabilizers(n, kind)
    signs = []
    for val in _label_pauli_traces(ideal_target(n, kind), labels)[0]:
        assert abs(abs(val) - 1.0) <= 1e-9
        signs.append(1.0 if val > 0 else -1.0)
    vals = _label_pauli_traces(state, labels).mean(axis=0)
    return [sign * float(v) for sign, v in zip(signs, vals)]


@pytest.mark.parametrize("kind", list(TargetKind))
def test_canonical_stabilizers_match_the_label_builder(kind):
    for n in range(1, 13):
        assert canonical_stabilizers(n, kind) == _label_stabilizers(n, kind)


@pytest.mark.parametrize("noisy", [False, True], ids=["noise-free", "noisy"])
@pytest.mark.parametrize("kind", list(TargetKind))
def test_stabilizer_expectations_match_the_label_recursion(kind, noisy):
    p = preset("reference")
    for n in list(range(1, 9)) + [50, 200]:
        noise = NoiseConfig(0.3, drift_diffusion=1e-5, sample_count=3, rng_seed=n) if noisy else None
        st = run_protocol(p, n, kind=kind, noise=noise)
        assert stabilizer_expectations(st, kind) == _label_stabilizer_expectations(st, kind)

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from timebinsim import budget
from timebinsim.budget import (
    EXC_COEFFICIENT,
    generation_rate,
    infidelity_first_order,
    per_qubit_infidelity,
    t2_drift_error,
)
from timebinsim.params import ParamError, indistinguishability, preset
from timebinsim.protocol import drift_diffusion_from_t2


def test_exc_coefficient():
    assert EXC_COEFFICIENT == pytest.approx(math.sqrt(3.0) * math.pi / 8.0)
    assert EXC_COEFFICIENT == pytest.approx(0.680, abs=5e-4)


def test_first_order_terms_against_independent_arithmetic():
    p = preset("reference")
    n = 3
    b = infidelity_first_order(p, n)
    ind = p.gamma / (p.gamma + 2.0 * p.gamma_d)
    assert b.e_ph == pytest.approx(n * (1.0 - ind) / 2.0)
    assert b.e_exc == pytest.approx(n * EXC_COEFFICIENT * p.gamma / p.delta)
    assert b.e_br == pytest.approx(
        n / (2.0 * (p.branching + 1.0)) - 1.0 / (4.0 * (p.branching + 1.0))
    )
    assert b.total == pytest.approx(b.e_ph + b.e_exc + b.e_br)


def test_detuning_argument_takes_the_place_of_params_delta():
    # a detuning array gives one e_exc and total per detuning, each with the bits of the
    # budget of params that carry that detuning; e_ph and e_br do not depend on it
    p = preset("reference")
    deltas = np.array([0.5, 3.0, p.delta, 1e4])
    b = infidelity_first_order(p, 4, deltas)
    for k, d in enumerate(deltas.tolist()):
        want = infidelity_first_order(replace(p, delta=d), 4)
        assert (b.e_ph, b.e_br) == (want.e_ph, want.e_br)
        assert b.e_exc[k].hex() == want.e_exc.hex() and b.total[k].hex() == want.total.hex()
    assert infidelity_first_order(p, 4, p.delta) == infidelity_first_order(p, 4)


@pytest.mark.parametrize("name, ghz, cluster", [("reference", 6, 11), ("improved", 11, 21)])
def test_dephasing_term_departs_where_the_docstring_says(name, ghz, cluster):
    # the first N at which e_ph passes 10 % above the dephasing-only infidelity, (1 - I^N) / 2
    # for GHZ and 1 - ((1 + I) / 2)^N for a cluster (test_dephasing_only_oracles pins both
    # against the protocol): about N = 1 + 0.2 / (1 - I) and N = 1 + 0.4 / (1 - I)
    p = preset(name)
    ind = indistinguishability(p.gamma, p.gamma_d)
    exact = {"ghz": lambda n: (1.0 - ind**n) / 2.0,
             "cluster": lambda n: 1.0 - ((1.0 + ind) / 2.0) ** n}
    first = {kind: next(n for n in range(1, 100)
                        if infidelity_first_order(p, n).e_ph > 1.1 * infid(n))
             for kind, infid in exact.items()}
    assert first == {"ghz": ghz, "cluster": cluster}
    assert first["ghz"] == round(1.0 + 0.2 / (1.0 - ind))
    assert first["cluster"] == round(1.0 + 0.4 / (1.0 - ind))


def test_first_order_affine_in_n():
    p = preset("improved")
    slope = per_qubit_infidelity(p)["total"]
    offset = -1.0 / (4.0 * (p.branching + 1.0))
    for n in range(1, 7):
        assert infidelity_first_order(p, n).total == pytest.approx(n * slope + offset)


def test_per_qubit_improved_split():
    out = per_qubit_infidelity(preset("improved"))
    # paper-quoted split: ~1.8% single-qubit, ~0.3% two-qubit, 2.1% total
    assert out["single_qubit"] == pytest.approx(0.018, abs=0.002)
    assert out["two_qubit"] == pytest.approx(0.003, abs=0.002)
    assert out["total"] == pytest.approx(out["single_qubit"] + out["two_qubit"])


def test_generation_rate():
    # eta^N / (N T_cycle): 0.84^3 / (3 * 27 ns) = 7.317 MHz
    assert generation_rate(0.84, 27.0, 3) * 1e3 == pytest.approx(7.317, abs=1e-3)
    assert generation_rate(1.0, 27.0, 1) == pytest.approx(1.0 / 27.0)
    with pytest.raises(ValueError):
        generation_rate(0.0, 27.0, 3)
    with pytest.raises(ValueError):
        generation_rate(0.84, 27.0, 0)


def test_generation_rate_log_linear_in_n():
    # log(N * rate) is affine in N with slope log(eta)
    eta, tc = 0.84, 27.0
    logs = [math.log(n * tc * generation_rate(eta, tc, n)) for n in range(1, 7)]
    diffs = [b - a for a, b in zip(logs, logs[1:])]
    for d in diffs:
        assert d == pytest.approx(math.log(eta), abs=1e-12)


@pytest.mark.parametrize("n", [2.7, 3.0, True, "3", None, 0, -1])
def test_photon_count_must_be_a_whole_number(n):
    p = preset("reference")
    calls = (
        lambda: infidelity_first_order(p, n),
        lambda: generation_rate(p.eta, p.t_cycle, n),
        lambda: t2_drift_error(p.t_cycle, p.t2, n),
    )
    for call in calls:
        with pytest.raises(ParamError, match="n_photons"):
            call()


def test_t2_drift_error_quadratic():
    base = t2_drift_error(27.0, 2700.0, 1)
    assert base == pytest.approx(0.5 * (27.0 / 2700.0) ** 2)
    assert t2_drift_error(54.0, 2700.0, 1) == pytest.approx(4.0 * base)
    assert t2_drift_error(27.0, 2700.0, 5) == pytest.approx(5.0 * base)
    with pytest.raises(ValueError):
        t2_drift_error(27.0, 0.0, 1)


def test_drift_models_share_one_default_constant():
    # the diffusion's per-cycle phase variance D t_cycle^3 is 4x the one-photon drift error
    t2, tc = 2700.0, 27.0
    per_cycle = drift_diffusion_from_t2(t2, tc) * tc**3 / 4.0
    assert per_cycle == pytest.approx(t2_drift_error(tc, t2, 1), rel=1e-12)
    for func in (t2_drift_error, drift_diffusion_from_t2):
        assert inspect.signature(func).parameters["c_model"].default is budget._DRIFT_C_MODEL

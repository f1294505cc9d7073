"""First-order error budget of the generation protocol.

The conditional infidelity of an N-photon GHZ or cluster state splits into
three non-negative terms:

* ``e_ph``  -- photon dephasing, N (1 - I) / 2,
* ``e_exc`` -- optimized excitation errors, N (sqrt(3) pi / 8) gamma / delta,
* ``e_br``  -- imperfect branching, (N - 1/2) / (2 (B + 1)).

The same expression applies to both target-state kinds. The branching entry
groups the two B-dependent contributions of the underlying expansion so the
three terms sum exactly to the total.

Validity: each term is first order in its imperfection and departs from the
exact infidelity as N grows. With branching alone, the GHZ infidelity of
the protocol is exactly (2N - 1) / (4 (B + 1) + 2N), pinned against
``conditional_fidelity`` by ``test_branching_only_matches_its_ghz_closed_form``.
So e_br = (2N - 1) / (4 (B + 1)) is too high by the factor 1 + N / (2 (B + 1)),
which passes 10 % at N = (B + 1) / 5: about N = 3 for the ``reference``
preset (B = 15) and N = 28 for ``improved`` (B = 140). With dephasing alone,
the infidelity is exactly (1 - I^N) / 2 for GHZ and 1 - ((1 + I) / 2)^N for a
cluster, pinned by ``test_dephasing_only_oracles``. So e_ph passes 10 % above
it at about N = 1 + 0.2 / (1 - I) for GHZ and N = 1 + 0.4 / (1 - I) for a
cluster: N = 6 and 11 for ``reference`` (I = 0.96), N = 11 and 21 for
``improved`` (I = 0.98). The branching term thus departs first for
``reference``, the dephasing term for ``improved``; the excitation term's
departure is not derived. The protocol is the sequential emitter of
Lindner & Rudolph, PRL 103, 113602 (2009).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .params import _real, _whole, indistinguishability

# Coefficient of the optimized square-pulse excitation error, sqrt(3) pi / 8.
EXC_COEFFICIENT = math.sqrt(3.0) * math.pi / 8.0

# Default c of the drift error N c (t_cycle / t2)^2, also drift_diffusion_from_t2's.
_DRIFT_C_MODEL = 0.5


@dataclass(frozen=True)
class InfidelityBudget:
    e_ph: float
    e_exc: float
    e_br: float

    @property
    def total(self):
        return self.e_ph + self.e_exc + self.e_br


def infidelity_first_order(params, n_photons, delta=None):
    """First-order conditional infidelity budget for an N-photon state.

    ``delta`` (rad/ns) replaces ``params.delta`` unchecked; an array of
    detunings gives ``e_exc`` and ``total`` its shape, one entry per detuning.
    """
    n = _whole("n_photons", n_photons, 1)
    ind = indistinguishability(params.gamma, params.gamma_d)
    e_ph = n * (1.0 - ind) / 2.0
    e_exc = n * EXC_COEFFICIENT * params.gamma / (params.delta if delta is None else delta)
    e_br = n / (2.0 * (params.branching + 1.0)) - 1.0 / (4.0 * (params.branching + 1.0))
    return InfidelityBudget(e_ph=e_ph, e_exc=e_exc, e_br=e_br)


def per_qubit_infidelity(params):
    """Large-N per-photon slope of the budget, split by error locality.

    single_qubit collects the dephasing and excitation contributions,
    two_qubit the branching contribution 1 / (2 (B + 1)).
    """
    ind = indistinguishability(params.gamma, params.gamma_d)
    single = (1.0 - ind) / 2.0 + EXC_COEFFICIENT * params.gamma / params.delta
    two = 1.0 / (2.0 * (params.branching + 1.0))
    return {"single_qubit": single, "two_qubit": two, "total": single + two}


def t2_drift_error(t_cycle, t2, n_photons, c_model=_DRIFT_C_MODEL):
    """Slow-drift error estimate N * c_model * (t_cycle / t2)^2.

    Only the quadratic scaling is physically fixed; ``c_model`` is a model
    constant (default 1/2, a Gaussian-phase-variance convention).
    """
    _real(("t_cycle", t_cycle, "(0, inf)"), ("t2", t2, "(0, inf)"),
          ("c_model", c_model, "[0, inf)"))
    return _whole("n_photons", n_photons, 1) * c_model * (t_cycle / t2) ** 2


def generation_rate(eta, t_cycle, n_photons):
    """Post-selected N-photon state rate eta^N / (N * t_cycle), in GHz.

    Simplest reading of an exponential per-photon outcoupling loss over a
    fixed cycle length; an approximation, not an exact device model.
    """
    _real(("eta", eta, "(0, 1]"), ("t_cycle", t_cycle, "(0, inf)"))
    n = _whole("n_photons", n_photons, 1)
    return eta**n / (n * t_cycle)

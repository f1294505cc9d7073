"""Sequential composition of cycle maps into N-photon hybrid states.

State ordering convention: the spin is the first tensor factor, photons
follow in emission order, so after N cycles the density operator lives on
spin (x) photon_1 (x) ... (x) photon_N with dimension 2^(N+1).

Post-selected representation: branches in which a cycle yields no photon
in either time bin are pruned every round; only their probability is kept
(``success_probability``). Detected-but-orthogonal weight is carried as a
scalar beside the density operator, normalized so that
``trace(rho) + orthogonal_error_mass = 1``.

Each round is one 16x4 spin superoperator (the cycle map's Kraus blocks
summed, with the round's normalization folded in). Photons are never acted
on after emission, so a state is kept as its sequence of superoperators:
the normalizations come from a forward recursion on the 2x2 spin-reduced
state (for PhysicalParams once per (params, options, N), on the phase-free
part S0 of the split below, and cached), and stabilizer expectations are
contracted round by round, as in the matrix-product picture of sequential
photon sources (Schoen et al., PRL 95, 110503, 2005); the generators are one
table of integer Pauli codes, and label strings are made only when
``canonical_stabilizers`` is called. The ideal target is a state of the
same kind, the ideal protocol's own run, so a fidelity is one contraction
of two such chains.
Every PhysicalParams run, noisy or not, is built from one cached phase
split of a round's superoperator, all samples and rounds by one product of
their phase weights with the split, and ``overhauser_average`` contracts
that split with the ideal chain once, so its samples need no state at all.
The dense rho is built only when ``HybridState.rho`` is read, from two
half-chains: the first N // 2 rounds on the initial spin state and the
rest on each spin unit |i><j|. One broadcast product of the two writes it
straight into its final layout; only the output is full size. The product
is real, written into the output's float view: each output cell is one
real GEMM, which the BLAS runs much faster than a complex one of these
thin shapes. From N = 9 on its two spin halves are written on two
threads, and no product is large enough for OpenBLAS to wake its own.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .budget import _DRIFT_C_MODEL
from .cyclemap import (
    SPLIT_PHASES,
    CycleMap,
    CycleOptions,
    arm_phases,
    ideal_cycle_map,
    phase_split_maps,
    rotation_matrix,
)
from .params import ParamError, PhysicalParams, _real, _real_fields, _whole

# largest photon number for which a dense 2^(N+1) state is built
PHOTON_CAP = 10
# cells of the half-chain factors of a chunk of noise samples in a dense rho build, and of
# the product that adds a block of rest rows of a later chunk
_CHUNK_CELLS = 8192
# OpenBLAS at two threads hands a complex GEMM of m*n*k >= 65536 to its worker, which then spins
# on the second core for about 0.1 s; so a half-chain round is at most (16 x 4)(4 x 256), and
# the noise products over samples run in row blocks below this size (_gemm_rows)
_GEMM_CELLS = 65536
# output entries from which a dense rho writes its two spin halves on two threads (N >= 9)
_SPLIT_ENTRIES = 2**20

# spin state after initialization: R(pi/2) applied to spin-down
_PSI0 = rotation_matrix(math.pi / 2.0) @ np.array([1.0, 0.0], dtype=complex)
_RHO0 = np.outer(_PSI0, _PSI0.conj())
_SPIN_UNITS = np.eye(4, dtype=complex).reshape(4, 2, 2)  # |i><j|, (i j) row-major

# Fourier weights e^{-i k d} / 3 (k = 0, +1, -1) that split superoperators
# built at the phase differences d of SPLIT_PHASES into S0, S+, S-
_SPLIT_WEIGHTS = np.exp(-1j * np.outer([0, 1, -1], SPLIT_PHASES)) / 3.0


class CapacityError(RuntimeError):
    """A dense state for more than PHOTON_CAP photons was requested."""


class TargetKind(Enum):
    GHZ = "ghz"
    CLUSTER = "cluster"

    @property
    def rotation_angle(self):
        return math.pi if self is TargetKind.GHZ else math.pi / 2.0


def _check_kind(kind):
    if not isinstance(kind, TargetKind):
        raise ParamError(f"kind must be a TargetKind, got {kind!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """Quasi-static Overhauser noise plus optional slow intra-cycle drift.

    ``overhauser_sigma`` is the std of the Gaussian ground-splitting shift
    (rad/ns), related to the inhomogeneous dephasing time by
    sigma = sqrt(2) / t2_star. ``drift_diffusion`` (rad^2/ns^3) feeds a
    per-cycle Wiener phase imbalance of variance drift_diffusion *
    t_cycle^3 that the echo does not cancel. Both add to the static
    ``quasistatic_detuning`` and ``drift_phase`` of the caller's
    CycleOptions. ``rng_seed`` spawns two streams: the first draws the
    ``sample_count`` shifts, the second the kicks, one row of N per
    sample. A smaller ``sample_count`` keeps the leading samples.
    """

    overhauser_sigma: float
    drift_diffusion: float = 0.0
    sample_count: int = 1
    rng_seed: int = 0

    _BOUNDS = {"overhauser_sigma": "[0, inf)", "drift_diffusion": "[0, inf)"}

    def __post_init__(self):
        for name, least in (("sample_count", 1), ("rng_seed", 0)):
            _whole(name, getattr(self, name), least)
        _real_fields(self)


def drift_diffusion_from_t2(t2, t_cycle, c_model=_DRIFT_C_MODEL):
    """Diffusion constant giving per-cycle error c_model*(t_cycle/t2)^2."""
    _real(("t2", t2, "(0, inf)"), ("t_cycle", t_cycle, "(0, inf)"),
          ("c_model", c_model, "[0, inf)"))
    return 4.0 * c_model / (t2**2 * t_cycle)


@dataclass(frozen=True, eq=False)
class HybridState:
    """Post-selected state of spin (x) N time-bin qubits, held as its cycle sequence.

    ``superoperators`` has shape (samples, N, 16, 4): the normalized spin
    superoperator of every round for every noise sample. The state is the
    equal-weight average of its samples, which share one success
    probability and one orthogonal mass; its trace is
    ``1 - orthogonal_error_mass``. A single-sample state also serves as a
    fidelity target (``ideal_target``). The dense rho is built on first
    read and only up to PHOTON_CAP photons, written once in its final
    layout by one broadcast real product per chunk of samples, into the
    float view of the complex output; from N = 9 on, one per spin half, the
    two halves on two threads.
    """

    superoperators: np.ndarray
    success_probability: float
    orthogonal_error_mass: float

    @property
    def photon_count(self):
        return self.superoperators.shape[1]

    @property
    def dim(self):
        return 2 ** (self.photon_count + 1)

    @cached_property
    def rho(self):
        """Dense density operator, the sample average, built from two half-chains."""
        if self.photon_count > PHOTON_CAP:
            raise CapacityError(
                f"{self.photon_count} photons exceeds the cap of {PHOTON_CAP} for a "
                f"dense density operator ({self.dim}-dimensional)"
            )
        return _dense_rho(self.superoperators)


def _spin_superoperator(cycle):
    """S[(a p),(b c),i,j] = sum_k K[(a p),i] conj(K[(b c),j]), shape (4, 4, 2, 2)."""
    k = np.asarray(cycle.kraus, dtype=complex).reshape(-1, 4, 2)
    return np.einsum("kxi,kyj->xyij", k, k.conj())


def _chain(units, sups):
    """Rounds sups (samples, T, 16, 4) applied to each sample's units (samples, k, d, d); a round
    appends its photon last and is one (16 x 4)(4 x g r^2) product per sample and group of g
    units: all k while k r^2 <= 256, else one, so no product reaches OpenBLAS's threading size."""
    for t in range(sups.shape[1]):
        samples, k, r = units.shape[0], units.shape[1], units.shape[2] // 2
        g = k if k * r * r <= 256 else 1
        x = units.reshape(samples, k // g, g, 2, r, 2, r).transpose(0, 1, 3, 5, 2, 4, 6)
        y = sups[:, t, None] @ x.reshape(samples, k // g, 4, -1)
        y = y.reshape(samples, k // g, 2, 2, 2, 2, g, r, r)  # [a, p, b, c, unit, rest, rest']
        units = y.transpose(0, 1, 6, 2, 7, 3, 4, 8, 5).reshape(samples, k, 4 * r, 4 * r)
    return units


def _dense_rho(sups):
    """The samples' mean rho from its chain cut at m = N // 2: rho_m, the first m rounds on the
    initial spin, and R_ij, the rest on each spin unit |i><j|, give rho_N[(a rest P), (b rest' C)]
    = sum_ij R_ij[(a P), (b C)] rho_m[(i rest), (j rest')]. With a chunk of samples folded into
    the inner dimension (s i j), rho_m laid out as [rest, 1, 1, rest', (s i j)] and R as
    [a, 1, P, b, (s i j), C], one broadcast product writes each (rest' x C) cell of the output
    straight into its final place. The product is real and written into the output's float
    view: rho_m as [Re, Im] along the inner axis and R as [R; iR], viewed as float, make each
    cell one real GEMM whose interleaved (re, im) columns are Re = Lr Rr - Li Ri and
    Im = Lr Ri + Li Rr. A later chunk adds in a block of rest rows at a time. A chunk's factors
    hold at most _CHUNK_CELLS cells, or one sample, and so does a block's product. From
    _SPLIT_ENTRIES output entries on (N >= 9) the spin half a = 1 is written on a helper thread
    while the caller writes a = 0; below that a thread start costs more than it saves."""
    samples, n = sups.shape[:2]
    rl, rr = 2 ** (n // 2), 2 ** (n - n // 2)
    out = np.empty((2, rl, rr, 2, rl, rr), dtype=complex)  # [a, rest, P, b, rest', C]
    flat = out.view(float)  # [a, rest, P, b, rest', (C re/im)]
    chunk = max(1, _CHUNK_CELLS // (4 * rl * rl + 16 * rr * rr))
    rows = max(1, _CHUNK_CELLS // (4 * rl * rr * rr))
    for first in range(0, samples, chunk):
        part = sups[first:first + chunk]
        left = _chain(np.broadcast_to(_RHO0, (len(part), 1, 2, 2)), part[:, :n // 2])
        left = left.view(float).reshape(-1, 2, rl, 2, rl, 2)
        left = left.transpose(2, 4, 5, 0, 1, 3).reshape(rl, 1, 1, rl, -1)  # inner (re/im s i j)
        right = _chain(np.broadcast_to(_SPIN_UNITS, (len(part), 4, 2, 2)), part[:, n // 2:])
        right = (right / samples).reshape(-1, 2, 1, rr, 2, rr).transpose(1, 2, 3, 4, 0, 5)
        both = np.empty((2, 1, rr, 2, 2 * right.shape[-2], rr), dtype=complex)
        right = np.concatenate([right, right * 1j], axis=-2, out=both).view(float)

        def write(a):  # the output's spin rows a, a slice of [a, rest, P, b, rest', (C re/im)]
            if first:
                for r in range(0, rl, rows):
                    flat[a, r:r + rows] += left[r:r + rows] @ right[a]
            else:
                np.matmul(left, right[a], out=flat[a])

        _both_spins(write, out.size >= _SPLIT_ENTRIES)
        del left, right, both  # before the next chunk's factors are built
    return out.reshape(2 * rl * rr, 2 * rl * rr)


def _both_spins(write, split):
    """write(a) for the slice a of both spin rows; with split, write(slice(1, 2)) runs on a helper
    thread while the caller runs write(slice(0, 1)) (numpy's matmul releases the GIL), and an
    error there is raised here once both have ended."""
    if not split:
        return write(slice(0, 2))
    errors = []

    def helper():
        try:
            write(slice(1, 2))
        except BaseException as exc:  # raised in the caller below
            errors.append(exc)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        write(slice(0, 1))
    finally:
        thread.join()
    if errors:
        raise errors[0]


def run_protocol_cycles(cycles):
    """Run the protocol with an explicit per-round sequence of cycle maps.

    Only the forward recursion on the 2x2 spin-reduced state runs here; it
    fixes each round's normalization, the success probability and the
    orthogonal mass. Nothing of size 2^(N+1) is built.
    """
    if not cycles:
        raise ParamError("cycles must hold at least one cycle map")
    # one superoperator per distinct map: [cycle] * n repeats a single object
    built = {id(c): _spin_superoperator(c) for c in {id(c): c for c in cycles}.values()}
    sups = np.stack([built[id(c)] for c in cycles]).reshape(len(cycles), 16, 4)
    scale, success, orth_mass = _round_norms(sups, np.array([c.orthogonal_prob for c in cycles]))
    return HybridState((sups * scale[:, None, None])[None], success, orth_mass)


def _round_norms(sups, orth_probs):
    """Per-round factors (N,), success probability and orthogonal mass of raw superoperators
    (N, 16, 4), from one forward recursion on the 2x2 spin-reduced state.

    Of the weight detected in round t, the fraction orth_probs[t] is
    orthogonal, and the orthogonal sector keeps taking part in later rounds
    with the coherent detection probability. So a round's normalization is
    its detection probability det for a unit-trace spin input (the success
    probability is their product), the round's superoperator is scaled by
    (1 - orth_probs[t]) / det, and the final trace is the product of the
    (1 - orth_probs).
    """
    # the new photon traced out: spin transfer [(a b), (i j)] of each round
    reduced = np.einsum("tapbpx->tabx", sups.reshape(-1, 2, 2, 2, 2, 4)).reshape(-1, 4, 4)
    sigma = _RHO0.reshape(4, 1)
    det = np.empty(len(sups))
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, red in enumerate(reduced):
            sigma = red @ sigma
            trace = sigma[0, 0] + sigma[3, 0]
            det[t] = trace.real
            sigma = sigma / trace
    if not (det > 0.0).all():
        raise ParamError("protocol lost all probability; check the cycle map")
    return (1.0 - orth_probs) / det, float(det.prod()), -math.expm1(np.log1p(-orth_probs).sum())


def _check_run(cycle, n_photons, kind, noise, options):
    """``run_protocol``'s checks: N as an int and, for a PhysicalParams, the options with
    the kind's rotation angle (None for a CycleMap)."""
    n = _whole("n_photons", n_photons, 1)
    _check_kind(kind)
    if not isinstance(noise, (NoiseConfig, type(None))):
        raise ParamError(f"noise must be a NoiseConfig or None, got {noise!r}")
    if not isinstance(options, (CycleOptions, type(None))):
        raise ParamError(f"options must be a CycleOptions or None, got {options!r}")
    if isinstance(cycle, CycleMap):
        if noise is not None:
            raise ParamError("noise averaging needs PhysicalParams, not a fixed CycleMap")
        if options is not None:
            raise ParamError("options need PhysicalParams; a fixed CycleMap is already built")
        return n, None
    if not isinstance(cycle, PhysicalParams):
        raise ParamError(f"expected CycleMap or PhysicalParams, got {type(cycle)}")
    if options is not None and options.rotation_angle not in (
            CycleOptions.rotation_angle, kind.rotation_angle):
        raise ParamError(f"rotation_angle is set by the target kind; leave it at its "
                         f"default or give the kind's {kind.rotation_angle}")
    return n, replace(options or CycleOptions(), rotation_angle=kind.rotation_angle)


def run_protocol(cycle, n_photons, kind=TargetKind.GHZ, noise=None, options=None):
    """Apply initialization and N identical cycles.

    ``cycle`` may be a ready CycleMap or a PhysicalParams from which a map
    with the kind's rotation angle is built. With a NoiseConfig, samples of
    the quasi-static detuning (and drift) are averaged at the density-
    operator level (one state with a sample axis); reproducible for a
    fixed rng_seed, whose two spawned streams give the shifts and the
    drift kicks as one array each, so the first k samples are the k-sample
    run (see ``_noise_phases``). The options' ``quasistatic_detuning`` and
    ``drift_phase`` are static offsets that the sampled shifts add to.
    Without noise, a PhysicalParams run is the one-sample, zero-shift case
    of the same path. The kind sets the rotation angle: ``options`` may give
    the kind's own or the default, pi, which cannot be told apart from an
    unset angle and so is accepted for a cluster too; any other is refused.
    """
    n, base = _check_run(cycle, n_photons, kind, noise, options)
    if base is None:
        return run_protocol_cycles([cycle] * n)
    return _noise_state(cycle, n, base, noise or NoiseConfig(0.0))


def _noise_phases(params, n, options, noise):
    """e^{iD} (samples, N) of every noise sample and round, each noise source drawn as one array.

    Two streams are spawned from ``noise.rng_seed``: stream 0 draws every
    sample's detuning shift, a (samples, 1) array, and stream 1 every
    sample's drift kicks, a (samples, N) array in row order. Sample i takes
    draw i and row i, so results do not depend on evaluation order, the
    first k samples of a run are the k-sample run, and turning drift on
    leaves the shifts alone. A source of width 0 draws nothing; with both
    at 0 no generator is made. Both add to the static offsets in the
    resolved ``options``, and ``arm_phases`` turns them into the early-late
    phase difference D of the main Kraus block.
    """
    samples = noise.sample_count
    widths = (noise.overhauser_sigma, math.sqrt(noise.drift_diffusion * params.t_cycle**3))
    streams = np.random.SeedSequence(noise.rng_seed).spawn(2) if any(widths) else (None, None)
    shifts, kicks = (
        np.random.default_rng(seq).normal(0.0, width, size=shape) if width else np.zeros(shape)
        for seq, width, shape in zip(streams, widths, ((samples, 1), (samples, n)))
    )
    early, late = arm_phases(options, shifts, kicks)
    return np.exp(1j * (early - late))


def _noise_state(params, n, base, noise):
    """All noise samples as one state.

    The phase D of ``_noise_phases`` enters a round only through the main
    Kraus block, so its superoperator is S0 + e^{iD} S+ + e^{-iD} S-, split
    from three cycle maps once per (params, options). D leaves the
    spin-reduced map unchanged, so every sample has the cached
    ``_normalization`` of S0 and the equal-weight average is the
    success-weighted one. With c_t the round's factor, every sample's
    normalized superoperators are one product of the weights [c_t, c_t e^{iD},
    c_t e^{-iD}] (samples * N, 3) with the split rows (3, 64), by ``_gemm_rows``.
    """
    parts, options, _ = _split_superoperators(params, base)
    scale, success, orth_mass = _normalization(params, base, n)
    phase = scale * _noise_phases(params, n, options, noise)
    weights = np.stack([np.broadcast_to(scale, phase.shape), phase, phase.conj()], axis=-1)
    # a spare zero row: numpy hands a one-row product to gemv, whose bits differ from a GEMM
    # row's, and one sample of one round must stay the first sample of a longer run
    weights = np.concatenate([weights.reshape(-1, 3), np.zeros((1, 3))])
    rows = _gemm_rows(weights, parts)
    return HybridState(rows[:-1].reshape(noise.sample_count, n, 16, 4), success, orth_mass)


@lru_cache(maxsize=32)
def _split_superoperators(params, base):
    """S0, S+ and S- of one round as read-only rows of shape (3, 64), the
    resolved options and the orthogonal probability, per (params, options).

    Every run with the same inputs, noisy or not, shares them, so the three
    cycle maps of ``phase_split_maps`` are built once.
    """
    maps, options = phase_split_maps(params, base)
    parts = _SPLIT_WEIGHTS @ np.stack([_spin_superoperator(m) for m in maps]).reshape(3, 64)
    parts.flags.writeable = False
    return parts, options, maps[0].orthogonal_prob


@lru_cache(maxsize=32)
def _normalization(params, base, n):
    """Every round's factor (1 - p_o) / det_t as a read-only (N,) array, the success
    probability and the orthogonal mass, per (params, options, N): the spin recursion
    runs once, on S0, which has the spin-reduced map of every phase D."""
    parts, _, orth_prob = _split_superoperators(params, base)
    scale, success, orth_mass = _round_norms(
        np.broadcast_to(parts[0].reshape(16, 4), (n, 16, 4)), np.full(n, orth_prob))
    scale.flags.writeable = False
    return scale, success, orth_mass


@lru_cache(maxsize=32, typed=True)
def _ideal_chain(n_photons, kind):
    """The ideal run's read-only chain and two scalars, shared by every ``ideal_target``."""
    n = _whole("n_photons", n_photons, 1)
    _check_kind(kind)
    state = run_protocol_cycles([ideal_cycle_map(kind.rotation_angle)] * n)
    state.superoperators.flags.writeable = False
    return state.superoperators, state.success_probability, state.orthogonal_error_mass


def ideal_target(n_photons, kind):
    """The imperfection-free protocol's output: a single-sample, pure HybridState.

    Each call returns a new state on the cached, read-only chain, so a
    dense ``rho`` read on it lives only as long as the caller keeps it.
    """
    return HybridState(*_ideal_chain(n_photons, kind))


def conditional_fidelity(state, target):
    """Overlap with the target within the detected sector.

    Tr(rho_target rho), averaged over the state's samples; a HybridState
    holds tr rho + orthogonal mass at 1, so this is the overlap over the
    whole detected sector. For a pure target such as
    ``ideal_target(n, kind)`` it is <psi|rho|psi>. Neither rho is built.
    """
    return float(_overlaps(state, target).mean())


def _overlaps(state, target):
    """Tr(rho_target rho_s) for every noise sample s, one environment push per round.

    The environment E[(i j), (k l)] is rho_s's spin block (i j) against the
    conjugate of rho_target's (k l), with every photon emitted so far traced
    pairwise. A round applies S_t to (i j) and conj(T_t) to (k l) and traces
    the new photon pair, the latter by ``_gemm_rows`` (in row blocks from 256
    samples); the spins are traced pairwise at the end.
    """
    if not isinstance(target, HybridState):
        raise ParamError(
            f"target must be a HybridState such as ideal_target(n, kind), "
            f"got {type(target).__name__}"
        )
    if len(target.superoperators) != 1:
        raise ParamError(
            f"target must be a single-sample state, got {len(target.superoperators)} samples"
        )
    if target.photon_count != state.photon_count:
        raise ParamError(
            f"target has {target.photon_count} photons, the state {state.photon_count}"
        )
    samples, n = state.superoperators.shape[:2]
    # S[(a p), (b c), (i j)] -> [(a b p c), (i j)], and conj(T) -> [(a b), (p c k l)]
    sups = state.superoperators.reshape(samples, n, 2, 2, 2, 2, 4).transpose(0, 1, 2, 4, 3, 5, 6)
    sups = sups.reshape(samples, n, 16, 4)
    tgt = target.superoperators[0].conj().reshape(n, 2, 2, 2, 2, 4).transpose(0, 1, 3, 2, 4, 5)
    tgt = tgt.reshape(n, 4, 16).transpose(0, 2, 1)
    env = np.broadcast_to(np.outer(_RHO0, _RHO0.conj()), (samples, 4, 4))
    for t in range(n):
        env = _gemm_rows((sups[:, t] @ env).reshape(samples * 4, 16), tgt[t]).reshape(samples, 4, 4)
    return np.trace(env, axis1=1, axis2=2).real


def _gemm_rows(a, b):
    """``a @ b`` for a 2-D ``a``, in nearly equal blocks of rows, each with m*n*k below
    ``_GEMM_CELLS``: the blocks of q + 1 rows, then those of q, as two stacked products, which
    numpy runs one GEMM per block. q is at least 2, as numpy hands a one-row product to gemv,
    so every row has the bits of one product; an ``a`` that fits is one product."""
    m, blocks = len(a), -(-len(a) // ((_GEMM_CELLS - 1) // b.size))
    if blocks <= 1:
        return a @ b
    out = np.empty((m, b.shape[1]), dtype=np.result_type(a, b))
    q, r = divmod(m, blocks)
    for lo, hi, size in ((0, r * (q + 1), q + 1), (r * (q + 1), m, q)):
        np.matmul(a[lo:hi].reshape(-1, size, a.shape[1]), b,
                  out=out[lo:hi].reshape(-1, size, b.shape[1]))
    return out


def _generator_codes(n_photons, kind):
    """Pauli codes (0 = I, 1 = X, 2 = Z) of the N+1 stabilizer generators, one row
    each, in state-order columns (spin, p1..pN). On the chain (p1..pN, spin), whose
    position c is column c + 1 and the spin column 0, GHZ has X on every qubit and
    Z Z on each neighbouring pair, the cluster X on one qubit and Z on its neighbours."""
    n = _whole("n_photons", n_photons, 1)
    _check_kind(kind)
    chain, codes = np.arange(n + 1), np.zeros((n + 1, n + 1), dtype=np.int8)
    col = (chain + 1) % (n + 1)
    if kind is TargetKind.GHZ:
        codes[0] = 1
        codes[chain[1:], col[:-1]] = codes[chain[1:], col[1:]] = 2
    else:
        codes[chain, col] = 1
        codes[chain[:-1], col[1:]] = codes[chain[1:], col[:-1]] = 2
    return codes


def canonical_stabilizers(n_photons, kind):
    """The rows of ``_generator_codes`` as unsigned labels over I, X, Z, in state order."""
    letters = np.frombuffer(b"IXZ", dtype=np.uint8)[_generator_codes(n_photons, kind)]
    return [row.tobytes().decode() for row in letters]


# I, X, Z on one qubit, in the order of their codes
_PAULIS = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], np.diag([1.0, -1.0])], dtype=complex)


def _pauli_traces(state, codes):
    """Tr(P rho_s) per noise sample (rows) and Pauli string P, a row of ``codes`` (columns).

    A forward recursion on the 2x2 spin operator Tr_photons[(P_1..P_t) rho_t]:
    round t traces its new photon against the string's Pauli on that photon,
    and the spin's Pauli closes the chain. All strings run at once.
    """
    samples, n = state.superoperators.shape[:2]
    sup = state.superoperators.reshape(samples, n, 2, 2, 2, 2, 4)  # [a, p, b, c, (i j)]
    # sum_{p c} P[c, p] S[(a p), (b c), (i j)] for each round and Pauli
    reduced = np.einsum("stapbcx,kcp->stkabx", sup, _PAULIS).reshape(samples, n, 3, 4, 4)
    sigma = np.broadcast_to(_RHO0.reshape(4), (samples, len(codes), 4))
    for t in range(n):
        # [sample, string, (a b), (i j)] applied to [sample, string, (i j)]
        sigma = np.einsum("sgxy,sgy->sgx", reduced[:, t, codes[:, t + 1]], sigma)
    # Tr(P sigma) = sum_{a b} P[b, a] sigma[a, b]
    close = _PAULIS.transpose(0, 2, 1).reshape(3, 4)[codes[:, 0]]
    return (sigma * close).sum(axis=-1).real


@lru_cache(maxsize=32)
def _frame_signs(n_photons, kind):
    """Signs fixing the local frame of the ideal protocol output."""
    vals = _pauli_traces(ideal_target(n_photons, kind), _generator_codes(n_photons, kind))[0]
    off = np.flatnonzero(abs(abs(vals) - 1.0) > 1e-9)
    if off.size:
        raise RuntimeError(f"stabilizer {canonical_stabilizers(n_photons, kind)[off[0]]} is not "
                           f"+-1 on the ideal state ({vals[off[0]]}); frame convention broken")
    return tuple(np.sign(vals).tolist())


def stabilizer_expectations(state, kind):
    """Expectations of the N+1 frame-corrected stabilizers, without rho.

    Tr(P rho) over the detected sector, whose weight tr rho + orthogonal
    mass a HybridState holds at 1.
    """
    n = state.photon_count
    vals = _pauli_traces(state, _generator_codes(n, kind)).mean(axis=0)
    return [sign * float(v) for sign, v in zip(_frame_signs(n, kind), vals)]


@lru_cache(maxsize=16)
def _split_transfer(params, base, n, kind):
    """The split of every round on ``_overlaps``' environment, read-only (N, 16, 48), and the
    resolved options, per (params, options, N, kind).

    On the environment E[(i j), (k l)] as a row, round t of a noise sample is E @ (A0_t +
    e^{iD} A+_t + e^{-iD} A-_t), the three blocks side by side: S0, S+ and S- of
    ``_split_superoperators`` contracted with the ideal chain's round t, with the round's
    cached ``_normalization``, which does not depend on D, folded in.
    """
    parts, options, _ = _split_superoperators(params, base)
    # sum_{p c} S_x[a, p, b, c, (i j)] conj(T_t)[k', p, l', c, (k l)] is one product of
    # [(i j) x a b, (p c)] and [(p c), t (k l) k' l'], reordered to [t, (i j k l), (x a b k' l')]
    sx = parts.reshape(3, 2, 2, 2, 2, 4).transpose(5, 0, 1, 3, 2, 4).reshape(48, 4)
    tt = _ideal_chain(n, kind)[0][0].conj().reshape(n, 2, 2, 2, 2, 4).transpose(2, 4, 0, 5, 1, 3)
    transfer = (sx @ tt.reshape(4, -1)).reshape(4, 3, 2, 2, n, 4, 2, 2)
    transfer = transfer.transpose(4, 0, 5, 1, 2, 3, 6, 7).reshape(n, 16, 48)
    transfer *= _normalization(params, base, n)[0][:, None, None]
    transfer.flags.writeable = False
    return transfer, options


def overhauser_average(params, n_photons, kind, noise, options=None):
    """Monte Carlo average of the conditional fidelity over Overhauser noise.

    ``params`` must be PhysicalParams, even without noise; ``noise`` None
    is the one-sample, zero-shift case. The options' ``quasistatic_detuning`` and
    ``drift_phase`` are static offsets that the sampled shifts add to. The
    samples are those of ``run_protocol(params, ..., noise=noise)``, and each
    fidelity is the overlap ``_overlaps`` takes of that state with
    ``ideal_target``, but no state is built: every sample's environment is a
    row of one (samples, 16) array, and a round is one product with the
    cached ``_split_transfer`` (by ``_gemm_rows``, in row blocks from 86
    samples) and one batched (1 x 3)(3 x 16) product of each sample's phase
    weights [1, e^{iD}, e^{-iD}] with its three blocks.
    """
    noise = NoiseConfig(0.0) if noise is None else noise  # so a fixed CycleMap is refused
    n, base = _check_run(params, n_photons, kind, noise, options)
    transfer, options = _split_transfer(params, base, n, kind)
    phase = _noise_phases(params, n, options, noise).T
    # the phase weights [1, e^{iD}, e^{-iD}] of every round and sample, (N, samples, 1, 3)
    weights = np.stack([np.ones_like(phase), phase, phase.conj()], axis=-1)[:, :, None]
    env = np.outer(_RHO0, _RHO0.conj()).reshape(1, 16)
    for t in range(n):
        env = (weights[t] @ _gemm_rows(env, transfer[t]).reshape(-1, 3, 16)).reshape(-1, 16)
    fids = env[:, ::5].sum(axis=1).real  # the trace of E
    std_err = float(fids.std(ddof=1) / math.sqrt(len(fids))) if len(fids) > 1 else 0.0
    return {"mean_fidelity": float(fids.mean()), "std_error": std_err}

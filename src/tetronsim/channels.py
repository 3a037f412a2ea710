"""Noise parameters, physical-rate derivations, and noise-channel builders.

The error model for a measurement-based tetron has four dial-in parameters:

* ``p_a``  -- probability that a parity measurement records the wrong sign
             while still projecting onto the recorded subspace's complement
             (classical assignment error),
* ``p1``   -- single-qubit depolarizing probability accrued over one step,
* ``p2``   -- two-qubit depolarizing probability attached to two-qubit parity
             measurements,
* ``theta``-- coherent Z rotation per step from the residual Majorana
             splitting.

Channel builders return :class:`~tetronsim.pauli.Superoperator` transfer
matrices.  They are deliberately written as straightforward compositions of
dense primitives: the fast simulator in :mod:`tetronsim.simulator` implements
the same maps as sparse kernels and is tested against these.

Conventions: a measurement with ideal projectors Pi_s = (1 + s*P)/2 and
recorded sign s applies

    N_{P,s}[p_a](rho) = (1 - p_a) Pi_s rho Pi_s + p_a Pi_{-s} rho Pi_{-s}

(subnormalized; the trace is the probability of recording s).  One- and
two-qubit measurements are dressed with depolarizing halves on each side,
and two-qubit measurements additionally pick up half the coherent rotation
on each side:

    single: D1[p1/2] . N_{P,s} . D1[p1/2]
    double: D1xD1[p1/2] . D2[p2/2] . RotZxRotZ[theta/2] . N_{PQ,s}
              . D1xD1[p1/2] . D2[p2/2] . RotZxRotZ[theta/2]
    idle:   D1[p1] . RotZ[theta]

(rightmost factor acts first).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .pauli import (
    PauliString,
    Superoperator,
    channel_to_superop,
    pauli_matrix,
    projector,
)

# hbar in eV * s
HBAR_EV_S = 6.582119569e-16

# Inclusive upper bounds; the maxima correspond to fully randomizing noise.
_P_A_MAX = 0.5
_P1_MAX = 0.75
_P2_MAX = 15.0 / 16.0


@dataclass(frozen=True)
class NoiseParams:
    """Validated error-model parameters for one simulation."""

    p_a: float = 0.0
    p1: float = 0.0
    p2: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        checks = [
            ("p_a", self.p_a, 0.0, _P_A_MAX),
            ("p1", self.p1, 0.0, _P1_MAX),
            ("p2", self.p2, 0.0, _P2_MAX),
        ]
        for name, value, lo, hi in checks:
            if not (lo <= value <= hi) or not math.isfinite(value):
                raise ValueError(
                    f"{name}={value!r} outside the allowed range [{lo}, {hi}]"
                )
        if not (0.0 <= self.theta < math.pi) or not math.isfinite(self.theta):
            raise ValueError(
                f"theta={self.theta!r} outside the allowed range [0, pi)"
            )


# ---------------------------------------------------------------------------
# Noise maps: one grid walk and one CSV writer for every scan
# ---------------------------------------------------------------------------


def walk_grid(point, rows, cols, default, progress=None) -> tuple:
    """Evaluate ``point(row, col)`` row by row over a noise grid, calling
    ``progress(done, total)`` after each point.  An axis left None is a copy
    of ``default``.  Returns both axes as float arrays and the values indexed
    ``[i, j]``, with a trailing axis when ``point`` returns a tuple."""
    rows, cols = (np.array(default if a is None else a, float) for a in (rows, cols))
    if rows.size == 0 or cols.size == 0:
        raise ValueError("scan grids must be nonempty")
    values = []
    for row, col in product(rows, cols):
        values.append(point(float(row), float(col)))
        if progress is not None:
            progress(len(values), rows.size * cols.size)
    shape = (rows.size, cols.size) + np.shape(values[0])
    return rows, cols, np.array(values, float).reshape(shape)


def grid_csv(header: str, rows, cols, fixed: tuple, grids: tuple) -> str:
    """A noise map as CSV, one line per point in row-major order: the row and
    column values, the ``fixed`` values, then each grid's value at the point.
    Numbers get 12 significant digits, strings are written as they are."""
    fixed = "".join(f",{v}" if isinstance(v, str) else f",{v:.12g}" for v in fixed)
    lines = [header]
    for (i, row), (j, col) in product(enumerate(rows), enumerate(cols)):
        cells = "".join(f",{grid[i, j]:.12g}" for grid in grids)
        lines.append(f"{row:.12g},{col:.12g}{fixed}{cells}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Physical-rate derivations
# ---------------------------------------------------------------------------


def assignment_error_from_snr(snr: float) -> float:
    """Misassignment probability of a Gaussian readout with the given SNR.

    The two outcome distributions are unit-variance Gaussians separated by
    ``snr``; thresholding midway gives p_a = erfc(snr / sqrt(2)) / 2.
    """
    if snr < 0:
        raise ValueError(f"snr must be nonnegative, got {snr!r}")
    return 0.5 * math.erfc(snr / math.sqrt(2.0))


def lifetime_phonon(tau_elph_s: float, delta_over_kT: float) -> float:
    """Parity lifetime limited by phonon-assisted quasiparticle excitation.

    The attempt time ``tau_elph_s`` is exponentially suppressed by the ratio
    of the superconducting gap to temperature.
    """
    _require_positive(tau_elph_s=tau_elph_s)
    return tau_elph_s * math.exp(delta_over_kT)


def lifetime_charge_noise(
    eps_mst_ev: float, eps_res_ev: float, psd_plus: float, psd_minus: float
) -> float:
    """Parity lifetime limited by charge noise on the residual splitting.

    ``eps_mst_ev`` is the splitting at the measurement sweet spot,
    ``eps_res_ev`` the residual idle splitting, and ``psd_plus``/``psd_minus``
    the noise power spectral densities (1/s) at the absorption and emission
    frequencies.
    """
    _require_positive(
        eps_mst_ev=eps_mst_ev, eps_res_ev=eps_res_ev
    )
    total_psd = psd_plus + psd_minus
    _require_positive(psd_total=total_psd)
    return (eps_mst_ev / eps_res_ev) ** 2 / total_psd


def combine_lifetimes(*lifetimes_s: float) -> float:
    """Combine independent decay channels: rates add, 1/T = sum_i 1/T_i."""
    if not lifetimes_s:
        raise ValueError("need at least one lifetime")
    _require_positive(**{f"T{i}": t for i, t in enumerate(lifetimes_s)})
    return 1.0 / sum(1.0 / t for t in lifetimes_s)


def residual_splitting_wire(delta_ev: float, length_over_xi: float) -> float:
    """Residual Majorana splitting of a wire of given length (in coherence
    lengths): the gap scale suppressed by exp(-L/xi)."""
    _require_positive(delta_ev=delta_ev)
    if length_over_xi < 0:
        raise ValueError(f"length_over_xi must be nonnegative, got {length_over_xi!r}")
    return delta_ev * math.exp(-length_over_xi)


def depolarizing_from_lifetime(tau_s: float, t_life_s: float) -> float:
    """Single-qubit depolarizing probability accrued in ``tau_s``.

    Exponential parity decay toward the maximally mixed state gives
    p1 = (3/4)(1 - exp(-tau/T)).
    """
    _require_positive(tau_s=tau_s, t_life_s=t_life_s)
    return 0.75 * (1.0 - math.exp(-tau_s / t_life_s))


def rotation_angle(eps_res_ev: float, tau_s: float) -> float:
    """Coherent phase theta = eps_res * tau / hbar accumulated while idling."""
    if eps_res_ev < 0 or tau_s < 0:
        raise ValueError("eps_res_ev and tau_s must be nonnegative")
    return eps_res_ev * tau_s / HBAR_EV_S


def twirled_flip_probability(theta: float) -> float:
    """Incoherent flip probability equivalent to a coherent rotation by theta
    under Pauli twirling: sin(theta)^2."""
    return math.sin(theta) ** 2


def _require_positive(**named: float) -> None:
    for name, value in named.items():
        if not (value > 0) or not math.isfinite(value):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


# Recognized flat configuration keys for derive_noise.
DIRECT_KEYS = ("p_a", "p1", "p2", "theta")
PHYSICAL_KEYS = (
    "snr",
    "tau_meas_s",
    "tau_elph_s",
    "delta_over_kT",
    "eps_mst_eV",
    "eps_res_eV",
    "psd_plus",
    "psd_minus",
    "delta_eV",
    "L_over_xi",
)


def derive_noise(config: dict) -> tuple[NoiseParams, dict]:
    """Resolve a flat configuration mapping into :class:`NoiseParams`.

    Direct keys (``p_a``, ``p1``, ``p2``, ``theta``) take precedence.  Missing
    ones are derived from whichever physical keys are present:

    * ``p_a``   from ``snr``
    * ``eps_res_eV`` given directly or from ``delta_eV`` + ``L_over_xi``
    * ``theta`` from ``eps_res_eV`` + ``tau_meas_s``
    * ``p1``    from ``tau_meas_s`` and the parallel combination of the
      phonon lifetime (``tau_elph_s`` + ``delta_over_kT``) and the charge
      noise lifetime (``eps_mst_eV`` + ``eps_res_eV`` + ``psd_plus`` +
      ``psd_minus``); either lifetime leg may be omitted.

    Returns the parameters plus a diagnostics dict recording every derived
    intermediate and the route each parameter took.
    """
    config = dict(config)
    unknown = set(config) - set(DIRECT_KEYS) - set(PHYSICAL_KEYS)
    if unknown:
        raise ValueError(f"unrecognized noise config keys: {sorted(unknown)}")
    values = {}
    for key, raw in config.items():
        try:
            values[key] = float(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"noise config key {key!r} is not a number: {raw!r}") from exc

    diag: dict = {"route": {}}

    def have(*keys: str) -> bool:
        return all(k in values for k in keys)

    # p_a
    if have("p_a"):
        p_a = values["p_a"]
        diag["route"]["p_a"] = "direct"
    elif have("snr"):
        p_a = assignment_error_from_snr(values["snr"])
        diag["route"]["p_a"] = "snr"
        diag["p_a"] = p_a
    else:
        p_a = 0.0
        diag["route"]["p_a"] = "default"

    # residual splitting (feeds theta and the charge-noise lifetime)
    eps_res = None
    if have("eps_res_eV"):
        eps_res = values["eps_res_eV"]
        diag["route"]["eps_res_eV"] = "direct"
    elif have("delta_eV", "L_over_xi"):
        eps_res = residual_splitting_wire(values["delta_eV"], values["L_over_xi"])
        diag["route"]["eps_res_eV"] = "wire"
        diag["eps_res_eV"] = eps_res

    # theta
    if have("theta"):
        theta = values["theta"]
        diag["route"]["theta"] = "direct"
    elif eps_res is not None and have("tau_meas_s"):
        # Conjugation by exp(i*theta*P) is pi-periodic in theta, so reducing
        # the raw accumulated angle into [0, pi) is exact.  The unreduced
        # angle is kept in the diagnostics.
        raw = rotation_angle(eps_res, values["tau_meas_s"])
        theta = math.fmod(raw, math.pi)
        if theta < 0.0:
            theta += math.pi
        diag["route"]["theta"] = "splitting"
        diag["theta_raw"] = raw
        diag["theta"] = theta
    else:
        theta = 0.0
        diag["route"]["theta"] = "default"

    # p1 via parity lifetime legs
    if have("p1"):
        p1 = values["p1"]
        diag["route"]["p1"] = "direct"
    else:
        legs = []
        if have("tau_elph_s", "delta_over_kT"):
            t_ph = lifetime_phonon(values["tau_elph_s"], values["delta_over_kT"])
            diag["t_life_phonon_s"] = t_ph
            legs.append(t_ph)
        if eps_res is not None and have("eps_mst_eV", "psd_plus", "psd_minus"):
            t_cn = lifetime_charge_noise(
                values["eps_mst_eV"], eps_res, values["psd_plus"], values["psd_minus"]
            )
            diag["t_life_charge_noise_s"] = t_cn
            legs.append(t_cn)
        if legs and have("tau_meas_s"):
            t_life = combine_lifetimes(*legs)
            diag["t_life_s"] = t_life
            p1 = depolarizing_from_lifetime(values["tau_meas_s"], t_life)
            diag["route"]["p1"] = "lifetime"
            diag["p1"] = p1
        else:
            p1 = 0.0
            diag["route"]["p1"] = "default"

    # p2 has no derivation route; it is a direct dial.
    if have("p2"):
        p2 = values["p2"]
        diag["route"]["p2"] = "direct"
    else:
        p2 = 0.0
        diag["route"]["p2"] = "default"

    return NoiseParams(p_a=p_a, p1=p1, p2=p2, theta=theta), diag


# ---------------------------------------------------------------------------
# Channel builders (dense transfer matrices)
# ---------------------------------------------------------------------------


def depolarize1_superop(p1: float) -> Superoperator:
    """Single-qubit depolarizing channel: keep with 1-p, else uniform X/Y/Z."""
    lam = 1.0 - 4.0 * p1 / 3.0
    return Superoperator(np.diag([1.0, lam, lam, lam]), copy=False)


def depolarize2_superop(p2: float) -> Superoperator:
    """Two-qubit depolarizing channel over the 9 non-identity letter pairs.

    Diagonal in the Pauli basis: weight-2 strings shrink by 1 - 8*p2/9 and
    weight-1 strings by 1 - 4*p2/3 (an identity letter anticommutes with
    nothing, so single-qubit coherences decay faster).
    """
    diag = np.empty(16)
    for a in range(4):
        for b in range(4):
            ca = 3.0 if a == 0 else -1.0
            cb = 3.0 if b == 0 else -1.0
            diag[4 * a + b] = (1.0 - p2) + (p2 / 9.0) * ca * cb
    return Superoperator(np.diag(diag), copy=False)


def rotation_superop(pauli: "PauliString | str", phi: float) -> Superoperator:
    """Coherent rotation rho -> e^{+i phi P} rho e^{-i phi P}."""
    p = pauli_matrix(pauli)
    n = p.shape[0].bit_length() - 1
    half = (
        np.cos(phi) * np.eye(p.shape[0], dtype=complex) + 1j * np.sin(phi) * p
    )
    return channel_to_superop(lambda rho: half @ rho @ half.conj().T, n)


def timed_coupling_rotation(axis: "PauliString | str", phi: float) -> Superoperator:
    """Coherent rotation generated by a timed single-site coupling.

    Leaving a tunable coupling on for a calibrated time rotates the state by
    ``phi`` about ``axis``: rho -> e^{+i phi P} rho e^{-i phi P}.  The
    coupling acts on a single site, so ``axis`` must have weight 1; use
    :func:`rotation_superop` directly for multi-site generators.
    """
    p = axis if isinstance(axis, PauliString) else PauliString.from_text(axis)
    if p.weight != 1:
        raise ValueError(
            f"timed coupling axis must act on exactly one qubit, got {p} "
            f"(weight {p.weight})"
        )
    return rotation_superop(p, phi)


def t_state_fidelity(phase_error: float = 0.0, *, phi: float = math.pi / 8.0) -> float:
    """Fidelity of a timed-coupling magic-state preparation.

    The preparation rotates |+> about Z by ``phi`` + ``phase_error``; the
    target is the ``phase_error = 0`` output (the T state for the default
    ``phi`` = pi/8).  A pure miscalibration by ``phase_error`` costs fidelity
    sin(phase_error)^2.
    """
    plus = np.full((2, 2), 0.5, dtype=complex)
    target = timed_coupling_rotation("Z", phi).apply_dense(plus)
    actual = timed_coupling_rotation("Z", phi + phase_error).apply_dense(plus)
    return float(np.real(np.trace(target @ actual)))


def projection_superop(pauli: "PauliString | str", outcome: int) -> Superoperator:
    """Subnormalized projection rho -> Pi_s rho Pi_s (a fresh copy of a map
    built once per signed Pauli and outcome)."""
    if isinstance(pauli, str):
        pauli = PauliString.from_text(pauli)
    return Superoperator(_projection_matrix(pauli, outcome))


@functools.lru_cache(maxsize=None)
def _projection_matrix(pauli: PauliString, outcome: int) -> np.ndarray:
    """Read-only transfer matrix of :func:`projection_superop`."""
    pi = projector(pauli, outcome)
    n = pi.shape[0].bit_length() - 1
    matrix = channel_to_superop(lambda rho: pi @ rho @ pi, n).matrix
    matrix.flags.writeable = False
    return matrix


def assignment_mixed_projection(
    pauli: "PauliString | str", record: int, p_a: float
) -> Superoperator:
    """Projection branch consistent with *recording* sign ``record``:
    the right projection with weight 1-p_a plus the misassigned one with
    weight p_a."""
    plus = projection_superop(pauli, record)
    minus = projection_superop(pauli, -record)
    return Superoperator(
        (1.0 - p_a) * plus.matrix + p_a * minus.matrix, copy=False
    )


def idle_superop(noise: NoiseParams) -> Superoperator:
    """One idle step on one qubit: rotate by theta about Z, then depolarize."""
    rot = rotation_superop("Z", noise.theta)
    return depolarize1_superop(noise.p1) @ rot


def meas1_record_superop(
    letter: "PauliString | str", record: int, noise: NoiseParams
) -> Superoperator:
    """One-qubit parity measurement branch for a recorded sign.

    Half the step's depolarizing on each side of the assignment-mixed
    projection.  Subnormalized: the (0, 0) entry of the result applied to a
    state vector gives the record probability.
    """
    if isinstance(letter, str):
        letter = PauliString.from_text(letter)
    if letter.num_qubits != 1 or letter.sign != 1:
        raise ValueError(f"expected one unsigned letter, got {letter}")
    half = depolarize1_superop(noise.p1 / 2.0)
    core = assignment_mixed_projection(letter, record, noise.p_a)
    return half @ core @ half


def meas2_record_superop(
    pair: "PauliString | str", record: int, noise: NoiseParams
) -> Superoperator:
    """Two-qubit parity measurement branch for a recorded sign.

    The sandwich on each side of the assignment-mixed projection applies,
    innermost first, half the coherent Z rotation on both qubits, half the
    two-qubit depolarizing, and half the single-qubit depolarizing on both
    qubits.
    """
    if isinstance(pair, str):
        pair = PauliString.from_text(pair)
    if pair.num_qubits != 2 or pair.sign != 1:
        raise ValueError(f"expected two unsigned letters, got {pair}")
    if pair.weight != 2:
        raise ValueError(f"two-qubit measurement needs two non-identity letters, got {pair}")
    d1 = depolarize1_superop(noise.p1 / 2.0)
    rot = rotation_superop("Z", noise.theta / 2.0)
    sandwich = d1.tensor(d1) @ depolarize2_superop(noise.p2 / 2.0) @ rot.tensor(rot)
    core = assignment_mixed_projection(pair, record, noise.p_a)
    return sandwich @ core @ sandwich


def apply_superop_to_axes(
    superop: Superoperator, vec: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Apply a small transfer matrix to selected qubit axes of a Pauli vector.

    Oracle-grade helper (used by tests and small tomography routines); the
    production path in the simulator uses fused sparse kernels instead.
    """
    k = len(qubits)
    if superop.num_qubits != k:
        raise ValueError("superoperator arity does not match qubit count")
    t = vec.reshape((4,) * num_qubits)
    m = superop.matrix.reshape((4,) * (2 * k))
    # Contract the k input axes of the superoperator tensor with the chosen
    # qubit axes, then move the outputs back into place.
    t = np.tensordot(m, t, axes=(list(range(k, 2 * k)), list(qubits)))
    order = list(qubits) + [q for q in range(num_qubits) if q not in qubits]
    t = np.moveaxis(t, range(num_qubits), order)
    return np.ascontiguousarray(t.reshape(-1))


def embed_superop(
    superop: Superoperator, qubits: tuple[int, ...], num_qubits: int
) -> Superoperator:
    """Dense embedding of a small channel into an n-qubit transfer matrix.

    Intended for small n (tests, tomography); the full matrix is 4^n x 4^n.
    """
    size = 4**num_qubits
    out = np.zeros((size, size))
    basis = np.eye(size)
    for b in range(size):
        out[:, b] = apply_superop_to_axes(superop, basis[b], tuple(qubits), num_qubits)
    return Superoperator(out, copy=False)

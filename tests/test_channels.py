"""Noise-parameter derivations and channel builders.

The derivation pins below were computed independently from the closed-form
expressions (error function tail, exponential suppression factors) and are
frozen here as regression anchors.
"""

import math

import numpy as np
import pytest

from tetronsim import braiding, qed
from tetronsim.channels import (
    HBAR_EV_S,
    NoiseParams,
    assignment_error_from_snr,
    assignment_mixed_projection,
    combine_lifetimes,
    depolarize1_superop,
    depolarize2_superop,
    depolarizing_from_lifetime,
    derive_noise,
    embed_superop,
    idle_superop,
    lifetime_charge_noise,
    lifetime_phonon,
    meas1_record_superop,
    meas2_record_superop,
    projection_superop,
    residual_splitting_wire,
    rotation_angle,
    rotation_superop,
    t_state_fidelity,
    timed_coupling_rotation,
    twirled_flip_probability,
)
from tetronsim.pauli import (
    PAULI_MATRICES,
    PauliString,
    Superoperator,
    channel_to_superop,
    dense_to_pauli_vec,
    kraus_superop,
    pauli_matrix,
    pauli_vec_to_dense,
    projector,
)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_noise_params_accept_boundaries():
    NoiseParams()  # all-zero default
    NoiseParams(p_a=0.5, p1=0.75, p2=15 / 16, theta=3.14159)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p_a": -0.01},
        {"p_a": 0.51},
        {"p1": 0.76},
        {"p2": 0.94},
        {"theta": -0.1},
        {"theta": math.pi},
        {"p1": math.nan},
    ],
)
def test_noise_params_reject_out_of_range(kwargs):
    with pytest.raises(ValueError):
        NoiseParams(**kwargs)


# ---------------------------------------------------------------------------
# Physical derivations (frozen anchors)
# ---------------------------------------------------------------------------


def test_assignment_error_anchors():
    # Gaussian tail values for a well-separated and a marginal readout.
    assert assignment_error_from_snr(3.7) == pytest.approx(1.0779973347738823e-04, rel=1e-12)
    assert assignment_error_from_snr(0.52) == pytest.approx(0.3015317875469662, rel=1e-12)
    assert assignment_error_from_snr(0.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        assignment_error_from_snr(-1.0)


def test_lifetime_and_depolarizing_anchors():
    t_phonon = lifetime_phonon(50e-9, 12.0)
    assert t_phonon == pytest.approx(8.137739570950195e-03, rel=1e-12)
    p1 = depolarizing_from_lifetime(1e-6, t_phonon)
    assert p1 == pytest.approx(9.21575228300664e-05, rel=1e-10)
    # rates add in parallel
    assert combine_lifetimes(2.0, 2.0) == pytest.approx(1.0)
    assert combine_lifetimes(1e-3) == pytest.approx(1e-3)
    # saturation: tau >> T gives the fully mixed value 3/4
    assert depolarizing_from_lifetime(1.0, 1e-9) == pytest.approx(0.75)


def test_charge_noise_lifetime():
    t = lifetime_charge_noise(1e-4, 1e-6, 3.0e3, 1.0e3)
    assert t == pytest.approx((1e-4 / 1e-6) ** 2 / 4.0e3, rel=1e-12)


def test_splitting_and_rotation_anchors():
    eps = residual_splitting_wire(50e-6, 20.0)
    assert eps == pytest.approx(1.0305768112192789e-13, rel=1e-12)
    theta = rotation_angle(eps, 1e-6)
    assert theta == pytest.approx(1.5657218019451006e-04, rel=1e-10)
    assert rotation_angle(HBAR_EV_S, 1.0) == pytest.approx(1.0)


def test_twirled_flip_probability():
    assert twirled_flip_probability(0.0) == 0.0
    assert twirled_flip_probability(0.25) == pytest.approx(math.sin(0.25) ** 2)


def test_derive_noise_full_physical_route():
    params, diag = derive_noise(
        {
            "snr": 3.7,
            "tau_meas_s": 1e-6,
            "tau_elph_s": 50e-9,
            "delta_over_kT": 12.0,
            "delta_eV": 50e-6,
            "L_over_xi": 20.0,
        }
    )
    assert params.p_a == pytest.approx(1.0779973347738823e-04, rel=1e-12)
    assert params.p1 == pytest.approx(9.21575228300664e-05, rel=1e-10)
    assert params.theta == pytest.approx(1.5657218019451006e-04, rel=1e-10)
    assert params.p2 == 0.0
    assert diag["route"] == {
        "p_a": "snr",
        "eps_res_eV": "wire",
        "theta": "splitting",
        "p1": "lifetime",
        "p2": "default",
    }
    assert diag["t_life_s"] == pytest.approx(8.137739570950195e-03, rel=1e-12)


def test_derive_noise_direct_keys_take_precedence():
    params, diag = derive_noise({"p_a": 0.01, "snr": 3.7, "p1": 0.02, "theta": 0.0})
    assert params.p_a == 0.01
    assert params.p1 == 0.02
    assert diag["route"]["p_a"] == "direct"


def test_derive_noise_combines_lifetime_legs():
    config = {
        "tau_meas_s": 1e-6,
        "tau_elph_s": 50e-9,
        "delta_over_kT": 12.0,
        "eps_res_eV": 1e-6,
        "eps_mst_eV": 1e-4,
        "psd_plus": 3.0e3,
        "psd_minus": 1.0e3,
    }
    params, diag = derive_noise(config)
    t_expect = combine_lifetimes(
        lifetime_phonon(50e-9, 12.0), lifetime_charge_noise(1e-4, 1e-6, 3e3, 1e3)
    )
    assert diag["t_life_s"] == pytest.approx(t_expect, rel=1e-12)
    assert params.p1 == pytest.approx(depolarizing_from_lifetime(1e-6, t_expect), rel=1e-12)


def test_derive_noise_rejects_unknown_and_non_numeric_keys():
    with pytest.raises(ValueError, match="unrecognized"):
        derive_noise({"p_a": 0.1, "bogus": 1.0})
    with pytest.raises(ValueError, match="not a number"):
        derive_noise({"p_a": "lots"})


# ---------------------------------------------------------------------------
# Channel builders vs dense constructions
# ---------------------------------------------------------------------------


def test_depolarize1_matches_kraus():
    p = 0.21
    want = kraus_superop(
        [(1 - p, np.eye(2))] + [(p / 3, PAULI_MATRICES[k]) for k in (1, 2, 3)]
    )
    np.testing.assert_allclose(depolarize1_superop(p).matrix, want.matrix, atol=1e-12)


def test_depolarize2_matches_kraus():
    p = 0.37
    terms = [(1 - p, np.eye(4))]
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            terms.append((p / 9, np.kron(PAULI_MATRICES[a], PAULI_MATRICES[b])))
    want = kraus_superop(terms)
    np.testing.assert_allclose(depolarize2_superop(p).matrix, want.matrix, atol=1e-12)


def test_rotation_superop_matches_dense_conjugation():
    phi = 0.41
    for axis in ("X", "Y", "Z"):
        u = math.cos(phi) * np.eye(2) + 1j * math.sin(phi) * pauli_matrix(axis)
        want = channel_to_superop(lambda r: u @ r @ u.conj().T, 1)
        np.testing.assert_allclose(
            rotation_superop(axis, phi).matrix, want.matrix, atol=1e-12
        )
    u2 = math.cos(phi) * np.eye(4) + 1j * math.sin(phi) * pauli_matrix("XY")
    want2 = channel_to_superop(lambda r: u2 @ r @ u2.conj().T, 2)
    np.testing.assert_allclose(rotation_superop("XY", phi).matrix, want2.matrix, atol=1e-12)


def test_timed_coupling_rotation_matches_rotation_superop():
    for axis in ("X", "Y", "Z", "IZ", "XI"):
        np.testing.assert_allclose(
            timed_coupling_rotation(axis, 0.37).matrix,
            rotation_superop(axis, 0.37).matrix,
            atol=0,
        )


def test_timed_coupling_rotation_zero_angle_is_identity():
    np.testing.assert_allclose(
        timed_coupling_rotation("Z", 0.0).matrix, np.eye(4), atol=1e-15
    )


def test_timed_coupling_rotation_rejects_multi_site_axes():
    for axis in ("XX", "ZY", "II", "I"):
        with pytest.raises(ValueError, match="exactly one qubit"):
            timed_coupling_rotation(axis, 0.1)


def test_timed_coupling_eighth_turn_makes_t_state():
    # e^{i pi/8 Z}|+> is a magic state: Bloch vector (1/sqrt2, -1/sqrt2, 0).
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = timed_coupling_rotation("Z", math.pi / 8).apply_dense(plus)
    t_state = np.array(
        [[1.0, np.exp(1j * math.pi / 4)], [np.exp(-1j * math.pi / 4), 1.0]]
    ) / 2.0
    np.testing.assert_allclose(out, t_state, atol=1e-12)
    assert t_state_fidelity(0.0) == pytest.approx(1.0, abs=1e-12)


def test_t_state_fidelity_under_phase_jitter():
    # A miscalibrated angle pi/8 + delta costs exactly sin(delta)^2 fidelity;
    # at delta = 0.05 that is about 2.5e-3.
    for delta in (0.0, 0.05, 0.1, -0.2):
        assert t_state_fidelity(delta) == pytest.approx(
            1.0 - math.sin(delta) ** 2, abs=1e-12
        )
    assert 1.0 - t_state_fidelity(0.05) == pytest.approx(2.4979e-3, abs=1e-6)


def test_record_channels_sum_to_trace_preserving():
    noise = NoiseParams(p_a=0.03, p1=0.02, p2=0.05, theta=0.1)
    for letter in ("X", "Z"):
        total = Superoperator(
            meas1_record_superop(letter, 1, noise).matrix
            + meas1_record_superop(letter, -1, noise).matrix
        )
        assert total.is_trace_preserving(1e-12)
    total2 = Superoperator(
        meas2_record_superop("XX", 1, noise).matrix
        + meas2_record_superop("XX", -1, noise).matrix
    )
    assert total2.is_trace_preserving(1e-12)


def test_zero_noise_measurement_is_bare_projection():
    clean = NoiseParams()
    np.testing.assert_allclose(
        meas1_record_superop("Z", -1, clean).matrix,
        projection_superop("Z", -1).matrix,
        atol=1e-14,
    )
    np.testing.assert_allclose(
        meas2_record_superop("YZ", 1, clean).matrix,
        projection_superop("YZ", 1).matrix,
        atol=1e-14,
    )


def test_projection_superop_returns_fresh_copies_of_one_map():
    for pauli, outcome in (("Z", -1), ("YZ", 1), ("-XY", 1), (PauliString("ZX", -1), -1)):
        pi = projector(pauli, outcome)
        want = channel_to_superop(lambda rho: pi @ rho @ pi, pi.shape[0].bit_length() - 1)
        first, second = projection_superop(pauli, outcome), projection_superop(pauli, outcome)
        for got in (first, second):
            assert np.array_equal(got.matrix, want.matrix) and got.matrix.flags.writeable
        assert not np.shares_memory(first.matrix, second.matrix)
        first.matrix[:] = 7.0
        assert np.array_equal(projection_superop(pauli, outcome).matrix, want.matrix)
    assert np.array_equal(projection_superop("-XY", 1).matrix,
                          projection_superop(PauliString("XY", -1), 1).matrix)


def test_assignment_error_sets_record_probability():
    noise = NoiseParams(p_a=0.07)
    chan = meas1_record_superop("Z", 1, noise)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]])  # Z = +1 eigenstate
    out = chan.apply_dense(rho0)
    assert np.trace(out).real == pytest.approx(1 - 0.07, abs=1e-12)
    wrong = meas1_record_superop("Z", -1, noise).apply_dense(rho0)
    assert np.trace(wrong).real == pytest.approx(0.07, abs=1e-12)


def test_assignment_mixed_projection_weights():
    p_a = 0.2
    mixed = assignment_mixed_projection("X", 1, p_a)
    want = (1 - p_a) * projection_superop("X", 1).matrix + p_a * projection_superop(
        "X", -1
    ).matrix
    np.testing.assert_allclose(mixed.matrix, want, atol=1e-14)


def test_meas2_sandwich_order_matches_dense_composition():
    noise = NoiseParams(p_a=0.04, p1=0.06, p2=0.08, theta=0.3)
    d1 = depolarize1_superop(noise.p1 / 2)
    rot = rotation_superop("Z", noise.theta / 2)
    sandwich = (
        d1.tensor(d1) @ depolarize2_superop(noise.p2 / 2) @ rot.tensor(rot)
    )
    core = assignment_mixed_projection("XZ", -1, noise.p_a)
    want = sandwich @ core @ sandwich
    np.testing.assert_allclose(
        meas2_record_superop("XZ", -1, noise).matrix, want.matrix, atol=1e-12
    )


def test_meas_letter_validation():
    noise = NoiseParams()
    with pytest.raises(ValueError):
        meas1_record_superop("XX", 1, noise)
    with pytest.raises(ValueError):
        meas2_record_superop("XI", 1, noise)
    with pytest.raises(ValueError):
        meas2_record_superop("X", 1, noise)


def test_idle_superop_rotates_then_depolarizes():
    noise = NoiseParams(p1=0.02, theta=0.1)
    want = depolarize1_superop(0.02) @ rotation_superop("Z", 0.1)
    np.testing.assert_allclose(idle_superop(noise).matrix, want.matrix, atol=1e-14)


def test_embed_superop_matches_dense_oracle():
    rng = np.random.default_rng(5)
    vec = rng.normal(size=64)
    rho = pauli_vec_to_dense(vec)
    dep = depolarize1_superop(0.3)
    full = embed_superop(dep, (1,), 3)
    got = full.apply_vec(vec)
    mats = [
        np.kron(np.kron(np.eye(2), PAULI_MATRICES[k]), np.eye(2)) for k in (1, 2, 3)
    ]
    want_dense = 0.7 * rho + 0.1 * sum(m @ rho @ m for m in mats)
    np.testing.assert_allclose(got, dense_to_pauli_vec(want_dense), atol=1e-12)


# ---------------------------------------------------------------------------
# Noise maps: the shared grid walk
# ---------------------------------------------------------------------------


_ROWS, _COLS = [1e-3, 2e-2], [1e-4, 1e-3, 1e-2]

# Per scan: its module, the point function it looks up there, a call of the
# scan on the 2 x 3 grid, the point's (row, column) noise values, and the
# scan's values at (i, j) next to those a point result gives.
_SCANS = {
    "improvement": (
        qed,
        "improvement_point",
        lambda progress: qed.improvement_scan(_ROWS, _COLS, 0.01, progress=progress),
        lambda args: (args[0].p1, args[0].p2),
        lambda scan, i, j: (
            scan.lambda_avg[i, j],
            scan.lambda_x[i, j],
            scan.lambda_z[i, j],
            scan.accept_phys[i, j],
            scan.accept_log[i, j],
        ),
        lambda result: (
            result[0].lambda_avg,
            result[0].lambda_x,
            result[0].lambda_z,
            result[1][("physical", "XX")].acceptance[-1],
            result[1][("logical", "XX")].acceptance[-1],
        ),
    ),
    "fidelity": (
        braiding,
        "average_class_fidelity",
        lambda progress: braiding.fidelity_scan("HS", _ROWS, _COLS, 0.1, progress=progress),
        lambda args: (args[1].p1, args[1].p_a),
        lambda scan, i, j: (scan.fidelity[i, j],),
        lambda result: (result,),
    ),
}


@pytest.mark.parametrize("kind", sorted(_SCANS))
def test_scans_report_progress_after_each_point_in_row_major_order(monkeypatch, kind):
    module, name, run, axes_of, scan_values, point_values = _SCANS[kind]
    original = getattr(module, name)
    events = []

    def point(*args):
        result = original(*args)
        events.append(("point", axes_of(args), result))
        return result

    monkeypatch.setattr(module, name, point)
    scan = run(lambda done, total: events.append(("progress", done, total)))

    n1, n2 = len(_ROWS), len(_COLS)
    assert [e[0] for e in events] == ["point", "progress"] * (n1 * n2)
    points, progress = events[0::2], events[1::2]
    assert [e[1:] for e in progress] == [(k, n1 * n2) for k in range(1, n1 * n2 + 1)]
    for k, (_, axes, result) in enumerate(points):
        i, j = divmod(k, n2)
        assert axes == (_ROWS[i], _COLS[j])
        assert scan_values(scan, i, j) == point_values(result)

"""Ladder-code error-detection tests.

Oracles: dense channel-power maps for the physical repetition-code rates,
exhaustive noiseless fault injection adjudicated by the exact simulator, and
detector-firing patterns predicted independently by commutation counting.
Frozen constants (detector slot sets, readout expressions, reference-point
improvement ratios) were computed once with this code path and pinned.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest

import dense_oracle

from tetronsim import qed, simulator
from tetronsim.channels import (
    NoiseParams,
    meas1_record_superop,
    meas2_record_superop,
)
from tetronsim.pauli import PauliString, dense_to_pauli_vec, embed_letters
from tetronsim.qed import (
    DecayExperimentSpec,
    DecayFit,
    LadderLayout,
    decay_experiment,
    fit_decay,
    idle_ladder_circuit,
    idle_schedule,
    improvement_point,
    improvement_scan,
    inject_pauli,
    lambda_metrics,
    logical_zz_circuit,
    prepare_repcode_state,
    repcode_observables,
    scan_to_csv,
    contour_to_csv,
    surgery_schedule,
)
from tetronsim.simulator import (
    Circuit,
    Meas2,
    Parity,
    TrajectoryEnsemble,
    run_circuit,
)
from tetronsim.tableau import TaggedTableau

NOISELESS = NoiseParams()
XBAR = repcode_observables("logical")["XX"]
ZBAR = repcode_observables("logical")["ZI"]


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------


def test_layout_validation():
    with pytest.raises(ValueError):
        LadderLayout(1, ())
    with pytest.raises(ValueError):
        LadderLayout(2, (1,))  # patch sticks out below
    with pytest.raises(ValueError):
        LadderLayout(3, (0, 1))  # overlapping patches
    with pytest.raises(ValueError):
        LadderLayout(4, (-1,))


def test_layout_indexing():
    lay = LadderLayout.two_patches()
    assert lay.num_qubits == 8
    assert lay.patches == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert lay.qubit(0, 0) == 0 and lay.qubit(3, 1) == 7
    with pytest.raises(ValueError):
        lay.qubit(4, 0)
    with pytest.raises(ValueError):
        lay.qubit(0, 2)
    assert LadderLayout.single_patch().patches == ((0, 1, 2, 3),)


def test_schedules():
    lay = LadderLayout.single_patch()
    x_step, z_step = idle_schedule(lay)
    assert x_step == [("XX", (0, 1)), ("XX", (2, 3))]
    assert z_step == [("ZZ", (0, 2)), ("ZZ", (1, 3))]
    steps = surgery_schedule(LadderLayout.two_patches())
    assert len(steps) == 4
    assert steps[0] == steps[2]  # both X steps measure every rung
    assert steps[3] == [("YY", (2, 4)), ("YY", (3, 5))]
    with pytest.raises(ValueError):
        surgery_schedule(LadderLayout(6, (0, 4)))  # patches not adjacent


# ---------------------------------------------------------------------------
# Derived circuits and detectors
# ---------------------------------------------------------------------------


def test_idle_one_round_shape():
    d = idle_ladder_circuit(1)
    assert len(d.circuit.steps) == 2
    assert len(d.circuit.slots) == 4
    # nothing is forced without history, so no detector may reference round 1
    assert d.circuit.detectors == ()
    assert d.round_end_steps == (1,)
    with pytest.raises(ValueError):
        idle_ladder_circuit(0)


def test_idle_detectors_frozen():
    d = idle_ladder_circuit(3)
    assert [(det.slots, det.sign) for det in d.circuit.detectors] == [
        ((0, 1, 4, 5), 1),
        ((2, 3, 6, 7), 1),
        ((4, 5, 8, 9), 1),
        ((6, 7, 10, 11), 1),
    ]
    assert d.round_end_steps == (1, 3, 5)


def test_idle_prep_detectors_frozen():
    d = idle_ladder_circuit(2, prep_letter="Z")
    assert [(det.slots, det.sign) for det in d.circuit.detectors] == [
        ((0,), 1),
        ((1,), 1),
        ((2,), 1),
        ((3,), 1),
        ((0, 1, 2, 3, 6, 7), 1),
        ((4, 5, 8, 9), 1),
        ((6, 7, 10, 11), 1),
    ]
    assert d.round_end_steps == (2, 4)


def test_idle_noiseless_acceptance_one():
    d = idle_ladder_circuit(10)
    res = run_circuit(d.circuit, NOISELESS, TrajectoryEnsemble.maximally_mixed(4))
    assert res.acceptance == 1.0


def test_yyyy_inferred_from_each_round():
    # The four-qubit YYYY stabilizer value follows from the two steps of any
    # single round: it is the product of that round's four outcomes.
    tab = TaggedTableau(4)
    slot = 0
    lay = LadderLayout.single_patch()
    for rnd in range(3):
        for step in idle_schedule(lay):
            for letters, pair in step:
                tab.measure(embed_letters(4, letters, pair), slot)
                slot += 1
        assert tab.express("YYYY") == Parity(range(4 * rnd, 4 * rnd + 4), 1)


def test_patch_yyyy_inferred_after_steps_two_and_three():
    lay = LadderLayout.two_patches()
    tab = TaggedTableau(8)
    slot = 0
    for step_i, step in enumerate(surgery_schedule(lay)):
        for letters, pair in step:
            tab.measure(embed_letters(8, letters, pair), slot)
            slot += 1
        if step_i == 2:
            assert tab.express(embed_letters(8, "YYYY", (0, 1, 2, 3))) == Parity(
                (4, 5, 8, 9), 1
            )
            assert tab.express(embed_letters(8, "YYYY", (4, 5, 6, 7))) == Parity(
                (6, 7, 10, 11), 1
            )


def test_surgery_zz_readout_frozen():
    # Slot layout with X-basis prep: prep 0-7, round r steps at 8 + 14(r-1).
    # The joint ZZ on the middle four qubits is the previous round's two seam
    # YY outcomes times the current round's two middle rung outcomes.
    d = logical_zz_circuit(3, prep_letter="X")
    assert d.zz_readouts == (
        (2, Parity((20, 21, 23, 24), 1)),
        (3, Parity((34, 35, 37, 38), 1)),
    )
    assert d.round_end_steps == (4, 8, 12)
    # without prep the same pattern shifts down by the eight prep slots
    d = logical_zz_circuit(3)
    assert d.zz_readouts == (
        (2, Parity((12, 13, 15, 16), 1)),
        (3, Parity((26, 27, 29, 30), 1)),
    )


def test_zz_readout_constant_on_eigenstate():
    # |0...0> is a +1 eigenstate of the joint ZZ; noiselessly every branch's
    # inferred readout must be +1 in every round, read from its records and
    # as a kept parity.
    d = logical_zz_circuit(3, prep_letter="Z")
    readouts = [readout for _, readout in d.zz_readouts]
    keep = sorted({s for readout in readouts for s in readout.slots})
    res = run_circuit(
        d.circuit,
        NOISELESS,
        TrajectoryEnsemble.from_product_state(["0"] * 8),
        keep_slots=keep + readouts,
    )
    assert res.acceptance == 1.0
    for records in res.ensemble.records:
        for readout in readouts:
            value = readout.sign * math.prod(records[s] for s in readout.slots)
            assert value == 1
            assert records[readout] == 1


def test_zz_readout_matches_branch_states():
    # On a superposition input the readout is random but must agree with the
    # actual joint-ZZ expectation branch by branch.
    d = logical_zz_circuit(2, prep_letter="X")
    rnd, readout = d.zz_readouts[0]
    sign, slots = readout.sign, readout.slots
    assert rnd == 2
    # truncate right after the readout becomes available (round 2, step 1)
    steps = d.circuit.steps[: 4 + 2]  # prep + round 1 + first step of round 2
    circuit = Circuit(8, steps, ())
    res = run_circuit(
        circuit,
        NOISELESS,
        TrajectoryEnsemble.from_product_state(["+"] * 8),
        keep_slots=slots,
    )
    joint = PauliString.from_text(embed_letters(8, "ZZZZ", (2, 3, 4, 5)))
    for records, state in res.ensemble.branch_states():
        tr = float(np.real(state.matrix.trace()))
        expect = float(np.real(np.trace(joint.matrix() @ state.matrix))) / tr
        inferred = sign * math.prod(records[s] for s in slots)
        assert abs(expect - inferred) < 1e-10


# Frozen digests of derived circuits: the text form (steps, slots, detectors)
# together with the round ends and joint-ZZ readouts.  Any change to a
# detector, a slot or a step changes the digest.
DERIVED_DIGESTS = {
    ("decay", "physical", "XX", 1): "d4dacfca566033e5",
    ("decay", "physical", "XX", 2): "a8c8607c3ed6f4e4",
    ("decay", "physical", "XX", 10): "dafcc2281d592b89",
    ("decay", "physical", "ZI", 1): "9686559570216f45",
    ("decay", "physical", "ZI", 2): "b53f722055c6c5fd",
    ("decay", "physical", "ZI", 10): "b70b182aecab8289",
    ("decay", "logical", "XX", 1): "33d7ed24c7677c16",
    ("decay", "logical", "XX", 2): "4e4dabd25ee45867",
    ("decay", "logical", "XX", 10): "4069e1f57a7da57c",
    ("decay", "logical", "ZI", 1): "1be2d29d7497c3bb",
    ("decay", "logical", "ZI", 2): "02c0663d90097105",
    ("decay", "logical", "ZI", 10): "f0c0ca29dc98da39",
    ("idle_ladder_circuit", None, 1): "957cc0873c413151",
    ("idle_ladder_circuit", None, 3): "ab2313e6d36a7c97",
    ("idle_ladder_circuit", "X", 1): "6688a7808cf447ec",
    ("idle_ladder_circuit", "X", 3): "cb59ddae72ffb5b9",
    ("idle_ladder_circuit", "Y", 1): "ec2bfea36958d480",
    ("idle_ladder_circuit", "Y", 3): "464ffea0b651865c",
    ("idle_ladder_circuit", "Z", 1): "e86fcc56343fde09",
    ("idle_ladder_circuit", "Z", 3): "61dff0385c2de8a3",
    ("logical_zz_circuit", None, 1): "ca23b5b9c02d5d0e",
    ("logical_zz_circuit", None, 3): "8ac0709d83fa23f4",
    ("logical_zz_circuit", "X", 1): "33d7ed24c7677c16",
    ("logical_zz_circuit", "X", 3): "2596e2e9383e8193",
    ("logical_zz_circuit", "Y", 1): "7dfa515f670d7e33",
    ("logical_zz_circuit", "Y", 3): "b21fc8ff2803cf93",
    ("logical_zz_circuit", "Z", 1): "1be2d29d7497c3bb",
    ("logical_zz_circuit", "Z", 3): "d78422e86fa8318c",
}

PREPARATION_DIGESTS = {
    ("XX", "physical"): "49d9ac143d579ebc",
    ("XX", "logical"): "54c33aa0445b6fa8",
    ("ZZ", "physical"): "0a34392ae99832f5",
    ("ZZ", "logical"): "6b76ee0d58487f9c",
}


def circuit_digest(circuit, round_ends=(), readouts=()) -> str:
    # Each readout is written as (round, sign, slots).
    readouts = tuple((rnd, readout.sign, readout.slots) for rnd, readout in readouts)
    blob = "\n".join([circuit.to_text(), repr(tuple(round_ends)), repr(readouts)])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_derived_circuits_are_pinned():
    for key, want in DERIVED_DIGESTS.items():
        if key[0] == "decay":
            d = qed._derive_decay_circuit(*key[1:])
        else:
            d = getattr(qed, key[0])(key[2], prep_letter=key[1])
        assert circuit_digest(d.circuit, d.round_end_steps, d.zz_readouts) == want, key


# ---------------------------------------------------------------------------
# Preparation
# ---------------------------------------------------------------------------


def test_prepare_noiseless_pins():
    cases = {
        ("physical", "ZZ"): (1.0, 0.0, 1.0),
        ("physical", "XX"): (0.5, 1.0, 0.0),
        ("logical", "ZZ"): (1.0, 0.0, 1.0),
        ("logical", "XX"): (0.5, 1.0, 0.0),
    }
    for (level, basis), (acc, xx, zi) in cases.items():
        ens = prepare_repcode_state(basis, level, NOISELESS)
        obs = repcode_observables(level)
        assert abs(ens.total_trace - acc) < 1e-12
        assert abs(ens.expectation(obs["XX"]) - xx) < 1e-12
        assert abs(ens.expectation(obs["ZI"]) - zi) < 1e-12


def test_prepare_zz_also_pins_full_parity():
    ens = prepare_repcode_state("ZZ", "physical", NOISELESS)
    assert abs(ens.expectation("ZZ") - 1.0) < 1e-12


def test_prepare_validation():
    with pytest.raises(ValueError):
        prepare_repcode_state("YY", "physical")
    with pytest.raises(ValueError):
        prepare_repcode_state("XX", "half-logical")


def test_preparation_circuits_are_pinned(monkeypatch):
    ran = []

    def spy(circuit, noise, initial, **kwargs):
        ran.append(circuit)
        return run_circuit(circuit, noise, initial, **kwargs)

    monkeypatch.setattr(qed, "run_circuit", spy)
    for (basis, level), want in PREPARATION_DIGESTS.items():
        ran.clear()
        prepare_repcode_state(basis, level)
        assert [circuit_digest(c) for c in ran] == [want], (basis, level)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def _slot_checks(circuit: Circuit) -> dict:
    """slot -> full-width PauliString of the measured check."""
    out = {}
    for step in circuit.steps:
        for op in step.ops:
            if isinstance(op, Meas2):
                out[op.slot] = PauliString.from_text(
                    embed_letters(circuit.num_qubits, op.letters, (op.qubit_a, op.qubit_b))
                )
    return out


def _recorded_after(circuit: Circuit, step_index: int) -> set:
    out = set()
    for step in circuit.steps[step_index + 1 :]:
        for op in step.ops:
            if isinstance(op, Meas2):
                out.add(op.slot)
    return out


def test_injected_x_flips_predicted_detectors():
    # An X inserted between rounds 1 and 2 flips every later anticommuting
    # outcome; a detector fires iff it holds an odd number of flipped slots.
    d = idle_ladder_circuit(3)
    mixed = TrajectoryEnsemble.maximally_mixed(4)
    checks = _slot_checks(d.circuit)
    error = PauliString.from_text("XIII")
    bad = inject_pauli(d.circuit, 1, error)
    late = _recorded_after(d.circuit, 1)

    fired = []
    for det in d.circuit.detectors:
        flips = sum(
            1 for s in det.slots if s in late and not checks[s].commutes(error)
        )
        predicted = flips % 2 == 1
        acc = run_circuit(Circuit(4, bad.steps, (det,)), NOISELESS, mixed).acceptance
        assert acc == (0.0 if predicted else 1.0)
        if predicted:
            fired.append(det.slots)
    # frozen: exactly the Z-type comparison straddling the injection fires
    assert fired == [(2, 3, 6, 7)]


def test_single_fault_on_idle_patch_detected_or_absorbed():
    # Exhaustive over one round: every single-qubit Pauli injected between
    # steps either fires a detector (acceptance 0) or commutes with every
    # tracked stabilizer at that location (absorbed, acceptance 1).
    d = idle_ladder_circuit(3)
    mixed = TrajectoryEnsemble.maximally_mixed(4)
    lay = LadderLayout.single_patch()

    for after_step in (1, 2):  # before and inside round 2
        tab = TaggedTableau(4)
        slot = 0
        done = 0
        for step in idle_schedule(lay) * 3:
            if done > after_step:
                break
            for letters, pair in step:
                tab.measure(embed_letters(4, letters, pair), slot)
                slot += 1
            done += 1
        generators = [g for g, _ in tab.generators]
        for q in range(4):
            for letter in "XYZ":
                error = PauliString.from_text(embed_letters(4, letter, (q,)))
                acc = run_circuit(
                    inject_pauli(d.circuit, after_step, error), NOISELESS, mixed
                ).acceptance
                absorbed = all(g.commutes(error) for g in generators)
                assert acc == (1.0 if absorbed else 0.0)
                # on this schedule no single-qubit fault is ever absorbed
                assert not absorbed


def test_seam_yy_absorbed_rung_yy_flips_logical():
    # A YY fault on a seam pair right after its own YY measurement is
    # invisible and harmless.  A YY fault on a rung right after the XX step
    # is equivalent to a residual ZZ there: also invisible, but it flips the
    # joint X logical -- the known non-fault-tolerant hole of this cycle.
    d = logical_zz_circuit(3, prep_letter="X")
    init = TrajectoryEnsemble.from_product_state(["+"] * 8)
    last = d.round_end_steps[-1]

    base = run_circuit(d.circuit, NOISELESS, init, probes={last: [XBAR]})
    assert base.acceptance == 1.0
    assert abs(base.probes[last][str(XBAR)] - 1.0) < 1e-12

    cases = [
        ((2, 4), 8, 1.0),  # seam pair, right after round-2 Y step: absorbed
        ((0, 1), 5, -1.0),  # rung, right after round-2 first X step: logical flip
    ]
    for qubits, after, expected in cases:
        bad = inject_pauli(d.circuit, after, embed_letters(8, "YY", qubits))
        res = run_circuit(bad, NOISELESS, init, probes={last + 1: [XBAR]})
        assert res.acceptance == 1.0
        assert abs(res.probes[last + 1][str(XBAR)] - expected) < 1e-12


def test_inject_validation():
    d = idle_ladder_circuit(1)
    with pytest.raises(ValueError):
        inject_pauli(d.circuit, 0, "IIII")
    with pytest.raises(ValueError):
        inject_pauli(d.circuit, 5, "XIII")
    with pytest.raises(ValueError):
        inject_pauli(d.circuit, 0, "XI")


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


def test_observable_weights():
    phys = repcode_observables("physical")
    logi = repcode_observables("logical")
    assert phys["XX"].weight == 2 and phys["ZI"].weight == 1
    assert logi["XX"].weight == 4 and logi["ZI"].weight == 2
    assert str(logi["XX"]) == "XIXIXIXI"
    assert str(logi["ZI"]) == "ZZIIIIII"
    with pytest.raises(ValueError):
        repcode_observables("classical")


# ---------------------------------------------------------------------------
# Decay experiments
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        DecayExperimentSpec("virtual", "XX")
    with pytest.raises(ValueError):
        DecayExperimentSpec("physical", "YY")
    with pytest.raises(ValueError):
        DecayExperimentSpec("physical", "XX", rounds_grid=(2, 4))
    with pytest.raises(ValueError):
        DecayExperimentSpec("physical", "XX", rounds_grid=(0, 1, 2))
    spec = DecayExperimentSpec("physical", "XX", rounds_grid=(6, 2, 4))
    assert spec.rounds_grid == (2, 4, 6)


@pytest.mark.parametrize("shots", [0, -5, 2.5, True, "100"])
def test_spec_rejects_bad_shot_counts(shots):
    with pytest.raises(ValueError, match="shots"):
        DecayExperimentSpec("physical", "XX", shots=shots)
    assert DecayExperimentSpec("physical", "XX", shots=None).shots is None
    assert DecayExperimentSpec("physical", "XX", shots=np.int64(3)).shots == 3


@pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
def test_spec_and_sampler_reject_bad_seeds(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        DecayExperimentSpec("physical", "XX", shots=10, seed=seed)
    circuit = Circuit.from_text("step\nM1 X q0 -> s0\n")
    init = TrajectoryEnsemble.from_product_state(["0"])
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        simulator.sample_circuit(circuit, NoiseParams(), init, 10, seed=seed)
    assert DecayExperimentSpec("physical", "XX", shots=10, seed=np.int64(0)).seed == 0


def test_decay_circuit_cache_is_keyed_on_structure_only():
    noisy = NoiseParams(p_a=0.02, p1=0.003, p2=0.001)
    base = DecayExperimentSpec("logical", "XX")
    assert qed._decay_circuit(base) is qed._decay_circuit(
        DecayExperimentSpec("logical", "XX", noise=noisy, shots=10, seed=4)
    )
    others = [
        DecayExperimentSpec("physical", "XX"),
        DecayExperimentSpec("logical", "ZI"),
        DecayExperimentSpec("logical", "XX", rounds_grid=(2, 4, 6)),
    ]
    derived = [qed._decay_circuit(s) for s in [base] + others]
    assert len({id(d) for d in derived}) == len(derived)
    assert len({d.circuit for d in derived}) == len(derived)


def test_decay_fits_do_not_depend_on_cache_history():
    noise = NoiseParams(p_a=0.01, p1=0.004, p2=0.0007)

    def fits(rounds_grid):
        return {
            (level, obs): decay_experiment(
                DecayExperimentSpec(level, obs, rounds_grid=rounds_grid, noise=noise)
            )
            for level in ("physical", "logical")
            for obs in ("XX", "ZI")
        }

    fits((2, 4, 6, 8, 10))
    warm = fits((2, 4, 6))
    qed._derive_decay_circuit.cache_clear()
    simulator._cached_plan.cache_clear()
    cold = fits((2, 4, 6))
    assert warm == cold
    assert all(len(fit.expectations) == 3 for fit in cold.values())


def test_zero_noise_rates_zero():
    for level in ("physical", "logical"):
        for obs in ("XX", "ZI"):
            fit = decay_experiment(DecayExperimentSpec(level, obs, noise=NOISELESS))
            assert abs(fit.rate) < 1e-10
            assert fit.flags == ()
            assert all(abs(e - 1.0) < 1e-10 for e in fit.expectations)
            assert all(abs(a - 1.0) < 1e-10 for a in fit.acceptance)


def _channel_power_fit(prep_label: str, pin_letter: str, observable: str, noise):
    """Independent dense oracle: pin both qubits, then apply the +1-branch
    ZZ round map N times; expectations are ratios of Pauli components."""
    rho = {
        "0": np.array([[1, 0], [0, 0]], dtype=complex),
        "+": np.array([[1, 1], [1, 1]], dtype=complex) / 2,
    }[prep_label]
    v = dense_to_pauli_vec(np.kron(rho, rho))
    pin = meas1_record_superop(pin_letter, +1, noise)
    v = pin.tensor(pin).apply_vec(v)
    round_map = meas2_record_superop("ZZ", +1, noise)
    idx = PauliString.from_text(observable).index
    rounds = (2, 4, 6, 8, 10)
    vals, done = [], 0
    for n in rounds:
        for _ in range(n - done):
            v = round_map.apply_vec(v)
        done = n
        vals.append(v[idx] / v[0])
    rate, _, _, _ = fit_decay(rounds, vals)
    return rate, vals


def test_physical_zi_rate_matches_channel_powers():
    noise = NoiseParams(p_a=0.0, p1=0.01, p2=0.0)
    fit = decay_experiment(DecayExperimentSpec("physical", "ZI", noise=noise))
    rate, vals = _channel_power_fit("0", "Z", "ZI", noise)
    assert abs(fit.rate - rate) < 1e-12
    assert np.allclose(fit.expectations, vals, atol=1e-12)


def test_physical_xx_rate_matches_channel_powers_full_noise():
    # The first ZZ round splits |++> into two equally likely sectors related
    # by conjugation with X on one qubit, which preserves the preparation,
    # the observable, and every channel; the +1 sector alone is therefore a
    # faithful oracle for the sector-averaged conditional expectations.
    noise = NoiseParams(p_a=0.02, p1=0.01, p2=0.004)
    fit = decay_experiment(DecayExperimentSpec("physical", "XX", noise=noise))
    rate, vals = _channel_power_fit("+", "X", "XX", noise)
    assert abs(fit.rate - rate) < 1e-12
    assert np.allclose(fit.expectations, vals, atol=1e-12)


def test_fit_flags():
    rate, _, _, flags = fit_decay((1, 2, 3), (0.9, 0.0, 0.1))
    assert any("excluded" in f for f in flags)
    assert math.isfinite(rate)

    rate, _, _, flags = fit_decay((1, 2, 3), (0.0, 0.0, 0.5))
    assert math.isnan(rate)
    assert any("underdetermined" in f for f in flags)

    rate, _, _, flags = fit_decay((1, 2, 3), (0.5, 0.7, 0.9))
    assert rate < 0
    assert any("negative" in f for f in flags)


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="differ in length: 3 and 2"):
        fit_decay((1, 2, 3), (0.9, 0.8))
    # Two usable points at one round: a line through them is not determined.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rounds, values in (((2, 2, 4), (0.9, 0.8, 0.0)), ((3, 3), (0.5, 0.5))):
            fit = fit_decay(rounds, values)
            assert all(math.isnan(v) for v in fit[:3])
            assert "fit underdetermined" in fit[3]


def test_decay_acceptance_series_monotone():
    noise = NoiseParams(p_a=0.01, p1=0.02, p2=0.01)
    fit = decay_experiment(DecayExperimentSpec("physical", "XX", noise=noise))
    acc = np.array(fit.acceptance)
    assert np.all(np.diff(acc) <= 1e-12)
    assert acc[0] <= 1.0


def test_sampled_decay_acceptance_lies_within_three_sigma_of_exact():
    # Each round's sampled acceptance is the accepted share of that round's
    # own draw of ``shots`` shots: Binomial(shots, a) / shots, a the exact
    # acceptance.
    noise = NoiseParams(p_a=0.02, p1=5e-3, p2=5e-3)
    shots = 2000
    for level in ("physical", "logical"):
        for observable in ("XX", "ZI"):
            exact = decay_experiment(DecayExperimentSpec(level, observable, noise=noise))
            sampled = decay_experiment(
                DecayExperimentSpec(level, observable, noise=noise, shots=shots, seed=9))
            assert len(sampled.acceptance) == len(exact.acceptance)
            for a, got in zip(exact.acceptance, sampled.acceptance):
                assert 0.0 < a < 1.0
                assert abs(got - a) <= 3.0 * math.sqrt(a * (1.0 - a) / shots), (level, observable)


def test_logical_beats_physical_at_reference_point():
    noise = NoiseParams(p_a=0.01, p1=0.005, p2=0.0005)
    metrics, fits = improvement_point(noise)
    assert fits[("logical", "XX")].rate < fits[("physical", "XX")].rate
    assert fits[("logical", "ZI")].rate < fits[("physical", "ZI")].rate
    assert metrics.lambda_avg > 1.0
    # frozen from this exact pipeline (deterministic arithmetic)
    assert np.isclose(metrics.lambda_avg, 3.305454741264978, rtol=1e-9)
    assert np.isclose(metrics.lambda_x, 3.0966384948588646, rtol=1e-9)
    assert np.isclose(metrics.lambda_z, 822.886764894882, rtol=1e-9)


def test_theta_point_pinned_to_stable_digits():
    # At theta != 0 the logical ZI rate is tiny (about 5e-7 per round here),
    # so reordering exact floating-point work moves lambda_z in its last
    # digits: compare to rel 1e-6, not byte for byte.
    noise = NoiseParams(p_a=0.01, p1=1e-3, p2=1e-3, theta=0.01)
    metrics, fits = improvement_point(noise)
    pins = {
        "lambda_avg": (metrics.lambda_avg, 2.0687040810724757),
        "lambda_x": (metrics.lambda_x, 1.8233149301339853),
        "lambda_z": (metrics.lambda_z, 1889.7076354332025),
        "physical XX": (fits[("physical", "XX")].rate, 0.006612040639044403),
        "physical ZI": (fits[("physical", "ZI")].rate, 0.0008908505982242167),
        "logical XX": (fits[("logical", "XX")].rate, 0.003626384301344212),
        "logical ZI": (fits[("logical", "ZI")].rate, 4.7142244732476583e-07),
    }
    for name, (got, want) in pins.items():
        assert got == pytest.approx(want, rel=1e-6), name


def test_sampled_mode_agrees_loosely():
    noise = NoiseParams(p_a=0.02, p1=0.01, p2=0.002)
    exact = decay_experiment(DecayExperimentSpec("physical", "ZI", noise=noise))
    sampled = decay_experiment(
        DecayExperimentSpec("physical", "ZI", noise=noise, shots=20000, seed=7)
    )
    assert any("sampled" in f for f in sampled.flags)
    for a, b in zip(exact.expectations, sampled.expectations):
        assert abs(a - b) < 0.02


# ---------------------------------------------------------------------------
# Improvement metrics
# ---------------------------------------------------------------------------


def _fit(rate: float) -> DecayFit:
    return DecayFit(rate, 0.0, 0.0, (2, 4, 6), (1, 1, 1), (1, 1, 1))


def test_lambda_equal_rates_give_one():
    m = lambda_metrics(_fit(0.3), _fit(0.3), _fit(0.3), _fit(0.3))
    assert m.lambda_avg == m.lambda_x == m.lambda_z == 1.0


def test_lambda_scale_invariance():
    rates = (0.11, 0.02, 0.05, 0.003)
    base = lambda_metrics(*[_fit(r) for r in rates])
    scaled = lambda_metrics(*[_fit(17.0 * r) for r in rates])
    assert np.isclose(base.lambda_avg, scaled.lambda_avg, rtol=1e-12)
    assert np.isclose(base.lambda_x, scaled.lambda_x, rtol=1e-12)
    assert np.isclose(base.lambda_z, scaled.lambda_z, rtol=1e-12)


def test_lambda_zero_denominator_flagged():
    m = lambda_metrics(_fit(0.1), _fit(0.1), _fit(0.0), _fit(0.05))
    assert math.isinf(m.lambda_x)
    assert any("infinite improvement" in f for f in m.flags)


def test_lambda_of_underdetermined_fits_flagged():
    # An underdetermined fit has a NaN rate; every ratio that reads one is
    # NaN and says so.
    m = lambda_metrics(*[DecayFit(math.nan, math.nan, math.nan, (), (), ())] * 4)
    assert math.isnan(m.lambda_avg) and math.isnan(m.lambda_x) and math.isnan(m.lambda_z)
    assert m.flags == tuple(f"undefined improvement: no fitted rate for {label}"
                            for label in ("XX", "ZI", "average"))
    m = lambda_metrics(_fit(0.1), _fit(0.1), _fit(0.05), _fit(math.nan))
    assert m.lambda_x == 2.0 and math.isnan(m.lambda_z) and math.isnan(m.lambda_avg)
    assert m.flags == ("undefined improvement: no fitted rate for ZI",
                       "undefined improvement: no fitted rate for average")


def test_no_improvement_on_equal_noise_diagonal():
    for p in (0.001, 0.01, 0.05):
        noise = NoiseParams(p_a=0.01, p1=p, p2=p)
        metrics, _ = improvement_point(noise)
        assert metrics.lambda_avg <= 1.02


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_scan():
    grid = np.logspace(-3.5, -1.5, 5)
    return improvement_scan(grid, grid, 0.01)


def test_scan_values_finite(small_scan):
    for arr in (
        small_scan.lambda_avg,
        small_scan.lambda_x,
        small_scan.lambda_z,
        small_scan.accept_phys,
        small_scan.accept_log,
    ):
        assert np.all(np.isfinite(arr))


def test_scan_improvement_region_exists(small_scan):
    i, j = np.unravel_index(np.argmax(small_scan.lambda_avg), small_scan.lambda_avg.shape)
    assert small_scan.lambda_avg[i, j] > 1.0
    assert small_scan.p2_grid[j] < small_scan.p1_grid[i]


def test_scan_x_region_strictly_inside_z_region(small_scan):
    x_region = small_scan.lambda_x > 1.0
    z_region = small_scan.lambda_z > 1.0
    assert np.all(z_region[x_region])
    assert z_region.sum() > x_region.sum()


def test_scan_contour_and_best_point(small_scan):
    boundary = small_scan.contour()
    assert boundary, "improvement boundary should cross the scanned window"
    p1s = [p1 for p1, _ in boundary]
    assert p1s == sorted(p1s)
    for p1, p2 in boundary:
        assert small_scan.p2_grid[0] <= p2 <= small_scan.p2_grid[-1]
    best = small_scan.best_p1()
    assert best in boundary
    assert best[1] == max(p2 for _, p2 in boundary)


def _scan_column(p2_grid, lambdas) -> qed.ImprovementScan:
    col = np.array([lambdas], dtype=float)
    return qed.ImprovementScan(
        p1_grid=np.array([0.005]),
        p2_grid=np.array(p2_grid, dtype=float),
        p_a=0.01,
        theta=0.0,
        lambda_avg=col,
        lambda_x=col,
        lambda_z=col,
        accept_phys=np.ones_like(col),
        accept_log=np.ones_like(col),
    )


def test_contour_interpolates_linearly_from_zero_p2():
    # lambda falls from 3 at p2 = 0 to 0.5 at p2 = 0.05: there is no log
    # of 0, so the crossing is linear, 4/5 of the way along.
    scan = _scan_column([0.0, 0.05, 0.1], [3.0, 0.5, 0.2])
    assert scan.contour() == [(0.005, pytest.approx(0.04, rel=1e-12))]
    assert scan.best_p1() == (0.005, pytest.approx(0.04, rel=1e-12))


def test_contour_interpolates_log_spaced_crossings_log_linearly():
    # 2 -> 0.5 between 1e-3 and 1e-2: 2/3 of a decade, in log p2.
    scan = _scan_column([1e-3, 1e-2, 1e-1], [2.0, 0.5, 0.1])
    (p1, p2), = scan.contour()
    assert p1 == 0.005
    assert p2 == math.exp(math.log(1e-3) + (2.0 / 3.0) * (math.log(1e-2) - math.log(1e-3)))
    assert p2 == pytest.approx(10 ** (-7.0 / 3.0), rel=1e-12)


def test_contour_keeps_an_exact_touch_at_the_last_grid_point():
    # lambda reaches the level exactly at the largest p2, with no sign change.
    scan = _scan_column([1e-3, 1e-2, 1e-1], [2.0, 1.5, 1.0])
    assert scan.contour() == [(0.005, 0.1)]


def test_scan_csv_round_trip(small_scan):
    text = scan_to_csv(small_scan)
    lines = text.strip().split("\n")
    assert lines[0] == "p1,p2,pa,lambda,lambda_x,lambda_z,accept_phys,accept_log"
    assert len(lines) == 1 + 25
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(small_scan.p1_grid[0], rel=1e-10)
    assert float(first[3]) == pytest.approx(small_scan.lambda_avg[0, 0], rel=1e-9)

    ctext = contour_to_csv(small_scan.contour())
    clines = ctext.strip().split("\n")
    assert clines[0] == "p1,p2"
    assert len(clines) == 1 + len(small_scan.contour())


def test_theta_scan_csv_is_pinned():
    # A 3 x 3 map at theta = 0.01 (sha256 on x86-64 with numpy 2.x); the
    # exact runner's pruned plans must reproduce it byte for byte.
    grid = np.logspace(-3, -1, 3)
    text = scan_to_csv(improvement_scan(grid, grid, 0.01, theta=0.01))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "09cc362132fefc4c9a87ab68d9841d40c7286a76b5e286c2552f96918224495e"
    )


def test_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        improvement_scan(np.array([]), np.array([0.01]), 0.01)


# ---------------------------------------------------------------------------
# Exact-mode equivalences
# ---------------------------------------------------------------------------


def test_marginalization_schedule_independence():
    # Keeping every record and summing the branches afterwards gives the
    # state of the run that keeps none; both are the dense oracle's.
    noise = NoiseParams(p_a=0.02, p1=0.01, p2=0.002)
    d = logical_zz_circuit(2, prep_letter="X")
    init = TrajectoryEnsemble.from_product_state(["+"] * 8)

    eager = run_circuit(d.circuit, noise, init)
    kept = run_circuit(d.circuit, noise, init, keep_slots="all")
    assert kept.ensemble.num_branches > eager.ensemble.num_branches

    reference = dense_oracle.run(d.circuit, noise, init)
    assert abs(eager.acceptance - reference.acceptance) < 1e-12
    assert abs(kept.ensemble.total_trace - reference.acceptance) < 1e-12
    np.testing.assert_allclose(eager.ensemble.sum_pauli_vec(), reference.state, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(kept.ensemble.sum_pauli_vec(), reference.state, rtol=0,
                               atol=1e-12)
    for obs in (XBAR, "ZZIIIIII", embed_letters(8, "ZZZZ", (2, 3, 4, 5))):
        assert abs(kept.ensemble.expectation(obs) - reference.expectation(obs)) < 1e-12


def test_marginalize_mixes_slot_and_parity_entries():
    # Kept slots and kept parities side by side, and each alone: every
    # branch is the dense oracle's branch of the same kept values.
    noise = NoiseParams(p_a=0.02, p1=0.01, p2=0.002)
    d = idle_ladder_circuit(2, prep_letter="X")
    init = TrajectoryEnsemble.from_product_state(["+"] * d.circuit.num_qubits)
    ens = run_circuit(d.circuit, noise, init, keep_slots=[Parity((0, 2)), 1]).ensemble
    assert {key for tag in ens.tags for key in tag} == {("s", Parity((0, 2))), ("s", 1)}
    # The detectors pin s0 to s3; the ZZ checks s6, s7, s10 and s11 are random.
    for keep, branches in (([Parity((0, 2)), 1], 1), ([Parity((6, 10)), 7], 4),
                           ([Parity((6, 10))], 2), ([6, Parity((7, 11), -1)], 4)):
        ens = run_circuit(d.circuit, noise, init, keep_slots=keep).ensemble
        reference = dense_oracle.run(d.circuit, noise, init, keep=keep)
        assert len(reference.branches) == branches
        dense_oracle.assert_same_branches(dense_oracle.ensemble_branches(ens, keep),
                                          reference.branches, atol=1e-12)

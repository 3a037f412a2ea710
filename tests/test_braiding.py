"""Tests for measurement-based Clifford synthesis.

The dense projector oracle is the ground truth here: every sequence and
correction rule is checked exhaustively against it, and the noisy-channel
regression values were produced by the exact simulator itself and frozen.
"""

import hashlib
import math
from itertools import product

import numpy as np
import pytest

from tetronsim import braiding, simulator
from tetronsim.braiding import (
    AUX,
    COMP,
    CLIFFORD_CLASSES,
    ClassSequence,
    FidelityScan,
    _correction_matrix,
    average_class_fidelity,
    class_circuit,
    fidelity_scan,
    gateset_experiment_suite,
    ideal_superop,
    ideal_unitary,
    pauli_correction,
    run_gateset_suite,
    scan_to_csv,
    sequence_for,
    simulate_class,
    solve_gateset,
    verify_sequence_identity,
)
from tetronsim.channels import NoiseParams, meas1_record_superop, meas2_record_superop
from tetronsim.pauli import PauliString, embed_letters, pauli_matrix, unitary_superop
from tetronsim.simulator import (
    Circuit,
    Meas1,
    Meas2,
    TrajectoryEnsemble,
    read_branches,
    run_circuit,
)


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


def test_exactly_six_classes():
    assert CLIFFORD_CLASSES == ("identity", "H", "S", "HSH", "SH", "HS")


def test_sequence_tokens_match_published_protocols():
    assert sequence_for("S").measurements == ("XI", "ZZ", "YI", "XI")
    assert sequence_for("H").measurements == ("XI", "ZY", "YI", "XI")
    assert sequence_for("HSH").measurements == ("XI", "ZZ", "ZY", "XI")
    assert sequence_for("SH").measurements == ("XI", "ZZ", "ZY", "YI", "XI")
    assert sequence_for("HS").measurements == ("XI", "ZY", "ZZ", "YI", "XI")
    assert sequence_for("identity").measurements == ()


@pytest.mark.parametrize("name", CLIFFORD_CLASSES)
def test_sequences_respect_device_constraints(name):
    seq = sequence_for(name).measurements
    if not seq:
        return
    assert seq[0] == "XI" and seq[-1] == "XI"
    for token in seq:
        if "I" not in token:
            assert token in {"ZZ", "YY", "YZ", "ZY"}


def test_unknown_class_rejected():
    with pytest.raises(ValueError, match="unknown Clifford class"):
        sequence_for("T")


def test_class_sequence_validation():
    with pytest.raises(ValueError, match="start and end"):
        ClassSequence("H", ("ZY", "YI", "XI"))
    with pytest.raises(ValueError, match="not device-supported"):
        ClassSequence("H", ("XI", "XX", "YI", "XI"))
    with pytest.raises(ValueError, match="bad measurement token"):
        ClassSequence("H", ("XI", "Q?", "XI"))


# ---------------------------------------------------------------------------
# Corrections
# ---------------------------------------------------------------------------


def test_phase_class_correction_examples():
    assert str(pauli_correction("S", (1, 1, 1, 1))) == "Z"
    assert str(pauli_correction("S", (1, -1, -1, 1))) == "Z"
    # odd product of the first three outcomes -> no correction
    assert str(pauli_correction("S", (-1, 1, 1, 1))) == "I"
    assert str(pauli_correction("S", (1, -1, 1, 1))) == "I"


def test_hadamard_correction_always_contains_x():
    for s in product((1, -1), repeat=4):
        corr = pauli_correction("H", s)
        assert str(corr) in ("X", "Z")  # Y*X collapses to Z (phase dropped)
        expect = "Z" if s[0] * s[1] * s[2] > 0 else "X"
        assert str(corr) == expect


def test_hsh_correction_oracle_adjudicated_case():
    # Outcome vectors with s0 == s3 and s1 == -s2 give no correction at all:
    # both exponents vanish.  The dense projector oracle confirms this is the
    # unique rule making every branch proportional to the target.
    for s in [(1, 1, -1, 1), (-1, -1, 1, -1), (1, -1, 1, 1)]:
        assert s[0] == s[3] and s[1] == -s[2]
        assert str(pauli_correction("HSH", s)) == "I"
    # and the complementary sign patterns activate each exponent separately
    assert str(pauli_correction("HSH", (1, 1, 1, -1))) == "Z"  # Y then X
    assert str(pauli_correction("HSH", (1, 1, 1, 1))) == "X"
    assert str(pauli_correction("HSH", (1, 1, -1, -1))) == "Y"


def test_correction_length_and_value_validation():
    with pytest.raises(ValueError, match="needs 4 outcomes"):
        pauli_correction("S", (1, 1, 1))
    with pytest.raises(ValueError, match="needs 5 outcomes"):
        pauli_correction("HS", (1, 1, 1, 1))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        pauli_correction("S", (1, 0, 1, 1))


@pytest.mark.parametrize("name", CLIFFORD_CLASSES)
def test_signless_correction_matches_matrix_rule(name):
    # pauli_correction must act by conjugation exactly like the matrix
    # product of the exponent rule (phases differ, actions agree).
    n = len(sequence_for(name).measurements)
    for s in product((1, -1), repeat=n):
        mat = _correction_matrix(name, s)
        pauli = pauli_matrix(pauli_correction(name, s))
        # proportionality with unimodular constant
        coeff = np.trace(pauli.conj().T @ mat) / 2.0
        assert abs(abs(coeff) - 1.0) < 1e-12
        assert np.linalg.norm(mat - coeff * pauli) < 1e-12


# ---------------------------------------------------------------------------
# Dense projector oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CLIFFORD_CLASSES)
def test_sequence_identity_holds_for_every_outcome(name):
    report = verify_sequence_identity(name)
    assert report.passed
    assert report.max_deviation < 1e-12
    assert report.zero_branches == ()
    expected_branches = {"identity": 0, "H": 16, "S": 16, "HSH": 16, "SH": 32, "HS": 32}
    assert report.num_branches == expected_branches[name]
    if name != "identity":
        assert report.min_weight > 1e-3


def test_corrupted_correction_rule_is_detected():
    def always_x(name, s):
        return pauli_matrix("X")

    report = verify_sequence_identity("S", correction_matrix=always_x)
    assert not report.passed
    assert report.max_deviation > 1e-3

    # flipping a single exponent (X on whenever the true rule says off) for
    # the HSH class must also be caught
    def wrong_hsh(name, s):
        m = _correction_matrix(name, s)
        return m @ pauli_matrix("X")

    report = verify_sequence_identity("HSH", correction_matrix=wrong_hsh)
    assert not report.passed


# ---------------------------------------------------------------------------
# Noisy channel simulation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CLIFFORD_CLASSES)
def test_zero_noise_reproduces_ideal_channel(name):
    got = simulate_class(name).matrix
    want = ideal_superop(name).matrix
    assert np.max(np.abs(got - want)) < 1e-10


def test_zero_noise_composition_law():
    h = simulate_class("H").matrix
    s = simulate_class("S").matrix
    hsh = simulate_class("HSH").matrix
    assert np.max(np.abs(h @ s @ h - hsh)) < 1e-10


def test_two_qubit_errors_matter_less_than_single_qubit_errors():
    f_p2_only = average_class_fidelity("S", NoiseParams(p2=0.1))
    f_p1_only = average_class_fidelity("S", NoiseParams(p1=0.1))
    assert f_p2_only > f_p1_only + 0.1
    assert f_p2_only > 0.9


def test_noisy_fidelity_regression_values():
    # frozen from the exact simulator at build time
    noise = NoiseParams(p_a=0.02, p1=0.05, p2=0.1)
    pins = {
        "S": 0.7889412158951682,
        "HSH": 0.7413862906052242,
        "SH": 0.7251751816148673,
    }
    for name, value in pins.items():
        assert average_class_fidelity(name, noise) == pytest.approx(value, rel=1e-9)
    # basis symmetry of the noise model pairs up sequences of equal shape
    assert average_class_fidelity("H", noise) == pytest.approx(pins["S"], abs=1e-12)
    assert average_class_fidelity("HS", noise) == pytest.approx(pins["SH"], abs=1e-12)


def test_circuit_shape_one_measurement_per_step():
    circuit = class_circuit("SH")
    assert circuit.num_qubits == 2
    assert len(circuit.steps) == 5
    for step, token in zip(circuit.steps, sequence_for("SH").measurements):
        assert len(step.ops) == 1
        op = step.ops[0]
        if token[1] == "I":
            assert isinstance(op, Meas1) and op.qubit == AUX and op.letter == token[0]
        else:
            assert isinstance(op, Meas2)
            assert (op.qubit_a, op.qubit_b) == (AUX, COMP)
            assert op.letters == token


def test_measurement_channels_blind_to_loop_orientation():
    # The two physical realizations of a parity loop differ by reversing the
    # loop orientation, which conjugates the qubit frame by the measured
    # operator itself.  The noisy measurement channels must not notice.
    noise = NoiseParams(p_a=0.03, p1=0.07, p2=0.1, theta=0.2)
    cx = unitary_superop(pauli_matrix("X")).matrix
    for record in (1, -1):
        chan = meas1_record_superop("X", record, noise).matrix
        assert np.max(np.abs(cx @ chan @ cx - chan)) < 1e-12
    quiet = NoiseParams(p_a=0.03, p1=0.07, p2=0.1)
    czy = unitary_superop(np.kron(pauli_matrix("Z"), pauli_matrix("Y"))).matrix
    for record in (1, -1):
        chan = meas2_record_superop("ZY", record, quiet).matrix
        assert np.max(np.abs(czy @ chan @ czy - chan)) < 1e-12


# The per-branch reference: keep every record of the class sequence, then
# one pauli_correction (and, for the transfer matrix, one apply_pauli) per
# branch.  The runs under test keep only the parities the correction rule
# reads.  The per-input reference runs each tomography input on its own, as
# four runs; the batched run under test must reproduce it bit for bit.


def per_input_simulate_class(name, noise):
    circuit = class_circuit(name)
    slots = circuit.slots
    parities = braiding._parities(name, slots)
    outputs = {}
    for label in ("0", "1", "+", "+i"):
        init = TrajectoryEnsemble.from_product_state(["+", label])
        ens = run_circuit(circuit, noise, init, keep_slots=parities).ensemble
        for row, records in enumerate(ens.records):
            corr = braiding._correction(name, tuple(records[p] for p in parities))
            if corr.letters != "I":
                ens.apply_pauli(embed_letters(2, corr.letters, (COMP,)), rows=[row])
        outputs[label] = ens.trace_out([AUX]).sum_pauli_vec()
    v_id = outputs["0"] + outputs["1"]
    return 0.5 * np.column_stack(
        [v_id, 2.0 * outputs["+"] - v_id, 2.0 * outputs["+i"] - v_id,
         outputs["0"] - outputs["1"]]
    )


def per_branch_simulate_class(name, noise):
    circuit = class_circuit(name)
    slots = circuit.slots
    outputs = {}
    for label in ("0", "1", "+", "+i"):
        init = TrajectoryEnsemble.from_product_state(["+", label])
        ens = run_circuit(circuit, noise, init, keep_slots="all").ensemble
        for row, records in enumerate(ens.records):
            corr = pauli_correction(name, [records[s] for s in slots])
            ens.apply_pauli(embed_letters(2, corr.letters, (COMP,)), rows=[row])
        outputs[label] = ens.trace_out([AUX]).sum_pauli_vec()
    v_id = outputs["0"] + outputs["1"]
    return 0.5 * np.column_stack(
        [v_id, 2.0 * outputs["+"] - v_id, 2.0 * outputs["+i"] - v_id,
         outputs["0"] - outputs["1"]]
    )


def per_branch_tomography(name, circuit, noise, with_class):
    class_slots = circuit.slots[3:-1] if with_class else ()
    final_slot = circuit.slots[-1]
    measured = PauliString(circuit.steps[-1].ops[0].letter)
    init = TrajectoryEnsemble.from_product_state(["+", "+"])
    ens = run_circuit(circuit, noise, init, keep_slots=class_slots + (final_slot,)).ensemble
    weighted = 0.0
    for trace, records in zip(ens.branch_traces, ens.records):
        sign = records[final_slot]
        if with_class:
            corr = pauli_correction(name, [records[s] for s in class_slots])
            sign = sign if corr.commutes(measured) else -sign
        weighted += sign * trace
    return weighted / ens.total_trace


def braid_noise_points():
    rng = np.random.default_rng(11)
    return [
        NoiseParams(p_a=float(rng.uniform(0.0, 0.2)), p1=float(rng.uniform(0.0, 0.2)),
                    p2=float(rng.uniform(0.0, 0.2)),
                    theta=float(rng.uniform(0.01, 0.3)) if k % 2 else 0.0)
        for k in range(6)
    ]


def class_reads(name, noise):
    """The batched class read of ``name``: every input an initial branch of
    one ensemble, keeping the correction rule's parities."""
    circuit = class_circuit(name)
    return read_branches(circuit, noise, braiding._tomography_ensemble(),
                         braiding._COMPUTATIONAL_PAULIS,
                         keep_slots=braiding._parities(name, circuit.slots))


@pytest.mark.parametrize("name", CLIFFORD_CLASSES)
def test_parity_runs_match_per_branch_reference(name, monkeypatch):
    for noise in braid_noise_points():
        want = per_branch_simulate_class(name, noise)
        got = simulate_class(name, noise).matrix
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # The map is read off one batched run, at most four parity branches
        # per input.
        reads = class_reads(name, noise)
        frames = braiding._branch_frames(name, reads.records)
        assert braiding._class_transfer(reads.values, reads.groups, frames).matrix.tobytes() == (
            got.tobytes())
        per_input = np.bincount(reads.groups, minlength=len(braiding._TOMO_INPUTS))
        assert len(per_input) == 4 and ((1 <= per_input) & (per_input <= 4)).all()
        assert len(reads.groups) <= 16
        suite = run_gateset_suite(name, noise)
        with monkeypatch.context() as patch:
            patch.setattr(braiding, "_run_tomography_circuit", per_branch_tomography)
            reference = run_gateset_suite(name, noise)
        for field in ("with_class", "reference"):
            np.testing.assert_allclose(
                getattr(suite, field), getattr(reference, field), rtol=0, atol=1e-12
            )
        np.testing.assert_allclose(
            suite.transfer.matrix, reference.transfer.matrix, rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("name", CLIFFORD_CLASSES)
def test_batched_run_matches_per_input_runs_exactly(name):
    for noise in braid_noise_points():
        assert np.array_equal(simulate_class(name, noise).matrix,
                              per_input_simulate_class(name, noise))


def test_class_plans_are_lowered_once_per_class_and_plan_kind():
    # The plan cache is the only cache of a class map: one plan per class and
    # per theta zero or not, whatever the noise numbers.
    simulator._cached_plan.cache_clear()
    for noise in braid_noise_points() * 2:
        for name in CLIFFORD_CLASSES:
            simulate_class(name, noise)
    info = simulator._cached_plan.cache_info()
    assert info.misses == len(CLIFFORD_CLASSES) * 2
    assert info.hits == len(CLIFFORD_CLASSES) * (len(braid_noise_points()) * 2 - 2)


def test_mutating_results_does_not_leak_into_later_runs():
    # Every class, on both plan kinds, so every cached plan is covered: the
    # class map's compiled run and its read through read_branches share
    # the cached plan and the batched input's arrays.
    for name in CLIFFORD_CLASSES:
        for theta in (0.0, 0.07):
            noise = NoiseParams(p_a=0.03, p1=0.04, p2=0.05, theta=theta)
            want = per_input_simulate_class(name, noise)
            circuit = class_circuit(name)
            first = simulate_class(name, noise)
            first.matrix[:] = 0.0
            run = braiding._ClassRun.compile(name, theta)
            transfer = run.transfer(noise)
            assert np.array_equal(transfer.matrix, want)
            transfer.matrix[:] = 0.0
            for array in (run.groups, run.frames, run.ideal, run.read.entry, run.read.plan.records):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 1
            initial = braiding._tomography_ensemble()
            reads = read_branches(circuit, noise, initial, braiding._COMPUTATIONAL_PAULIS,
                                  keep_slots=braiding._parities(name, circuit.slots))
            for array in (reads.groups, reads.values):
                array[:] = 7
            with pytest.raises(ValueError, match="read-only"):
                reads.records[:] = 1
            for tag in initial.tags:
                tag.clear()
            with pytest.raises(ValueError, match="read-only"):
                initial.coeffs[0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                initial.support[0] = 1
            ideal_unitary(name)[:] = 0.0
            assert np.array_equal(simulate_class(name, noise).matrix, want)
            assert np.array_equal(run.transfer(noise).matrix, want)
            assert class_circuit(name) is circuit
    assert np.array_equal(ideal_unitary("HS"), ideal_unitary("H") @ ideal_unitary("S"))
    assert np.array_equal(ideal_unitary("identity"), np.eye(2))


def test_simulation_is_deterministic():
    noise = NoiseParams(p_a=0.01, p1=0.02, p2=0.05, theta=0.1)
    first = simulate_class("HS", noise).matrix
    second = simulate_class("HS", noise).matrix
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# Fidelity scans
# ---------------------------------------------------------------------------


def test_perfect_point_has_unit_fidelity():
    scan = fidelity_scan("S", p1_grid=[0.0], pa_grid=[0.0], p2=0.0)
    assert scan.fidelity[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_scan_monotone_nonincreasing_along_each_axis():
    scan = fidelity_scan(
        "S", p1_grid=[0.0, 0.05, 0.1], pa_grid=[0.0, 0.05, 0.1], p2=0.1
    )
    assert np.all(np.diff(scan.fidelity, axis=0) <= 1e-12)
    assert np.all(np.diff(scan.fidelity, axis=1) <= 1e-12)


def test_two_qubit_rate_is_the_flattest_direction_at_origin():
    eps = 1e-4
    f0 = average_class_fidelity("S", NoiseParams())
    d_p1 = abs(average_class_fidelity("S", NoiseParams(p1=eps)) - f0) / eps
    d_p2 = abs(average_class_fidelity("S", NoiseParams(p2=eps)) - f0) / eps
    assert d_p2 < d_p1


def test_scan_rejects_empty_grids():
    with pytest.raises(ValueError, match="nonempty"):
        fidelity_scan("S", p1_grid=[], pa_grid=[0.1])


def test_scan_csv_format():
    scan = fidelity_scan("S", p1_grid=[0.0, 0.1], pa_grid=[0.0, 0.2], p2=0.1)
    text = scan_to_csv(scan)
    lines = text.strip().split("\n")
    assert lines[0] == "p1,pa,p2,class,fidelity"
    assert len(lines) == 5
    fields = lines[1].split(",")
    assert fields[:4] == ["0", "0", "0.1", "S"]
    assert float(fields[4]) == pytest.approx(scan.fidelity[0, 0], rel=1e-11)
    last = lines[-1].split(",")
    assert last[0] == "0.1" and last[1] == "0.2"


def test_theta_fidelity_scan_csv_is_pinned():
    # sha256 on x86-64 with numpy 2.x.
    grid = np.linspace(0.0, 0.2, 5)
    text = scan_to_csv(fidelity_scan("HSH", p1_grid=grid, pa_grid=grid, p2=0.1, theta=0.02))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "11af0ada348f3bd27aceb7ca958257b9c5d2533a2ce34aa60d673a76daa83fe3"
    )


# sha256 of scan_to_csv of each default 21 x 21 map, on x86-64 with numpy 2.x.
DEFAULT_MAP_CSV_SHA256 = {
    ("identity", 0.0): "aa151995173ffb5a06e784ed8063694085f1b96e688b11124f3996e56b1d37e1",
    ("H", 0.0): "67ef1d21fbce408bb39fd5394eca8812783cc9ae60089bda289f17eb056b3269",
    ("S", 0.0): "438fd0ee725b9312ed80b13701354b9184ad045a6ed4d330139a890816edfec5",
    ("HSH", 0.0): "cf1647863b244dfd3d98dfe7afd03732657d9bbe95ef5c773d8cb3bf99d227a1",
    ("SH", 0.0): "1699f435c14d2a0bfa4285186d5553792aad57a3d66df3f5f1f28b63e594445f",
    ("HS", 0.0): "1e0ee88853f3f02900d100f6e1de704536cb5da8fdee1bfa9ee17f3082ef8861",
    ("identity", 0.02): "aa151995173ffb5a06e784ed8063694085f1b96e688b11124f3996e56b1d37e1",
    ("H", 0.02): "7bf6d0ce6a42ab9a00de8c8afba88ab4e90c336dd205f804ef23d639caa4e98f",
    ("S", 0.02): "9f3788bd1a52b26f69fc0ee24dba1f06d882d2f62b8a2046b2e877e0d1352a91",
    ("HSH", 0.02): "f0f9dfd1ca24530ed85a110471dbeab0f51a034f8c0aa0968c946ccc65b96eb8",
    ("SH", 0.02): "a209a60bfbcbb5b3af4beb36ac0258904308c23b94376ca421bbdef099024520",
    ("HS", 0.02): "2dd5ed26b932c4376b86fbfbfb30ae4546f3e5a72c2587893d0cde04eb3eee78",
}


@pytest.mark.parametrize("theta", [0.0, 0.02])
def test_default_fidelity_maps_csv_are_pinned(theta):
    for name in CLIFFORD_CLASSES:
        text = scan_to_csv(fidelity_scan(name, theta=theta))
        assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_MAP_CSV_SHA256[name, theta]


def test_scan_values_match_pointwise_evaluation():
    scan = fidelity_scan("HSH", p1_grid=[0.03], pa_grid=[0.04], p2=0.02)
    direct = average_class_fidelity("HSH", NoiseParams(p_a=0.04, p1=0.03, p2=0.02))
    assert scan.fidelity[0, 0] == pytest.approx(direct, rel=1e-12)


# The grid of the compiled-scan tests: both zero edges, an inner point and
# the default map's far edge.
EDGE_GRID = (0.0, 0.07, 0.2)


@pytest.mark.parametrize("theta", [0.0, 0.02])
def test_compiled_scan_equals_pointwise_fidelity_bit_for_bit(theta):
    # A scan compiles each class once and walks its plan per point; the
    # per-call path compiles at every point.
    for name in CLIFFORD_CLASSES:
        scan = fidelity_scan(name, EDGE_GRID, EDGE_GRID, 0.1, theta=theta)
        for (i, p1), (j, pa) in product(enumerate(EDGE_GRID), enumerate(EDGE_GRID)):
            want = average_class_fidelity(name, NoiseParams(p_a=pa, p1=p1, p2=0.1, theta=theta))
            assert float(scan.fidelity[i, j]).hex() == want.hex(), (name, p1, pa)


def test_compiled_class_run_refuses_the_other_theta_kind():
    for theta, other in ((0.0, 0.02), (0.02, 0.0)):
        run = braiding._ClassRun.compile("HS", theta)
        kind = "!= 0" if theta else "= 0"
        with pytest.raises(ValueError, match=f"compiled for theta {kind} cannot run theta"):
            run.fidelity(NoiseParams(p1=0.01, theta=other))
        with pytest.raises(ValueError, match=f"compiled for theta {kind} cannot run theta"):
            run.transfer(NoiseParams(p1=0.01, theta=other))
        assert run.fidelity(NoiseParams(p1=0.01, theta=theta)) == (
            average_class_fidelity("HS", NoiseParams(p1=0.01, theta=theta)))


def test_reads_between_scan_points_change_no_result():
    # After every point the scan's progress callback reads the class through
    # the per-call path on the same cached plan and scribbles over what it
    # got back; the compiled scan shares no writable state with it.
    def meddle(name, theta):
        noise = NoiseParams(p_a=0.15, p1=0.1, p2=0.2, theta=theta)
        circuit = class_circuit(name)

        def progress(done, total):
            reads = class_reads(name, noise)
            reads.values[:] = 7.0
            reads.groups[:] = 0
            simulate_class(name, noise).matrix[:] = 0.0

        return progress

    for theta in (0.0, 0.02):
        for name in CLIFFORD_CLASSES:
            plain = fidelity_scan(name, EDGE_GRID, EDGE_GRID, 0.1, theta=theta)
            mixed = fidelity_scan(name, EDGE_GRID, EDGE_GRID, 0.1, theta=theta,
                                  progress=meddle(name, theta))
            assert plain.fidelity.tobytes() == mixed.fidelity.tobytes(), (name, theta)


# ---------------------------------------------------------------------------
# Tomography suite
# ---------------------------------------------------------------------------


def test_suite_has_eighteen_circuits():
    circuits = gateset_experiment_suite("S")
    assert len(circuits) == 18
    for c in circuits:
        assert isinstance(c, Circuit)


def test_suite_circuits_round_trip_through_text():
    for circuit in gateset_experiment_suite("H"):
        again = Circuit.from_text(circuit.to_text())
        assert again.steps == circuit.steps
        assert again.detectors == circuit.detectors
        assert again.num_qubits == circuit.num_qubits


def test_reference_circuits_skip_the_class_sequence():
    circuits = gateset_experiment_suite("SH")
    with_class, reference = circuits[:9], circuits[9:]
    for c in with_class:
        assert len(c.steps) == 4 + len(sequence_for("SH").measurements)
    for c in reference:
        assert len(c.steps) == 4


def test_suite_returns_a_fresh_list_of_the_same_circuits():
    first = gateset_experiment_suite("HSH", reset_order="ZX")
    circuits = list(first)
    first.clear()
    again = gateset_experiment_suite("HSH", reset_order="ZX")
    assert len(again) == 18 and all(a is b for a, b in zip(again, circuits))
    assert gateset_experiment_suite("HSH")[0] is not again[0]  # the other reset order


def test_reset_order_validation():
    with pytest.raises(ValueError, match="reset_order"):
        gateset_experiment_suite("S", reset_order="YX")


@pytest.mark.parametrize("name", ["H", "S", "HS"])
def test_noiseless_suite_recovers_ideal_map(name):
    result = run_gateset_suite(name)
    dev = np.max(np.abs(result.transfer.matrix - ideal_superop(name).matrix))
    assert dev < 1e-8
    assert np.max(np.abs(result.reference - np.eye(3))) < 1e-10


def test_noisy_suite_tracks_the_true_channel():
    noise = NoiseParams(p_a=0.01, p1=0.01, p2=0.01)
    result = run_gateset_suite("S", noise)
    truth = simulate_class("S", noise).matrix
    # self-calibration removes prep/readout error only up to a basis gauge,
    # so demand closeness rather than equality
    assert np.max(np.abs(result.transfer.matrix - truth)) < 0.05


def test_second_suite_pass_compiles_no_plan(monkeypatch):
    # 108 distinct plans per plan kind, each run read through its end probe, never
    # through a final ensemble; a second pass finds every plan cached.
    def no_ensemble(*args, **kwargs):
        raise AssertionError("the suite builds no final ensemble")

    monkeypatch.setattr(braiding, "run_circuit", no_ensemble)
    noise = NoiseParams(p_a=0.02, p1=0.05, p2=0.1, theta=0.02)
    first = [run_gateset_suite(name, noise) for name in CLIFFORD_CLASSES]
    misses = simulator._cached_plan.cache_info().misses
    again = [run_gateset_suite(name, noise) for name in CLIFFORD_CLASSES]
    assert simulator._cached_plan.cache_info().misses == misses
    for a, b in zip(first, again):
        assert np.array_equal(a.with_class, b.with_class)
        assert np.array_equal(a.reference, b.reference)


def test_degenerate_reference_table_is_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        solve_gateset(np.eye(3), np.zeros((3, 3)))


def test_solver_shape_validation():
    with pytest.raises(ValueError, match="3x3"):
        solve_gateset(np.eye(4), np.eye(4))

"""Branching simulator, checked op-by-op against dense channel oracles and
end-to-end against the dense whole-circuit oracle of ``dense_oracle``.  Test
names that say "lazy" are kept so that their ids stay stable; their
reference is the oracle."""

import hashlib
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest

import dense_oracle
import tetronsim

from tetronsim import braiding, qed, simulator
from tetronsim.channels import (
    NoiseParams,
    apply_superop_to_axes,
    idle_superop,
    meas1_record_superop,
    meas2_record_superop,
    rotation_superop,
)
from tetronsim.pauli import PauliString, dense_to_pauli_vec, pauli_vec_to_dense
from tetronsim.simulator import (
    Circuit,
    CircuitBuilder,
    Meas1,
    Meas2,
    Parity,
    Rotate,
    Step,
    TrajectoryEnsemble,
    probe_circuit,
    read_branches,
    run_circuit,
    sample_circuit,
)

NOISE = NoiseParams(p_a=0.04, p1=0.03, p2=0.06, theta=0.11)


def random_density_vec(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    h = a @ a.conj().T
    return dense_to_pauli_vec(h / np.trace(h).real)


def full_vec(ens, branch):
    vec = np.zeros(4**ens.num_qubits)
    vec[ens.support] = ens.coeffs[branch]
    return vec


# ---------------------------------------------------------------------------
# Kernels vs dense channels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("letter,qubit", [("X", 0), ("Y", 1), ("Z", 2)])
def test_meas1_kernel_matches_superop(letter, qubit):
    rng = np.random.default_rng(hash((letter, qubit)) % 2**32)
    vec = random_density_vec(rng, 3)
    ens = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(vec))
    ens.split_measurement(Meas1(qubit, letter, 0), NOISE)
    for row, record in ((0, 1), (1, -1)):
        want = apply_superop_to_axes(
            meas1_record_superop(letter, record, NOISE), vec, (qubit,), 3
        )
        np.testing.assert_allclose(full_vec(ens, row), want, atol=1e-13)


@pytest.mark.parametrize(
    "letters,qubits", [("XX", (0, 1)), ("ZY", (1, 2)), ("XZ", (0, 2)), ("YY", (2, 0))]
)
def test_meas2_kernel_matches_superop(letters, qubits):
    rng = np.random.default_rng(abs(hash((letters, qubits))) % 2**32)
    vec = random_density_vec(rng, 3)
    ens = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(vec))
    ens.split_measurement(Meas2(qubits[0], qubits[1], letters, 0), NOISE)
    for row, record in ((0, 1), (1, -1)):
        want = apply_superop_to_axes(
            meas2_record_superop(letters, record, NOISE), vec, qubits, 3
        )
        np.testing.assert_allclose(full_vec(ens, row), want, atol=1e-13)


def test_forced_record_equals_split_row():
    rng = np.random.default_rng(3)
    vec = random_density_vec(rng, 2)
    op = Meas2(0, 1, "ZZ", 0)
    split = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(vec))
    split.split_measurement(op, NOISE)
    forced = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(vec))
    forced.apply_measurement(op, NOISE, -1)
    np.testing.assert_allclose(full_vec(forced, 0), full_vec(split, 1), atol=1e-15)


def test_merge_and_prune_with_mixed_slot_and_parity_tags():
    # Kept slots and kept parities sort side by side in ``merge`` instead of
    # failing to compare; ``prune`` drops rows and their tags together.
    rng = np.random.default_rng(5)
    ens = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(random_density_vec(rng, 2)))
    for op in (Meas1(0, "X", 0), Meas1(1, "Z", 1), Meas1(0, "Z", 2)):
        ens.split_measurement(op, NOISE)
    split = [dict(tag) for tag in ens.tags]
    ens.tags = [{("s", Parity((0, 2))): t[("s", 0)] * t[("s", 2)], ("s", 1): t[("s", 1)]}
                for t in split]
    want: dict = {}
    for row, tag in enumerate(ens.tags):
        key = (tag[("s", 1)], tag[("s", Parity((0, 2)))])
        want[key] = want.get(key, 0.0) + ens.coeffs[row]
    trace = ens.total_trace
    ens.merge()
    assert ens.num_branches == 4
    assert ens.total_trace == pytest.approx(trace, abs=1e-15)
    got = [(tag[("s", 1)], tag[("s", Parity((0, 2)))]) for tag in ens.tags]
    assert got == sorted(want)
    for row, key in enumerate(got):
        np.testing.assert_allclose(ens.coeffs[row], want[key], atol=1e-15)
    keep = np.array([True, False, False, True])
    kept_rows, kept_tags = ens.coeffs[keep], [ens.tags[0], ens.tags[3]]
    ens.prune(keep)
    np.testing.assert_array_equal(ens.coeffs, kept_rows)
    assert ens.tags == kept_tags


@pytest.mark.parametrize("axis,angle", [("X", 0.37), ("Y", -0.8), ("Z", 0.11)])
def test_rotation_kernel_matches_superop(axis, angle):
    rng = np.random.default_rng(17)
    vec = random_density_vec(rng, 2)
    ens = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(vec))
    p_index = simulator.op_pauli_index(Rotate(1, axis, angle), 2)
    support, low = simulator._lower_rotation(ens.support, p_index, 2)
    got = np.zeros(16)
    got[support] = simulator._rotated(ens.coeffs, low, angle)[0]
    want = apply_superop_to_axes(rotation_superop(axis, angle), vec, (1,), 2)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_idle_kernel_matches_superop():
    rng = np.random.default_rng(23)
    vec = random_density_vec(rng, 2)
    ens = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(vec))
    ens.apply_idle([0, 1], NOISE)
    want = apply_superop_to_axes(idle_superop(NOISE), vec, (0,), 2)
    want = apply_superop_to_axes(idle_superop(NOISE), want, (1,), 2)
    np.testing.assert_allclose(full_vec(ens, 0), want, atol=1e-13)


def test_pauli_frame_is_dense_conjugation():
    rng = np.random.default_rng(29)
    vec = random_density_vec(rng, 2)
    ens = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(vec))
    ens.apply_pauli("XZ")
    p = PauliString("XZ").matrix()
    want = dense_to_pauli_vec(p @ pauli_vec_to_dense(vec) @ p.conj().T)
    np.testing.assert_allclose(full_vec(ens, 0), want, atol=1e-13)


def test_trace_out_matches_dense_partial_trace():
    rng = np.random.default_rng(31)
    vec = random_density_vec(rng, 3)
    ens = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(vec))
    reduced = ens.trace_out([1])
    rho = pauli_vec_to_dense(vec).reshape(2, 2, 2, 2, 2, 2)
    want_dense = np.einsum("axbcxd->abcd", rho).reshape(4, 4)
    got = np.zeros(16)
    got[reduced.support] = reduced.coeffs[0]
    np.testing.assert_allclose(got, dense_to_pauli_vec(want_dense), atol=1e-13)


def test_product_state_constructors():
    ens = TrajectoryEnsemble.from_product_state(["0", "+"])
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    plus = np.ones((2, 2), dtype=complex) / 2
    want = dense_to_pauli_vec(np.kron(zero, plus))
    np.testing.assert_allclose(full_vec(ens, 0), want, atol=1e-15)
    mixed = TrajectoryEnsemble.maximally_mixed(2)
    assert mixed.total_trace == pytest.approx(1.0)
    assert list(mixed.support) == [0]
    bloch = TrajectoryEnsemble.from_product_state([(0.3, -0.4, 0.5)])
    rho = pauli_vec_to_dense(full_vec(bloch, 0))
    assert np.trace(rho).real == pytest.approx(1.0)
    assert rho[0, 1] == pytest.approx((0.3 + 0.4j) / 2)


def test_trace_out_rejects_qubits_outside_the_register():
    ens = TrajectoryEnsemble.from_product_state(["0", "+"])
    for q in (5, -1, 2):
        with pytest.raises(ValueError, match=rf"cannot trace out qubit {q} of a 2-qubit"):
            ens.trace_out([q])
        with pytest.raises(ValueError, match=rf"qubit {q}\b"):
            ens.trace_out([0, q])
    assert list(ens.trace_out([1]).support) == [0, 3]


def test_product_state_rejects_unknown_labels():
    for labels in (["2"], ["0", "+j"]):
        message = (f"bad state spec for qubit {len(labels) - 1}: '{labels[-1]}'; labels are "
                   f"0, 1, +, -, +i, i, -i, mixed or an (x, y, z) Bloch tuple")
        with pytest.raises(ValueError, match=re.escape(message)):
            TrajectoryEnsemble.from_product_state(labels)
    with pytest.raises(ValueError, match="bad state spec for qubit 0"):
        TrajectoryEnsemble.from_product_state([(0.0, 1.0)])


def test_from_density_matrix_validation():
    rho = np.array([[0.5, 0.25], [0.25, 0.5]])
    ens = TrajectoryEnsemble.from_density_matrix(rho)
    assert ens.num_branches == 1
    assert ens.total_trace == pytest.approx(1.0)
    for bad in (np.zeros((2, 2)), -np.eye(2) / 2, 2 * rho):
        with pytest.raises(ValueError, match="trace"):
            TrajectoryEnsemble.from_density_matrix(bad)
    with pytest.raises(ValueError, match="positive"):
        TrajectoryEnsemble.from_density_matrix(np.diag([1.5, -0.5]))


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from tetronsim import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(tetronsim.__all__)
    removed = {"init_ensemble", "apply_step", "prune_detected", "marginalize_outcomes",
               "total_state", "acceptance_rate"}
    assert not removed & set(tetronsim.__all__)
    assert not any(hasattr(mod, name) for mod in (tetronsim, simulator) for name in removed)
    for method in ("apply_rotation", "drop_tags", "copy"):
        assert not hasattr(TrajectoryEnsemble, method)


# ---------------------------------------------------------------------------
# Whole-circuit properties
# ---------------------------------------------------------------------------


def random_circuit(rng, num_qubits, num_steps, with_detectors=False):
    builder = CircuitBuilder(num_qubits)
    slots = []
    for _ in range(num_steps):
        free = list(range(num_qubits))
        rng.shuffle(free)
        n_ops = int(rng.integers(1, max(2, num_qubits)))
        for _ in range(n_ops):
            if len(free) >= 2 and rng.random() < 0.45:
                qa, qb = free.pop(), free.pop()
                letters = "".join(rng.choice(list("XYZ"), size=2))
                slots.append(builder.meas2(qa, qb, letters))
            elif free and rng.random() < 0.8:
                q = free.pop()
                slots.append(builder.meas1(q, str(rng.choice(list("XYZ")))))
            elif free:
                q = free.pop()
                builder.rot(q, str(rng.choice(list("XYZ"))), float(rng.normal() * 0.3))
        builder.end_step()
    if with_detectors and len(slots) >= 2:
        pick = rng.choice(slots, size=2, replace=False)
        builder.detector(Parity(int(s) for s in pick))
    return builder.build()


def test_no_detector_run_is_trace_preserving():
    rng = np.random.default_rng(101)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        circuit = random_circuit(rng, n, int(rng.integers(1, 4)))
        init = TrajectoryEnsemble.from_density_matrix(
            pauli_vec_to_dense(random_density_vec(rng, n))
        )
        result = run_circuit(circuit, NOISE, init)
        assert result.acceptance == pytest.approx(1.0, abs=1e-12)


def test_branch_states_remain_positive_semidefinite():
    rng = np.random.default_rng(113)
    circuit = random_circuit(rng, 2, 3)
    init = TrajectoryEnsemble.from_product_state(["0", "+"])
    result = run_circuit(circuit, NOISE, init, keep_slots="all")
    for record, op in result.ensemble.branch_states():
        eigs = np.linalg.eigvalsh(op.matrix)
        assert eigs.min() > -1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_eager_matches_lazy_with_detectors(seed):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, 2, 4, with_detectors=True)
    init = TrajectoryEnsemble.from_product_state(["0", "0"])
    eager = run_circuit(circuit, NOISE, init)
    reference = dense_oracle.run(circuit, NOISE, init)
    assert eager.acceptance == pytest.approx(reference.acceptance, abs=1e-12)
    assert eager.acceptance > 0
    for obs in ("ZZ", "XI", "IZ", "YY"):
        a, b = eager.ensemble.expectation(obs), reference.expectation(obs)
        assert a == pytest.approx(b, abs=1e-12)


def test_schedule_independence_within_a_step():
    # Disjoint operations inside one step commute, so any ordering of the
    # op list gives the same result.
    rng = np.random.default_rng(7)
    ops = (
        Meas2(0, 1, "XX", 0),
        Meas1(2, "Z", 1),
        Rotate(3, "Y", 0.21),
    )
    init_vec = random_density_vec(rng, 4)
    results = []
    for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
        circuit = Circuit(4, (Step(tuple(ops[i] for i in order)),))
        init = TrajectoryEnsemble.from_density_matrix(pauli_vec_to_dense(init_vec))
        res = run_circuit(circuit, NOISE, init, keep_slots="all")
        summed = np.zeros(4**4)
        for rec, dop in res.ensemble.branch_states():
            summed += dense_to_pauli_vec(dop.matrix)
        results.append(summed)
    np.testing.assert_allclose(results[0], results[1], atol=1e-12)
    np.testing.assert_allclose(results[0], results[2], atol=1e-12)


def test_keep_slots_matches_lazy_branches():
    rng = np.random.default_rng(41)
    circuit = random_circuit(rng, 2, 3)
    init = TrajectoryEnsemble.from_product_state(["+", "0"])
    eager = run_circuit(circuit, NOISE, init, keep_slots="all")
    reference = dense_oracle.run(circuit, NOISE, init, keep="all")
    got = dense_oracle.ensemble_branches(eager.ensemble, circuit.slots)
    assert got.keys() == reference.branches.keys()
    assert len(got) == 2 ** len(circuit.slots)
    dense_oracle.assert_same_branches(got, reference.branches, atol=1e-12)


def test_probes_match_truncated_runs():
    rng = np.random.default_rng(55)
    builder = CircuitBuilder(2)
    builder.meas2(0, 1, "ZZ")
    builder.end_step()
    builder.meas1(0, "X")
    builder.end_step()
    builder.meas2(0, 1, "YY")
    builder.end_step()
    circuit = builder.build()
    init = TrajectoryEnsemble.from_product_state(["0", "0"])
    res = run_circuit(circuit, NOISE, init, probes={1: ["ZZ", "XI"], 2: ["ZZ"]})
    short = Circuit(2, circuit.steps[:2])
    res_short = run_circuit(short, NOISE, init)
    assert res.probes[1]["ZZ"] == pytest.approx(res_short.ensemble.expectation("ZZ"), abs=1e-12)
    assert res.probes[1]["XI"] == pytest.approx(res_short.ensemble.expectation("XI"), abs=1e-12)
    full = run_circuit(circuit, NOISE, init)
    assert res.probes[2]["ZZ"] == pytest.approx(full.ensemble.expectation("ZZ"), abs=1e-12)


def test_detector_post_selection_probability():
    # Without assignment error a repeated noiseless measurement never
    # disagrees; with p_a the detector fires with the binomial rate.
    p_a = 0.1
    noise = NoiseParams(p_a=p_a)
    builder = CircuitBuilder(1)
    s0 = builder.meas1(0, "Z")
    builder.end_step()
    s1 = builder.meas1(0, "Z")
    builder.end_step()
    builder.detector(Parity([s0, s1]))
    circuit = builder.build()
    init = TrajectoryEnsemble.from_product_state(["0"])
    res = run_circuit(circuit, noise, init)
    want = p_a**2 + (1 - p_a) ** 2
    assert res.acceptance == pytest.approx(want, abs=1e-12)
    assert dense_oracle.run(circuit, noise, init).acceptance == pytest.approx(want, abs=1e-12)


def test_unsatisfiable_detector_rejected():
    with pytest.raises(ValueError, match="repeats a slot"):
        builder = CircuitBuilder(1)
        s0 = builder.meas1(0, "Z")
        builder.detector(Parity([s0, s0], -1))
        run_circuit(builder.build(), NOISE, TrajectoryEnsemble.from_product_state(["0"]))
    # A detector's slots are distinct, whatever its sign.
    for slots, parity in (((0, 0), 1), ((0, 1, 0), -1)):
        with pytest.raises(ValueError, match="repeats a slot"):
            Parity(slots, parity)
    with pytest.raises(ValueError, match="sign must be"):
        Parity((0,), 0)
    # An empty parity is a constant, which a detector cannot be.
    step = Step((Meas1(0, "Z", 0),))
    with pytest.raises(ValueError, match="detector needs at least one slot"):
        Circuit(1, (step,), (Parity((), -1),))


def test_rotate_target_still_accrues_idle_noise():
    # A step's clock applies to every unmeasured qubit, including ones that
    # only receive an analysis rotation.
    noise = NoiseParams(p1=0.3)
    circuit = Circuit(1, (Step((Rotate(0, "Z", 0.0),)),))
    init = TrajectoryEnsemble.from_product_state(["+"])
    res = run_circuit(circuit, noise, init)
    assert res.ensemble.expectation("X") == pytest.approx(1 - 4 * 0.3 / 3, abs=1e-14)


# ---------------------------------------------------------------------------
# Circuit text format and validation
# ---------------------------------------------------------------------------


def test_text_round_trip():
    rng = np.random.default_rng(67)
    circuits = [random_circuit(rng, 3, 4, with_detectors=True)]
    # Every circuit the library builds: the text format's real traffic.
    for level in ("physical", "logical"):
        for observable in ("XX", "ZI"):
            for rounds in (1, 10):
                circuits.append(qed._derive_decay_circuit(level, observable, rounds).circuit)
    for build in (qed.idle_ladder_circuit, qed.logical_zz_circuit):
        for prep_letter in (None, "X", "Y", "Z"):
            circuits.append(build(3, prep_letter=prep_letter).circuit)
    for name in braiding.CLIFFORD_CLASSES:
        circuits.append(braiding.class_circuit(name))
        for reset_order in ("XZ", "ZX"):
            circuits += braiding.gateset_experiment_suite(name, reset_order=reset_order)
    # Registers whose highest qubit no operation touches.
    builder = CircuitBuilder(3)
    builder.meas1(0, "X")
    builder.end_step()
    circuits += [builder.build(), Circuit(2, (Step(()),))]
    for circuit in circuits:
        assert Circuit.from_text(circuit.to_text()) == circuit
    # The register size is written only when the operations leave it open,
    # so every other circuit's text (and its pinned digest) is unchanged.
    empty = braiding.class_circuit("identity")
    assert empty.steps == () and empty.to_text() == "qubits 2\n"
    assert not braiding.class_circuit("H").to_text().startswith("qubits")
    with pytest.raises(ValueError, match="no operations"):
        Circuit.from_text("# nothing\n")


def test_text_parsing_details():
    text = """
    # ladder fragment
    step
    M2 XX q0 q1 -> s0
    ROT Z q2 0.125
    step
    M1 Y q2 -> s1  # trailing comment
    DET s0 s1 = -1
    """
    circuit = Circuit.from_text(text)
    assert circuit.num_qubits == 3
    assert circuit.steps[0].ops[0] == Meas2(0, 1, "XX", 0)
    assert circuit.steps[0].ops[1] == Rotate(2, "Z", 0.125)
    assert circuit.detectors == (Parity((0, 1), -1),)


# Bad qubit and slot references (a reference is decimal digits, no sign and
# no underscore) and a bad angle: each message quotes its line.
BAD_REFERENCES = {
    "step\nM1 X qx -> s0": r"expected q<int>, got 'qx' in line 'M1 X qx -> s0'",
    "step\nM1 X q0 -> sA": r"expected s<int>, got 'sA' in line 'M1 X q0 -> sA'",
    "step\nM2 ZZ q0 q1.5 -> s0": r"expected q<int>, got 'q1\.5' in line 'M2 ZZ q0 q1\.5 -> s0'",
    "step\nROT Z q0 abc": r"bad ROT angle 'abc' in line 'ROT Z q0 abc'",
    "step\nM1 X q-1 -> s0": r"expected q<int>, got 'q-1' in line 'M1 X q-1 -> s0'",
    "step\nM1 X q1_0 -> s0": r"expected q<int>, got 'q1_0' in line 'M1 X q1_0 -> s0'",
}


@pytest.mark.parametrize(
    "bad",
    [
        "step\nM1 Q q0 -> s0",
        "step\nM1 X q0 s0",
        "step\nM2 XI q0 q1 -> s0",
        "step\nM2 XX q0 q0 -> s0",
        "step\nROT X q0",
        "step\nM1 X q0 -> s0\nDET s0 = maybe",
        "step\nM1 X q0 -> s0\nM1 Z q0 -> s1",
        "step\nM1 X q0 -> s0\nstep\nM1 Z q0 -> s0",
        "step\nM1 X q0 -> s0\nDET s1 = +1",
        "step\nM1 X q0 -> s0\nDET s0 = prev",
        "step\nM1 X q0 -> s0\nIDLE q0",
        "qubits 1\nstep\nM2 XX q0 q1 -> s0",
        "qubits 2\nqubits 2\nstep\nM1 X q0 -> s0",
        "qubits two",
        "bogus line",
        *BAD_REFERENCES,
    ],
)
def test_text_parse_and_validation_errors(bad):
    with pytest.raises((ValueError, TypeError), match=BAD_REFERENCES.get(bad)):
        Circuit.from_text(bad)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sampling_matches_exact_run():
    noise = NoiseParams(p_a=0.08, p1=0.05)
    builder = CircuitBuilder(2)
    s0 = builder.meas2(0, 1, "ZZ")
    builder.end_step()
    s1 = builder.meas1(0, "X")
    builder.end_step()
    s2 = builder.meas2(0, 1, "ZZ")
    builder.end_step()
    s3 = builder.meas2(0, 1, "ZZ")
    builder.end_step()
    builder.detector(Parity([s2, s3]))
    circuit = builder.build()
    init = TrajectoryEnsemble.from_product_state(["0", "0"])
    exact = run_circuit(circuit, noise, init)
    shots = 20000
    sampled = sample_circuit(
        circuit, noise, init, shots=shots, seed=9, final_observables=["ZZ", "XI"]
    )
    se_acc = math.sqrt(exact.acceptance * (1 - exact.acceptance) / shots)
    assert abs(sampled.acceptance - exact.acceptance) < 5 * se_acc
    for obs in ("ZZ", "XI"):
        se = sampled.final_stderr[obs]
        assert abs(sampled.final[obs] - exact.ensemble.expectation(obs)) < 5 * max(se, 1e-4)


def test_sampling_is_deterministic_per_seed():
    circuit = Circuit(1, (Step((Meas1(0, "X", 0),)),))
    init = TrajectoryEnsemble.from_product_state(["0"])
    a = sample_circuit(circuit, NOISE, init, 100, seed=4, final_observables=["X"])
    b = sample_circuit(circuit, NOISE, init, 100, seed=4, final_observables=["X"])
    assert a.final == b.final


def test_sampling_averages_a_repeated_final_observable_once():
    circuit = Circuit(1, (Step((Meas1(0, "Z", 0),)),))
    init = TrajectoryEnsemble.from_product_state(["0"])
    result = sample_circuit(circuit, NoiseParams(), init, 10, seed=1, final_observables=["Z", "Z"])
    assert result.final == {"Z": 1.0}


def test_sampled_decays_draw_as_before_the_end_probe_moved_into_the_plan():
    # The final observables are read by an end probe inside the plan, which
    # computes only the columns the probes read.  The digest (sha256 of every
    # value as float.hex, on x86-64 with numpy 2.x) was taken while the
    # sampler read them off the whole final block of run_circuit's plan, so
    # it shows that the pruned plan leaves every draw of the four decay
    # circuits unchanged.  It covers the six fields a result had then.
    fields = ("shots", "accepted", "probes", "probe_stderr", "final", "final_stderr")

    def canonical(value):
        if isinstance(value, dict):
            return {str(key): canonical(v) for key, v in value.items()}
        return float(value).hex() if isinstance(value, float) else value

    results = []
    for theta in (0.0, 0.01):
        noise = NoiseParams(p_a=0.01, p1=1e-3, p2=1e-3, theta=theta)
        for level in ("physical", "logical"):
            logicals = qed.repcode_observables(level)
            for observable in ("XX", "ZI"):
                spec = qed.DecayExperimentSpec(level, observable, noise=noise)
                derived = qed._decay_circuit(spec)
                probes = {derived.round_end_steps[r - 1]: [logicals[observable]]
                          for r in spec.rounds_grid}
                result = sample_circuit(
                    derived.circuit, noise, qed._initial_state(spec), 500, seed=11,
                    probes=probes, final_observables=[logicals["XX"], logicals["ZI"]],
                )
                assert result.final.keys() == {str(logicals["XX"]), str(logicals["ZI"])}
                results.append(canonical({f: getattr(result, f) for f in fields}))
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == "53add21749927d2583a5ad759a6fb61aa5354c012d39ff1b04801ee8f28a86f0"


def _decay_sampling_inputs(level, observable, noise):
    spec = qed.DecayExperimentSpec(level, observable, noise=noise)
    derived = qed._decay_circuit(spec)
    logicals = qed.repcode_observables(level)
    probes = {step: [logicals[observable]] for step in derived.round_end_steps}
    return derived.circuit, qed._initial_state(spec), probes


@pytest.mark.parametrize("theta", [0.0, 0.01])
@pytest.mark.parametrize(
    "level, observable",
    [("physical", "XX"), ("physical", "ZI"), ("logical", "XX"), ("logical", "ZI")],
)
def test_sampled_decay_probes_match_exact(level, observable, theta):
    # At theta = 0 the branches at the end of a round agree on the probed
    # logical, so any draw averages to the exact value; under theta they
    # differ and the draw spreads.
    noise = NoiseParams(p_a=0.004, p1=5e-4, p2=8e-4, theta=theta)
    circuit, initial, probes = _decay_sampling_inputs(level, observable, noise)
    exact = run_circuit(circuit, noise, initial, probes=probes)
    sampled = sample_circuit(circuit, noise, initial, 300, seed=5, probes=probes)
    assert sampled.probes.keys() == exact.probes.keys()
    for step_i, values in exact.probes.items():
        for name, want in values.items():
            got, stderr = sampled.probes[step_i][name], sampled.probe_stderr[step_i][name]
            assert abs(got - want) <= (1e-6 if theta == 0.0 else 3.0 * stderr + 1e-9)


def test_sampled_probe_inside_a_detector_window_draws_per_branch():
    # At step 0 the detector on s0 and s1 is in flight, so the two records of
    # s0 stay two branches, and their X values have opposite signs.
    circuit = Circuit.from_text("step\nM1 X q0 -> s0\nstep\nM1 X q0 -> s1\nDET s0 s1 = +1\n")
    noise = NoiseParams(p_a=0.05, p1=0.02)
    init = TrajectoryEnsemble.from_product_state([(0.6, 0.0, 0.8)])
    probes = {0: ["X"]}
    exact = run_circuit(circuit, noise, init, probes=probes)
    assert exact.peak_branches == 2
    sampled = sample_circuit(circuit, noise, init, 2000, seed=7, probes=probes)
    stderr = sampled.probe_stderr[0]["X"]
    assert stderr > 0.0
    assert abs(sampled.probes[0]["X"] - exact.probes[0]["X"]) <= 3.0 * stderr


@pytest.mark.parametrize("theta", [0.0, 0.05])
@pytest.mark.parametrize("noisy", [False, True])
def test_sampling_accepts_every_shot_when_the_trace_is_kept(noisy, theta):
    # The circuit of the CLI's simulator-trace-conservation check: no
    # detector, so the branch traces sum to the initial trace up to rounding,
    # and rounding must neither reject a shot nor make the draw raise.
    circuit = Circuit.from_text(
        "step\nM1 X q0 -> s0\nstep\nM2 ZZ q1 q2 -> s1\nstep\nM1 Z q2 -> s2\n"
    )
    noise = NoiseParams(p_a=0.02, p1=0.01, p2=0.03, theta=theta) if noisy else (
        NoiseParams(theta=theta))
    init = TrajectoryEnsemble.from_product_state(["0", "+", "1"])
    probes = {step: ["ZZZ", "XII"] for step in range(3)}
    result = sample_circuit(circuit, noise, init, 1000, seed=2, probes=probes,
                            final_observables=["ZZZ"])
    assert result.accepted == result.shots
    assert result.probes.keys() == set(range(3)) and result.final.keys() == {"ZZZ"}


def test_sampling_counts_the_accepted_shots_of_every_probe_step():
    # The counts come from the draws the sampler makes anyway.
    spec = qed.DecayExperimentSpec("logical", "XX", noise=NoiseParams(p_a=0.02, p1=5e-3))
    derived = qed._decay_circuit(spec)
    probes = {derived.round_end_steps[r - 1]: [qed.repcode_observables("logical")["XX"]]
              for r in spec.rounds_grid}
    result = sample_circuit(derived.circuit, spec.noise, qed._initial_state(spec), 400,
                            seed=3, probes=probes)
    assert list(result.probe_accepted) == list(probes)
    assert all(0 < c < 400 for c in result.probe_accepted.values())
    again = sample_circuit(derived.circuit, spec.noise, qed._initial_state(spec), 400,
                           seed=3, probes=probes)
    assert again.probe_accepted == result.probe_accepted and again == result


def test_sampling_with_zero_acceptance_reports_no_expectations():
    circuit = Circuit.from_text("step\nM1 Z q0 -> s0\nDET s0 = -1\n")
    init = TrajectoryEnsemble.from_product_state(["0"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sample_circuit(circuit, NoiseParams(), init, 100, seed=1,
                                probes={0: ["Z"]}, final_observables=["Z"])
    assert result.accepted == 0
    assert result.probes == result.probe_stderr == result.final == result.final_stderr == {}


@pytest.mark.parametrize("kwargs", [{"shots": 0}, {"shots": -5}])
def test_sampling_rejects_bad_sizes(kwargs):
    circuit = Circuit(1, (Step((Meas1(0, "X", 0),)),))
    init = TrajectoryEnsemble.from_product_state(["0"])
    with pytest.raises(ValueError, match="positive integer"):
        sample_circuit(circuit, NOISE, init, kwargs["shots"], seed=1)


def test_sampling_rejects_probe_steps_out_of_range():
    circuit = Circuit(1, (Step((Meas1(0, "X", 0),)),))
    init = TrajectoryEnsemble.from_product_state(["0"])
    for step in (5, -1):
        with pytest.raises(ValueError, match="out of range"):
            sample_circuit(circuit, NOISE, init, 10, seed=1, probes={step: ["Z"]})
        with pytest.raises(ValueError, match="out of range"):
            run_circuit(circuit, NOISE, init, probes={step: ["Z"]})
    # A key that is not an integer is refused, not truncated to a step.
    for step in (1.7, True, "1", 0.0):
        with pytest.raises(ValueError, match=rf"probe step {step!r} is not an integer"):
            sample_circuit(circuit, NOISE, init, 10, seed=1, probes={step: ["Z"]})
        with pytest.raises(ValueError, match=rf"probe step {step!r} is not an integer"):
            run_circuit(circuit, NOISE, init, probes={step: ["Z"]})
        with pytest.raises(ValueError, match=rf"probe step {step!r} is not an integer"):
            probe_circuit(circuit, NOISE, init, {step: ["Z"]})
    assert run_circuit(circuit, NOISE, init, probes={np.int64(0): ["Z"]}).probes.keys() == {0}


@pytest.mark.parametrize("qubits", [1, 2])
def test_runners_reject_a_bare_string_of_paulis(qubits):
    # A string is not read letter by letter: on one qubit "ZX" would probe Z
    # and X, on two qubits each letter would not fit the register.
    circuit = Circuit(qubits, (Step((Meas1(0, "X", 0),)),))
    init = TrajectoryEnsemble.from_product_state(["0"] * qubits)
    paulis = "ZX" if qubits == 1 else "XX"
    with pytest.raises(ValueError, match=rf"probes\[0\] must be a list of Paulis, got the "
                                         rf"bare '{paulis}'"):
        run_circuit(circuit, NOISE, init, probes={0: paulis})
    with pytest.raises(ValueError, match=r"probes\[0\] must be a list of Paulis"):
        probe_circuit(circuit, NOISE, init, {0: PauliString(paulis)})
    with pytest.raises(ValueError, match=rf"final_observables must be a list of Paulis, got "
                                         rf"the bare '{paulis}'"):
        sample_circuit(circuit, NOISE, init, 10, seed=1, final_observables=paulis)
    with pytest.raises(ValueError, match=rf"observables must be a list of Paulis, got the "
                                         rf"bare '{paulis}'"):
        read_branches(circuit, NOISE, init, paulis)
    assert probe_circuit(circuit, NOISE, init, {0: [paulis[:qubits]]})[0][0] == run_circuit(
        circuit, NOISE, init, probes={0: [paulis[:qubits]]}).probes[0]


def test_runners_reject_initial_state_of_wrong_size():
    circuit = Circuit(1, (Step((Meas1(0, "X", 0),)),))
    init = TrajectoryEnsemble.from_product_state(["0", "+"])
    with pytest.raises(ValueError, match="does not match circuit"):
        sample_circuit(circuit, NOISE, init, 200, seed=1, final_observables=["IX"])
    with pytest.raises(ValueError, match="does not match circuit"):
        run_circuit(circuit, NOISE, init)
    with pytest.raises(ValueError, match="does not match circuit"):
        read_branches(circuit, NOISE, init, ["IX"])


def test_run_rejects_unknown_keep_slots():
    # A string is not read as a set of characters, and a slot the circuit
    # never records is not ignored.
    circuit = Circuit(1, (Step((Meas1(0, "X", 0),)), Step((Meas1(0, "Z", 1),))))
    init = TrajectoryEnsemble.from_product_state(["0"])
    for bad in ("al", "s0", "", [7], [0, 7], ["0"]):
        with pytest.raises(ValueError, match="'all' or recorded slots"):
            run_circuit(circuit, NOISE, init, keep_slots=bad)
        with pytest.raises(ValueError, match="'all' or recorded slots"):
            read_branches(circuit, NOISE, init, ["Z"], keep_slots=bad)
    # A Parity stands for the signed product of its records: it must name
    # recorded slots, at least one, and distinct ones ((1, 1) would be the
    # empty product).  An entry is a slot or a Parity, nothing else: not a
    # tuple either.
    for bad, problem in (
        ([Parity(())], r"entry Parity\(slots=\(\), sign=1\) is an empty product"),
        ([0, Parity((0, 7))], r"entry Parity\(slots=\(0, 7\), sign=1\) reads a slot "
                              r"the circuit never records"),
        ([()], r"entry \(\) is neither a slot nor a Parity"),
        ([(1, 1)], r"entry \(1, 1\) is neither a slot nor a Parity"),
        ([0, (0, 7)], r"entry \(0, 7\) is neither a slot nor a Parity"),
        ([(0, 1)], r"entry \(0, 1\) is neither a slot nor a Parity"),
        ([[0, 1]], r"entry \[0, 1\] is neither a slot nor a Parity"),
        ([1.0], r"entry 1.0 is neither a slot nor a Parity"),
    ):
        with pytest.raises(ValueError, match=problem):
            run_circuit(circuit, NOISE, init, keep_slots=bad)
    with pytest.raises(ValueError, match=r"parity \(1, 1\) repeats a slot"):
        Parity((1, 1), -1)
    with pytest.raises(TypeError, match="parity slots must be integers"):
        Parity((1.0,))
    kept = run_circuit(circuit, NOISE, init, keep_slots=[1])
    assert all(1 in records for records in kept.ensemble.records)


@pytest.mark.parametrize(
    "support, coeffs",
    [([3], [1.0]), ([0, 3], [-1.0, 0.5])],
    ids=["no-identity", "negative-identity"],
)
def test_sampling_rejects_initial_state_without_positive_trace(support, coeffs):
    circuit = Circuit(1, (Step((Meas1(0, "X", 0),)),))
    init = TrajectoryEnsemble(1, np.array(support, dtype=np.int64), np.array([coeffs]), [{}])
    with pytest.raises(ValueError, match="no positive trace"):
        sample_circuit(circuit, NOISE, init, 200, seed=1, final_observables=["Z"])


# ---------------------------------------------------------------------------
# Circuit hashing
# ---------------------------------------------------------------------------


def test_equal_circuits_hash_equal_and_share_a_plan():
    text = (
        "step\nM2 ZZ q0 q1 -> s0\nstep\nM1 X q0 -> s1\n"
        "step\nM2 ZZ q0 q1 -> s2\nDET s0 s2 = +1\n"
    )
    first, second = Circuit.from_text(text), Circuit.from_text(text)
    assert first is not second and first == second and hash(first) == hash(second)
    assert hash(pickle.loads(pickle.dumps(first))) == hash(first)
    other = Circuit.from_text(text.replace("M1 X", "M1 Y"))
    assert other != first
    init = TrajectoryEnsemble.from_product_state(["0", "+"])
    noise = NoiseParams(p_a=0.02, p1=0.01)
    simulator._cached_plan.cache_clear()
    run_circuit(first, noise, init)
    run_circuit(second, noise, init)
    run_circuit(other, noise, init)
    info = simulator._cached_plan.cache_info()
    assert (info.misses, info.hits) == (2, 1)


# ---------------------------------------------------------------------------
# Compiled runs and noise tables
# ---------------------------------------------------------------------------


def reference_meas_weights(arity: int, noise: NoiseParams) -> np.ndarray:
    """The measurement weight table as :func:`simulator._meas_weights` once
    computed it: every partner entry multiplied out for either sign."""
    lam1 = 1.0 - 4.0 * (noise.p1 / 2.0) / 3.0
    if arity == 1:
        dep = (1.0, lam1, 1.0, 1.0)
    else:
        lam2_1 = 1.0 - 4.0 * (noise.p2 / 2.0) / 3.0
        lam2_2 = 1.0 - 8.0 * (noise.p2 / 2.0) / 9.0
        dep = (1.0, lam1 * lam2_1, lam1 * lam2_1, lam1 * lam1 * lam2_2)
    damp = 1.0 - 2.0 * noise.p_a
    a = [0.5 * d * d for d in dep] + [0.0]
    b = [
        damp * (0.5 * dep[c_new] * dep[c_partner] * phi)
        for phi in (1.0, -1.0)
        for c_new in range(4)
        for c_partner in range(4)
    ] + [0.0]
    return np.array(a + b)


def test_measurement_weights_equal_the_per_sign_formula_byte_for_byte():
    rng = np.random.default_rng(32)
    points = [NoiseParams(p_a=float(rng.uniform(0.0, 0.5)), p1=float(rng.uniform(0.0, 0.75)),
                          p2=float(rng.uniform(0.0, 15 / 16))) for _ in range(300)]
    points += [NoiseParams(), NoiseParams(p_a=0.5), NoiseParams(p1=0.75),
               NoiseParams(p2=15 / 16), NoiseParams(p_a=0.5, p1=0.75, p2=15 / 16),
               NoiseParams(p_a=0.5, p2=0.3), NoiseParams(p1=0.75, p2=0.3)]
    for noise in points:
        for arity in (1, 2):
            got = simulator._meas_weights(arity, noise)
            assert got.tobytes() == reference_meas_weights(arity, noise).tobytes(), (arity, noise)


def test_compiled_run_refuses_the_other_theta_kind():
    circuit = Circuit.from_text("step\nM2 ZZ q0 q1 -> s0\nstep\nM1 X q0 -> s1\n")
    initial = TrajectoryEnsemble.from_product_state(["+", "0"])
    for rotating, theta in ((False, 0.1), (True, 0.0)):
        finals = simulator._pauli_list("observables", ["XI", "ZZ"])
        run = simulator._compile(circuit, initial, (0,), None, finals, rotating)
        kind = "!= 0" if rotating else "= 0"
        with pytest.raises(ValueError, match=f"a run compiled for theta {kind} cannot run"):
            run.walk(NoiseParams(p1=0.01, theta=theta))
        noise = NoiseParams(p1=0.01, theta=0.1 if rotating else 0.0)
        reads = simulator.read_branches(circuit, noise, initial, ["XI", "ZZ"], keep_slots=(0,))
        assert run.end_values(noise).tobytes() == reads.values.tobytes()
        assert run.plan.records is reads.records

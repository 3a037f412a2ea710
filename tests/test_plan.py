"""The eager runner's lowered plan against the independent reference.

``run_circuit`` runs a plan lowered from the circuit (cached for every
theta).  The dense oracle (``dense_oracle.run``) walks the circuit step by
step instead, on full 4^n Pauli vectors through the dense channel
constructors, with no kernel of the engine, so agreement to 1e-12 checks
the kernels and the lowering together: the support evolution, the gather
positions, the pinned records, the pruning, the branch merging and the
deferred rotations.  Test names that say "lazy" or "functional" are kept so
that their ids stay stable; their reference is the oracle.

The plan is also pruned to the columns that can be nonzero; the
pruning tests run the pruned and the unpruned plan of one circuit side
by side and require the same numbers from both.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle

from tetronsim import braiding, qed, simulator
from tetronsim.channels import NoiseParams
from tetronsim.simulator import (
    Circuit,
    CircuitBuilder,
    Meas1,
    Meas2,
    Parity,
    Rotate,
    TrajectoryEnsemble,
    probe_circuit,
    run_circuit,
    sample_circuit,
)

TOL = 1e-12
OBSERVABLES = ("ZZI", "XIX", "IYZ", "XXX", "ZIY")


def random_noise(rng, theta: bool) -> NoiseParams:
    return NoiseParams(
        p_a=float(rng.uniform(0.0, 0.2)),
        p1=float(rng.uniform(0.0, 0.1)),
        p2=float(rng.uniform(0.0, 0.1)),
        theta=float(rng.uniform(0.01, 0.3)) if theta else 0.0,
    )


def detector_circuit(rng, num_qubits: int = 3, max_steps: int = 5) -> Circuit:
    """Random steps of one- and two-qubit measurements and rotations, with
    up to five detectors: random parities, repeats of the previous
    detector's observed parity (the product over the symmetric difference
    of the two slot sets equals +1), and a pair that completes on one slot
    (which makes the eager runner prune)."""
    builder = CircuitBuilder(num_qubits)
    slots = []
    for _ in range(int(rng.integers(2, max_steps + 1))):
        free = list(range(num_qubits))
        rng.shuffle(free)
        for _ in range(int(rng.integers(1, num_qubits + 1))):
            if len(free) >= 2 and rng.random() < 0.5:
                letters = "".join(rng.choice(list("XYZ"), size=2))
                slots.append(builder.meas2(free.pop(), free.pop(), letters))
            elif free and rng.random() < 0.75:
                slots.append(builder.meas1(free.pop(), str(rng.choice(list("XYZ")))))
            elif free:
                builder.rot(free.pop(), str(rng.choice(list("XYZ"))), float(rng.normal()))
        builder.end_step()
    while len(slots) < 3:
        slots.append(builder.meas1(0, "Z"))
        builder.end_step()
    detectors = []
    previous = None
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, min(3, len(slots)) + 1))
        picked = tuple(int(s) for s in rng.choice(slots, size=size, replace=False))
        if previous is not None and rng.random() < 0.3:
            repeat = tuple(sorted(set(picked) ^ set(previous)))
            if repeat:
                detectors.append(Parity(repeat, 1))
        else:
            detectors.append(Parity(picked, int(rng.choice([1, -1]))))
        previous = picked
    if rng.random() < 0.5:
        last = slots[-1]
        others = [s for s in slots if s != last]
        a, b = (int(s) for s in rng.choice(others, size=2, replace=False))
        detectors += [Parity((a, last), 1), Parity((b, last), int(rng.choice([1, -1])))]
    return Circuit(num_qubits, builder.build().steps, tuple(detectors))


def random_initial(rng, num_qubits: int) -> TrajectoryEnsemble:
    labels = ["0", "1", "+", "-", "+i", "-i", "mixed"]
    return TrajectoryEnsemble.from_product_state(
        [labels[int(i)] for i in rng.integers(0, len(labels), num_qubits)]
    )


def record_states(ensemble: TrajectoryEnsemble, key_of=lambda r: tuple(sorted(r.items()))):
    """Record-summed Pauli vector per distinct ``key_of(records)``."""
    out: dict = {}
    for row, records in zip(range(ensemble.num_branches), ensemble.records):
        key = key_of(records)
        vec = np.zeros(4**ensemble.num_qubits)
        vec[ensemble.support] = ensemble.coeffs[row]
        out[key] = out.get(key, 0.0) + vec
    return out


def assert_same_run(eager, reference):
    """A ``run_circuit`` result and an oracle run agree on the acceptance and
    on every kept-record branch."""
    assert eager.acceptance == pytest.approx(reference.acceptance, abs=TOL)
    got = dense_oracle.ensemble_branches(eager.ensemble, reference.kept)
    dense_oracle.assert_same_branches(got, reference.branches, atol=TOL)


def assert_same_probes(probes, acceptance, reference):
    """Probe values and acceptances (of ``run_circuit`` or ``probe_circuit``)
    agree with an oracle run's: NaN where no weight is left."""
    assert probes.keys() == reference.probes.keys() == acceptance.keys()
    for step_i, values in reference.probes.items():
        assert acceptance[step_i] == pytest.approx(reference.probe_acceptance[step_i], abs=TOL)
        assert probes[step_i].keys() == values.keys()
        for name, want in values.items():
            got = probes[step_i][name]
            if reference.probe_acceptance[step_i] > 1e-9:
                assert got == pytest.approx(want, abs=TOL), (step_i, name)
            elif reference.probe_acceptance[step_i] == 0.0:
                assert math.isnan(got) and math.isnan(want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_plan_matches_lazy_and_functional(seed, theta):
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    noise = random_noise(rng, theta)
    initial = random_initial(rng, circuit.num_qubits)
    eager = run_circuit(circuit, noise, initial)
    reference = dense_oracle.run(circuit, noise, initial)
    assert_same_run(eager, reference)
    # The plan merges branches once per step, the oracle after every
    # measurement, so the plan holds at least the oracle's branches; and no
    # more than every record combination of every initial branch.
    assert reference.peak <= eager.peak_branches <= initial.num_branches * 2 ** len(circuit.slots)
    if eager.acceptance > 1e-9:
        for obs in OBSERVABLES:
            assert eager.ensemble.expectation(obs) == pytest.approx(
                reference.expectation(obs), abs=TOL
            )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_plan_kept_records_match_functional(seed, theta):
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    noise = random_noise(rng, theta)
    initial = random_initial(rng, circuit.num_qubits)
    slots = circuit.slots
    # Slots and parities with random signs; the oracle tracks each one's
    # running value.  The signs come from a second generator, so the
    # circuits, noise points and kept slots are those drawn without them.
    signs = np.random.default_rng([seed, 1])
    keep = []
    for _ in range(int(rng.integers(1, len(slots)))):
        picked = tuple(int(s) for s in rng.choice(slots, size=int(rng.integers(1, 4)),
                                                  replace=False))
        keep.append(picked[0] if len(picked) == 1 and rng.random() < 0.5
                    else Parity(picked, int(signs.choice([1, -1]))))
    eager = run_circuit(circuit, noise, initial, keep_slots=keep)
    assert_same_run(eager, dense_oracle.run(circuit, noise, initial, keep=keep))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_plan_probes_match_truncated_lazy_runs(seed, theta):
    # A probe reads the branches that pass the detectors completed by its
    # step, in the oracle as in both runners.
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    noise = random_noise(rng, theta)
    initial = random_initial(rng, circuit.num_qubits)
    steps = sorted({int(s) for s in rng.integers(0, len(circuit.steps), 2)})
    probes = {s: OBSERVABLES for s in steps}
    reference = dense_oracle.run(circuit, noise, initial, probes=probes)
    eager = run_circuit(circuit, noise, initial, probes=probes)
    assert_same_probes(eager.probes, eager.probe_acceptance, reference)
    assert_same_probes(*probe_circuit(circuit, noise, initial, probes), reference)


SHOTS = 4000


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_sampler_matches_plan_within_three_sigma(seed, theta):
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    noise = random_noise(rng, theta)
    initial = random_initial(rng, circuit.num_qubits)
    steps = sorted({int(s) for s in rng.integers(0, len(circuit.steps), 2)})
    probes = {s: OBSERVABLES for s in steps}
    exact = run_circuit(circuit, noise, initial, probes=probes)
    sampled = sample_circuit(
        circuit, noise, initial, SHOTS, seed=seed, probes=probes, final_observables=OBSERVABLES
    )
    sigma = math.sqrt(exact.acceptance * (1.0 - exact.acceptance) / SHOTS)
    assert abs(sampled.acceptance - exact.acceptance) <= 3.0 * sigma + 1e-12
    for step_i in steps:
        if exact.probe_acceptance[step_i] * SHOTS < 50:
            continue  # too few accepted shots for a standard error
        for obs in OBSERVABLES:
            got, want = sampled.probes[step_i][obs], exact.probes[step_i][obs]
            assert abs(got - want) <= 3.0 * sampled.probe_stderr[step_i][obs] + 1e-9
    if exact.acceptance * SHOTS >= 50:
        # At theta != 0 these read the rotations still pending at the end.
        for obs in OBSERVABLES:
            got, want = sampled.final[obs], exact.ensemble.expectation(obs)
            assert abs(got - want) <= 3.0 * sampled.final_stderr[obs] + 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_sampler_branch_traces_match_the_oracle(seed, theta):
    # The sampler draws each probe step's shots, and the end's, from the
    # branch traces in column 0 of that probe's block.  As multisets they
    # are the traces of the oracle's branches there.
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    noise = random_noise(rng, theta)
    initial = random_initial(rng, circuit.num_qubits)
    steps = sorted({int(s) for s in rng.integers(0, len(circuit.steps), 2)})
    probes = {s: OBSERVABLES for s in steps}
    walks, execute = [], simulator._execute

    def recorded(*args, **kwargs):
        walks.append(execute(*args, **kwargs))
        return walks[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_execute", recorded)
        sample_circuit(circuit, noise, initial, 1, seed=seed, probes=probes,
                       final_observables=OBSERVABLES)
    reference = dense_oracle.run(circuit, noise, initial, probes=probes)
    want = {**reference.probe_traces, None: [float(v[0]) for v in reference.branches.values()]}
    ((_, _, reads, _),) = walks
    assert [step_i for step_i, _, _ in reads] == [*steps, None]
    for step_i, _, block in reads:
        np.testing.assert_allclose(np.sort(block[:, 0]), np.sort(want[step_i]), rtol=0,
                                   atol=TOL, err_msg=f"probe step {step_i}")


def test_sampled_and_exact_decays_each_reuse_their_plan():
    # Both runners execute the one cached plan of the circuit: it is lowered
    # once for the first run and found in the cache by the other three.
    for theta in (0.0, 0.01):
        noise = NoiseParams(p_a=0.01, p1=1e-3, p2=1e-3, theta=theta)
        exact = qed.DecayExperimentSpec("physical", "ZI", noise=noise)
        sampled = qed.DecayExperimentSpec("physical", "ZI", noise=noise, shots=50, seed=3)
        simulator._cached_plan.cache_clear()
        for _ in range(2):
            qed.decay_experiment(exact)
            qed.decay_experiment(sampled)
        info = simulator._cached_plan.cache_info()
        assert (info.misses, info.hits) == (1, 3)


def test_one_plan_serves_many_noise_points():
    # With theta, every noise point also has its own rotation angle.
    rng = np.random.default_rng(2024)
    circuit = detector_circuit(rng, max_steps=6)
    initial = TrajectoryEnsemble.from_product_state(["+", "0", "+i"])
    for theta in (False, True):
        simulator._cached_plan.cache_clear()
        thetas = set()
        for _ in range(4):
            noise = random_noise(rng, theta=theta)
            thetas.add(noise.theta)
            eager = run_circuit(circuit, noise, initial)
            assert_same_run(eager, dense_oracle.run(circuit, noise, initial))
        info = simulator._cached_plan.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert len(thetas) == (4 if theta else 1)


def test_cold_and_warm_cache_runs_are_bit_identical():
    rng = np.random.default_rng(5)
    circuit = detector_circuit(rng, max_steps=6)
    initial = TrajectoryEnsemble.from_product_state(["+", "0", "mixed"])
    noise = random_noise(rng, theta=False)
    probes = {len(circuit.steps) - 1: OBSERVABLES}
    simulator._cached_plan.cache_clear()
    cold = run_circuit(circuit, noise, initial, keep_slots="all", probes=probes)
    warm = run_circuit(circuit, noise, initial, keep_slots="all", probes=probes)
    assert simulator._cached_plan.cache_info().hits == 1
    assert np.array_equal(cold.ensemble.support, warm.ensemble.support)
    assert np.array_equal(cold.ensemble.coeffs, warm.ensemble.coeffs)
    assert cold.ensemble.tags == warm.ensemble.tags
    assert cold.probes == warm.probes and cold.probe_acceptance == warm.probe_acceptance
    assert cold.peak_branches == warm.peak_branches


def test_cached_plan_does_not_leak_into_results():
    # Under theta, q1 idles until its X measurement flushes the rotation.
    circuit = Circuit.from_text(
        "step\nM1 Z q0 -> s0\nstep\nM1 X q0 -> s1\nstep\nM1 X q1 -> s2\n"
    )
    initial = TrajectoryEnsemble.from_product_state(["0", "+"])
    for theta in (0.0, 0.2):
        noise = NoiseParams(p1=0.1, theta=theta)
        simulator._cached_plan.cache_clear()
        first = run_circuit(circuit, noise, initial)
        expected = first.ensemble.coeffs.copy()
        first.ensemble.coeffs *= 0.0
        with pytest.raises(ValueError):
            first.ensemble.support[0] = 7  # shared with the cached plan
        second = run_circuit(circuit, noise, initial)
        assert simulator._cached_plan.cache_info().hits == 1
        assert second.acceptance == pytest.approx(1.0, abs=TOL)
        assert np.array_equal(second.ensemble.coeffs, expected)
        assert initial.coeffs[0, 0] == 1.0 and initial.tags == [{}]


def test_multi_branch_initial_keeps_its_tags():
    # Branches of the input stay apart when their tags differ and merge when
    # they agree, exactly as in a single run of both circuits.
    noise = NoiseParams(p_a=0.1, p1=0.05)
    first = Circuit.from_text("step\nM1 X q0 -> s0\n")
    second = Circuit.from_text("step\nM1 Z q0 -> s1\nstep\nM1 Z q0 -> s2\nDET s1 s2 = +1\n")
    joint = Circuit(1, first.steps + second.steps, (Parity((1, 2), 1),))
    init = TrajectoryEnsemble.from_product_state(["+i"])
    mid = run_circuit(first, noise, init, keep_slots=[0]).ensemble
    assert mid.num_branches == 2
    out = run_circuit(second, noise, mid, keep_slots=[2])
    ref = run_circuit(joint, noise, init, keep_slots=[0, 2])
    assert record_states(out.ensemble).keys() == record_states(ref.ensemble).keys()
    for key, vec in record_states(ref.ensemble).items():
        np.testing.assert_allclose(record_states(out.ensemble)[key], vec, atol=TOL)


def test_keys_wider_than_a_machine_word():
    # 70 kept records (plus a split branch) do not fit a 64-bit key; the run
    # still tracks every one of them.
    noise = NoiseParams(p_a=0.01, p1=0.002)
    builder = CircuitBuilder(2)
    builder.meas1(0, "X")
    builder.end_step()
    for _ in range(69):
        builder.detector(Parity([builder.meas1(1, "Z")]))
        builder.end_step()
    circuit = builder.build()
    init = TrajectoryEnsemble.from_product_state(["0", "0"])
    kept = run_circuit(circuit, noise, init, keep_slots="all")
    plain = run_circuit(circuit, noise, init)
    assert kept.ensemble.num_branches == 2
    assert sorted(r[0] for r in kept.ensemble.records) == [-1, 1]
    for records in kept.ensemble.records:
        assert len(records) == 70 and all(records[s] == 1 for s in range(1, 70))
    assert kept.acceptance == pytest.approx(plain.acceptance, abs=TOL)
    np.testing.assert_allclose(
        kept.ensemble.sum_pauli_vec(), plain.ensemble.sum_pauli_vec(), atol=TOL
    )


# -- deferred coherent Z rotations -------------------------------------------
#
# Under theta the lowering keeps a pending Z angle per qubit and emits it only
# before an op that does not commute with Z there.  The oracle rotates in
# every step, inside each measurement's and idle step's dense channel, so it
# is independent of the deferral.


def test_deferred_rotations_match_lazy_on_idle_ladder():
    derived = qed.idle_ladder_circuit(2, prep_letter="X")
    circuit = derived.circuit
    noise = NoiseParams(p_a=0.03, p1=0.02, p2=0.04, theta=0.07)
    initial = TrajectoryEnsemble.from_product_state(["+"] * circuit.num_qubits)
    eager = run_circuit(circuit, noise, initial)
    reference = dense_oracle.run(circuit, noise, initial)
    assert_same_run(eager, reference)
    for obs in ("XXXX", "ZZII", "IYXI", "XIIY"):
        assert eager.ensemble.expectation(obs) == pytest.approx(
            reference.expectation(obs), abs=TOL
        )


@pytest.mark.parametrize("theta", [0.0, 0.01])
@pytest.mark.parametrize("level", ["physical", "logical"])
def test_runners_match_the_oracle_on_decay_circuits(level, theta):
    # The physical decays at their full length, the eight-qubit logical ones
    # at three rounds (the oracle holds 4^8 entries per branch).
    rounds = (2, 4, 6, 8, 10) if level == "physical" else (1, 2, 3)
    noise = NoiseParams(p_a=0.01, p1=2e-3, p2=3e-3, theta=theta)
    for obs in ("XX", "ZI"):
        spec = qed.DecayExperimentSpec(level, obs, rounds, noise)
        derived = qed._decay_circuit(spec)
        circuit, initial = derived.circuit, qed._initial_state(spec)
        observable = qed.repcode_observables(level)[obs]
        probes = {derived.round_end_steps[r - 1]: (observable,) for r in rounds}
        keep = (circuit.slots[0], Parity(circuit.slots[-2:], -1)) if level == "physical" else ()
        reference = dense_oracle.run(circuit, noise, initial, keep=keep, probes=probes)
        eager = run_circuit(circuit, noise, initial, keep_slots=keep, probes=probes)
        assert_same_run(eager, reference)
        assert_same_probes(eager.probes, eager.probe_acceptance, reference)
        assert_same_probes(*probe_circuit(circuit, noise, initial, probes), reference)


@pytest.mark.parametrize("theta", [0.0, 0.02])
def test_runners_match_the_oracle_on_the_batched_braid_input(theta):
    # Four tagged input branches on one support; each class keeps the
    # parities of its frame corrections.
    noise = NoiseParams(p_a=0.03, p1=0.02, p2=0.05, theta=theta)
    support, coeffs = braiding._tomography_input()
    initial = TrajectoryEnsemble(
        2, support, coeffs, [{("in", label): 1} for label in braiding._TOMO_INPUTS]
    )
    for name in braiding.CLIFFORD_CLASSES:
        circuit = braiding.class_circuit(name)
        keep = braiding._parities(name, circuit.slots)
        probes = {s: ("XZ", "ZI", "YY", "IX") for s in range(len(circuit.steps))}
        reference = dense_oracle.run(circuit, noise, initial, keep=keep, probes=probes)
        assert len(reference.branches) == len(braiding._TOMO_INPUTS) * 2 ** len(keep)
        eager = run_circuit(circuit, noise, initial, keep_slots=keep, probes=probes)
        assert_same_run(eager, reference)
        assert_same_probes(eager.probes, eager.probe_acceptance, reference)
        assert_same_probes(*probe_circuit(circuit, noise, initial, probes), reference)


DEFERRAL_CIRCUIT = """
step
M2 XX q0 q1 -> s0
step
M2 ZZ q0 q1 -> s1
step
M2 ZZ q0 q1 -> s2
ROT X q2 0.3
step
M2 XX q0 q1 -> s3
step
M1 Z q2 -> s4
DET s1 s2 = +1
DET s0 s3 = +1
"""


def test_deferred_rotations_match_truncated_lazy_runs():
    # q2 idles under a pending Z angle until the X rotation; the ZZ checks
    # and the ZZ probe commute with the pending angles on q0 and q1, the XX
    # checks and the XX probe do not.
    circuit = Circuit.from_text(DEFERRAL_CIRCUIT)
    noise = NoiseParams(p_a=0.05, p1=0.03, p2=0.04, theta=0.13)
    initial = TrajectoryEnsemble.from_product_state(["+", "+i", "+"])
    probes = {s: ("ZZI", "XXI") for s in range(len(circuit.steps))}
    eager = run_circuit(circuit, noise, initial, probes=probes)
    reference = dense_oracle.run(circuit, noise, initial, probes=probes)
    assert_same_probes(eager.probes, eager.probe_acceptance, reference)
    assert_same_probes(*probe_circuit(circuit, noise, initial, probes), reference)
    assert_same_run(eager, reference)
    for obs in ("IIY", "IIX", "YXZ"):
        assert eager.ensemble.expectation(obs) == pytest.approx(
            reference.expectation(obs), abs=TOL
        )


def test_zero_and_nonzero_theta_plans_are_two_entries():
    circuit = Circuit.from_text(DEFERRAL_CIRCUIT)
    initial = TrajectoryEnsemble.from_product_state(["+", "+i", "+"])
    simulator._cached_plan.cache_clear()
    for theta in (0.0, 0.13, 0.2, 0.0):
        run_circuit(circuit, NoiseParams(p_a=0.05, p1=0.03, theta=theta), initial)
    info = simulator._cached_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)


def test_no_two_z_rotations_on_a_qubit_without_a_blocker_between():
    spec = qed.DecayExperimentSpec(
        "logical", "XX", (2, 4, 6, 8, 10), NoiseParams(p_a=0.01, p1=1e-3, p2=1e-3, theta=0.01)
    )
    derived = qed._decay_circuit(spec)
    circuit, n = derived.circuit, derived.circuit.num_qubits
    observable = qed.repcode_observables("logical")["XX"]
    probe_map = {derived.round_end_steps[r - 1]: [observable] for r in spec.rounds_grid}
    initial = qed._initial_state(spec)
    plan, _ = simulator._lower(
        circuit, initial.support.copy(), (0,), frozenset(), probe_map, True
    )
    ops = list(plan.ops)
    measurements = iter(
        op for step in circuit.steps for op in step.ops if isinstance(op, (Meas1, Meas2))
    )
    rotated = set()  # qubits Z-rotated since the last blocker on them
    z_rotations = 0
    for op in ops:
        if isinstance(op, simulator._RotateOp):
            (q,) = [q for q in range(n) if simulator._digit_column(op.axis, n, q)]
            assert op.axis == 3 << (2 * (n - 1 - q)), "the circuit has only Z rotations"
            assert q not in rotated, f"two Z rotations on q{q} with no blocker between"
            rotated.add(q)
            z_rotations += 1
        elif isinstance(op, simulator._MeasureOp):
            meas = next(measurements)
            letters = meas.letter if isinstance(meas, Meas1) else meas.letters
            rotated -= {q for q, c in zip(meas.qubits, letters) if c in "XY"}
        elif isinstance(op, simulator._ProbeOp):
            for p in probe_map[op.step]:
                rotated -= {q for q, c in enumerate(p.letters) if c in "XY"}
    assert next(measurements, None) is None
    assert z_rotations > 0


# -- pruned plans -------------------------------------------------------------
#
# run_circuit computes only the columns a witness run at a generic noise point
# finds nonzero where they are next read, and of those only the ones that a
# later op, a probe or the final state reads (_needed_masks).  Side by side
# with the unpruned plan (the first lowering), every kept column must come out
# the same and every column the witness drops must read 0.0, at noise points
# with channels off too.  Such a column is zero as a polynomial; the unpruned
# run may still leave rounding residue in it where branches cancel, at most
# about one ulp of the largest coefficient, and the kept columns then differ
# by as little.

RESIDUE = 1e-15  # relative to the largest coefficient of the block


def plan_pair(circuit, initial, theta, keep=(), probes=None):
    """(unpruned plan, pruned plan) of a run_circuit call."""
    keep = simulator._normalize_keep(keep, circuit)
    probes = simulator._normalize_probes(probes, circuit)
    groups, _ = simulator._branch_groups(initial.tags)
    full, _ = simulator._lower(circuit, initial.support, groups, keep, dict(probes), theta != 0)
    args = (circuit, initial.support.tobytes(), groups, keep, probes, theta != 0)
    return full, simulator._cached_plan(*args)


def blocks(plan, initial, tables, reads):
    """The coefficients (branches x support, in sorted-support order) just
    before each measurement or rotation of ``plan``, then the final ones;
    the probe ops append to ``reads``."""
    for block in simulator._walk(plan, initial.coeffs, tables, reads):
        yield block.T


def witness_and_needed_masks(full, initial):
    """The witness masks of the unpruned plan ``full`` and its needed masks,
    the columns ``_cached_plan`` keeps."""
    witness = simulator._witness_masks(full, initial.num_qubits, initial.num_branches,
                                       initial.support.size)
    return witness, simulator._needed_masks(full, witness)


def assert_restricted_plan_agrees(full, restricted, masks, witness, initial, noise):
    """Walk the unpruned plan ``full`` and ``restricted``, a lowering of the
    same run that keeps the columns ``masks`` mark (one mask per support, as
    ``_witness_masks`` lists them), side by side: every kept column must come
    out the same, every column the ``witness`` masks drop must read 0.0 in
    ``full``, and the probes must agree.  Returns the final block of
    ``full``."""
    # A restricted plan may omit idle ops whose counts are all zero on its
    # supports, so the plans are compared where their supports are read,
    # not op by op.
    tables = simulator._NoiseTables(noise, initial.num_qubits)
    reads = [[], []]
    walks = [blocks(plan, initial, tables, r) for plan, r in zip((full, restricted), reads)]
    for live, nonzero, coeffs, kept in zip(masks, witness, *walks, strict=True):
        atol = RESIDUE * np.abs(coeffs).max(initial=0.0)
        np.testing.assert_allclose(kept, coeffs[:, live], rtol=0, atol=atol)
        assert np.abs(coeffs[:, ~nonzero]).max(initial=0.0) <= atol
    assert np.array_equal(full.support[live], restricted.support)
    (full_probes, full_acc), (pruned_probes, pruned_acc) = map(simulator._summed_probes, reads)
    assert full_probes.keys() == pruned_probes.keys()
    for step_i, values in full_probes.items():
        np.testing.assert_allclose(list(pruned_probes[step_i].values()),
                                   list(values.values()), rtol=0, atol=TOL)
        assert pruned_acc[step_i] == pytest.approx(full_acc[step_i], abs=TOL)
    return coeffs


def assert_pruned_plan_agrees(circuit, initial, noise, keep=(), probes=None):
    full, pruned = plan_pair(circuit, initial, noise.theta, keep, probes)
    witness, masks = witness_and_needed_masks(full, initial)
    coeffs = assert_restricted_plan_agrees(full, pruned, masks, witness, initial, noise)
    # The public runner: the final ensemble, zero-padded to the unpruned
    # support, and the acceptance.
    eager = run_circuit(circuit, noise, initial, keep_slots=keep, probes=probes)
    padded = np.zeros_like(coeffs)
    padded[:, np.searchsorted(full.support, eager.ensemble.support)] = eager.ensemble.coeffs
    np.testing.assert_allclose(padded, coeffs, rtol=0,
                               atol=RESIDUE * np.abs(coeffs).max(initial=0.0))
    trace = coeffs[:, full.support == 0].sum()
    assert eager.acceptance == pytest.approx(trace, abs=TOL)
    return full, pruned


def pruning_noise_points(rng, theta: bool) -> list:
    """Three random points: all channels on, p1 = 0 and p_a = 0."""
    on = random_noise(rng, theta)
    return [on, dataclasses.replace(random_noise(rng, theta), p1=0.0),
            dataclasses.replace(random_noise(rng, theta), p_a=0.0)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_pruned_plan_matches_unpruned_on_random_corpus(seed, theta):
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    initial = random_initial(rng, circuit.num_qubits)
    steps = sorted({int(s) for s in rng.integers(0, len(circuit.steps), 2)})
    keep = [int(s) for s in circuit.slots if rng.random() < 0.3]
    for noise in pruning_noise_points(rng, theta):
        assert_pruned_plan_agrees(circuit, initial, noise, keep,
                                  {s: OBSERVABLES for s in steps})


@pytest.mark.parametrize("theta", [False, True])
def test_pruned_plan_matches_unpruned_on_decay_circuits(theta):
    rng = np.random.default_rng(13)
    dropped = 0
    for level in ("physical", "logical"):
        for obs in ("XX", "ZI"):
            spec = qed.DecayExperimentSpec(level, obs)
            derived = qed._decay_circuit(spec)
            observable = qed.repcode_observables(level)[obs]
            probes = {derived.round_end_steps[r - 1]: [observable] for r in spec.rounds_grid}
            for noise in pruning_noise_points(rng, theta):
                full, pruned = assert_pruned_plan_agrees(
                    derived.circuit, qed._initial_state(spec), noise, probes=probes
                )
            dropped += full.support.size - pruned.support.size
    assert dropped > 0


@pytest.mark.parametrize("theta", [False, True])
def test_pruned_plan_matches_unpruned_on_braid_class_circuits(theta):
    rng = np.random.default_rng(17)
    support, coeffs = braiding._tomography_input()
    initial = TrajectoryEnsemble(
        2, support, coeffs, [{("in", label): 1} for label in braiding._TOMO_INPUTS]
    )
    for name in braiding.CLIFFORD_CLASSES:
        circuit = braiding.class_circuit(name)
        if not circuit.steps:
            continue  # the identity class has no operation to prune
        keep = braiding._parities(name, circuit.slots)
        for noise in pruning_noise_points(rng, theta):
            assert_pruned_plan_agrees(circuit, initial, noise, keep)


def test_rotations_keeping_every_column_after_pruned_measurements():
    # A mask wider than the witness's only computes more columns.  Here each
    # measurement keeps the witness's columns and each rotation every column
    # it reaches, so a deferred Z rotation reads columns that commute with
    # it and that the measurement before it dropped: the restricted
    # lowering must read them as absent (zero).  The witness masks never
    # reach that case, because a column that commutes with a rotation
    # passes through it unchanged, so they drop it on both sides or on
    # neither.
    rng = np.random.default_rng(19)
    kinds = (simulator._MeasureOp, simulator._RotateOp)
    for level in ("physical", "logical"):
        spec = qed.DecayExperimentSpec(level, "XX")
        derived = qed._decay_circuit(spec)
        circuit, n = derived.circuit, derived.circuit.num_qubits
        initial = qed._initial_state(spec)
        observable = qed.repcode_observables(level)["XX"]
        probes = {derived.round_end_steps[r - 1]: (observable,) for r in spec.rounds_grid}
        groups, _ = simulator._branch_groups(initial.tags)
        args = (circuit, initial.support, groups, (), probes, True)
        full, produced = simulator._lower(*args)
        masks = simulator._witness_masks(full, n, len(groups), initial.support.size)
        ops = [op for op in full.ops if isinstance(op, kinds)]
        wide = masks[:1] + [np.ones_like(mask) if isinstance(op, simulator._RotateOp) else mask
                            for op, mask in zip(ops, masks[1:])]
        plan, _ = simulator._lower(*args, (sup[m] for sup, m in zip(produced, wide[1:])))
        reached = 0
        for op, out in zip([op for op in plan.ops if isinstance(op, kinds)], produced):
            if isinstance(op, simulator._RotateOp):  # it produces all of ``out``
                commutes = simulator._phase_exponents(op.axis, out, n) & 1 == 0
                reached += np.sum(commutes & (op.low.self_class == simulator._ROT_ABSENT_SELF))
        assert reached > 0, level
        for noise in pruning_noise_points(rng, True):
            assert_restricted_plan_agrees(full, plan, wide, masks, initial, noise)


def test_rotations_compute_only_their_anticommuting_outputs():
    # The theta = 0.01 logical-XX plan of probe_circuit: each rotation writes
    # new rows for exactly the outputs that anticommute with its axis, as
    # many cells as branches times those outputs; every commuting output
    # keeps the row of its input.  Those rows are 41% of the 3.03 M cells a
    # rotation that rewrote every output would fill.  Of the rows written,
    # 0.41 M cells are columns the input lacks (grown from their partners).
    circuit, initial, probes = decay_probes("logical", "XX")
    n = circuit.num_qubits
    probes = simulator._normalize_probes(probes, circuit) + ((None, ()),)
    groups, _ = simulator._branch_groups(initial.tags)
    args = (circuit, initial.support, groups, (), dict(probes), True)
    full, produced = simulator._lower(*args)
    witness, masks = witness_and_needed_masks(full, initial)
    plan, produced = simulator._lower(*args, (sup[m] for sup, m in zip(produced, masks[1:])))
    assert_same_plan(plan, simulator._cached_plan(circuit, initial.support.tobytes(), groups,
                                                  (), probes, True))
    tables = simulator._NoiseTables(NoiseParams(p_a=0.01, p1=1e-3, p2=1e-3, theta=0.01), n)
    block = simulator._entry_block(initial.coeffs, plan.spare)
    supports = iter(produced)
    computed = every = 0
    for op in plan.ops:
        if isinstance(op, MEASURE_OR_ROTATE):
            support = next(supports)
        if isinstance(op, simulator._RotateOp):
            anti = simulator._phase_exponents(op.axis, support, n) & 1 == 1
            np.testing.assert_array_equal(op.rows >= op.at, anti)
            assert sum(op.counts) == anti.sum()
            computed += block.shape[1] * sum(op.counts)
            every += block.shape[1] * support.size
        block = op.run(block, tables, [])
    assert every == pytest.approx(3.03e6, rel=1e-3)
    assert computed / every == pytest.approx(0.586, abs=1e-3)


def plan_nbytes(plan) -> int:
    """Bytes of the distinct arrays a plan holds."""
    arrays = {}
    for op in plan.ops:
        for value in vars(op).values():
            for a in vars(value).values() if isinstance(value, simulator._Lowering) else [value]:
                if isinstance(a, np.ndarray):
                    arrays[id(a)] = a.nbytes
    return sum(arrays.values()) + plan.support.nbytes


def test_pruned_plan_shares_repeated_lowerings():
    # Rounds that repeat with the same masks keep sharing one lowering and
    # one idle count array, so the pruned plan is the smaller one.
    spec = qed.DecayExperimentSpec("logical", "XX")
    derived = qed._decay_circuit(spec)
    for theta in (0.0, 0.01):
        full, pruned = plan_pair(derived.circuit, qed._initial_state(spec), theta)
        for kind, field in ((simulator._MeasureOp, "low"), (simulator._MeasureOp, "reads"),
                            (simulator._IdleOp, "counts")):
            ops = [op for op in pruned.ops if isinstance(op, kind)]
            assert len({id(getattr(op, field)) for op in ops}) < len(ops) / 2
        # At theta = 0 no rotation reorders a block, so every measurement
        # reads its block through its lowering itself, not a copy.
        if theta == 0.0:
            assert all(op.reads is op.low for op in pruned.ops
                       if isinstance(op, simulator._MeasureOp))
        assert plan_nbytes(pruned) < plan_nbytes(full)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_restricted_lowering_reads_the_full_lowering_at_kept_columns(seed, rotation):
    # The pruned plan lowers each op against a subset of its input and for a
    # subset of its output.  Each kept output column must read the full
    # lowering's classes wherever its input has the Pauli, and the absent
    # class (weight 0) wherever the input lacks it.
    rng = np.random.default_rng(seed)
    n = 3
    support = np.unique(np.concatenate([[0], rng.integers(1, 4**n, rng.integers(1, 40))]))
    qubits = [int(q) for q in rng.permutation(n)[:2]]
    letters = "".join(rng.choice(list("XYZ"), 2))
    if rotation:
        p_index = int(rng.integers(1, 4**n))
        lower = lambda sup, out=None: simulator._lower_rotation(sup, p_index, n, out)
        absent = (simulator._ROT_ABSENT_SELF, simulator._ROT_ABSENT_PARTNER)
    else:
        op = Meas2(*qubits, letters, 0) if rng.random() < 0.5 else Meas1(qubits[0], letters[0], 0)
        p_index = simulator.op_pauli_index(op, n)
        lower = lambda sup, out=None: simulator._lower_measurement(sup, op, n, out)
        absent = (simulator._ABSENT_SELF, simulator._ABSENT_CROSS)
    reached, full = lower(support)
    out = reached[rng.random(reached.size) < 0.6]
    inputs = support[rng.random(support.size) < 0.6]
    restricted_support, low = lower(inputs, out)
    assert restricted_support is out
    at = np.searchsorted(reached, out)
    for pos, cls, full_cls, paulis, absent_cls in (
        (low.pos_self, low.self_class, full.self_class, out, absent[0]),
        (low.pos_partner, low.partner_class, full.partner_class, out ^ p_index, absent[1]),
    ):
        found = simulator._positions(inputs, paulis)
        present = found >= 0
        np.testing.assert_array_equal(pos[present], found[present])
        np.testing.assert_array_equal(cls[present], full_cls[at][present])
        assert (cls[~present] == absent_cls).all()
    # Numerically: the restricted terms are the full terms of an input whose
    # dropped columns are zero, at the kept output columns.
    coeffs = rng.uniform(-1, 1, (3, support.size))
    coeffs[:, ~np.isin(support, inputs)] = 0.0
    restricted = coeffs[:, np.isin(support, inputs)]
    # The measurement kernel reads support-major blocks: one row per Pauli.
    if rotation:
        np.testing.assert_array_equal(simulator._rotated(restricted, low, 0.37),
                                      simulator._rotated(coeffs, full, 0.37)[:, at])
    else:
        weights = simulator._meas_weights(len(op.qubits), random_noise(rng, False))
        a, b = (simulator._terms(block.T, lowering, weights, np.empty((lowering.size, 6)))
                for block, lowering in ((coeffs, full), (restricted, low)))
        np.testing.assert_array_equal(b, a[at])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 128), st.integers(1, 100),
       st.sampled_from(["equal", "few", "distinct"]), st.integers(0, 2**32 - 1))
def test_merge_keys_matches_unique_rows(rows, columns, kind, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2, (rows, columns)).astype(np.int32)
    keys[:, 0] = rng.integers(0, 4, rows)  # the initial branch group
    if kind == "equal":
        keys[:] = keys[0]
    elif kind == "distinct":
        keys[:, rng.integers(columns)] = rng.permutation(rows)
    merged, merge = simulator._merge_keys(keys)
    unique, inverse = np.unique(keys, axis=0, return_inverse=True)
    if len(unique) == rows:
        assert merged is keys and merge is None
        return
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(len(unique)))
    np.testing.assert_array_equal(merged, unique)
    assert merged.dtype == keys.dtype
    np.testing.assert_array_equal(merge.order, order)
    np.testing.assert_array_equal(merge.starts, starts)
    merged_row = np.empty(rows, dtype=inverse.dtype)
    merged_row[merge.order] = np.repeat(np.arange(len(merge.starts)),
                                        np.diff(merge.starts, append=rows))
    np.testing.assert_array_equal(merged_row, inverse)



# -- kernels against the ones they replaced -----------------------------------
#
# A measurement gathers both of its terms with one take and a merge of equal
# groups of at most eight adds member columns in np.add.reduceat's order.
# Both must give the bits of the kernels they replaced, kept here as
# references: a take, weight and copy per term, and reduceat for every merge.


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_measure(op, block, tables):
    """The filled rows of ``op.run``, one gathered term at a time."""
    if op.branches is not None:
        block = block[:op.height].take(op.branches, axis=1)
    weights, cross_at = tables.meas[op.arity], simulator._CROSS
    low, width = op.reads, block.shape[1]

    def weighted(pos, classes, table):
        rows = block.take(pos, axis=0)
        rows *= table[classes][:, None]
        return rows

    out = np.empty((low.size, (1 + op.split) * width))
    base = out[:, :width]
    base[...] = weighted(low.pos_self, low.self_class, weights[:cross_at])
    cross = weighted(low.pos_partner, low.partner_class - cross_at, weights[cross_at:])
    if op.split:
        np.subtract(base, cross, out=out[:, width:])
    elif op.signs is not None:
        cross *= op.signs
    base += cross
    return out


def reference_merge(op, block):
    """The filled rows of ``op.run``, summed by np.add.reduceat."""
    return np.add.reduceat(block[:op.height].take(op.order, axis=1), op.starts, axis=1)


def assert_kernels_match_references(plan, initial, noise) -> set:
    """Walk ``plan`` and check every measurement and merge against its
    reference on the same input block; returns the merges' ``k`` values."""
    tables = simulator._NoiseTables(noise, initial.num_qubits)
    block = simulator._entry_block(initial.coeffs, plan.spare)
    ks = set()
    for op in plan.ops:
        if isinstance(op, simulator._MeasureOp):
            expected = reference_measure(op, block, tables)
        elif isinstance(op, simulator._MergeOp):
            expected = reference_merge(op, block)
            ks.add(op.k)
        block = op.run(block, tables, [])
        if isinstance(op, (simulator._MeasureOp, simulator._MergeOp)):
            assert same_bits(block[:len(expected)], expected), type(op).__name__
    return ks


KERNEL_NOISE = (NoiseParams(p_a=0.01, p1=1e-4, p2=0.05), NoiseParams(p_a=0.01, p1=1e-3, p2=3e-4),
                NoiseParams(p_a=0.0731, p1=0.0617, p2=0.0893))


def test_measure_and_merge_kernels_match_references_on_decay_plans():
    ks = set()
    for theta in (0.0, 0.01):
        for level in ("physical", "logical"):
            for obs in ("XX", "ZI"):
                circuit, initial, probes = decay_probes(level, obs)
                for noise in KERNEL_NOISE:
                    noise = dataclasses.replace(noise, theta=theta)
                    plan, *_ = simulator._execute(circuit, noise, initial, (), probes, ())
                    ks |= assert_kernels_match_references(plan, initial, noise)
    assert ks == {0, 2, 4, 8}  # groups of 2, 4 and 8, and of 16 through reduceat


def test_measure_and_merge_kernels_match_references_on_braid_class_plans():
    initial = braid_initial()
    finals = simulator._pauli_list("observables", braiding._COMPUTATIONAL_PAULIS)
    for theta in (0.0, 0.02):
        for name in braiding.CLIFFORD_CLASSES:
            circuit = braiding.class_circuit(name)
            keep = simulator._normalize_keep(braiding._parities(name, circuit.slots), circuit)
            for noise in KERNEL_NOISE:
                noise = dataclasses.replace(noise, theta=theta)
                plan, *_ = simulator._execute(circuit, noise, initial, keep, None, finals)
                assert assert_kernels_match_references(plan, initial, noise) <= {2}


@pytest.mark.parametrize("sizes", [(k,) * 6 for k in range(1, 9)]
                         + [(2, 4, 1, 8, 3, 2), (16,) * 3, (9,) * 3])
def test_merge_adds_groups_as_reduceat_does(sizes):
    # Rows of values spread over 16 decades, where the left-to-right sum of a
    # group of three or more differs from reduceat's, plus a group of signed
    # zeros and the group of 16 equal values of the theta = 0 logical-XX plan
    # at p1 1e-4, p2 0.05 that reduceat sums to ...791393 and left to right
    # to ...7914.
    rng = np.random.default_rng(sum(sizes) * 31 + len(set(sizes)))
    group = np.repeat(np.arange(len(sizes)), sizes)
    keys = rng.permutation(group).astype(np.int32)[:, None]
    _, merge = simulator._merge_keys(keys)
    if max(sizes) == 1:
        assert merge is None  # no plan merges groups of one member
        return
    uniform = len(set(sizes)) == 1 and sizes[0] <= 8
    assert merge.k == (sizes[0] if uniform else 0)
    height = 300
    shape = (height + 2, len(keys))
    block = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    block[0] = -0.0
    block[1] = -2.3596186026119628e-05
    op = dataclasses.replace(merge, height=height, spare=2)
    got = op.run(block, None, [])
    assert got.shape == (height + 2, len(sizes))
    expected = reference_merge(op, block)
    assert same_bits(got[:height], expected)
    assert np.signbit(got[0]).all()
    if max(sizes) >= 3:
        members = block[:height].take(merge.order, axis=1)
        ends = np.r_[merge.starts[1:], len(keys)]
        left_to_right = np.array([np.cumsum(members[:, a:b], axis=1)[:, -1]
                                  for a, b in zip(merge.starts, ends)]).T
        assert not same_bits(left_to_right, expected)



# -- probe-only plans ---------------------------------------------------------
#
# probe_circuit and sample_circuit read their probes, and the sampler and
# read_branches their final observables through an end probe, never the final
# state.  Their plan keeps only the witness's columns that some probe reads
# through later ops (_needed_masks); run_circuit, which returns the final
# state, keeps every final column the witness keeps.  Each kept column goes
# through the operations it goes through in run_circuit's plan, so the probes
# agree bit for bit.

MEASURE_OR_ROTATE = (simulator._MeasureOp, simulator._RotateOp)


def assert_probes_match_run(circuit, noise, initial, probes):
    """probe_circuit's probes and acceptance are run_circuit's, bit for bit:
    repr round-trips every float, and NaN reads equal to NaN."""
    run = run_circuit(circuit, noise, initial, probes=probes)
    got = probe_circuit(circuit, noise, initial, probes)
    assert repr(got) == repr((run.probes, run.probe_acceptance))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_probe_only_run_matches_run_circuit_on_random_corpus(seed, theta):
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    initial = random_initial(rng, circuit.num_qubits)
    steps = sorted({int(s) for s in rng.integers(0, len(circuit.steps), 2)})
    for noise in pruning_noise_points(rng, theta):
        assert_probes_match_run(circuit, noise, initial, {s: OBSERVABLES for s in steps})


def decay_probes(level, obs):
    spec = qed.DecayExperimentSpec(level, obs)
    derived = qed._decay_circuit(spec)
    observable = qed.repcode_observables(level)[obs]
    probes = {derived.round_end_steps[r - 1]: (observable,) for r in spec.rounds_grid}
    return derived.circuit, qed._initial_state(spec), probes


@pytest.mark.parametrize("theta", [0.0, 0.01, 0.02])
def test_probe_only_run_matches_run_circuit_on_decay_circuits(theta):
    rng = np.random.default_rng(29)
    points = [NoiseParams(p_a=0.01, p1=1e-3, p2=1e-3)] + pruning_noise_points(rng, False)
    for level in ("physical", "logical"):
        for obs in ("XX", "ZI"):
            circuit, initial, probes = decay_probes(level, obs)
            for noise in points:
                assert_probes_match_run(circuit, dataclasses.replace(noise, theta=theta),
                                        initial, probes)


@pytest.mark.parametrize("theta", [False, True])
def test_probe_only_run_matches_run_circuit_on_braid_class_circuits(theta):
    rng = np.random.default_rng(31)
    support, coeffs = braiding._tomography_input()
    initial = TrajectoryEnsemble(
        2, support, coeffs, [{("in", label): 1} for label in braiding._TOMO_INPUTS]
    )
    for name in braiding.CLIFFORD_CLASSES:
        circuit = braiding.class_circuit(name)
        probes = {s: ("XZ", "ZI", "YY", "IX") for s in range(len(circuit.steps))}
        for noise in pruning_noise_points(rng, theta):
            assert_probes_match_run(circuit, noise, initial, probes)


def braid_initial():
    """The batched tomography input of braiding.simulate_class."""
    support, coeffs = braiding._tomography_input()
    return TrajectoryEnsemble(
        2, support, coeffs, [{("in", label): 1} for label in braiding._TOMO_INPUTS]
    )


def assert_branch_reads_match_run(circuit, noise, initial, observables, keep, atol):
    """read_branches reads run_circuit's final ensemble branch by branch:
    the tags and each observable's column (0 where absent)."""
    ens = run_circuit(circuit, noise, initial, keep_slots=keep).ensemble
    reads = simulator.read_branches(circuit, noise, initial, observables, keep_slots=keep)
    _, group_tags = simulator._branch_groups(initial.tags)
    kept = [("s", e) for e in simulator._normalize_keep(keep, circuit)]
    assert [{**group_tags[g], **dict(zip(kept, r))}
            for g, r in zip(reads.groups, reads.records.tolist())] == ens.tags
    want = []
    for p in simulator._pauli_list("observables", observables):
        pos = simulator._positions(ens.support, np.array([p.index]))[0]
        want.append(np.zeros(ens.num_branches) if pos < 0 else p.sign * ens.coeffs[:, pos])
    np.testing.assert_allclose(reads.values, np.column_stack(want), rtol=0, atol=atol)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_branch_reads_match_run_circuit_on_random_corpus(seed, theta):
    # The end probe flushes the deferred Z rotations of the qubits its
    # observables need, in the ascending order in which the end of
    # run_circuit flushes every qubit, so each value is that column exactly.
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    initial = random_initial(rng, circuit.num_qubits)
    keep = [int(s) for s in circuit.slots if rng.random() < 0.3]
    for noise in pruning_noise_points(rng, theta):
        assert_branch_reads_match_run(circuit, noise, initial,
                                      OBSERVABLES + ("III", "-IXI"), keep, 0.0)


@pytest.mark.parametrize("theta", [False, True])
def test_branch_reads_match_run_circuit_exactly_on_braid_class_circuits(theta):
    rng = np.random.default_rng(37)
    for name in braiding.CLIFFORD_CLASSES:
        circuit = braiding.class_circuit(name)
        keep = braiding._parities(name, circuit.slots)
        for noise in pruning_noise_points(rng, theta):
            assert_branch_reads_match_run(circuit, noise, braid_initial(),
                                          braiding._COMPUTATIONAL_PAULIS, keep, 0.0)


def theta_corpus(count: int = 40):
    """The first ``count`` random-corpus circuits that hold a ``Rotate``, each
    with its initial state, kept slots, probes and three noise points at
    theta != 0."""
    seed = 0
    while count:
        rng = np.random.default_rng(seed)
        seed += 1
        circuit = detector_circuit(rng)
        if not any(isinstance(op, Rotate) for step in circuit.steps for op in step.ops):
            continue
        count -= 1
        initial = random_initial(rng, circuit.num_qubits)
        steps = sorted({int(s) for s in rng.integers(0, len(circuit.steps), 2)})
        keep = [int(s) for s in circuit.slots if rng.random() < 0.3]
        yield (circuit, initial, keep, {s: OBSERVABLES for s in steps},
               pruning_noise_points(rng, True))


def float_digest(values) -> str:
    """sha256 of ``float.hex`` of each value in turn, -0.0 read as +0.0."""
    digest = hashlib.sha256()
    for v in values:
        digest.update(float.hex(float(v) + 0.0).encode())
    return digest.hexdigest()


def theta_corpus_values():
    for circuit, initial, keep, probes, points in theta_corpus():
        for noise in points:
            run = run_circuit(circuit, noise, initial, keep_slots=keep, probes=probes)
            yield from run.ensemble.support
            yield from run.ensemble.coeffs.ravel()
            for got in (run.probes, run.probe_acceptance) + probe_circuit(circuit, noise,
                                                                          initial, probes):
                for step_i in sorted(got):
                    values = got[step_i]
                    yield from values.values() if isinstance(values, dict) else (values,)
            reads = simulator.read_branches(circuit, noise, initial,
                                            OBSERVABLES + ("III", "-IXI"), keep_slots=keep)
            yield from reads.values.ravel()


# sha256 of the theta != 0 corpus outputs (theta_corpus_values), on x86-64
# with numpy 2.x: the final supports and blocks of run_circuit, its probes
# and acceptances, probe_circuit's, and read_branches' values.
THETA_CORPUS_SHA256 = "30d927e080199f632509050d7ba53effd566f402e63455940997c4f43607a2f2"


def test_theta_corpus_outputs_are_pinned():
    assert float_digest(theta_corpus_values()) == THETA_CORPUS_SHA256


def needed_masks(circuit, initial, probes, rotating, end_probe=True):
    """(the plan, ending in an end probe or returning its final state, its
    witness masks, its needed masks)."""
    probes = simulator._normalize_probes(probes, circuit) + ((None, ()),) * end_probe
    groups, _ = simulator._branch_groups(initial.tags)
    full, _ = simulator._lower(circuit, initial.support, groups, (), dict(probes), rotating)
    return (full, *witness_and_needed_masks(full, initial))


def assert_needed_columns_are_closed(full, witness, masks) -> int:
    """Every column that a kept column or a probe reads is kept, unless the
    witness finds it zero, and a plan with no end probe keeps every final
    column the witness keeps; the needed masks keep no column the witness
    drops.  Returns how many witness columns the needed masks drop."""
    k = 0  # the support the walk reads: the initial one, then the k-th output
    for op in full.ops:
        if isinstance(op, simulator._ProbeOp):
            read = op.positions
            assert (masks[k][read] | ~witness[k][read]).all()
        elif isinstance(op, MEASURE_OR_ROTATE):
            kept = masks[k + 1]
            for pos, cls, absent in zip((op.low.pos_self, op.low.pos_partner),
                                        (op.low.self_class, op.low.partner_class),
                                        simulator._ABSENT_READS[type(op)]):
                read = pos[kept & (cls != absent)]
                assert (masks[k][read] | ~witness[k][read]).all()
            k += 1
    assert k == len(witness) - 1 and masks[0].all()
    last = full.ops[-1] if full.ops else None
    if not (isinstance(last, simulator._ProbeOp) and last.step is None):
        assert np.array_equal(masks[k], witness[k])  # the final state reads them all
    assert all(not (m & ~w).any() for m, w in zip(masks, witness))
    return sum(int(w.sum() - m.sum()) for m, w in zip(masks, witness))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_needed_columns_are_closed_on_random_corpus(seed, theta):
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    initial = random_initial(rng, circuit.num_qubits)
    steps = sorted({int(s) for s in rng.integers(0, len(circuit.steps), 2)})
    for end_probe in (True, False):
        assert_needed_columns_are_closed(
            *needed_masks(circuit, initial, {s: OBSERVABLES for s in steps}, theta, end_probe)
        )


@pytest.mark.parametrize("theta", [False, True])
def test_needed_columns_are_closed_on_decay_circuits(theta):
    dropped = {True: 0, False: 0}
    for level in ("physical", "logical"):
        for obs in ("XX", "ZI"):
            for end_probe in dropped:
                dropped[end_probe] += assert_needed_columns_are_closed(
                    *needed_masks(*decay_probes(level, obs), theta, end_probe)
                )
    assert dropped[True] > dropped[False] > 0


def assert_same_plan(a, b):
    """Two plans hold the same ops and arrays, entry for entry."""
    def same(x, y):
        if isinstance(x, simulator._Lowering):
            return all(same(getattr(x, f.name), getattr(y, f.name))
                       for f in dataclasses.fields(x))
        if isinstance(x, np.ndarray):
            return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
        return type(x) is type(y) and x == y

    assert len(a.ops) == len(b.ops)
    for x, y in zip(a.ops, b.ops):
        assert type(x) is type(y)
        for f in dataclasses.fields(x):
            assert same(getattr(x, f.name), getattr(y, f.name)), (type(x).__name__, f.name)
    for f in dataclasses.fields(a):
        if f.name != "ops":
            assert same(getattr(a, f.name), getattr(b, f.name)), f.name


def assert_run_plan_keeps_the_needed_columns(circuit, initial, keep=(), probes=None,
                                             theta=False):
    """run_circuit's plan is the lowering restricted by the needed masks,
    seeded with every final column: its final support is every column the
    witness keeps at the end."""
    keep = simulator._normalize_keep(keep, circuit)
    probes = simulator._normalize_probes(probes, circuit)
    groups, _ = simulator._branch_groups(initial.tags)
    args = (circuit, initial.support, groups, keep, dict(probes), theta)
    full, produced = simulator._lower(*args)
    witness, masks = witness_and_needed_masks(full, initial)
    expected, _ = simulator._lower(*args, (sup[m] for sup, m in zip(produced, masks[1:])))
    plan = simulator._cached_plan(circuit, initial.support.tobytes(), groups, keep, probes,
                                  theta)
    assert_same_plan(plan, expected)
    assert np.array_equal(plan.support, full.support[witness[-1]])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_run_plan_keeps_the_needed_columns_on_random_corpus(seed, theta):
    rng = np.random.default_rng(seed)
    circuit = detector_circuit(rng)
    initial = random_initial(rng, circuit.num_qubits)
    steps = sorted({int(s) for s in rng.integers(0, len(circuit.steps), 2)})
    keep = [int(s) for s in circuit.slots if rng.random() < 0.3]
    assert_run_plan_keeps_the_needed_columns(circuit, initial, keep,
                                             {s: OBSERVABLES for s in steps}, theta)


@pytest.mark.parametrize("theta", [False, True])
def test_run_plan_keeps_the_needed_columns_on_decay_and_braid_circuits(theta):
    for level in ("physical", "logical"):
        for obs in ("XX", "ZI"):
            circuit, initial, probes = decay_probes(level, obs)
            assert_run_plan_keeps_the_needed_columns(circuit, initial, theta=theta)
            assert_run_plan_keeps_the_needed_columns(circuit, initial, probes=probes,
                                                     theta=theta)
    for name in braiding.CLIFFORD_CLASSES:
        circuit = braiding.class_circuit(name)
        assert_run_plan_keeps_the_needed_columns(
            circuit, braid_initial(), braiding._parities(name, circuit.slots), theta=theta
        )


def lowered_after_each_pass(circuit, initial, keep, probes, rotating):
    """The plan of ``_cached_plan``'s arguments, lowered again after both of
    its pruning passes whether a pass drops a column or not, and how many
    of the passes drop one."""
    groups, _ = simulator._branch_groups(initial.tags)
    args = (circuit, initial.support, groups, keep, dict(probes), rotating)
    plan, produced = simulator._lower(*args)
    masks = simulator._needed_masks(
        plan, [np.ones(sup.size, dtype=bool) for sup in (initial.support, *produced)])
    dropping = int(not all(m.all() for m in masks))
    plan, produced = simulator._lower(*args, (sup[m] for sup, m in zip(produced, masks[1:])))
    witness = simulator._witness_masks(plan, circuit.num_qubits, len(groups),
                                       initial.support.size)
    masks = simulator._needed_masks(plan, witness)
    dropping += not all(m.all() for m in masks)
    plan, _ = simulator._lower(*args, (sup[m] for sup, m in zip(produced, masks[1:])))
    return plan, dropping


@pytest.mark.parametrize("rotating", [False, True])
def test_plans_lower_again_only_after_a_pass_that_drops_a_column(rotating, monkeypatch):
    # The decay runners' plans (probe_circuit's, ending in an end probe, and
    # run_circuit's) and the braid class maps' plans.
    cases = []
    for level in ("physical", "logical"):
        for obs in ("XX", "ZI"):
            circuit, initial, probes = decay_probes(level, obs)
            probes = simulator._normalize_probes(probes, circuit)
            cases += [(circuit, initial, (), probes + ((None, ()),)),
                      (circuit, initial, (), probes)]
    for name in braiding.CLIFFORD_CLASSES:
        circuit = braiding.class_circuit(name)
        keep = simulator._normalize_keep(braiding._parities(name, circuit.slots), circuit)
        cases.append((circuit, braid_initial(), keep,
                      ((None, braiding._COMPUTATIONAL_PAULIS),)))
    lowerings = []

    def counting_lower(*args):
        lowerings.append(args[0])
        return lower(*args)

    lower = simulator._lower
    for circuit, initial, keep, probes in cases:
        want, dropping = lowered_after_each_pass(circuit, initial, keep, probes, rotating)
        groups, _ = simulator._branch_groups(initial.tags)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_lower", counting_lower)
            plan = simulator._cached_plan.__wrapped__(
                circuit, initial.support.tobytes(), groups, keep, probes, rotating)
        assert_same_plan(plan, want)
        assert len(lowerings) == 1 + dropping
        if not rotating and probes[-1][0] is None:
            assert dropping <= 1  # at theta = 0 the witness drops no probe plan's column
        lowerings.clear()


# -- loud limits --------------------------------------------------------------


def test_branch_budget_stops_a_split_chain_before_it_grows():
    # Every kept record splits every branch; the split past the budget is
    # refused while the key table still holds the budget's branches.
    budget = simulator._BRANCH_BUDGET
    splits = budget.bit_length()  # one more split than the budget allows
    builder = CircuitBuilder(1)
    for i in range(splits):
        builder.meas1(0, "XZ"[i % 2])
        builder.end_step()
    circuit = builder.build()
    init = TrajectoryEnsemble.from_product_state(["0"])
    message = (f"step {splits - 1}: the run would hold {2 * budget} branches on 2 support "
               f"terms, over the budget of {budget} branches")
    # The message names the last split, so the ones before it, up to the
    # budget itself, were accepted.
    with pytest.raises(ValueError, match=message):
        run_circuit(circuit, NoiseParams(), init, keep_slots="all")


def test_support_budget_stops_an_oversized_state():
    # A generic product state on eight qubits spans all 4^8 Paulis.
    circuit = Circuit.from_text("step\nM1 Z q0 -> s0\n")
    circuit = Circuit(8, circuit.steps)
    init = TrajectoryEnsemble.from_product_state([(0.5, 0.5, 0.5)] * 8)
    assert init.support.size > simulator._SUPPORT_BUDGET
    message = f"step 0: the run would hold 1 branches on {4**8} support terms"
    with pytest.raises(ValueError, match=message):
        run_circuit(circuit, NoiseParams(), init)
    with pytest.raises(ValueError, match=message):
        sample_circuit(circuit, NoiseParams(), init, 10, seed=1)

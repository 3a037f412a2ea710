"""End-to-end acceptance battery for the tetron simulation toolkit.

Ten numbered tests, one per acceptance criterion, so that a verbose run
prints exactly one pass/fail line for each, and one unnumbered pin of the
default improvement map's CSV, which reuses test 4's scan.  Every tolerance and runtime
budget is asserted inline.  Sampled-mode checks use fixed seeds and are
fully deterministic.
"""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import dense_oracle
import test_simulator as circuit_corpus

from tetronsim import qed
from tetronsim.benchmarking import (
    benchmark_metrics,
    identical_instruments,
    randomizing_instruments,
    readout_flip_instruments,
    rebit_block,
    rebit_gst,
)
from tetronsim.braiding import (
    average_class_fidelity,
    fidelity_scan,
    verify_sequence_identity,
)
from tetronsim.channels import (
    NoiseParams,
    depolarize1_superop,
    derive_noise,
    rotation_superop,
    t_state_fidelity,
    timed_coupling_rotation,
)
from tetronsim.pauli import PauliString, embed_letters
from tetronsim.simulator import (
    Circuit,
    TrajectoryEnsemble,
    run_circuit,
)
from tetronsim.tableau import TaggedTableau

_Z95 = 1.959963984540054  # two-sided 95% normal quantile used by the intervals


def _expectation(ensemble, letters: str) -> float:
    vec = ensemble.sum_pauli_vec()
    return float(vec[PauliString(letters).index] / vec[0])


# ---------------------------------------------------------------------------
# 1. Benchmarking metrics for the three analytically known instrument
#    families, in exact mode and in sampled mode at one million subsequences.
# ---------------------------------------------------------------------------


def test_01_benchmark_metrics_known_instrument_families():
    t0 = time.monotonic()
    cases = [
        (randomizing_instruments(), 0.5, 0.0),
        (readout_flip_instruments(0.05), 2 * 0.05 * 0.95, 0.0),
        (readout_flip_instruments(0.1), 2 * 0.1 * 0.9, 0.0),
        (readout_flip_instruments(0.2), 2 * 0.2 * 0.8, 0.0),
        (identical_instruments(), 0.0, 0.5),
    ]
    for source, want_a, want_b in cases:
        est = benchmark_metrics(source)
        assert abs(est.err_a - want_a) < 1e-9
        assert abs(est.err_b - want_b) < 1e-9
    for source, want_a, want_b in cases:
        est = benchmark_metrics(source, mode="sampled", shots=1_000_000, seed=2026)
        # est.*_interval is a 95% half-width; rescale it to a 3-sigma bound.
        bound_a = (3.0 / _Z95) * est.err_a_interval + 1e-9
        bound_b = (3.0 / _Z95) * est.err_b_interval + 1e-9
        assert abs(est.err_a - want_a) <= bound_a
        assert abs(est.err_b - want_b) <= bound_b
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. Exhaustive outcome-vector check of every braiding sequence identity.
# ---------------------------------------------------------------------------


def test_02_sequence_identities_exhaustive():
    t0 = time.monotonic()
    expected_branches = {"H": 16, "S": 16, "HSH": 16, "SH": 32, "HS": 32}
    for name, branches in expected_branches.items():
        report = verify_sequence_identity(name)
        assert report.num_branches == branches
        assert report.max_deviation < 1e-12
        assert not report.zero_branches
        assert report.passed
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. Structure of the braiding-fidelity map: pinned regression values,
#    monotone degradation in p1 and p_a, and weak sensitivity to p2.
# ---------------------------------------------------------------------------


def test_03_braiding_fidelity_map_structure_and_pins():
    t0 = time.monotonic()
    scan = fidelity_scan("S")  # default 21 x 21 grid, p1/p_a in [0, 0.2], p2 = 0.1
    fid = scan.fidelity
    assert np.all(np.isfinite(fid))

    # Pinned regression values (relative 1e-9): corner and two diagonal points.
    assert abs(fid[0, 0] / 0.9495473251028806 - 1.0) < 1e-9
    assert abs(fid[10, 10] / 0.649384848830396 - 1.0) < 1e-9
    assert abs(fid[20, 20] / 0.5539927170326763 - 1.0) < 1e-9

    # Monotone nonincreasing along p1 (rows) and p_a (columns).
    assert np.all(np.diff(fid, axis=0) <= 1e-10)
    assert np.all(np.diff(fid, axis=1) <= 1e-10)

    # Two-qubit noise moves the fidelity less than single-qubit noise does
    # (finite differences from the zero-noise point, step 0.01).
    h = 0.01
    base = average_class_fidelity("S", NoiseParams())
    slope_p1 = abs(average_class_fidelity("S", NoiseParams(p1=h)) - base) / h
    slope_p2 = abs(average_class_fidelity("S", NoiseParams(p2=h)) - base) / h
    assert slope_p2 < slope_p1
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 4/5. Error-detection improvement map on the default 25 x 25 log grid at
#      p_a = 0.01 (shared fixture: one scan feeds both region tests).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def improvement_map():
    t0 = time.monotonic()
    scan = qed.improvement_scan()  # defaults: p1, p2 in [1e-4, 1e-1], p_a = 0.01
    return scan, time.monotonic() - t0


def test_04_improvement_region_structure(improvement_map):
    scan, elapsed = improvement_map
    lam = scan.lambda_avg
    assert np.all(np.isfinite(lam))

    # (a) the improving region is nonempty and confined to p2 < p1.
    rows, cols = np.nonzero(lam > 1.0)
    assert rows.size > 0
    assert np.all(scan.p2_grid[cols] < scan.p1_grid[rows])

    # (b) no improvement along the p1 = p2 diagonal (tolerance 1.02).
    diagonal = np.array([lam[k, k] for k in range(scan.p1_grid.size)])
    assert np.all(diagonal <= 1.02)

    # (c) the largest admissible p2 on the break-even contour occurs at an
    # interior p1, not at either end of the grid.
    best = scan.best_p1("avg")
    assert best is not None
    best_p1, best_p2 = best
    assert scan.p1_grid[0] < best_p1 < scan.p1_grid[-1]
    assert best_p2 > 0.0
    assert elapsed < 1800.0


# sha256 of qed.scan_to_csv of the default map, on x86-64 with numpy 2.x.
DEFAULT_MAP_CSV_SHA256 = "a94876896d7e60e115294c3a2f7aed5d14f476d0b63771c80d744cbe73ef0f11"


def test_default_improvement_map_csv_is_pinned(improvement_map):
    scan, _ = improvement_map
    digest = hashlib.sha256(qed.scan_to_csv(scan).encode()).hexdigest()
    assert digest == DEFAULT_MAP_CSV_SHA256


def _leading_order_rates(level: str, observable: str):
    """First-order decay rate of a repetition-code logical, counted from
    single faults without the density engine.

    The decay protocol is rebuilt from its schedule on a tagged tableau,
    whose forced outcomes are the detectors.  A Pauli fault flips every
    later record it anticommutes with; it survives post-selection iff no
    detector holds an odd number of flipped records, and it flips the
    observable iff the two anticommute.  A surviving flip of probability q
    costs 2q of decay rate per round.  The fault locations are those of
    the noise model in ``tetronsim.channels``: half of D1[p1] on each qubit
    and half of D2[p2] on each pair, on both sides of every two-qubit
    measurement, and D1[p1] on every idle qubit.  An assignment error only
    flips one record, so it costs no rate at first order.

    Returns the exact rate coefficients of p1 and of p2, summed over the
    steps of the third of five rounds, and the set of (parameter, fault
    letters, qubits) that contribute.
    """
    if level == "physical":
        n, schedule = 2, [[("ZZ", (0, 1))]]
    else:
        n, schedule = 8, qed.surgery_schedule(qed.LadderLayout.two_patches())
    logical = qed.repcode_observables(level)[observable]
    prep = "X" if observable == "XX" else "Z"
    tableau = TaggedTableau.from_product_state([{"X": "+", "Z": "0"}[prep]] * n)
    checks, detectors = [], []  # checks[slot] = (step index, measured Pauli)

    def measure(step, letters, qubits):
        check = PauliString.from_text(embed_letters(n, letters, qubits))
        out = tableau.measure(check, len(checks))
        checks.append((step, check))
        if out.detector is not None:
            detectors.append(set(out.detector.slots))

    for q in range(n):
        measure(0, prep, (q,))
    steps = schedule * 5
    for index, step in enumerate(steps, start=1):
        for letters, pair in step:
            measure(index, letters, pair)

    rates = {"p1": Fraction(0), "p2": Fraction(0)}
    culprits = set()

    def fault(param, prob, letters, qubits, first_step):
        error = PauliString.from_text(embed_letters(n, letters, qubits))
        if error.commutes(logical):
            return
        flipped = {
            slot
            for slot, (step, check) in enumerate(checks)
            if step >= first_step and not check.commutes(error)
        }
        if all(len(flipped & det) % 2 == 0 for det in detectors):
            rates[param] += 2 * prob
            culprits.add((param, letters, qubits))

    third_round = range(2 * len(schedule) + 1, 3 * len(schedule) + 1)
    for index in third_round:
        measured = set()
        for _, pair in steps[index - 1]:
            measured.update(pair)
            for first_step in (index, index + 1):  # before, after the record
                for q in pair:
                    for letter in "XYZ":
                        fault("p1", Fraction(1, 6), letter, (q,), first_step)
                for a in "XYZ":
                    for b in "XYZ":
                        fault("p2", Fraction(1, 18), a + b, pair, first_step)
        for q in sorted(set(range(n)) - measured):
            for letter in "XYZ":
                fault("p1", Fraction(1, 3), letter, (q,), index + 1)
    return (rates["p1"], rates["p2"]), culprits


def test_05_improvement_containment_by_observable(improvement_map):
    # (a) Leading-order rates (coefficients of p1, p2) from fault counting.
    counts = {}
    culprits = {}
    for level in ("physical", "logical"):
        for obs in ("XX", "ZI"):
            counts[(level, obs)], culprits[(level, obs)] = _leading_order_rates(
                level, obs
            )
    assert counts == {
        ("physical", "XX"): (Fraction(4, 3), Fraction(4, 9)),
        ("physical", "ZI"): (0, Fraction(8, 9)),
        ("logical", "XX"): (0, Fraction(32, 9)),
        ("logical", "ZI"): (0, 0),
    }
    # The encoded XX term is the rung hole: ZZ or YY on a rung, on either
    # side of its XX measurement, is invisible and flips the X logical.
    rungs = {(0, 1), (2, 3), (4, 5), (6, 7)}
    hole = culprits[("logical", "XX")]
    assert {letters for _, letters, _ in hole} == {"ZZ", "YY"}
    assert {pair for _, _, pair in hole} == rungs

    # (b) The exact engine reproduces the counts at small noise, one
    # parameter at a time (p = 1e-4, p_a = 0.01): 1% relative where a
    # first-order fault exists, |rate| / p < 1e-2 where none does.
    p = 1e-4
    for k, name in enumerate(("p1", "p2")):
        noise = NoiseParams(p_a=0.01, **{name: p})
        for (level, obs), coeffs in counts.items():
            spec = qed.DecayExperimentSpec(level, obs, noise=noise)
            rate = qed.decay_experiment(spec).rate
            where = (level, obs, name, rate)
            if coeffs[k]:
                assert abs(rate / (float(coeffs[k]) * p) - 1.0) <= 0.01, where
            else:
                assert abs(rate) / p < 1e-2, where

    # (c) Hence lambda_x = (4/3 p1 + 4/9 p2) / (32/9 p2) exceeds one only for
    # p2 < 3 p1 / 7, while lambda_z has no first-order logical rate to beat:
    # the X-improving region lies strictly inside the Z-improving region.
    scan, _ = improvement_map
    x_set = {(i, j) for i, j in zip(*np.nonzero(scan.lambda_x > 1.0))}
    z_set = {(i, j) for i, j in zip(*np.nonzero(scan.lambda_z > 1.0))}
    assert x_set and x_set < z_set, (
        "expected the improving set for the X-type observable (size "
        f"{len(x_set)}) to be nonempty and strictly inside the improving set "
        f"for the Z-type observable (size {len(z_set)}).  The bare pair's ZI "
        "decays at first order in p2: the XX, XY, YX and YY faults of the "
        "two-qubit channel on the ZZ check commute with it and flip ZI.  The "
        "encoded ZI has no first-order term: it decays at second order in p2 "
        "and, at p_a = 0, at fourth order in p1.  The encoded XX decays at "
        "first order in p2 only, through ZZ and YY faults on the rungs around "
        "each rung XX measurement (32/9 p2 against the bare 4/3 p1 + 4/9 p2)."
    )


# ---------------------------------------------------------------------------
# 6. Noise-parameter derivation for the physical operating regime.
# ---------------------------------------------------------------------------


def test_06_noise_derivation_physical_regime():
    t0 = time.monotonic()
    params, audit = derive_noise(
        {
            "snr": 3.7,
            "delta_over_kT": 12,
            "L_over_xi": 20,
            "delta_eV": 50e-6,
            "tau_elph_s": 50e-9,
            "tau_meas_s": 1e-6,
        }
    )
    for name, value in (("p_a", params.p_a), ("p1", params.p1), ("theta", params.theta)):
        assert 0.5e-4 <= value <= 2e-4, f"{name} = {value} outside [0.5e-4, 2e-4]"
    assert audit["route"]["p_a"] == "snr"
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 7. Simulator conservation battery over 50 random circuits on up to 8
#    qubits: unpruned trace, branch positivity, and the eager run against
#    the dense oracle.
# ---------------------------------------------------------------------------

_SLOT_BUDGET = {2: 8, 3: 8, 4: 7, 5: 7, 6: 6, 7: 5, 8: 4}


def _slot_count(circuit) -> int:
    return sum(1 for step in circuit.steps for op in step.ops if hasattr(op, "slot"))


def _bounded_random_circuit(rng, num_qubits):
    budget = _SLOT_BUDGET[num_qubits]
    while True:
        steps = int(rng.integers(2, 4 if num_qubits >= 7 else 6))
        circuit = circuit_corpus.random_circuit(
            rng, num_qubits, steps, with_detectors=True
        )
        if 1 <= _slot_count(circuit) <= budget:
            return circuit


def test_07_simulator_conservation_battery():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260825)
    noise = NoiseParams(p_a=0.04, p1=0.03, p2=0.06, theta=0.11)
    sizes = [2, 3, 4, 5, 6, 7, 8] * 7 + [8]
    assert len(sizes) == 50
    for num_qubits in sizes:
        circuit = _bounded_random_circuit(rng, num_qubits)
        labels = [str(rng.choice(["0", "1", "+", "-", "mixed"])) for _ in range(num_qubits)]
        init = TrajectoryEnsemble.from_product_state(labels)

        # Trace conservation and branch positivity, with no detectors applied.
        plain = run_circuit(Circuit(num_qubits, circuit.steps), noise, init,
                            keep_slots="all")
        assert abs(plain.acceptance - 1.0) < 1e-9
        for _record, op in plain.ensemble.branch_states():
            assert np.linalg.eigvalsh(op.matrix).min() > -1e-9

        # Schedule independence: the eager run (pruned and merged as early
        # as the plan can) and the dense oracle (the dense channels, step by
        # step, summing branches only where their keys agree) must agree,
        # with every record kept and with none.
        eager = run_circuit(circuit, noise, init)
        reference = dense_oracle.run(circuit, noise, init)
        kept = dense_oracle.run(circuit, noise, init, keep="all")

        acc = eager.acceptance
        assert abs(reference.acceptance - acc) < 1e-12
        assert abs(kept.acceptance - acc) < 1e-12
        np.testing.assert_allclose(reference.state, eager.ensemble.sum_pauli_vec(),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(kept.state, eager.ensemble.sum_pauli_vec(),
                                   rtol=0, atol=1e-12)
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 8. The six named expectation values after an injected error on each of
#    the two post-selected preparations of the two-qubit repetition code.
# ---------------------------------------------------------------------------


def test_08_repcode_error_signature_table():
    t0 = time.monotonic()
    bell = qed.prepare_repcode_state("XX", "physical")
    bell.apply_pauli("ZI")
    assert abs(_expectation(bell, "ZZ") - 1.0) < 1e-10
    assert abs(_expectation(bell, "ZI") - 0.0) < 1e-10
    assert abs(_expectation(bell, "XX") - (-1.0)) < 1e-10

    zeros = qed.prepare_repcode_state("ZZ", "physical")
    zeros.apply_pauli("XX")
    assert abs(_expectation(zeros, "ZZ") - 1.0) < 1e-10
    assert abs(_expectation(zeros, "ZI") - (-1.0)) < 1e-10
    assert abs(_expectation(zeros, "XX") - 0.0) < 1e-10
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 9. Rebit tomography reconstructs known injected channels, exactly and
#    from one million sampled shots per experiment.
# ---------------------------------------------------------------------------


def test_09_rebit_tomography_reconstructs_injected_channels():
    t0 = time.monotonic()
    flip = readout_flip_instruments(0.05)
    operations = {
        "depolarizing": depolarize1_superop(0.2),
        "z_rotation": rotation_superop("Z", 0.3),
        "assignment_flip": (flip["X"].plus, flip["X"].minus),
    }
    truths = {
        "depolarizing": rebit_block(depolarize1_superop(0.2).matrix),
        "z_rotation": rebit_block(rotation_superop("Z", 0.3).matrix),
        "assignment_flip": rebit_block(flip["X"].plus),
    }
    for mode, kwargs in (("exact", {}), ("sampled", {"shots": 1_000_000, "seed": 3})):
        gateset = rebit_gst(NoiseParams(), operations=operations, mode=mode, **kwargs)
        for name, want in truths.items():
            deviation = float(np.max(np.abs(gateset.maps[name] - want)))
            assert deviation < 5e-3, f"{mode} {name}: max deviation {deviation}"
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 10. The timed eighth-turn rotation prepares the magic state, and its
#     fidelity degrades as 1 - sin^2(delta) under a phase error delta.
# ---------------------------------------------------------------------------


def test_10_t_state_preparation_fidelity():
    t0 = time.monotonic()
    plus = np.full((2, 2), 0.5, dtype=complex)
    state = timed_coupling_rotation("Z", math.pi / 8.0).apply_dense(plus)
    magic = np.array(
        [
            [0.5, 0.5 * np.exp(1j * math.pi / 4.0)],
            [0.5 * np.exp(-1j * math.pi / 4.0), 0.5],
        ]
    )
    assert np.max(np.abs(state - magic)) < 1e-12
    for delta in (0.0, 0.05, 0.1):
        want = 1.0 - math.sin(delta) ** 2
        assert abs(t_state_fidelity(delta) - want) < 1e-10
    assert time.monotonic() - t0 < 1.0

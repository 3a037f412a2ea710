"""Tests for measurement-based qubit benchmarking.

Oracles: closed-form two-flip composition formulas for the metrics, known
limiting instrument families (randomizing, readout-flip, identical), the
exact channel composition as ground truth for sampled mode, and
known-channel injection for the rebit reconstruction.
"""

import json
import math

import numpy as np
import pytest

from tetronsim import benchmarking
from tetronsim.benchmarking import (
    BASES,
    OUTCOMES,
    RESET_ORDERS,
    ConditionalTable,
    Instrument,
    MeasurementSequence,
    benchmark_metrics,
    estimate_err_a,
    estimate_err_b,
    generate_debruijn,
    ideal_instruments,
    identical_instruments,
    lifetime_experiment,
    randomizing_instruments,
    readout_flip_instruments,
    rebit_block,
    rebit_gst,
    reset_deviation,
    reset_superop,
    subsequence_statistics,
    tetron_instruments,
    wilson_interval,
)
from tetronsim.channels import (
    NoiseParams,
    depolarize1_superop,
    projection_superop,
    rotation_superop,
)
from tetronsim.pauli import Superoperator


# ---------------------------------------------------------------------------
# Instruments and reset
# ---------------------------------------------------------------------------


def test_instruments_must_sum_to_trace_preserving():
    good = projection_superop("X", 1).matrix
    with pytest.raises(ValueError, match="trace-preserving"):
        Instrument(good, good)  # plus branch twice is not a channel


def test_reset_scrambles_any_input_exactly():
    r = reset_superop(NoiseParams(p_a=0.3, p1=0.2)).matrix
    for bloch in ([0, 0, 1], [1, 0, 0], [0.3, -0.5, 0.2]):
        out = r @ np.array([1.0, *bloch])
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out[1:])) < 1e-12


def test_reset_order_conventions():
    inst = identical_instruments("X")
    forward = reset_superop(inst, order="XZ").matrix
    backward = reset_superop(inst, order="ZX").matrix
    averaged = reset_superop(inst).matrix
    assert np.allclose(0.5 * (forward + backward), averaged)
    with pytest.raises(ValueError, match="order"):
        reset_superop(inst, order="XX")


def test_reset_deviation_is_zero_for_device_model():
    assert reset_deviation(NoiseParams(p1=0.1)) == pytest.approx(0.0, abs=1e-14)
    assert reset_deviation(NoiseParams(p1=0.1)) <= 0.1


def test_reset_deviation_sees_pathological_instruments():
    # two identical instruments never scramble the measured axis, but the
    # maximally mixed input still comes out maximally mixed
    assert reset_deviation(identical_instruments()) == pytest.approx(0.0, abs=1e-14)


def test_readout_flip_validation():
    with pytest.raises(ValueError, match="flip probability"):
        readout_flip_instruments(1.5)


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_debruijn_cycles_sample_every_word_once(k):
    seq = generate_debruijn(k)
    assert len(seq) == 2**k
    labels = seq.cycled(2**k + k - 1)
    windows = [tuple(labels[i : i + k]) for i in range(2**k)]
    assert len(set(windows)) == 2**k


def test_debruijn_k1_is_both_letters():
    assert generate_debruijn(1).labels == ("X", "Z")


def test_debruijn_rejects_nonpositive_length():
    with pytest.raises(ValueError, match="at least 1"):
        generate_debruijn(0)


def test_sequence_validation():
    with pytest.raises(ValueError, match="nonempty"):
        MeasurementSequence(())
    with pytest.raises(ValueError, match="X or Z"):
        MeasurementSequence(("X", "Y"))
    assert MeasurementSequence(("X", "Z")).cycled(5) == ("X", "Z", "X", "Z", "X")
    assert MeasurementSequence.from_string("XZZ").labels == ("X", "Z", "Z")


# ---------------------------------------------------------------------------
# Exact statistics and metrics
# ---------------------------------------------------------------------------


def test_ideal_instruments_have_ideal_statistics():
    table = subsequence_statistics(NoiseParams())
    for order in RESET_ORDERS:
        for q in BASES:
            for p in BASES:
                cell = table.probs[(order, q, p)]
                if q == p:
                    assert np.allclose(cell, np.eye(2), atol=1e-12)
                else:
                    assert np.allclose(cell, 0.5, atol=1e-12)
    assert estimate_err_a(table) == pytest.approx(0.0, abs=1e-12)
    assert estimate_err_b(table) == pytest.approx(0.0, abs=1e-12)


def test_table_rows_are_normalized():
    table = subsequence_statistics(NoiseParams(p_a=0.07, p1=0.13))
    for cell in table.probs.values():
        assert np.allclose(cell.sum(axis=1), 1.0, atol=1e-12)


def test_randomizing_instruments_metrics():
    table = subsequence_statistics(randomizing_instruments())
    assert estimate_err_a(table) == pytest.approx(0.5, abs=1e-12)
    assert estimate_err_b(table) == pytest.approx(0.0, abs=1e-12)


def test_readout_flip_metrics_match_closed_form():
    p_f = 0.1
    table = subsequence_statistics(readout_flip_instruments(p_f))
    assert estimate_err_a(table) == pytest.approx(2 * p_f * (1 - p_f), abs=1e-12)
    assert estimate_err_b(table) == pytest.approx(0.0, abs=1e-12)


def test_identical_but_perfect_instruments_metrics():
    table = subsequence_statistics(identical_instruments())
    assert estimate_err_a(table) == pytest.approx(0.0, abs=1e-12)
    assert estimate_err_b(table) == pytest.approx(0.5, abs=1e-12)


def test_assignment_error_alone_gives_two_flip_agreement():
    table = subsequence_statistics(NoiseParams(p_a=0.05))
    for order in RESET_ORDERS:
        for b in BASES:
            cell = table.probs[(order, b, b)]
            assert cell[0, 0] == pytest.approx(0.905, abs=1e-12)
            assert cell[1, 1] == pytest.approx(0.905, abs=1e-12)


def test_device_metrics_match_two_flip_composition():
    # same-basis agreement carries two assignment flips and the depolarizing
    # halves of both measurements; cross-basis outcomes stay exactly fair
    for pa, p1 in [(0.02, 0.01), (0.1, 0.0), (0.0, 0.2), (0.07, 0.31)]:
        table = subsequence_statistics(NoiseParams(p_a=pa, p1=p1))
        expected = 0.5 - 0.5 * (1 - 2 * pa) ** 2 * (1 - 2 * p1 / 3) ** 2
        assert estimate_err_a(table) == pytest.approx(expected, abs=1e-12)
        assert estimate_err_b(table) == pytest.approx(0.0, abs=1e-12)


def test_metrics_invariant_under_basis_relabeling():
    noise = NoiseParams(p_a=0.04, p1=0.09)
    inst = tetron_instruments(noise)
    swapped = {"X": inst["Z"], "Z": inst["X"]}
    a, b = subsequence_statistics(noise), subsequence_statistics(swapped)
    assert estimate_err_a(a) == pytest.approx(estimate_err_a(b), abs=1e-14)
    assert estimate_err_b(a) == pytest.approx(estimate_err_b(b), abs=1e-14)


def test_flagged_rows_block_aggregation():
    # an instrument that never reports -1: conditioning on -1 is undefined
    nonselective = ideal_instruments()["X"].nonselective
    always_plus = {
        b: Instrument(nonselective, np.zeros((4, 4))) for b in BASES
    }
    table = subsequence_statistics(always_plus)
    assert table.flagged_entries()
    with pytest.raises(ValueError, match="never observed"):
        estimate_err_a(table)


def test_metric_estimates_record_and_serialize():
    m = benchmark_metrics(NoiseParams(p_a=0.02, p1=0.01))
    assert m.err_a == pytest.approx(0.04532352, abs=1e-10)
    assert m.err_b == pytest.approx(0.0, abs=1e-12)
    assert m.mode == "exact"
    assert m.err_a_interval is None
    assert m.reset_distance == pytest.approx(0.0, abs=1e-14)
    blob = json.loads(m.to_json())
    assert blob["err_a"] == pytest.approx(m.err_a)
    assert blob["noise"]["p_a"] == 0.02
    assert "XZ|X|X" in blob["table"]


# ---------------------------------------------------------------------------
# Sampled statistics
# ---------------------------------------------------------------------------


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert hi - lo == pytest.approx(2 * 1.96 * 0.05, rel=0.05)
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    with pytest.raises(ValueError, match="positive"):
        wilson_interval(1, 0)


def test_sampled_statistics_agree_with_exact_within_three_sigma():
    noise = NoiseParams(p_a=0.03, p1=0.02)
    exact = subsequence_statistics(noise)
    sampled = subsequence_statistics(noise, mode="sampled", shots=200_000, seed=11)
    checked = 0
    for key in exact.probs:
        for si in range(2):
            n = sampled.weights[key][si]
            assert n > 1000
            lo, hi = wilson_interval(sampled.probs[key][si, 0] * n, n, z=3.0)
            assert lo <= exact.probs[key][si, 0] <= hi
            checked += 1
    assert checked == 16


def test_sampled_mode_is_deterministic_and_seed_sensitive():
    noise = NoiseParams(p_a=0.05)
    one = subsequence_statistics(noise, mode="sampled", shots=20_000, seed=5)
    two = subsequence_statistics(noise, mode="sampled", shots=20_000, seed=5)
    other = subsequence_statistics(noise, mode="sampled", shots=20_000, seed=6)
    for key in one.probs:
        assert np.array_equal(one.probs[key], two.probs[key])
    assert any(
        not np.array_equal(one.probs[key], other.probs[key]) for key in one.probs
    )


def test_sampled_windows_split_evenly_across_patterns():
    # the de Bruijn default guarantees equal sampling of each valid window
    table = subsequence_statistics(NoiseParams(), mode="sampled", shots=64_000, seed=2)
    totals = {key: table.weights[key].sum() for key in table.weights}
    values = set(totals.values())
    assert len(values) == 1


def test_sampled_metrics_carry_wilson_intervals():
    m = benchmark_metrics(
        NoiseParams(p_a=0.02, p1=0.01), mode="sampled", shots=300_000, seed=7
    )
    exact = benchmark_metrics(NoiseParams(p_a=0.02, p1=0.01))
    assert m.err_a_interval is not None and m.err_a_interval > 0
    assert abs(m.err_a - exact.err_a) < 3 * m.err_a_interval
    assert m.shots == 300_000 and m.seed == 7


def test_sampled_mode_validation():
    with pytest.raises(ValueError, match="mode"):
        subsequence_statistics(NoiseParams(), mode="guess")
    noise = NoiseParams(p_a=0.01)
    # Counts must be positive integers: a float is not truncated and a bool
    # is not read as 1.
    for bad in (0, -3, 2.5, True, "10"):
        with pytest.raises(ValueError, match="shots must be a positive integer"):
            subsequence_statistics(noise, mode="sampled", shots=bad)
        with pytest.raises(ValueError, match="chains must be a positive integer"):
            subsequence_statistics(noise, mode="sampled", shots=100, chains=bad)
        with pytest.raises(ValueError, match="shots must be a positive integer"):
            benchmark_metrics(noise, mode="sampled", shots=bad)
        with pytest.raises(ValueError, match="chains must be a positive integer"):
            benchmark_metrics(noise, mode="sampled", shots=100, chains=bad)
        with pytest.raises(ValueError, match="shots must be a positive integer"):
            rebit_gst(noise, mode="sampled", shots=bad)
        # Exact mode reads no counts.
        assert benchmark_metrics(noise, shots=bad, chains=bad).shots is None


def _reference_sampled_statistics(instruments, *, shots, seed, sequence, chains):
    """The sampler the chain-major kernel replaced, kept as its reference:
    a (chains, 4) state, every uniform of a chain drawn at once, and one
    bincount per window.  Returns (probs, weights, flags)."""
    window = 4
    period = len(sequence)
    per_chain = -(-shots // chains)
    per_chain = -(-per_chain // period) * period
    steps = window - 1 + per_chain
    letters = sequence.cycled(steps)
    uniforms = np.empty((chains, steps))
    for c in range(chains):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        uniforms[c] = rng.random(steps)
    mats = {
        (letter, s): instruments[letter].outcome(s).T.copy()
        for letter in BASES
        for s in OUTCOMES
    }
    state = np.tile([1.0, 0.0, 0.0, 0.0], (chains, 1))
    outcomes = np.empty((chains, steps), dtype=np.int8)
    for t, letter in enumerate(letters):
        plus = state @ mats[(letter, 1)]
        minus = state @ mats[(letter, -1)]
        p_plus = np.clip(plus[:, 0], 0.0, 1.0)
        hit = uniforms[:, t] < p_plus
        outcomes[:, t] = np.where(hit, 1, -1)
        state = np.where(hit[:, None], plus, minus)
        state /= state[:, :1]
    counts = {
        (order, q, p): np.zeros((2, 2)) for order in RESET_ORDERS for q in BASES for p in BASES
    }
    for t in range(window - 1, steps):
        first, second, q, p = letters[t - 3 : t + 1]
        if first == second:
            continue
        s_idx = (outcomes[:, t - 1] == -1).astype(np.int64)
        r_idx = (outcomes[:, t] == -1).astype(np.int64)
        cell = np.bincount(2 * s_idx + r_idx, minlength=4).reshape(2, 2)
        counts[(first + second, q, p)] += cell
    probs, weights, flags = {}, {}, {}
    for key, cell in counts.items():
        row_totals = cell.sum(axis=1)
        table = np.full((2, 2), math.nan)
        for si in range(2):
            if row_totals[si] > 0:
                table[si] = cell[si] / row_totals[si]
        probs[key], weights[key], flags[key] = table, row_totals, row_totals == 0
    return probs, weights, flags


_KERNEL_SIZES = ((1_000_000, 256), (20_000, 7), (1, 1), (5_000, 300))  # (shots, chains)
# A de Bruijn cycle of order 4 rotated so that its first renewal phase (for
# the tetron and biased-flip instruments, the first change of basis) is
# phase 1: one step comes before the first cut, and each chain ends in a
# two-step tail whose first outcome the ZXXZ window counts.
_ROTATED_DE_BRUIJN = MeasurementSequence.from_string("XZZXZXZZZZXXXXZX")


def _weak_instruments(strength: float) -> dict:
    """X and Z measurements of the given strength: each outcome map mixes the
    projection with half the identity.  A chain's states never repeat, so
    its outcome automaton never closes."""
    half = 0.5 * (1 - strength) * np.eye(4)
    return {
        letter: Instrument(
            strength * projection_superop(letter, 1).matrix + half,
            strength * projection_superop(letter, -1).matrix + half,
        )
        for letter in BASES
    }


def _biased_flip_instruments() -> dict:
    """Perfect X and Z measurements whose records flip with probabilities
    that depend on the basis and the true outcome, so that p(+1) differs
    from one phase of the sequence to the next."""
    flips = {"X": (0.1, 0.3), "Z": (0.2, 0.05)}  # (flip of +1, flip of -1)
    return {
        letter: Instrument(
            (1 - up) * projection_superop(letter, 1).matrix
            + down * projection_superop(letter, -1).matrix,
            up * projection_superop(letter, 1).matrix
            + (1 - down) * projection_superop(letter, -1).matrix,
        )
        for letter, (up, down) in flips.items()
    }


def _coin_x_instruments() -> dict:
    """A perfect Z measurement and an X "measurement" that flips a fair coin
    and leaves the state alone: every X step has p(+1) = 1/2, but its
    successor is the state it was given, so no phase renews."""
    coin = Instrument(0.5 * np.eye(4), 0.5 * np.eye(4))
    return {"X": coin, "Z": identical_instruments("Z")["Z"]}


def _chain_steps(shots, chains, period):
    per_chain = -(-shots // chains)
    return 3 + -(-per_chain // period) * period


@pytest.mark.parametrize(
    "source, sequence",
    [
        (NoiseParams(p_a=0.03, p1=0.02, p2=0.01), None),
        (NoiseParams(p_a=0.03, p1=0.02, p2=0.01, theta=0.1), None),
        (ideal_instruments(), None),
        (randomizing_instruments(), None),
        (readout_flip_instruments(0.7), None),
        (identical_instruments("Z"), None),
        # Not a de Bruijn cycle, but it holds every window the table counts.
        (NoiseParams(p_a=0.05, p1=0.01), MeasurementSequence.from_string("XZZXXXZXXZZZXZ")),
        (_biased_flip_instruments(), _ROTATED_DE_BRUIJN),
        (_weak_instruments(0.3), None),
        (_coin_x_instruments(), None),
    ],
    ids=[
        "tetron", "tetron-theta", "ideal", "randomizing", "flip-0.7", "identical-Z",
        "non-de-Bruijn", "rotated-de-Bruijn", "weak", "coin-X",
    ],
)
def test_sampled_kernel_matches_reference_loop(source, sequence):
    # The sizes give chains shorter than one block of uniforms and chains
    # whose last block is partly filled.
    steps = [_chain_steps(shots, chains, 16) for shots, chains in _KERNEL_SIZES]
    assert any(n > benchmarking._BLOCK and n % benchmarking._BLOCK for n in steps)
    assert any(n < benchmarking._BLOCK for n in steps)
    instruments = tetron_instruments(source) if isinstance(source, NoiseParams) else source
    for shots, chains in _KERNEL_SIZES:
        for seed in (0, 7, 2**40 + 3):
            table = subsequence_statistics(
                source, mode="sampled", shots=shots, seed=seed, sequence=sequence, chains=chains
            )
            probs, weights, flags = _reference_sampled_statistics(
                instruments,
                shots=shots,
                seed=seed,
                sequence=sequence or generate_debruijn(4),
                chains=chains,
            )
            for key in probs:
                assert np.array_equal(table.probs[key], probs[key], equal_nan=True), key
                assert np.array_equal(table.weights[key], weights[key]), key
                assert table.weights[key].dtype == weights[key].dtype
                assert np.array_equal(table.flags[key], flags[key]), key


def test_sampled_kernel_walks_the_outcome_automaton_where_it_closes(monkeypatch):
    # The tetron instruments close within the chain's step count and renew at
    # a change of basis, so the matrix walk never runs; a weak measurement
    # never closes, and identical or coin-X instruments never renew, so it
    # runs there.
    matrix_walk = benchmarking._matrix_walk

    def no_matrix_walk(*args):
        raise AssertionError("the matrix walk ran")

    monkeypatch.setattr(benchmarking, "_matrix_walk", no_matrix_walk)
    noise = NoiseParams(p_a=0.05)
    for sequence in (None, _ROTATED_DE_BRUIJN):
        subsequence_statistics(
            noise, mode="sampled", shots=1_000_000, seed=1, sequence=sequence, chains=256
        )
    assert benchmarking._outcome_automaton(
        tetron_instruments(noise), _ROTATED_DE_BRUIJN.labels, cap=1000
    ).renewal == 1

    walks = []
    monkeypatch.setattr(
        benchmarking, "_matrix_walk", lambda *args: walks.append(args) or matrix_walk(*args)
    )
    sources = (_weak_instruments(0.3), identical_instruments("Z"), _coin_x_instruments())
    for source in sources:
        subsequence_statistics(source, mode="sampled", shots=20_000, seed=1, chains=16)
    assert len(walks) == len(sources)


def test_sampled_mode_rejects_a_sequence_missing_windows_before_any_draw(monkeypatch):
    # A de Bruijn cycle of order 3 lacks four of the eight windows that start
    # with a reset order; no generator is made before the rejection.
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the sequence")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for call in (benchmark_metrics, subsequence_statistics):
        with pytest.raises(ValueError, match="lacks the four-label windows "
                                             "XZXX, XZZX, ZXXZ, ZXZX: sampled mode"):
            call(mode="sampled", shots=200000, seed=1, sequence=generate_debruijn(3))
    # Exact mode reads no sequence.
    benchmark_metrics(sequence=generate_debruijn(3))


# ---------------------------------------------------------------------------
# Rebit reconstruction
# ---------------------------------------------------------------------------


def test_noiseless_outcome_maps_reconstruct_exactly():
    gateset = rebit_gst(NoiseParams())
    ideal = ideal_instruments()
    for basis in BASES:
        for s in (1, -1):
            got = gateset.maps[f"{basis}{s:+d}"]
            want = rebit_block(ideal[basis].outcome(s))
            assert np.max(np.abs(got - want)) < 1e-8
    assert np.max(np.abs(gateset.noop - np.eye(3))) < 1e-8
    assert all(res < 1e-8 for res in gateset.residuals.values())


def test_injected_depolarizing_contraction():
    gateset = rebit_gst(NoiseParams(), operations={"probe": depolarize1_superop(0.2)})
    got = gateset.maps["probe"]
    assert got[1, 1] == pytest.approx(1 - 4 * 0.2 / 3, abs=1e-10)
    assert got[2, 2] == pytest.approx(1 - 4 * 0.2 / 3, abs=1e-10)
    assert got[0, 0] == pytest.approx(1.0, abs=1e-10)
    off_diagonal = got - np.diag(np.diag(got))
    assert np.max(np.abs(off_diagonal)) < 1e-10


def test_injected_rotation_reconstructs_full_block():
    probe = rotation_superop("Y", 0.3)
    gateset = rebit_gst(NoiseParams(), operations={"probe": probe})
    assert np.max(np.abs(gateset.maps["probe"] - rebit_block(probe.matrix))) < 1e-10


def test_sampled_reconstruction_close_to_truth():
    probe = depolarize1_superop(0.2)
    gateset = rebit_gst(
        NoiseParams(), operations={"probe": probe}, mode="sampled", shots=1_000_000, seed=3
    )
    assert np.max(np.abs(gateset.maps["probe"] - rebit_block(probe.matrix))) < 5e-3
    assert gateset.residuals["probe"] < 5e-2


def test_degenerate_design_names_missing_directions():
    # identical instruments confound the two rebit axes: no experiment can
    # tell x from z, so the error must implicate both (and not the trace)
    for letter in BASES:
        with pytest.raises(ValueError) as excinfo:
            rebit_gst(identical_instruments(letter))
        message = str(excinfo.value)
        assert "degenerate design" in message
        assert "'x'" in message and "'z'" in message
        assert "'trace'" not in message


def test_noisy_gst_keeps_trace_row_for_trace_preserving_probe():
    probe = depolarize1_superop(0.3)
    gateset = rebit_gst(NoiseParams(p_a=0.02, p1=0.05), operations={"probe": probe})
    assert gateset.maps["probe"][0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)
    assert gateset.condition < 10


def test_rebit_block_validation():
    with pytest.raises(ValueError, match="4x4"):
        rebit_block(np.eye(3))
    assert np.allclose(rebit_block(np.eye(4)), np.eye(3))


def test_gst_accepts_superoperator_and_pair_forms():
    inst = ideal_instruments()
    pair = (inst["X"].plus, inst["X"].minus)
    gateset = rebit_gst(
        NoiseParams(),
        operations={"sup": Superoperator(inst["X"].nonselective), "pair": pair},
    )
    assert np.max(np.abs(gateset.maps["pair"] - rebit_block(inst["X"].plus))) < 1e-8
    want_nonselective = rebit_block(inst["X"].nonselective)
    assert np.max(np.abs(gateset.maps["sup"] - want_nonselective)) < 1e-8


# ---------------------------------------------------------------------------
# Lifetime
# ---------------------------------------------------------------------------


def test_noiseless_lifetime_never_decays():
    result = lifetime_experiment("Z", [0, 5, 10], NoiseParams())
    assert np.allclose(result.agreement, 1.0, atol=1e-12)
    assert result.decay_rate == pytest.approx(0.0, abs=1e-12)
    assert result.flags == ()


def test_depolarizing_idle_gives_two_thirds_flip_rate():
    p1 = 0.01
    result = lifetime_experiment("Z", range(0, 30, 3), NoiseParams(p1=p1))
    assert result.flip_rate == pytest.approx(2 * p1 / 3, rel=1e-9)
    assert result.decay_rate == pytest.approx(-math.log(1 - 4 * p1 / 3), rel=1e-9)
    assert result.flags == ()


def test_z_basis_rate_immune_to_coherent_phase_noise():
    noise = NoiseParams(p_a=0.03, p1=0.01, theta=0.3)
    result = lifetime_experiment("Z", range(0, 24, 2), noise)
    assert result.decay_rate == pytest.approx(-math.log(1 - 4 * 0.01 / 3), rel=1e-9)
    # the intercept carries the two assignment flips and the in-measurement
    # depolarizing halves, not the idle decay
    assert math.exp(result.intercept) == pytest.approx(
        (1 - 2 * 0.03) ** 2 * (1 - 2 * 0.01 / 3) ** 2, rel=1e-9
    )
    assert result.flags == ()


def test_coherent_rotation_in_x_basis_is_flagged_non_exponential():
    theta = 0.2
    grid = range(0, 30, 3)
    result = lifetime_experiment("X", grid, NoiseParams(theta=theta))
    expected = np.cos(theta * np.asarray(grid)) ** 2
    assert np.max(np.abs(result.agreement - expected)) < 1e-12
    assert "non-exponential decay" in result.flags


def test_lifetime_grid_validation():
    with pytest.raises(ValueError, match="nonempty"):
        lifetime_experiment("Z", [])
    with pytest.raises(ValueError, match="nonnegative"):
        lifetime_experiment("Z", [-1, 2])
    with pytest.raises(ValueError, match="strictly increasing"):
        lifetime_experiment("Z", [3, 1])
    with pytest.raises(ValueError, match="basis"):
        lifetime_experiment("Q", [0, 1])


def test_single_point_fit_is_flagged_underdetermined():
    result = lifetime_experiment("Z", [4], NoiseParams(p1=0.01))
    assert math.isnan(result.decay_rate)
    assert "fit underdetermined" in result.flags

"""Tagged stabilizer tableau, cross-checked against the dense oracle (and the
oracle against the exact simulator): random measurement schedules must
produce the predicted branch counts, and every derived detector and
expression must hold on every surviving branch."""

import math
import re

import numpy as np
import pytest

import dense_oracle

from tetronsim.channels import NoiseParams
from tetronsim.pauli import PauliString, embed_letters
from tetronsim.simulator import CircuitBuilder, Parity, TrajectoryEnsemble, run_circuit
from tetronsim.tableau import TaggedGenerator, TaggedTableau

NO_NOISE = NoiseParams()


def test_generator_products_match_pauli_algebra():
    rng = np.random.default_rng(5)
    n = 3
    for _ in range(60):
        letters_a = "".join(rng.choice(list("IXYZ"), size=n))
        letters_b = "".join(rng.choice(list("IXYZ"), size=n))
        if letters_a == "I" * n or letters_b == "I" * n:
            continue
        a = TaggedTableau(n, [(PauliString(letters_a), {1})])._gens[0]
        b = TaggedTableau(n, [(PauliString(letters_b), {2})])._gens[0]
        if not a.commutes_with(b.x, b.z):
            continue
        prod, phase = PauliString(letters_a).mul_with_phase(PauliString(letters_b))
        got = a.times(b).to_pauli(n)
        assert got.letters == prod.letters
        assert got.sign == phase
        assert got is not None and a.times(b).tags == frozenset({1, 2})


def test_embed_letters():
    assert embed_letters(4, "XZ", (2, 0)) == "ZIXI"
    with pytest.raises(ValueError, match="assigned twice"):
        embed_letters(3, "XX", (1, 1))
    with pytest.raises(ValueError, match="outside"):
        embed_letters(2, "X", (2,))
    with pytest.raises(ValueError, match="letters"):
        embed_letters(2, "XX", (0,))


def test_constructor_validation():
    with pytest.raises(ValueError, match="commute"):
        TaggedTableau(1, [(PauliString("X"), set()), (PauliString("Z"), set())])
    with pytest.raises(ValueError, match="independent"):
        TaggedTableau(
            2,
            [
                (PauliString("ZI"), set()),
                (PauliString("IZ"), set()),
                (PauliString("ZZ"), set()),
            ],
        )
    with pytest.raises(ValueError, match="identity"):
        TaggedTableau(1, [(PauliString("I"), set())])
    with pytest.raises(ValueError, match="Hermiticity"):
        TaggedGenerator(1, 1, 0, frozenset())


def test_measure_argument_validation():
    tab = TaggedTableau.from_product_state(["0", "0"])
    with pytest.raises(ValueError, match="signs live in records"):
        tab.measure(PauliString("ZZ", sign=-1), 0)
    tab.measure("XX", 0)
    with pytest.raises(ValueError, match="already used"):
        tab.measure("ZZ", 0)
    with pytest.raises(ValueError, match="tableau has"):
        tab.measure("ZZZ", 1)


def test_product_state_generators():
    tab = TaggedTableau.from_product_state(["0", "-", "mixed", "+i"])
    gens = {str(p) for p, _ in tab.generators}
    assert gens == {"ZIII", "-IXII", "IIIY"}


def test_product_state_reads_the_simulator_labels():
    tab = TaggedTableau.from_product_state(["i", "-i", "1"])
    assert {str(p) for p, _ in tab.generators} == {"YII", "-IYI", "-IIZ"}
    for labels in (["2"], ["0", "+j"], ["0", (0.0, 0.0, 1.0)]):
        message = (f"bad state label for qubit {len(labels) - 1}: {labels[-1]!r}; labels are "
                   f"0, 1, +, -, +i, i, -i, mixed")
        with pytest.raises(ValueError, match=re.escape(message)):
            TaggedTableau.from_product_state(labels)


def idle_ladder_outcomes(rounds):
    """Measure the 2x2 alternating schedule, returning kinds and detectors."""
    tab = TaggedTableau.from_product_state(["0"] * 4)
    kinds, dets = [], []
    slot = 0
    for _ in range(rounds):
        for letters, pair in [
            ("XX", (0, 1)),
            ("XX", (2, 3)),
            ("ZZ", (0, 2)),
            ("ZZ", (1, 3)),
        ]:
            out = tab.measure(embed_letters(4, letters, pair), slot)
            kinds.append(out.kind)
            dets.append(out.detector)
            slot += 1
    return tab, kinds, dets


def test_idle_ladder_detector_derivation():
    tab, kinds, dets = idle_ladder_outcomes(3)
    assert kinds == ["random", "random", "random", "deterministic"] + [
        "random",
        "deterministic",
    ] * 4
    derived = [d for d in dets if d is not None]
    assert [tuple(d.slots) for d in derived] == [
        (2, 3),
        (0, 1, 4, 5),
        (2, 3, 6, 7),
        (4, 5, 8, 9),
        (6, 7, 10, 11),
    ]
    assert all(d.sign == 1 for d in derived)
    # The refresh keeps detector windows bounded: every steady-state check
    # compares one round against the previous one only.
    for det in derived[1:]:
        assert max(det.slots) - min(det.slots) == 5
    # Logical readout expressions after three rounds.
    assert tab.express("ZZII") == Parity((10, 11), 1)
    assert tab.express("IIZZ") == Parity((), 1)
    assert tab.express("YYYY") == Parity((8, 9, 10, 11), 1)
    assert tab.express("XIXI") is None


def test_generators_round_trip_constructor():
    tab, _, _ = idle_ladder_outcomes(2)
    rebuilt = TaggedTableau(4, tab.generators)
    assert {(str(p), frozenset(t)) for p, t in rebuilt.generators} == {
        (str(p), frozenset(t)) for p, t in tab.generators
    }


def random_schedule(rng, n, length):
    out = []
    for _ in range(length):
        w = int(rng.integers(1, 3))
        qs = rng.choice(n, size=w, replace=False)
        letters = "".join(rng.choice(list("XYZ"), size=w))
        out.append(embed_letters(n, letters, [int(q) for q in qs]))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_random_schedules_against_exact_simulator(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        labels = [
            str(rng.choice(["0", "1", "+", "-", "+i", "-i", "mixed"]))
            for _ in range(n)
        ]
        sched = random_schedule(rng, n, int(rng.integers(3, 9)))

        tab = TaggedTableau.from_product_state(labels)
        kinds, dets = [], []
        for slot, p in enumerate(sched):
            out = tab.measure(p, slot)
            kinds.append(out.kind)
            dets.append(out.detector)

        builder = CircuitBuilder(n)
        for p in sched:
            qs = [q for q, c in enumerate(p) if c != "I"]
            ls = "".join(c for c in p if c != "I")
            if len(qs) == 1:
                builder.meas1(qs[0], ls)
            else:
                builder.meas2(qs[0], qs[1], ls)
            builder.end_step()
        circuit = builder.build()
        init = TrajectoryEnsemble.from_product_state(labels)
        branches = dense_oracle.run(circuit, NO_NOISE, init, keep="all").branches
        eager = run_circuit(circuit, NO_NOISE, init, keep_slots="all").ensemble
        dense_oracle.assert_same_branches(
            dense_oracle.ensemble_branches(eager, circuit.slots), branches, atol=1e-12
        )
        alive = [(dict(zip(circuit.slots, values)), vec)
                 for (_, values), vec in branches.items() if vec[0] > 1e-12]
        assert len(alive) == 2 ** kinds.count("random")

        for det in dets:
            if det is None:
                continue
            for records, _ in alive:
                assert math.prod(records[s] for s in det.slots) == det.sign

        for pauli, tags in tab.generators:
            for records, vec in alive:
                val = vec[pauli.index] * pauli.sign / vec[0]
                want = math.prod(records[t] for t in tags)
                assert val == pytest.approx(want, abs=1e-10)

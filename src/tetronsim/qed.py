"""Ladder-code quantum error detection on 2-wide qubit arrays.

The ladder code alternates two-qubit parity checks on an N x 2 grid: an X
step measures XX on every horizontal pair (rung), a Z step measures ZZ on the
vertical pairs inside each 2x2 patch.  A two-patch joint ZZ measurement
(lattice surgery) extends the cycle to four steps: X, Z, X, then YY on the
two middle verticals; the joint ZZ outcome is inferred from the Y-step
records and the next X step.

Everything record-related is *derived*, not hard-coded: each circuit,
the post-selected preparations included, is traced through the tagged
stabilizer tableau in one pass, every forced measurement becomes a detector,
and logical readouts and post-selection pins come from the tableau's record
expressions.  Known closed forms (like the joint-ZZ slot pattern) and the
derived circuits themselves are then frozen as regression checks in the test
suite.

The error-detection benchmark compares a two-qubit repetition code (repeated
ZZ, post-selected on constant outcomes) run directly on physical qubits
against the same protocol run on two ladder-code patches.  Exponential decay
rates of the repetition-code logicals XX and ZI give the improvement ratios

    lambda_avg = (rate_XX + rate_ZI) / (rate_logical_XX + rate_logical_ZI)

with per-observable variants lambda_x and lambda_z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import NoiseParams, grid_csv, walk_grid
from .pauli import PauliString, embed_letters
from .simulator import (
    Circuit,
    CircuitBuilder,
    Parity,
    Rotate,
    Step,
    TrajectoryEnsemble,
    _require_count,
    probe_circuit,
    run_circuit,
    sample_circuit,
)
from .tableau import TaggedTableau

# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderLayout:
    """N x 2 grid of qubits with 2x2 logical patches.

    Qubit index = 2*row + column.  Each patch covers rows (r, r+1) and owns
    qubits (2r, 2r+1, 2r+2, 2r+3).
    """

    num_rows: int
    patch_rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "patch_rows", tuple(self.patch_rows))
        if self.num_rows < 2:
            raise ValueError("a ladder needs at least two rows")
        prev_end = -1
        for r in sorted(self.patch_rows):
            if not (0 <= r and r + 1 < self.num_rows):
                raise ValueError(f"patch at row {r} falls outside the array")
            if r <= prev_end:
                raise ValueError("patches must not overlap")
            prev_end = r + 1

    @property
    def num_qubits(self) -> int:
        return 2 * self.num_rows

    @property
    def patches(self) -> tuple:
        return tuple(
            (2 * r, 2 * r + 1, 2 * r + 2, 2 * r + 3) for r in self.patch_rows
        )

    def qubit(self, row: int, col: int) -> int:
        if not (0 <= row < self.num_rows and 0 <= col < 2):
            raise ValueError(f"position ({row}, {col}) outside the array")
        return 2 * row + col

    @classmethod
    def single_patch(cls) -> "LadderLayout":
        return cls(2, (0,))

    @classmethod
    def two_patches(cls) -> "LadderLayout":
        """The flagship 4 x 2 array: two vertically stacked patches."""
        return cls(4, (0, 2))


def _rungs(layout: LadderLayout) -> list:
    return [(2 * r, 2 * r + 1) for r in range(layout.num_rows)]


def _patch_verticals(layout: LadderLayout) -> list:
    out = []
    for r in layout.patch_rows:
        out.extend([(2 * r, 2 * r + 2), (2 * r + 1, 2 * r + 3)])
    return out


def _merge_verticals(layout: LadderLayout) -> list:
    """The verticals joining the bottom row of one patch to the top row of
    the next (the lattice-surgery seam)."""
    rows = sorted(layout.patch_rows)
    out = []
    for a, b in zip(rows, rows[1:]):
        seam = a + 1  # bottom row of patch a; patch b starts at b == a + 2
        if b != a + 2:
            raise ValueError("joint measurement needs vertically adjacent patches")
        out.extend([(2 * seam, 2 * seam + 2), (2 * seam + 1, 2 * seam + 3)])
    return out


def idle_schedule(layout: LadderLayout) -> list:
    """One round of the idle code: [X step, Z step] as (letters, pair) lists."""
    return [
        [("XX", p) for p in _rungs(layout)],
        [("ZZ", p) for p in _patch_verticals(layout)],
    ]


def surgery_schedule(layout: LadderLayout) -> list:
    """One round of the joint-ZZ cycle: X, Z, X, then YY on the seam."""
    xstep = [("XX", p) for p in _rungs(layout)]
    return [
        xstep,
        [("ZZ", p) for p in _patch_verticals(layout)],
        list(xstep),
        [("YY", p) for p in _merge_verticals(layout)],
    ]


# ---------------------------------------------------------------------------
# Detector-derived circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedCircuit:
    """A schedule compiled to a circuit plus everything the tableau derived:
    post-selection detectors are embedded in the circuit; ``zz_readouts``
    holds a (round, :class:`~tetronsim.simulator.Parity`) pair per round
    from round 2 on, the parity's value being the inferred joint-ZZ outcome,
    so it can be kept by ``run_circuit`` directly; ``round_end_steps`` maps
    round -> index of its last step."""

    circuit: Circuit
    round_end_steps: tuple
    zz_readouts: tuple = ()


_PREP_LABEL = {"X": "+", "Y": "+i", "Z": "0"}


def _derive(
    num_qubits: int,
    steps,
    round_length: int,
    *,
    prep_letter: "str | None" = None,
    joint_zz: "PauliString | None" = None,
    post_select: "PauliString | None" = None,
) -> DerivedCircuit:
    """Compile steps of measurements ``(letters, qubits)`` into a circuit,
    tracing each on a tagged tableau; every record the tableau finds forced
    becomes a detector.

    With ``prep_letter`` the tableau starts in that letter's +1 eigenstate on
    every qubit and a first step measures it there; without it, nothing is
    assumed about the input.  The steps form rounds of ``round_length``.
    ``joint_zz`` is read out at the first step of every round after the
    first, and the inferred value of ``post_select`` is pinned to +1 after
    the last step.
    """
    builder = CircuitBuilder(num_qubits)

    def measure(step) -> None:
        for letters, qubits in step:
            if len(qubits) == 1:
                slot = builder.meas1(qubits[0], letters)
            else:
                slot = builder.meas2(qubits[0], qubits[1], letters)
            out = tab.measure(embed_letters(num_qubits, letters, qubits), slot)
            if out.detector is not None:
                builder.detector(out.detector)
        builder.end_step()

    def inferred(pauli: PauliString) -> Parity:
        expr = tab.express(pauli)
        if expr is None:  # pragma: no cover - the schedules guarantee it
            raise AssertionError(f"{pauli} not inferable; schedule is wrong")
        return expr

    if prep_letter is None:
        tab = TaggedTableau(num_qubits)
        first = 0
    else:
        tab = TaggedTableau.from_product_state([_PREP_LABEL[prep_letter]] * num_qubits)
        measure([(prep_letter, (q,)) for q in range(num_qubits)])
        first = 1
    round_ends = []
    zz_readouts = []
    for i, step in enumerate(steps):
        measure(step)
        rnd, pos = divmod(i, round_length)
        if joint_zz is not None and pos == 0 and rnd > 0:
            zz_readouts.append((rnd + 1, inferred(joint_zz)))
        if pos == round_length - 1:
            round_ends.append(first + i)
    if post_select is not None:
        builder.detector(inferred(post_select))
    return DerivedCircuit(builder.build(), tuple(round_ends), tuple(zz_readouts))


def idle_ladder_circuit(rounds: int, *, prep_letter: "str | None" = None) -> DerivedCircuit:
    """Idle error detection on one 2x2 patch.

    With ``prep_letter`` (``"X"``/``"Y"``/``"Z"``) the circuit starts from a
    post-selected single-qubit preparation step; without it, detectors assume
    nothing about the input state and only compare checks between rounds.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    layout = LadderLayout.single_patch()
    schedule = idle_schedule(layout)
    return _derive(
        layout.num_qubits, schedule * rounds, len(schedule), prep_letter=prep_letter
    )


def logical_zz_circuit(rounds: int, *, prep_letter: "str | None" = None) -> DerivedCircuit:
    """Joint-ZZ (lattice surgery) cycle on the 4 x 2 two-patch array.

    The returned ``zz_readouts`` hold, for every round from 2 on, the
    :class:`~tetronsim.simulator.Parity` whose value is the inferred
    joint-ZZ outcome: the two seam YY records of the previous round times
    the two middle rung records of the current round's first step.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    layout = LadderLayout.two_patches()
    schedule = surgery_schedule(layout)
    return _derive(
        layout.num_qubits,
        schedule * rounds,
        len(schedule),
        prep_letter=prep_letter,
        joint_zz=_joint_zz_operator(layout),
    )


def _joint_zz_operator(layout: LadderLayout) -> PauliString:
    rows = sorted(layout.patch_rows)
    seam = rows[0] + 1
    qubits = (2 * seam, 2 * seam + 1, 2 * seam + 2, 2 * seam + 3)
    return PauliString.from_text(
        embed_letters(layout.num_qubits, "ZZZZ", qubits)
    )


# ---------------------------------------------------------------------------
# Repetition-code observables and preparation
# ---------------------------------------------------------------------------


def repcode_observables(level: str) -> dict:
    """The repetition-code logicals at each level, as PauliStrings.

    Physical: XX and ZI on the qubit pair.  Logical: XX lifts to XXXX down a
    column (weight 4), ZI lifts to ZZ across a row (weight 2).
    """
    if level == "physical":
        return {"XX": PauliString("XX"), "ZI": PauliString("ZI")}
    if level == "logical":
        layout = LadderLayout.two_patches()
        col = tuple(layout.qubit(r, 0) for r in range(4))
        return {
            "XX": PauliString.from_text(embed_letters(8, "XXXX", col)),
            "ZI": PauliString.from_text(embed_letters(8, "ZZ", (0, 1))),
        }
    raise ValueError(f"level must be 'physical' or 'logical', got {level!r}")


_PREP_FOR_BASIS = {"XX": "X", "ZZ": "Z"}
# XX decays from the XX eigenstate, ZI from the ZZ one.
_PREP_FOR_OBSERVABLE = {"XX": "X", "ZI": "Z"}


def prepare_repcode_state(
    basis: str, level: str, noise: NoiseParams = NoiseParams()
) -> TrajectoryEnsemble:
    """Post-selected repetition-code eigenstate preparation.

    ``basis="ZZ"`` prepares |00> (both qubits measured in Z, +1 kept), the
    state whose ZI expectation reveals X-type logical errors.  ``basis="XX"``
    prepares (|00>+|11>)/sqrt(2): both qubits measured in X, +1 kept, then
    one ZZ round post-selected into the +1 sector.  At the logical level the
    same recipe acts on all eight qubits with one joint-ZZ cycle, followed by
    the next X step from which the joint ZZ is inferred.  The pins are
    derived like every other circuit's.
    """
    if basis not in _PREP_FOR_BASIS:
        raise ValueError(f"basis must be 'XX' or 'ZZ', got {basis!r}")
    prep_letter = _PREP_FOR_BASIS[basis]
    if level == "physical":
        num_qubits, zz_steps, zz = 2, [[("ZZ", (0, 1))]], PauliString("ZZ")
    elif level == "logical":
        layout = LadderLayout.two_patches()
        surgery = surgery_schedule(layout)
        num_qubits, zz_steps, zz = 8, surgery + surgery[:1], _joint_zz_operator(layout)
    else:
        raise ValueError(f"level must be 'physical' or 'logical', got {level!r}")

    if basis == "XX":
        derived = _derive(
            num_qubits, zz_steps, len(zz_steps), prep_letter=prep_letter, post_select=zz
        )
    else:
        derived = _derive(num_qubits, [], 1, prep_letter=prep_letter)
    initial = TrajectoryEnsemble.from_product_state([_PREP_LABEL[prep_letter]] * num_qubits)
    result = run_circuit(derived.circuit, noise, initial)
    if result.acceptance <= 0.0:
        raise ValueError("preparation post-selection left no acceptance")
    return result.ensemble


# ---------------------------------------------------------------------------
# Decay experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayExperimentSpec:
    """One decay measurement: which level, which repetition-code logical,
    which round counts, and under what noise.  ``shots=None`` runs the exact
    branch simulation; an integer switches to Monte-Carlo sampling."""

    level: str
    observable: str
    rounds_grid: tuple = (2, 4, 6, 8, 10)
    noise: NoiseParams = NoiseParams()
    shots: "int | None" = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rounds_grid", tuple(sorted(self.rounds_grid)))
        if self.level not in ("physical", "logical"):
            raise ValueError(f"level must be 'physical' or 'logical', got {self.level!r}")
        if self.observable not in ("XX", "ZI"):
            raise ValueError(f"observable must be 'XX' or 'ZI', got {self.observable!r}")
        if len(set(self.rounds_grid)) < 3:
            raise ValueError("rounds_grid needs at least three distinct values")
        if any(r < 1 for r in self.rounds_grid):
            raise ValueError("round counts must be >= 1")
        if self.shots is not None:
            _require_count("shots", self.shots)
        _require_count("seed", self.seed, least=0)


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit |<O>|(N) ~ exp(intercept - rate*N) over rounds."""

    rate: float
    intercept: float
    residual: float
    rounds: tuple
    expectations: tuple
    acceptance: tuple
    flags: tuple = ()


_RATE_TOLERANCE = 1e-9  # fitted rates below minus this are flagged negative


def fit_decay(rounds, values) -> "tuple":
    """Log-linear least squares of |values| against rounds.

    Returns (rate, intercept, residual, flags).  Non-positive magnitudes are
    excluded and flagged; a significantly negative fitted rate is flagged.
    With fewer than two distinct rounds left the fit is NaN, flagged
    underdetermined.
    """
    rounds = np.asarray(rounds, dtype=float)
    values = np.asarray(values, dtype=float)
    if rounds.shape != values.shape:
        raise ValueError(f"rounds and values differ in length: {rounds.size} and {values.size}")
    flags: list[str] = []
    mags = np.abs(values)
    good = np.isfinite(mags) & (mags > 0.0)
    if not good.all():
        flags.append("non-positive or undefined expectations excluded from fit")
    x = rounds[good]
    if x.size == 0 or (x == x[0]).all():  # fewer than two distinct rounds
        flags.append("fit underdetermined")
        return math.nan, math.nan, math.nan, tuple(flags)
    y = np.log(mags[good])
    slope, intercept = np.polyfit(x, y, 1)
    rate = -float(slope)
    residual = float(np.sqrt(np.mean((np.polyval([slope, intercept], x) - y) ** 2)))
    if rate < -_RATE_TOLERANCE:
        flags.append("negative decay rate")
    return rate, float(intercept), residual, tuple(flags)


def _decay_circuit(spec: DecayExperimentSpec) -> DerivedCircuit:
    """The decay circuit of ``spec``, derived once per level, observable and
    largest round count: it does not depend on the noise."""
    return _derive_decay_circuit(spec.level, spec.observable, max(spec.rounds_grid))


@functools.lru_cache(maxsize=64)
def _derive_decay_circuit(level: str, observable: str, rounds: int) -> DerivedCircuit:
    prep_letter = _PREP_FOR_OBSERVABLE[observable]
    if level == "physical":
        return _derive(2, [[("ZZ", (0, 1))]] * rounds, 1, prep_letter=prep_letter)
    return logical_zz_circuit(rounds, prep_letter=prep_letter)


def _initial_state(spec: DecayExperimentSpec) -> TrajectoryEnsemble:
    n = 2 if spec.level == "physical" else 8
    label = _PREP_LABEL[_PREP_FOR_OBSERVABLE[spec.observable]]
    return TrajectoryEnsemble.from_product_state([label] * n)


def decay_experiment(spec: DecayExperimentSpec) -> DecayFit:
    """Run the post-selected decay protocol and fit the observable's rate.

    The circuit is built once at the largest round count; the expectation at
    each requested round is probed mid-run, which matches running separate
    truncated circuits because detectors never reach backwards across a probe
    point.  A sampled run reports, as each round's acceptance, the share of
    that round's ``shots`` that no detector rejected.
    """
    derived = _decay_circuit(spec)
    observable = repcode_observables(spec.level)[spec.observable]
    probe_steps = {derived.round_end_steps[r - 1]: [observable] for r in spec.rounds_grid}
    initial = _initial_state(spec)

    flags: list[str] = []
    if spec.shots is None:
        probes, acc = probe_circuit(derived.circuit, spec.noise, initial, probe_steps)
    else:
        sampled = sample_circuit(
            derived.circuit,
            spec.noise,
            initial,
            spec.shots,
            spec.seed,
            probes=probe_steps,
        )
        probes = sampled.probes
        acc = {s: count / spec.shots for s, count in sampled.probe_accepted.items()}
        flags.append(f"sampled with {spec.shots} shots")

    name = str(observable)
    series = []
    acceptance = []
    for r in spec.rounds_grid:
        step = derived.round_end_steps[r - 1]
        series.append(probes.get(step, {}).get(name, math.nan))
        acceptance.append(acc.get(step, math.nan))
    rate, intercept, residual, fit_flags = fit_decay(spec.rounds_grid, series)
    return DecayFit(
        rate=rate,
        intercept=intercept,
        residual=residual,
        rounds=tuple(spec.rounds_grid),
        expectations=tuple(series),
        acceptance=tuple(acceptance),
        flags=tuple(flags) + fit_flags,
    )


# ---------------------------------------------------------------------------
# Improvement metrics and parameter scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaMetrics:
    """Physical-over-logical decay-rate ratios; > 1 means the encoded qubit
    outlives the bare pair."""

    lambda_avg: float
    lambda_x: float
    lambda_z: float
    flags: tuple = ()


def lambda_metrics(
    phys_xx: DecayFit, phys_zi: DecayFit, log_xx: DecayFit, log_zi: DecayFit
) -> LambdaMetrics:
    flags: list[str] = []

    def ratio(num: float, den: float, label: str) -> float:
        if math.isnan(num) or math.isnan(den):
            flags.append(f"undefined improvement: no fitted rate for {label}")
            return math.nan
        if den == 0.0:
            flags.append(f"infinite improvement: zero logical rate for {label}")
            return math.inf if num > 0 else math.nan
        return num / den

    lam_x = ratio(phys_xx.rate, log_xx.rate, "XX")
    lam_z = ratio(phys_zi.rate, log_zi.rate, "ZI")
    lam = ratio(phys_xx.rate + phys_zi.rate, log_xx.rate + log_zi.rate, "average")
    return LambdaMetrics(lam, lam_x, lam_z, tuple(flags))


def improvement_point(
    noise: NoiseParams,
    rounds_grid=(2, 4, 6, 8, 10),
) -> "tuple[LambdaMetrics, dict]":
    """All four decay fits and the improvement ratios at one noise point."""
    fits = {}
    for level in ("physical", "logical"):
        for obs in ("XX", "ZI"):
            fits[(level, obs)] = decay_experiment(
                DecayExperimentSpec(level, obs, rounds_grid, noise)
            )
    metrics = lambda_metrics(
        fits[("physical", "XX")],
        fits[("physical", "ZI")],
        fits[("logical", "XX")],
        fits[("logical", "ZI")],
    )
    return metrics, fits


@dataclass
class ImprovementScan:
    """Improvement ratios over a (p1, p2) grid at fixed assignment error."""

    p1_grid: np.ndarray
    p2_grid: np.ndarray
    p_a: float
    theta: float
    lambda_avg: np.ndarray
    lambda_x: np.ndarray
    lambda_z: np.ndarray
    accept_phys: np.ndarray
    accept_log: np.ndarray

    def contour(self, which: str = "avg", level: float = 1.0) -> list:
        """The `ratio = level` boundary as an ordered (p1, p2) polyline.

        The ratios decrease with p2 at fixed p1, so the boundary is single
        valued in p1: each column is scanned for the highest sign change,
        interpolated log-linearly in p2 (linearly on an interval that starts
        at p2 = 0), or the highest grid point exactly at the level.  Columns
        that never cross are skipped.
        """
        grid = {"avg": self.lambda_avg, "x": self.lambda_x, "z": self.lambda_z}[which]
        points = []
        for i, p1 in enumerate(self.p1_grid):
            col = grid[i]
            crossing = None
            for j in range(len(self.p2_grid) - 1):
                a, b = col[j] - level, col[j + 1] - level
                if not (np.isfinite(a) and np.isfinite(b)):
                    continue
                if b == 0.0:
                    crossing = self.p2_grid[j + 1]
                elif a == 0.0:
                    crossing = self.p2_grid[j]
                elif a * b < 0:
                    t = a / (a - b)
                    if self.p2_grid[j] == 0.0:
                        crossing = t * self.p2_grid[j + 1]
                    else:
                        la, lb = math.log(self.p2_grid[j]), math.log(self.p2_grid[j + 1])
                        crossing = math.exp(la + t * (lb - la))
            if crossing is not None:
                points.append((float(p1), float(crossing)))
        return points

    def best_p1(self, which: str = "avg") -> "tuple | None":
        """The p1 with the largest admissible p2 on the improvement boundary
        (the sweet spot where two-qubit noise tolerance is maximal)."""
        boundary = self.contour(which)
        if not boundary:
            return None
        return max(boundary, key=lambda pt: pt[1])


# The flagship map's p1 and p2 axes: 25 log-spaced points in [1e-4, 1e-1].
IMPROVEMENT_GRID = np.logspace(-4, -1, 25)
IMPROVEMENT_GRID.flags.writeable = False


def improvement_scan(
    p1_grid=None,
    p2_grid=None,
    p_a: float = 0.01,
    *,
    theta: float = 0.0,
    rounds_grid=(2, 4, 6, 8, 10),
    progress=None,
) -> ImprovementScan:
    """Full decay-experiment comparison over a (p1, p2) grid.

    Defaults reproduce the flagship map: 25 x 25 log-spaced points with
    p1, p2 in [1e-4, 1e-1] at p_a = 0.01 and no coherent rotation.
    """
    def point(p1: float, p2: float) -> tuple:
        noise = NoiseParams(p_a=p_a, p1=p1, p2=p2, theta=theta)
        metrics, fits = improvement_point(noise, rounds_grid)
        accept = (fits[(level, "XX")].acceptance[-1] for level in ("physical", "logical"))
        return (metrics.lambda_avg, metrics.lambda_x, metrics.lambda_z, *accept)

    p1_grid, p2_grid, values = walk_grid(point, p1_grid, p2_grid, IMPROVEMENT_GRID, progress)
    return ImprovementScan(p1_grid, p2_grid, p_a, theta, *np.moveaxis(values, -1, 0))


def scan_to_csv(scan: ImprovementScan) -> str:
    """The scan as CSV, every number to 12 significant digits.

    At theta != 0 lambda_z is stable only to about 8 significant digits: the
    logical ZI rate is tiny, so reordering exact floating-point work moves
    the last digits.  Compare such CSVs with a relative tolerance.
    """
    grids = (scan.lambda_avg, scan.lambda_x, scan.lambda_z, scan.accept_phys, scan.accept_log)
    header = "p1,p2,pa,lambda,lambda_x,lambda_z,accept_phys,accept_log"
    return grid_csv(header, scan.p1_grid, scan.p2_grid, (scan.p_a,), grids)


def contour_to_csv(points) -> str:
    lines = ["p1,p2"]
    for p1, p2 in points:
        lines.append(f"{p1:.12g},{p2:.12g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def inject_pauli(circuit: Circuit, after_step: int, pauli: "PauliString | str") -> Circuit:
    """Insert a Pauli error right after step ``after_step``.

    The error is realized as pi/2 rotations about each non-identity letter
    (conjugation by the Pauli).  Intended for noiseless fault analysis: the
    inserted step ticks the step clock, so under nonzero noise it would add
    one idle period everywhere.
    """
    if isinstance(pauli, str):
        pauli = PauliString.from_text(pauli)
    if pauli.num_qubits != circuit.num_qubits:
        raise ValueError("error operator width does not match the circuit")
    if not (0 <= after_step < len(circuit.steps)):
        raise ValueError(f"step index {after_step} out of range")
    ops = tuple(
        Rotate(q, letter, math.pi / 2)
        for q, letter in enumerate(pauli.letters)
        if letter != "I"
    )
    if not ops:
        raise ValueError("injecting the identity is a no-op")
    steps = (
        circuit.steps[: after_step + 1] + (Step(ops),) + circuit.steps[after_step + 1 :]
    )
    return Circuit(circuit.num_qubits, steps, circuit.detectors)

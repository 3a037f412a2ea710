"""The benchmark's four workloads.

Each workload makes one pass's inputs from a seeded generator, runs the pass
through tetronsim's public entry points (the timed part), and checks the
outputs afterwards (untimed).  A *point* is one noise point of the figure the
workload recomputes, with everything the figure needs there:

``qed_map``
    one (p1, p2) point of the logical-improvement map: four decay
    experiments and their ratios.
``braid_map``
    one (p1, p_a) point of the braiding-fidelity maps: the fidelity of all
    six Clifford classes.
``theta_point``
    one improvement point at theta = 0.01: four decay experiments whose
    logical support grows from 256 to 10 256 terms.
``sampled``
    one noise point of the sampled statistics: MBQB metrics from 10**6
    windows and a logical-XX decay from a few hundred shots.

The library receives only the generated noise points; the seed never
reaches it.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass

import numpy as np

from tetronsim import benchmarking, braiding, qed
from tetronsim.channels import NoiseParams

import checks

P_A = 0.01
THETA = 0.01
BRAID_P2 = 0.1
MBQB_SHOTS = 10**6
DECAY_SHOTS = 300
DECAY_TOL = 1e-6  # sampled vs exact decay expectations at theta = 0
WILSON_FACTOR = 3.0  # sampled vs exact MBQB metrics, in Wilson half-widths


def pass_rng(seed: int, index: int) -> np.random.Generator:
    """Generator of pass ``index``; every pass of a run gets fresh inputs."""
    return np.random.default_rng([seed, index])


def _log_uniform(rng, lo: float, hi: float, size: int) -> np.ndarray:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size)


@contextlib.contextmanager
def _capturing(module, name: str):
    """Collect the results of ``module.name`` while a scan calls it."""
    original = getattr(module, name)
    results: list = []

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    setattr(module, name, capture)
    try:
        yield results
    finally:
        setattr(module, name, original)


def _progress_stamps():
    stamps = [time.perf_counter()]
    return stamps, lambda done, total: stamps.append(time.perf_counter())


# ---------------------------------------------------------------------------
# qed_map: the flagship logical-improvement map
# ---------------------------------------------------------------------------


def qed_map_inputs(rng, k: int = 7) -> dict:
    return {
        "p1": np.sort(_log_uniform(rng, 1e-4, 1e-1, k)),
        "p2": np.sort(_log_uniform(rng, 1e-4, 1e-1, k)),
    }


def qed_map_run(inputs: dict):
    stamps, progress = _progress_stamps()
    with _capturing(qed, "improvement_point") as points:
        scan = qed.improvement_scan(inputs["p1"], inputs["p2"], P_A, progress=progress)
    return (scan, points), list(np.diff(stamps))


def qed_map_check(inputs: dict, outputs) -> list:
    scan, points = outputs
    n2 = len(inputs["p2"])
    failures = []
    for flat, (metrics, fits) in enumerate(points):
        i, j = divmod(flat, n2)
        label = f"qed_map p1={inputs['p1'][i]:.3g} p2={inputs['p2'][j]:.3g}"
        problems = checks.improvement_problems(label, metrics, fits)
        for name in ("accept_phys", "accept_log"):
            value = getattr(scan, name)[i, j]
            if not 0.0 < value <= 1.0:
                problems.append(f"{label}: {name} = {value!r}")
        if scan.lambda_avg[i, j] != metrics.lambda_avg:
            problems.append(f"{label}: scan lambda differs from its point")
        if problems:
            failures.append("; ".join(problems))
    return failures


# ---------------------------------------------------------------------------
# braid_map: the six braiding-fidelity maps
# ---------------------------------------------------------------------------


def braid_map_inputs(rng, k: int = 8) -> dict:
    return {
        "p1": np.sort(rng.uniform(0.0, 0.2, k)),
        "pa": np.sort(rng.uniform(0.0, 0.2, k)),
    }


def braid_map_run(inputs: dict):
    scans = {}
    latencies = None
    for name in braiding.CLIFFORD_CLASSES:
        stamps, progress = _progress_stamps()
        scans[name] = braiding.fidelity_scan(
            name, inputs["p1"], inputs["pa"], BRAID_P2, progress=progress
        )
        per_point = np.diff(stamps)
        latencies = per_point if latencies is None else latencies + per_point
    return scans, list(latencies)


def braid_map_check(inputs: dict, scans) -> list:
    failures = []
    k1, k2 = len(inputs["p1"]), len(inputs["pa"])
    for i in range(k1):
        for j in range(k2):
            bad = {
                name: float(scan.fidelity[i, j])
                for name, scan in scans.items()
                if not checks.in_unit_interval(scan.fidelity[i, j])
            }
            if bad:
                failures.append(
                    f"braid_map p1={inputs['p1'][i]:.3g} pa={inputs['pa'][j]:.3g}: "
                    f"fidelity out of [0, 1]: {bad}"
                )
    return failures


# ---------------------------------------------------------------------------
# theta_point: one improvement point under coherent rotation
# ---------------------------------------------------------------------------


def theta_point_inputs(rng, rounds_grid=(2, 4, 6, 8, 10)) -> dict:
    p1, p2 = _log_uniform(rng, 1e-4, 1e-2, 2)
    noise = NoiseParams(p_a=P_A, p1=float(p1), p2=float(p2), theta=THETA)
    return {"noise": noise, "rounds_grid": tuple(rounds_grid)}


def theta_point_run(inputs: dict):
    start = time.perf_counter()
    result = qed.improvement_point(inputs["noise"], inputs["rounds_grid"])
    return result, [time.perf_counter() - start]


def theta_point_check(inputs: dict, result) -> list:
    noise = inputs["noise"]
    label = f"theta_point p1={noise.p1:.3g} p2={noise.p2:.3g}"
    problems = checks.improvement_problems(label, *result)
    return ["; ".join(problems)] if problems else []


# ---------------------------------------------------------------------------
# sampled: MBQB statistics and a sampled logical decay
# ---------------------------------------------------------------------------


def sampled_inputs(
    rng, n: int = 8, mbqb_shots: int = MBQB_SHOTS, decay_shots: int = DECAY_SHOTS
) -> dict:
    # Ranges keep the logical-XX acceptance after ten rounds above 0.3, so
    # every round of a few hundred shots has accepted shots to average.
    points = []
    for _ in range(n):
        p_a = float(_log_uniform(rng, 1e-3, 5e-3, 1)[0])
        p1, p2 = (float(v) for v in _log_uniform(rng, 1e-4, 1e-3, 2))
        mbqb_seed, decay_seed = (int(v) for v in rng.integers(0, 2**31, 2))
        points.append((NoiseParams(p_a=p_a, p1=p1, p2=p2), mbqb_seed, decay_seed))
    return {"points": points, "mbqb_shots": mbqb_shots, "decay_shots": decay_shots}


def _decay_spec(noise: NoiseParams, shots=None, seed: int = 0):
    return qed.DecayExperimentSpec("logical", "XX", noise=noise, shots=shots, seed=seed)


def sampled_run(inputs: dict):
    outputs, latencies = [], []
    for noise, mbqb_seed, decay_seed in inputs["points"]:
        start = time.perf_counter()
        mbqb = benchmarking.benchmark_metrics(
            noise, mode="sampled", shots=inputs["mbqb_shots"], seed=mbqb_seed
        )
        decay = qed.decay_experiment(_decay_spec(noise, inputs["decay_shots"], decay_seed))
        latencies.append(time.perf_counter() - start)
        outputs.append((mbqb, decay))
    return outputs, latencies


def sampled_check(inputs: dict, outputs) -> list:
    """Each sampled result against exact mode at the same noise."""
    failures = []
    for (noise, _, _), (mbqb, decay) in zip(inputs["points"], outputs):
        label = f"sampled p_a={noise.p_a:.3g} p1={noise.p1:.3g} p2={noise.p2:.3g}"
        exact = benchmarking.benchmark_metrics(noise)
        problems = []
        for key in ("err_a", "err_b"):
            got, want = getattr(mbqb, key), getattr(exact, key)
            half = getattr(mbqb, f"{key}_interval")
            if not abs(got - want) <= WILSON_FACTOR * half:
                problems.append(f"{label}: {key} {got!r} vs exact {want!r} (half-width {half!r})")
        problems.extend(checks.fit_problems(f"{label} decay", decay, sampled=True))
        reference = qed.decay_experiment(_decay_spec(noise))
        gap = max(abs(a - b) for a, b in zip(decay.expectations, reference.expectations))
        if not gap <= DECAY_TOL:
            problems.append(f"{label}: decay expectations differ from exact by {gap!r}")
        if problems:
            failures.append("; ".join(problems))
    return failures


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: object  # (rng, **size) -> inputs
    run: object  # inputs -> (outputs, per-point latencies in seconds)
    check: object  # (inputs, outputs) -> failure messages, one per bad point
    count: object  # inputs -> number of points in the pass


WORKLOADS = {
    "qed_map": Workload(
        qed_map_inputs, qed_map_run, qed_map_check, lambda x: len(x["p1"]) * len(x["p2"])
    ),
    "braid_map": Workload(
        braid_map_inputs, braid_map_run, braid_map_check, lambda x: len(x["p1"]) * len(x["pa"])
    ),
    "theta_point": Workload(
        theta_point_inputs, theta_point_run, theta_point_check, lambda x: 1
    ),
    "sampled": Workload(sampled_inputs, sampled_run, sampled_check, lambda x: len(x["points"])),
}

"""Correctness gate of the benchmark: the pinned regression values it
verifies while warming up, and the invariants every point must satisfy.

The pins are the values ``tetronsim check`` holds for ``qed-lambda-pin``,
``braid-fidelity-pin``, ``braid-identity-noiseless`` and
``mbqb-device-pa-0.05``.  They are kept here, not imported from the CLI, so
that the benchmark checks the library on its own and a wrong pin can be
shown to fail it.
"""

from __future__ import annotations

import math

from tetronsim import benchmarking, braiding, qed
from tetronsim.channels import NoiseParams

PIN_RTOL = 1e-9  # relative; targets of exactly 0 are compared absolutely


def _qed_pin():
    metrics, _ = qed.improvement_point(NoiseParams(p_a=0.01, p1=0.005, p2=0.0005))
    return {
        "lambda_avg": metrics.lambda_avg,
        "lambda_x": metrics.lambda_x,
        "lambda_z": metrics.lambda_z,
    }


def _braid_pin():
    noise = NoiseParams(p_a=0.02, p1=0.05, p2=0.1)
    return {"fidelity[S]": braiding.average_class_fidelity("S", noise)}


def _braid_noiseless():
    return {
        f"fidelity[{name}]": braiding.average_class_fidelity(name)
        for name in braiding.CLIFFORD_CLASSES
    }


def _mbqb_device():
    m = benchmarking.benchmark_metrics(NoiseParams(p_a=0.05))
    return {"err_a": m.err_a, "err_b": m.err_b}


# name -> (computation, expected values)
PINS = {
    "qed-lambda-pin": (
        _qed_pin,
        {
            "lambda_avg": 3.305454741264978,
            "lambda_x": 3.0966384948588646,
            "lambda_z": 822.886764894882,
        },
    ),
    "braid-fidelity-pin": (_braid_pin, {"fidelity[S]": 0.7889412158951682}),
    "braid-identity-noiseless": (
        _braid_noiseless,
        {f"fidelity[{name}]": 1.0 for name in braiding.CLIFFORD_CLASSES},
    ),
    "mbqb-device-pa-0.05": (_mbqb_device, {"err_a": 0.095, "err_b": 0.0}),
}


def verify_pins(pins=None) -> list:
    """Run every pin; return one message per value that misses it."""
    failures = []
    for name, (compute, expected) in (PINS if pins is None else pins).items():
        got = compute()
        for key, want in expected.items():
            value = got[key]
            close = (
                math.isclose(value, want, rel_tol=PIN_RTOL, abs_tol=0.0)
                if want != 0.0
                else abs(value) <= PIN_RTOL
            )
            if not close:
                failures.append(f"{name}: {key} = {value!r}, pinned {want!r}")
    return failures


# ---------------------------------------------------------------------------
# Per-point invariants
# ---------------------------------------------------------------------------

BAD_FLAGS = ("negative decay rate", "fit underdetermined")


def fit_problems(label: str, fit, *, sampled: bool = False) -> list:
    """A decay fit must have a finite rate, finite expectations, acceptance
    in (0, 1] (a sampled fit reports none) and none of the fatal flags."""
    out = []
    if not math.isfinite(fit.rate):
        out.append(f"{label}: decay rate {fit.rate!r}")
    if not all(math.isfinite(v) for v in fit.expectations):
        out.append(f"{label}: expectations {fit.expectations!r}")
    bad_accept = [] if sampled else [a for a in fit.acceptance if not 0.0 < a <= 1.0]
    if bad_accept:
        out.append(f"{label}: acceptance {bad_accept!r}")
    out.extend(f"{label}: flag {f!r}" for f in fit.flags if f in BAD_FLAGS)
    return out


def improvement_problems(label: str, metrics, fits) -> list:
    """Finite improvement ratios and four sound decay fits."""
    out = []
    for key in ("lambda_avg", "lambda_x", "lambda_z"):
        value = getattr(metrics, key)
        if not math.isfinite(value):
            out.append(f"{label}: {key} = {value!r}")
    for (level, obs), fit in fits.items():
        out.extend(fit_problems(f"{label} {level} {obs}", fit))
    return out


def in_unit_interval(value: float) -> bool:
    """[0, 1] up to floating-point rounding of an exactly-1 fidelity."""
    return math.isfinite(value) and -1e-12 <= value <= 1.0 + 1e-12

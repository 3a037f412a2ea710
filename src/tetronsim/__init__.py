"""tetronsim: exact simulator and experiment toolkit for measurement-based
tetron qubits under parity-measurement noise.

The package is organized by what each layer does:

``pauli``
    Pauli strings, dense conversion helpers, and the Pauli-vector encoding.
``tableau``
    Tagged stabilizer tableau used to derive outcome checks (detectors).
``channels``
    The noise model: parameter container, measurement/idle channel
    constructions, and derivation of parameters from physical inputs.
``simulator``
    Exact trajectory-ensemble engine: circuits, noisy instruments,
    detectors, lowered run plans, probes and sampling.
``benchmarking``
    Measurement-based qubit benchmarking, rebit gate-set reconstruction,
    and idle-lifetime experiments.
``braiding``
    Measurement-based single-qubit Clifford sequences: identities,
    fidelity maps, and gate-set experiments.
``qed``
    Ladder-code quantum error detection: repetition-code decay
    experiments at the physical and encoded levels and the
    logical-improvement maps.
``cli``
    Batch experiment runner (console script ``tetronsim``).
"""

from .channels import (
    NoiseParams,
    depolarize1_superop,
    depolarize2_superop,
    derive_noise,
    idle_superop,
    meas1_record_superop,
    meas2_record_superop,
    rotation_superop,
    t_state_fidelity,
    timed_coupling_rotation,
)
from .pauli import PauliString, Superoperator
from .simulator import (
    Circuit,
    CircuitBuilder,
    Parity,
    RunResult,
    TrajectoryEnsemble,
    run_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "NoiseParams",
    "Parity",
    "PauliString",
    "RunResult",
    "Superoperator",
    "TrajectoryEnsemble",
    "depolarize1_superop",
    "depolarize2_superop",
    "derive_noise",
    "idle_superop",
    "meas1_record_superop",
    "meas2_record_superop",
    "rotation_superop",
    "run_circuit",
    "t_state_fidelity",
    "timed_coupling_rotation",
    "__version__",
]

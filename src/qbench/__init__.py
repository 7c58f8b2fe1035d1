"""qbench: a benchmark harness for simulated quantum processors.

Built-in noisy statevector and stabilizer simulators play the device under
test, so every protocol result is checkable against an exact oracle at desk
scale. Reports embed raw per-item records and seed ledgers, and can be
arithmetically re-verified after the fact.
"""

__version__ = "0.7.0"

from .circuits import (  # noqa: F401
    Circuit, CircuitStats, Gate, GateKind, PauliString, circuit_stats,
    inverse_circuit, measure_all,
)
from .device import DeviceModel, Violation, validate_against_device  # noqa: F401
from .distributions import ProbDist, SampleSet  # noqa: F401
from .noise import DriftSchedule, NoiseModel, drift_rate_at  # noqa: F401
from .qasm import emit_qasm, parse_qasm  # noqa: F401
from .rng import SeedStream  # noqa: F401
from .statevector import StateVector, ideal_distribution, sample_counts  # noqa: F401
from .stabilizer import StabilizerTableau, stabilizer_sample  # noqa: F401
from .randgen import (  # noqa: F401
    MirrorSpec, VolumetricShape, haar_unitary, make_mirror_circuit, qv_model_circuit,
    random_clifford_circuit, sample_clifford_element, volumetric_family,
)
from .metrics import (  # noqa: F401
    CollisionStats, MetricDescriptor, METRIC_TABLE, ShotPlan, collision_volume, eplg,
    heavy_set, hellinger_distance, hog_probability, l1_distance, shots_for_precision,
    static_device_metrics, xeb_alpha,
)
from .transpile import (  # noqa: F401
    PassLog, TranspileConfig, decompose_to_native, route_swaps, run_pipeline,
)
from .protocols import (  # noqa: F401
    ClopsResult, CollisionTestResult, MirrorResult, QvResult, RbResult, ShadowEstimate,
    VolumetricTable, XebVerifyResult, qv_item, run_clops, run_collision_test,
    run_mirror_benchmark, run_quantum_volume, run_rb, run_volumetric, shadow_estimate,
    xeb_verify_device,
)
from .report import (  # noqa: F401
    Report, RunConfig, canonical_json, render_report, run_benchmark_suite,
    self_verify_report, strip_volatile,
)

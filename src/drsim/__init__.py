"""Deterministic testbed for threshold-gated state distribution.

Quantifies bandwidth reduction and spatial/temporal coherence of
dead-reckoned entity state under configurable latency, jitter and loss, and
compares polynomial extrapolation against a trained neuro-fuzzy corrector.
"""

from .anfis import (
    AnfisBundle,
    AnfisNetwork,
    TrainingSet,
    build_network,
)
from .dead_reckoning import DrConfig
from .errors import (
    DegenerateFiringError,
    RangeError,
    ValidationError,
)
from .harness import (
    ComparisonStudy,
    Scenario,
    TrainSpec,
    load_scenario,
    load_study,
    run_comparison,
    run_scenario,
    sweep,
    train_bundle,
)
from .kinematics import EntityState, Trajectory, wrap_angle
from .netsim import Channel, ChannelConfig
from .qos_metrics import (
    CoherenceReport,
    ErrorSeries,
    QosProfile,
    check_emax_bound,
    integrated_error,
    verdict,
    violation_windows,
)

__version__ = "0.1.0"

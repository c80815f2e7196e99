"""Coupled ecosystem-adaptation simulator.

A discrete-time harvested logistic ecosystem with red environmental noise,
coupled one-way to a lagged human-adaptation state and an environmentally
dependent utility.  The package finds equilibria and fold points of the
harvest map, classifies extraction rates into high / bistable / collapsed
regimes, simulates flickering trajectories reproducibly, and measures what
flickering does to time-averaged wellbeing, including when a one-time
transformation to a generalist strategy pays off.
"""

__version__ = "0.1.0"

from .analytics import (
    ComparisonRow,
    CrossoverReport,
    FlickerStats,
    GridError,
    SweepRow,
    flicker_stats,
    separatrix_for,
    transform_comparison,
    utility_sweep,
)
from .dynamics import (
    AdaptationParams,
    EcoParams,
    NoiseParams,
    SystemState,
    growth_increment,
    step_adaptation,
    step_coupled,
    step_environment,
    step_noise,
)
from .equilibria import (
    Equilibrium,
    EquilibriumError,
    FoldPoints,
    NoBistabilityError,
    Regime,
    RegimeError,
    ScanRow,
    bifurcation_scan,
    classify_regime,
    equilibria,
    fold_points,
    map_multiplier,
)
from .io import config_fingerprint
from .presets import PRESETS, ScanConfig, SweepConfig, TransformConfig, get_preset
from .simulate import (
    DEFAULT_BURN_IN,
    DEFAULT_SEED,
    DEFAULT_T_MAX,
    EnsembleSummary,
    NonFiniteStateError,
    SimConfig,
    Trajectory,
    default_initial_state,
    innovation_stream,
    resolve_config,
    run_ensemble,
    run_trajectory,
)
from .wellbeing import (
    GENERALIST,
    PROFILES,
    SPECIALIST,
    CaseProfile,
    WellbeingParams,
    payoff,
    penalty,
    utility,
)

__all__ = [name for name in dir() if not name.startswith("_")]

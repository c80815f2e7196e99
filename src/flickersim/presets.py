"""Named parameter bundles reproducing the standard analyses.

Each preset binds one analysis to the paper's parameters, stating only what
it changes from the dataclass defaults, so reruns reproduce out of the box:

    fig2          bifurcation scan across extraction rates
    fig4a-fig4d   single trajectories at c = 1, 1.95, 2.45, 3.1
    fig5          utility sweep over c for three adaptive capacities
    fig6          specialist-vs-generalist transformation comparison

The grid specs' field defaults are what the bifurcation, sweep and
transform commands run when no preset is given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import EcoParams, _linspace
from .simulate import SimConfig
from .wellbeing import GENERALIST, SPECIALIST, CaseProfile


# the c grid of fig5 and fig6, and of sweep and transform without a preset
_SWEEP_GRID = tuple(_linspace(0.25, 3.5, 40))


@dataclass(frozen=True)
class ScanConfig:
    """Extraction-rate grid for a bifurcation scan."""

    eco: EcoParams = EcoParams()
    c_min: float = 0.0
    c_max: float = 4.0
    n_steps: int = 400


@dataclass(frozen=True)
class SweepConfig:
    """Grid bundle for a utility sweep (c is taken from c_grid, not base.eco)."""

    base: SimConfig = SimConfig()
    c_grid: tuple[float, ...] = _SWEEP_GRID
    l_values: tuple[float, ...] = (0.001, 0.01, 0.1)
    n_seeds: int = 10


@dataclass(frozen=True)
class TransformConfig:
    """Grid bundle for the transformation comparison at one adaptive capacity."""

    base: SimConfig = SimConfig()
    baseline_case: CaseProfile = SPECIALIST
    transform_case: CaseProfile = GENERALIST
    c_grid: tuple[float, ...] = _SWEEP_GRID
    l: float = 0.001
    n_seeds: int = 10


PRESETS: dict[str, ScanConfig | SimConfig | SweepConfig | TransformConfig] = {
    "fig2": ScanConfig(c_min=1.0, c_max=3.5),
    "fig4a": SimConfig(eco=EcoParams(c=1.0)),
    "fig4b": SimConfig(eco=EcoParams(c=1.95)),
    "fig4c": SimConfig(eco=EcoParams(c=2.45)),
    "fig4d": SimConfig(eco=EcoParams(c=3.1)),
    "fig5": SweepConfig(),
    "fig6": TransformConfig(),
}


def get_preset(name: str):
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None

"""Acceptance gate: one test (or pair) per criterion, with frozen tolerances.

Each criterion reports a PASS/FAIL line in the terminal summary.  Criteria
annotated with a runtime budget in their docstring are sized to fit it on a
single core.
"""

import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from conftest import record_acceptance
from flickersim import (
    EcoParams,
    NoiseParams,
    Regime,
    WellbeingParams,
    equilibria,
    fold_points,
    get_preset,
    innovation_stream,
    payoff,
    separatrix_for,
    step_environment,
    step_noise,
    transform_comparison,
    utility,
    utility_sweep,
)
from flickersim import analytics
from flickersim.analytics import flicker_replicates
from flickersim.cli import main as cli_main
from oracles import brute_force_fixed_points, fine_grid_fold_points

DEFAULT_ECO = EcoParams(r=1.0, K=10.0, c=1.0, h=1.0)


@pytest.fixture(scope="module")
def default_folds():
    return fold_points(DEFAULT_ECO, 0.0, 4.0, tol=1e-5)


@pytest.fixture(scope="module")
def fig5_rows():
    cfg = get_preset("fig5")
    return utility_sweep(cfg.base, cfg.c_grid, cfg.l_values, cfg.n_seeds)


@pytest.fixture(scope="module")
def fig6_report():
    cfg = get_preset("fig6")
    return transform_comparison(cfg.base, cfg.baseline_case, cfg.transform_case,
                                cfg.c_grid, cfg.l, cfg.n_seeds)


def test_criterion_1_utility_identities():
    """U(x,x) = pi(x) and U(x, x +/- a) = pi(x)/2 within 1e-12, 1000 draws.

    Budget: < 1 s.
    """
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(0.0, 20.0)
        a = rng.uniform(1.0, 8.0)
        m = rng.uniform(0.5, 8.0)
        n = rng.uniform(0.0, 1.0)
        w = WellbeingParams(m=m, n=n, a=a)
        pi = payoff(x, w)
        assert abs(utility(x, x, w) - pi) <= 1e-12
        for y in (x + a, x - a):
            err = abs(utility(x, y, w) - pi / 2.0)
            worst = max(worst, err)
            assert err <= 1e-12
    record_acceptance("1 utility identities", True, f"max half-width error {worst:.2e}")


def test_criterion_2_equilibrium_oracle_equivalence():
    """Analytic roots match a brute-force fixed-point scan at step 1e-4.

    50 extraction rates drawn from the documented 0-4 range; every root
    matched within 1e-3 and fixed-point residual < 1e-9.  Budget: < 10 s.
    """
    rng = np.random.default_rng(202)
    worst = 0.0
    for c in rng.uniform(0.0, 4.0, size=50):
        p = replace(DEFAULT_ECO, c=float(c))
        analytic = [e.x_star for e in equilibria(p) if e.x_star > 0]
        brute = brute_force_fixed_points(p, step=1e-4)
        assert len(analytic) == len(brute), f"root count mismatch at c={c}"
        for a, b in zip(analytic, brute):
            worst = max(worst, abs(a - b))
            assert abs(a - b) < 1e-3
        for e in equilibria(p):
            assert abs(step_environment(e.x_star, 0.0, p) - e.x_star) < 1e-9
    record_acceptance("2 equilibrium oracle equivalence", True,
                      f"50 parameter sets, max root deviation {worst:.2e}")


def test_criterion_3_regime_placement(default_folds):
    """Fold points bracket the four reference extraction rates and agree
    within 1e-3 with fine-grid root counting.

    Budget: < 5 s.
    """
    fp = default_folds
    assert 1.0 < fp.c_low < 1.95
    assert 2.45 < fp.c_high < 3.1
    # independent oracle: root counting on a fine extraction grid
    oracle_low, oracle_high = fine_grid_fold_points(DEFAULT_ECO, 1.5, 2.9, dc=1e-4)
    assert fp.c_low == pytest.approx(oracle_low, abs=1e-3)
    assert fp.c_high == pytest.approx(oracle_high, abs=1e-3)
    record_acceptance("3 regime placement", True,
                      f"c_low={fp.c_low:.5f}, c_high={fp.c_high:.5f}")


def test_criterion_4_noise_stationarity():
    """Iterated red noise reaches the analytic stationary sd within 5%.

    T=30, beta=0.07 -> sd = beta / sqrt(1 - (1 - 1/T)^2) ~= 0.2734, sampled
    over 1e6 steps.  Budget: < 1 s.
    """
    noise = NoiseParams(T=30.0, beta=0.07)
    target = noise.stationary_sd()
    assert target == pytest.approx(0.27339671, abs=1e-8)
    etas = innovation_stream(2024, 0).normal(noise.mu, noise.beta, size=1_000_000)
    level, total, total_sq = 0.0, 0.0, 0.0
    for eta in etas:
        level = step_noise(level, noise, eta)
        total += level
        total_sq += level * level
    n = etas.size
    sd = (total_sq / n - (total / n) ** 2) ** 0.5
    assert sd == pytest.approx(target, rel=0.05)
    record_acceptance("4 noise stationarity", True,
                      f"sample sd {sd:.4f} vs analytic {target:.4f}")


def test_criterion_5_flickering_presence():
    """Flickering at c=1.95: over 20 seeds with t_max=25000 the median
    trajectory shows >= 2 debounced transitions, and the high-basin share
    at c=2.45 is lower (two-sided rank test, p < 0.05).

    Budget: < 30 s.
    """
    def fractions_and_transitions(c):
        cfg = replace(get_preset("fig4b"), eco=replace(get_preset("fig4b").eco, c=c),
                      t_max=25_000, burn_in=0)
        sep = separatrix_for(cfg.eco)
        # stats k are those of run_trajectory(cfg, replicate=k).xs, all 20 run as one block
        stats = flicker_replicates(cfg, 20, sep)
        return (np.array([s.fraction_high for s in stats]),
                np.array([s.n_transitions for s in stats]))

    frac_mid, trans_mid = fractions_and_transitions(1.95)
    frac_deep, trans_deep = fractions_and_transitions(2.45)
    med_transitions = float(np.median(trans_mid))
    assert med_transitions >= 2
    result = mannwhitneyu(frac_deep, frac_mid, alternative="two-sided")
    assert result.pvalue < 0.05
    assert np.median(frac_deep) < np.median(frac_mid)
    record_acceptance(
        "5 flickering presence", True,
        f"median transitions {med_transitions:.0f}; fraction_high "
        f"{np.median(frac_deep):.3f} < {np.median(frac_mid):.3f}, p={result.pvalue:.2e}")


def _row_lookup(rows, l):
    return {row.c: row for row in rows if row.l == l}


def _nearest(cells, target):
    return cells[min(range(len(cells)), key=lambda k: abs(cells[k] - target))]


def test_criterion_6_utility_trough(fig5_rows):
    """Low adaptive capacity suffers a utility trough in the bistable band:
    the regime-2 minimum sits more than 2 combined standard errors below the
    utility at c=1 and at c~3.4; at l=0.1 no trough dips below the collapsed
    plateau.

    Budget (shared with criterion 7): < 5 min.
    """
    cells = sorted({row.c for row in fig5_rows})
    c_ref_low = _nearest(cells, 1.0)
    c_ref_high = _nearest(cells, 3.4)

    def trough_margins(l):
        by_c = _row_lookup(fig5_rows, l)
        r2 = [row for row in by_c.values() if row.regime is Regime.BISTABLE]
        assert len(r2) >= 3, "expected several bistable grid cells"
        row_min = min(r2, key=lambda row: row.avg_utility)
        margins = {}
        for tag, c_ref in (("regime1", c_ref_low), ("regime3", c_ref_high)):
            ref = by_c[c_ref]
            gap = ref.avg_utility - row_min.avg_utility
            spread = 2.0 * float(np.hypot(ref.stderr_utility, row_min.stderr_utility))
            margins[tag] = (gap, spread)
        return row_min, margins

    row_min, margins = trough_margins(0.001)
    for tag, (gap, spread) in margins.items():
        assert gap > spread, f"l=0.001 trough not significant vs {tag}: {gap} <= {spread}"

    row_min01, margins01 = trough_margins(0.1)
    gap, spread = margins01["regime3"]
    assert gap <= spread, (
        f"l=0.1 should show no trough below the collapsed plateau, got gap {gap}")
    record_acceptance(
        "6 utility trough", True,
        f"l=0.001 min U {row_min.avg_utility:.3f} at c={row_min.c:.3f}; "
        f"l=0.1 min U {row_min01.avg_utility:.3f}")


def test_criterion_7_adaptive_capacity_monotonicity(fig5_rows):
    """With shared noise streams, average utility is nondecreasing in l at
    every bistable grid cell.

    Budget: shared with criterion 6.
    """
    l_values = (0.001, 0.01, 0.1)
    lookups = [_row_lookup(fig5_rows, l) for l in l_values]
    bistable_cells = [c for c, row in lookups[0].items() if row.regime is Regime.BISTABLE]
    assert bistable_cells
    for c in bistable_cells:
        us = [lookup[c].avg_utility for lookup in lookups]
        assert us[0] <= us[1] <= us[2], f"utility not monotone in l at c={c}: {us}"
    record_acceptance("7 adaptive-capacity monotonicity", True,
                      f"checked {len(bistable_cells)} bistable cells x 3 capacities")


def test_criterion_8_transformation_timing(fig6_report, default_folds):
    """Transformation timing under low adaptive capacity (l=0.001).

    The perfect-adaptation payoff crossover happens where the mean
    environment falls through the payoff-indifference state 1.875 (affine
    algebra), a level below every high-branch equilibrium, so perfect
    adaptation never favors transforming while the high state persists.
    The simulated-utility crossover lands strictly inside regime 1: agents
    should transform before flickering even starts, and in particular well
    before the perfect-adaptation analysis would suggest.

    Budget: < 5 min.
    """
    report = fig6_report
    folds = default_folds
    cfg = get_preset("fig6")
    w1 = cfg.baseline_case.params
    w2 = cfg.transform_case.params

    # payoff-indifference state from affine algebra, oracle = direct evaluation
    x_indiff = (w2.m - w1.m) / (w1.n - w2.n)
    assert x_indiff == pytest.approx(1.875, rel=1e-12)
    assert payoff(x_indiff, w1) == pytest.approx(payoff(x_indiff, w2), rel=1e-12)

    # the high branch never reaches that state before the fold: scanning the
    # bistable band, the lowest high-branch equilibrium stays above 1.875
    high_branch = []
    for c in np.linspace(folds.c_low + 1e-3, folds.c_high - 1e-3, 50):
        stable = [e.x_star for e in equilibria(replace(DEFAULT_ECO, c=float(c))) if e.stable]
        high_branch.append(max(stable))
    assert min(high_branch) > x_indiff

    # simulated payoff crossover sits exactly where the time-mean environment
    # crosses the indifference state
    assert report.c_cross_perfect is not None
    before = [row for row in report.rows if row.c < report.c_cross_perfect]
    after = [row for row in report.rows if row.c > report.c_cross_perfect]
    assert before[-1].mean_x > x_indiff > after[0].mean_x

    # transformation under limited adaptation pays off before flickering begins
    assert report.c_cross_adaptive is not None
    assert report.c_cross_adaptive < folds.c_low
    assert report.regime_adaptive is Regime.SINGLE_HIGH
    # and well before the perfect-adaptation analysis would suggest
    assert report.c_cross_adaptive < report.c_cross_perfect

    record_acceptance(
        "8 transformation timing", True,
        f"adaptive crossover c={report.c_cross_adaptive:.3f} < c_low={folds.c_low:.3f}; "
        f"payoff crossover c={report.c_cross_perfect:.3f}")


def test_criterion_8_literal_perfect_crossover_regime(fig6_report, default_folds):
    """Literal reading of the perfect-adaptation clause: the simulated payoff
    crossover should not occur before regime 3.

    Known red: flickering depresses the time-mean environment, so the
    simulated crossover lands a hair inside the bistable band (c ~ 2.58 vs
    the fold at c ~ 2.6043), at the cusp rather than past it.  The
    quasi-static version of the claim is covered (and passes) in
    test_criterion_8_transformation_timing; see notes in the repo README.
    """
    report = fig6_report
    ok = report.regime_perfect is Regime.SINGLE_LOW
    record_acceptance(
        "8-literal perfect crossover in regime 3", ok,
        f"simulated crossover c={report.c_cross_perfect:.4f} "
        f"(fold at {default_folds.c_high:.4f}) -> regime {report.regime_perfect}")
    assert ok, (
        f"simulated perfect-adaptation crossover at c={report.c_cross_perfect:.4f} "
        f"falls {default_folds.c_high - report.c_cross_perfect:.4f} below the fold "
        f"c_high={default_folds.c_high:.4f}: flickering drags the mean environment "
        "below the indifference state 1.875 slightly before the tipping point, so "
        "the literal regime-3 placement is unattainable with the documented "
        "noise parameters (T=30, beta=0.07)")


def test_criterion_9_determinism(tmp_path, monkeypatch):
    """Fixed seed implies byte-identical CSV output, across repeated runs and
    across the process groups a grid splits into.

    Budget: < 1 min.
    """
    # repeated full-preset trajectory runs
    for sub in ("a", "b"):
        code = cli_main(["simulate", "--preset", "fig4b",
                         "--out-dir", str(tmp_path / sub)])
        assert code == 0
    bytes_a = (tmp_path / "a/trajectory.csv").read_bytes()
    assert bytes_a == (tmp_path / "b/trajectory.csv").read_bytes()

    # sweep rows independent of the group count: 15 rows as one group, then
    # as 3 groups of 5 rows on three usable CPUs
    args = ["sweep", "--c-min", "0.5", "--c-max", "2.5", "--steps", "5",
            "--l", "0.01", "--l", "0.1", "--seeds", "3",
            "--t-max", "2000", "--burn-in", "200"]
    assert cli_main(args + ["--out-dir", str(tmp_path / "g1")]) == 0
    monkeypatch.setattr(analytics, "MIN_GROUP_ROWS", 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli_main(args + ["--out-dir", str(tmp_path / "g3")]) == 0
    sweep_g1 = (tmp_path / "g1/sweep.csv").read_bytes()
    assert sweep_g1 == (tmp_path / "g3/sweep.csv").read_bytes()
    record_acceptance(
        "9 determinism", True,
        f"trajectory csv {len(bytes_a)} bytes identical; sweep identical across group counts")

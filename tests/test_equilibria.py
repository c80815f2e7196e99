import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from flickersim import (
    EcoParams,
    NoBistabilityError,
    Regime,
    RegimeError,
    SimConfig,
    bifurcation_scan,
    classify_regime,
    default_initial_state,
    equilibria,
    fold_points,
    growth_increment,
    map_multiplier,
    run_trajectory,
    separatrix_for,
    step_environment,
)
from flickersim.equilibria import RESIDUAL_TOL, EquilibriumError, ScanRow
from oracles import brute_force_fixed_points

P = EcoParams(r=1.0, K=10.0, c=1.0, h=1.0)

# Frozen expected roots, confirmed against the brute-force fixed-point scan
# (see oracles.brute_force_fixed_points).
ROOTS = {
    1.0: [8.889084120],
    1.95: [0.726675339, 1.855055977, 7.418268685],
    2.45: [0.477195823, 3.451748614, 6.071055563],
    3.1: [0.349295533],
}


class TestEquilibria:
    def test_includes_trivial_equilibrium(self):
        eqs = equilibria(P)
        assert eqs[0].x_star == 0.0
        assert not eqs[0].stable
        assert eqs[0].multiplier == pytest.approx(1.0 + P.r)

    @pytest.mark.parametrize("c", sorted(ROOTS))
    def test_frozen_roots(self, c):
        eqs = equilibria(replace(P, c=c))
        positive = [e.x_star for e in eqs if e.x_star > 0]
        assert positive == pytest.approx(ROOTS[c], abs=1e-8)

    def test_single_high_root_stability(self):
        eqs = equilibria(P)
        assert [e.stable for e in eqs] == [False, True]
        assert eqs[1].multiplier == pytest.approx(0.219406435, abs=1e-8)

    def test_bistable_stability_pattern(self):
        eqs = equilibria(replace(P, c=1.95))
        assert [e.stable for e in eqs] == [False, True, False, True]
        assert abs(eqs[2].multiplier) > 1.0

    def test_pure_logistic(self):
        eqs = equilibria(replace(P, c=0.0))
        assert [e.x_star for e in eqs] == pytest.approx([0.0, 10.0])
        assert [e.stable for e in eqs] == [False, True]
        assert eqs[1].multiplier == pytest.approx(1.0 - P.r, abs=1e-12)

    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 1.95, 2.45, 3.1, 4.0])
    def test_fixed_point_residual(self, c):
        p = replace(P, c=c)
        for e in equilibria(p):
            assert abs(step_environment(e.x_star, 0.0, p) - e.x_star) < 1e-9

    @pytest.mark.parametrize("c", [0.3, 1.0, 1.95, 2.45, 3.1])
    def test_matches_brute_force_scan(self, c):
        p = replace(P, c=c)
        brute = brute_force_fixed_points(p)
        positive = [e.x_star for e in equilibria(p) if e.x_star > 0]
        assert len(positive) == len(brute)
        for a, b in zip(positive, brute):
            assert a == pytest.approx(b, abs=1e-3)

    @pytest.mark.parametrize("c", [1.0, 1.95, 2.45, 3.1])
    def test_multiplier_matches_finite_differences(self, c):
        p = replace(P, c=c)
        eps = 1e-6
        for e in equilibria(p):
            x = e.x_star
            lo = max(x - eps, 0.0)
            fd = (step_environment(x + eps, 0.0, p) - step_environment(lo, 0.0, p)) / (x + eps - lo)
            assert map_multiplier(x, p) == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("side, offset, n_roots", [
        ("c_low", -1e-9, 1), ("c_low", 1e-9, 3), ("c_high", -1e-9, 3), ("c_high", 1e-9, 1),
    ])
    def test_root_count_next_to_a_fold(self, side, offset, n_roots):
        p = replace(P, c=getattr(fold_points(P, 0.0, 4.0), side) + offset)
        positive = [e.x_star for e in equilibria(p) if e.x_star > 0]
        assert len(positive) == n_roots
        for x in positive:
            assert abs(growth_increment(x, p)) < RESIDUAL_TOL


class TestClassifyRegime:
    def test_figure_placements(self):
        assert classify_regime(replace(P, c=1.0)) is Regime.SINGLE_HIGH
        assert classify_regime(replace(P, c=1.95)) is Regime.BISTABLE
        assert classify_regime(replace(P, c=2.45)) is Regime.BISTABLE
        assert classify_regime(replace(P, c=3.1)) is Regime.SINGLE_LOW

    def test_extremes(self):
        assert classify_regime(replace(P, c=0.0)) is Regime.SINGLE_HIGH
        # beyond the turning-point range the cubic is monotone
        assert classify_regime(replace(P, c=3.5)) is Regime.SINGLE_LOW
        assert classify_regime(replace(P, c=4.0)) is Regime.SINGLE_LOW

    def test_labels_carry_paper_numbering(self):
        assert int(Regime.SINGLE_HIGH) == 1
        assert int(Regime.BISTABLE) == 2
        assert int(Regime.SINGLE_LOW) == 3

    def test_unstable_interior_between_stable_pair(self):
        for c in (1.8, 1.95, 2.2, 2.45, 2.6):
            eqs = [e for e in equilibria(replace(P, c=c)) if e.x_star > 0]
            assert classify_regime(replace(P, c=c)) is Regime.BISTABLE
            low, mid, high = eqs
            assert low.stable and high.stable and not mid.stable
            assert low.x_star < mid.x_star < high.x_star


class TestBifurcationScan:
    def test_root_counts_across_regimes(self):
        rows = bifurcation_scan(P, 1.0, 3.1, 3)  # grid {1.0, 2.05, 3.1}
        counts = [sum(1 for e in row.equilibria if e.x_star > 0) for row in rows]
        assert counts == [1, 3, 1]
        assert all(row.error is None for row in rows)

    def test_grid_preconditions(self):
        with pytest.raises(ValueError):
            bifurcation_scan(P, 2.0, 2.0, 10)
        with pytest.raises(ValueError):
            bifurcation_scan(P, 3.0, 2.0, 10)
        with pytest.raises(ValueError):
            bifurcation_scan(P, -0.1, 2.0, 10)
        with pytest.raises(ValueError):
            bifurcation_scan(P, 0.0, 4.0, 1)

    def test_single_contiguous_bistable_interval(self):
        rows = bifurcation_scan(P, 0.0, 4.0, 161)
        bistable = [sum(1 for e in row.equilibria if e.x_star > 0 and e.stable) == 2
                    for row in rows]
        # exactly one contiguous run of True
        runs = sum(1 for k in range(1, len(bistable)) if bistable[k] and not bistable[k - 1])
        runs += 1 if bistable[0] else 0
        assert any(bistable)
        assert runs == 1


class TestFoldPoints:
    def test_frozen_values(self):
        fp = fold_points(P, 0.0, 4.0, tol=1e-4)
        assert fp.c_low == pytest.approx(1.78723, abs=2e-4)
        assert fp.c_high == pytest.approx(2.60437, abs=2e-4)
        assert fp.c_low < fp.c_high

    def test_brackets_the_figure_extraction_rates(self):
        fp = fold_points(P, 0.0, 4.0, tol=1e-4)
        assert 1.0 < fp.c_low < 1.95
        assert 2.45 < fp.c_high < 3.1

    def test_no_bistability_in_narrow_range(self):
        with pytest.raises(NoBistabilityError):
            fold_points(P, 0.0, 0.5, tol=1e-4)

    def test_band_must_be_interior(self):
        with pytest.raises(NoBistabilityError):
            fold_points(P, 2.0, 2.2, tol=1e-4)  # bistable throughout

    @pytest.mark.parametrize("args,match", [
        ((2.0, 1.0), r"need 0 <= c_min < c_max"), ((-1.0, 4.0), r"need 0 <= c_min < c_max"),
        ((0.0, 4.0, 0.0), "tol must be > 0"), ((0.0, 4.0, 1e-4, 0), "n_scan must be >= 1"),
    ], ids=["reversed", "negative", "tol", "n_scan"])
    def test_bad_arguments_named(self, args, match):
        with pytest.raises(ValueError, match=match):
            fold_points(P, *args)

    def test_consistent_with_classify_regime(self):
        fp = fold_points(P, 0.0, 4.0, tol=1e-5)
        eps = 1e-3
        assert classify_regime(replace(P, c=fp.c_low - eps)) is Regime.SINGLE_HIGH
        assert classify_regime(replace(P, c=fp.c_low + eps)) is Regime.BISTABLE
        assert classify_regime(replace(P, c=fp.c_high - eps)) is Regime.BISTABLE
        assert classify_regime(replace(P, c=fp.c_high + eps)) is Regime.SINGLE_LOW

    def test_root_count_parity_around_band(self):
        fp = fold_points(P, 0.0, 4.0, tol=1e-5)
        for c in np.linspace(0.1, 4.0, 24):
            eqs = [e for e in equilibria(replace(P, c=float(c))) if e.x_star > 0]
            stable = [e for e in eqs if e.stable]
            unstable = [e for e in eqs if not e.stable]
            if fp.c_low + 1e-3 < c < fp.c_high - 1e-3:
                assert (len(stable), len(unstable)) == (2, 1)
            elif c < fp.c_low - 1e-3 or c > fp.c_high + 1e-3:
                assert (len(stable), len(unstable)) == (1, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_extrema_of_harvest_curve(self, seed):
        # independent route: the folds are the local min and max of the
        # extraction rate c(x) that makes x a fixed point
        rng = np.random.default_rng(seed)
        eco = EcoParams(r=float(rng.uniform(0.8, 1.2)), K=float(rng.uniform(8.0, 12.0)),
                        c=1.0, h=float(rng.uniform(0.8, 1.2)))

        def c_of(x):
            return eco.r * (1.0 - x / eco.K) * (x * x + eco.h * eco.h) / x

        xs = np.linspace(eco.K / 1000.0, eco.K, 2001)
        v = c_of(xs)
        extrema = []
        for sign in (1.0, -1.0):
            mid = sign * v[1:-1]
            (k,) = np.flatnonzero((mid < sign * v[:-2]) & (mid < sign * v[2:])) + 1
            res = minimize_scalar(lambda x: sign * c_of(x), bounds=(xs[k - 1], xs[k + 1]),
                                  method="bounded", options={"xatol": 1e-12})
            extrema.append(float(c_of(res.x)))
        fp = fold_points(eco, 0.0, 8.0)
        assert fp.c_low == pytest.approx(extrema[0], abs=1e-9)
        assert fp.c_high == pytest.approx(extrema[1], abs=1e-9)


def test_regime_error_outside_supported_structure():
    # strong overcompensation destabilizes the positive equilibrium by
    # period doubling; the three-regime structure no longer applies
    with pytest.raises(RegimeError):
        classify_regime(EcoParams(r=2.5, K=10.0, c=0.0, h=1.0))


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.05, 3.0), K=st.floats(0.1, 100.0), h=st.floats(0.01, 10.0),
       c_max=st.floats(0.01, 10.0), n_steps=st.integers(2, 40), as_numpy=st.booleans())
@example(r=1.0, K=1e52, h=1.0, c_max=4.0, n_steps=5, as_numpy=False)
@example(r=1.0, K=1e52, h=1.0, c_max=4.0, n_steps=5, as_numpy=True)
@example(r=1.0, K=10.0, h=1e-100, c_max=4.0, n_steps=5, as_numpy=False)
def test_scan_rows_are_the_public_solve(r, K, h, c_max, n_steps, as_numpy):
    """bifurcation_scan solves each rate on the base's bound r, K and h, with no
    EcoParams per rate, and equilibria writes growth_increment and
    map_multiplier out on bound fields: both give the public route's bits,
    also for numpy-typed fields, which EcoParams stores as Python floats.  An
    error row holds the public route's message, naming the parameters (every
    rate fails at K = 1e52, numpy-typed or not, and at h = 1e-100)."""
    p = EcoParams(*(np.float64(v) if as_numpy else v for v in (r, K, 1.0, h)))
    rows = bifurcation_scan(p, 0.0, c_max, n_steps)
    assert [row.c for row in rows] == np.linspace(0.0, c_max, n_steps).tolist()
    for row in rows:
        at_c = replace(p, c=row.c)
        try:
            want = ScanRow(row.c, tuple(equilibria(at_c)))
        except EquilibriumError as exc:
            want = ScanRow(row.c, (), str(exc))
            assert str(at_c) in row.error
        assert repr(row) == repr(want)
        for e in row.equilibria:
            assert type(e.x_star) is float and type(e.multiplier) is float
            assert _bits(e.multiplier) == _bits(float(map_multiplier(e.x_star, at_c)))
            if e.x_star > 0:
                assert abs(growth_increment(e.x_star, at_c)) < RESIDUAL_TOL


def test_scan_rejects_an_infinite_c_max():
    """An infinite c_max fails by name, before np.linspace can warn and fill
    the grid with nan."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"need 0 <= c_min < c_max < inf, got \[0\.0, inf\]"):
            bifurcation_scan(P, 0.0, math.inf, 5)
    assert caught == []


def _returns_or_fails_by_name(fn, *args, documented: str | None = None) -> None:
    """Call fn(*args); a named solver error, or the ValueError its docstring
    documents (whose message starts with documented), counts as a result."""
    try:
        fn(*args)
    except (EquilibriumError, RegimeError, NoBistabilityError):
        pass
    except ValueError as exc:
        if documented is None or not str(exc).startswith(documented):
            raise


magnitudes = st.floats(-160.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(r=magnitudes, K=magnitudes, h=magnitudes, c=st.just(0.0) | magnitudes)
@example(r=1.0, K=1e52, h=1.0, c=1.0)
@example(r=1.0, K=10.0, h=1e-100, c=1.0)
@example(r=1.0, K=1e154, h=1.0, c=1.0)
def test_every_accepted_magnitude_returns_or_fails_by_name(r, K, h, c):
    """Over every magnitude EcoParams accepts, the solver's entry points return
    or raise a named error; the named errors of equilibria name the parameters."""
    p = EcoParams(r=r, K=K, c=c, h=h)
    try:
        equilibria(p)
    except EquilibriumError as exc:
        assert str(p) in str(exc)
    _returns_or_fails_by_name(classify_regime, p)
    _returns_or_fails_by_name(fold_points, p, 0.0, 1e300)
    _returns_or_fails_by_name(fold_points, p, 0.0, 4.0)
    _returns_or_fails_by_name(separatrix_for, p, documented="no unique unstable interior equilibrium")
    _returns_or_fails_by_name(default_initial_state, p, documented="no stable positive equilibrium")
    _returns_or_fails_by_name(map_multiplier, 0.0, p)
    rows = bifurcation_scan(p, 0.0, max(c, 1.0), 5)
    assert len(rows) == 5 and all(bool(row.equilibria) != bool(row.error) for row in rows)


class TestExtremeMagnitudes:
    """Inputs EcoParams accepts whose solve leaves the float range."""

    HUGE_K = EcoParams(K=1e52)  # the cubic's (q/2)^2 overflows
    TINY_H = EcoParams(h=1e-100)  # (x^2 + h^2)^2 underflows to 0.0 at x = 0

    def test_overflow_is_named(self):
        with pytest.raises(EquilibriumError, match=r"OverflowError .* K=1e\+52"):
            equilibria(self.HUGE_K)
        with pytest.raises(EquilibriumError, match=r"OverflowError .* K=1e\+154"):
            fold_points(EcoParams(K=1e154), 0.0, 1e300)

    def test_underflow_is_named(self):
        with pytest.raises(EquilibriumError, match="ZeroDivisionError .* h=1e-100"):
            equilibria(self.TINY_H)
        with pytest.raises(EquilibriumError, match="ZeroDivisionError .* x=0.0 .* h=1e-100"):
            map_multiplier(0.0, self.TINY_H)

    @pytest.mark.parametrize("p", [HUGE_K, TINY_H], ids=["huge-K", "tiny-h"])
    def test_callers_inherit_the_named_error(self, p):
        for fn in (classify_regime, separatrix_for, default_initial_state):
            with pytest.raises(EquilibriumError):
                fn(p)
        with pytest.raises(EquilibriumError):
            run_trajectory(SimConfig(eco=p, t_max=40, burn_in=0))

    def test_scan_records_the_error_in_each_row(self):
        rows = bifurcation_scan(self.HUGE_K, 0.0, 1.0, 3)
        assert [row.equilibria for row in rows] == [(), (), ()]
        assert all("OverflowError" in row.error for row in rows)

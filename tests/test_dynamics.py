import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flickersim import (
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

P_DEFAULT = EcoParams(r=1.0, K=10.0, c=1.0, h=1.0)

eco_params = st.builds(
    EcoParams,
    r=st.floats(0.1, 2.0),
    K=st.floats(1.0, 20.0),
    c=st.floats(0.0, 4.0),
    h=st.floats(0.1, 3.0),
)


class TestParamValidation:
    def test_eco_bounds(self):
        with pytest.raises(ValueError, match="eco.r"):
            EcoParams(r=0.0)
        with pytest.raises(ValueError, match="eco.K"):
            EcoParams(K=-1.0)
        with pytest.raises(ValueError, match="eco.h"):
            EcoParams(h=0.0)
        with pytest.raises(ValueError, match="eco.c"):
            EcoParams(c=-0.1)

    def test_eco_fields_are_python_floats(self):
        # numpy scalars and ints are stored as floats, after validation, so a
        # rejected value is named as given
        p = EcoParams(r=np.float64(1.5), K=10, c=np.float32(0.5), h=np.int64(2))
        assert [type(v) for v in vars(p).values()] == [float] * 4
        assert p == EcoParams(1.5, 10.0, 0.5, 2.0)
        with pytest.raises(ValueError, match=r"got -1$"):
            EcoParams(K=np.int64(-1))

    def test_noise_bounds(self):
        with pytest.raises(ValueError, match="noise.T"):
            NoiseParams(T=0.5)
        with pytest.raises(ValueError, match="noise.beta"):
            NoiseParams(beta=-1e-9)

    def test_adaptation_bounds(self):
        with pytest.raises(ValueError, match="adapt.l"):
            AdaptationParams(l=-0.01)
        with pytest.raises(ValueError, match="adapt.l"):
            AdaptationParams(l=1.01)
        AdaptationParams(l=0.0)
        AdaptationParams(l=1.0)

    def test_state_bounds(self):
        with pytest.raises(ValueError, match="state.x"):
            SystemState(x=-1.0, i=0.0, y=0.0)
        with pytest.raises(ValueError, match="state.y"):
            SystemState(x=1.0, i=0.0, y=-1.0)
        with pytest.raises(ValueError, match="state.t"):
            SystemState(x=1.0, i=0.0, y=0.0, t=-1)
        SystemState(x=1.0, i=-5.0, y=0.0)  # noise level is unbounded


class TestGrowthIncrement:
    def test_zero_state(self):
        assert growth_increment(0.0, P_DEFAULT) == 0.0
        assert growth_increment(0.0, EcoParams(r=1.7, K=3.0, c=3.9, h=0.2)) == 0.0

    def test_at_carrying_capacity_with_harvest(self):
        # logistic term vanishes at K; harvest alone: -100/101
        assert growth_increment(10.0, P_DEFAULT) == pytest.approx(-100.0 / 101.0, rel=1e-14)

    def test_pure_logistic(self):
        assert growth_increment(5.0, EcoParams(r=1.0, K=10.0, c=0.0, h=1.0)) == pytest.approx(2.5)


class TestStepEnvironment:
    def test_origin_fixed(self):
        assert step_environment(0.0, 0.0, P_DEFAULT) == 0.0

    def test_zero_noise_composition(self):
        assert step_environment(10.0, 0.0, P_DEFAULT) == pytest.approx(10.0 - 100.0 / 101.0)

    def test_clamps_at_zero(self):
        # raw value 0.9 - 1 = -0.1 under i = -2
        assert step_environment(1.0, -2.0, EcoParams(r=1.0, K=10.0, c=0.0, h=1.0)) == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # np.maximum on nan
    @pytest.mark.parametrize("x,i", [
        (1e200, 0.0),    # overflow: x*x/(x*x + h*h) is inf/inf
        (8.9e300, 1e300),
        (-0.0, 0.0),     # the raw value is -0.0
        (1.0, -2.0),     # clamped
        (5.0, 0.1),      # passed through
    ])
    def test_clamp_agrees_with_numpy_maximum(self, x, i):
        """The block engine clamps with np.maximum(0.0, v): nan stays nan and
        -0.0 stays -0.0, bit for bit (Python's max(0.0, nan) is 0.0)."""
        v = growth_increment(x, P_DEFAULT) + (1.0 + i) * x
        got = np.float64(step_environment(x, i, P_DEFAULT))
        assert got.tobytes() == np.maximum(0.0, np.float64(v)).tobytes()

    def test_overflow_stays_nan(self):
        assert math.isnan(step_environment(1e200, 0.0, P_DEFAULT))

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(0.0, 40.0),
        i=st.floats(-50.0, 50.0),
        p=eco_params,
    )
    def test_never_negative(self, x, i, p):
        assert step_environment(x, i, p) >= 0.0


class TestStepNoise:
    def test_memory_decay(self):
        out = step_noise(0.3, NoiseParams(T=30.0), eta=0.0)
        assert out == pytest.approx(0.29, rel=1e-14)

    def test_zero_memory_contribution(self):
        assert step_noise(0.0, NoiseParams(T=30.0), eta=0.05) == 0.05

    def test_memoryless_at_T_one(self):
        for eta in (-1.3, 0.0, 0.7):
            assert step_noise(123.4, NoiseParams(T=1.0), eta=eta) == eta

    def test_stationary_sd_formula(self):
        assert NoiseParams(T=30.0, beta=0.07).stationary_sd() == pytest.approx(
            0.27339671305973007, rel=1e-12
        )


class TestStepAdaptation:
    def test_full_adaptation(self):
        out = step_adaptation(8.2, 3.0, AdaptationParams(l=1.0))
        assert out == pytest.approx(8.2, rel=1e-14)

    def test_no_adaptation(self):
        assert step_adaptation(8.2, 3.0, AdaptationParams(l=0.0)) == 3.0

    def test_small_step(self):
        assert step_adaptation(8.0, 4.0, AdaptationParams(l=0.01)) == pytest.approx(4.04)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(0.0, 20.0),
        y=st.floats(0.0, 20.0),
        l=st.floats(0.0, 1.0),
    )
    def test_contraction_identity(self, x, y, l):
        # |y' - x| = (1 - l) |y - x|, up to rounding
        out = step_adaptation(x, y, AdaptationParams(l=l))
        assert abs(out - x) == pytest.approx((1.0 - l) * abs(y - x), rel=1e-9, abs=1e-12)

    def test_geometric_approach_to_constant_environment(self):
        adapt = AdaptationParams(l=0.25)
        y, gaps = 2.0, []
        for _ in range(40):
            y = step_adaptation(9.0, y, adapt)
            gaps.append(abs(9.0 - y))
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert all(r == pytest.approx(0.75, rel=1e-9) for r in ratios)


class TestStepCoupled:
    def test_origin_invariance(self):
        s = SystemState(x=0.0, i=0.0, y=0.0, t=3)
        for p in (P_DEFAULT, EcoParams(r=1.9, K=4.0, c=3.0, h=0.3)):
            out = step_coupled(s, p, NoiseParams(), AdaptationParams(l=0.5), eta=0.0)
            assert (out.x, out.i, out.y, out.t) == (0.0, 0.0, 0.0, 4)

    def test_fixed_point_preserved(self):
        from flickersim import equilibria

        x_star = max(e.x_star for e in equilibria(P_DEFAULT) if e.stable)
        s = SystemState(x=x_star, i=0.0, y=x_star)
        out = step_coupled(s, P_DEFAULT, NoiseParams(), AdaptationParams(l=0.3), eta=0.0)
        assert out.x == pytest.approx(x_star, abs=1e-9)
        assert out.i == 0.0
        assert out.y == x_star
        assert out.t == 1

    def test_single_step_composition(self):
        s = SystemState(x=10.0, i=0.0, y=10.0)
        out = step_coupled(s, P_DEFAULT, NoiseParams(), AdaptationParams(l=1.0), eta=0.0)
        assert out.x == pytest.approx(10.0 - 100.0 / 101.0)
        assert out.i == 0.0
        assert out.y == 10.0  # reads x_t = y_t = 10, not x_{t+1}

    def test_adaptation_reads_current_x_not_next(self):
        # synchronous update: with l=1 the new y must equal x_t even though
        # x_{t+1} has already moved on
        s = SystemState(x=2.0, i=0.0, y=0.0)
        out = step_coupled(s, P_DEFAULT, NoiseParams(), AdaptationParams(l=1.0), eta=0.0)
        assert out.y == 2.0
        assert out.x != out.y

    def test_noise_feeds_next_step(self):
        s = SystemState(x=5.0, i=0.0, y=5.0)
        noise = NoiseParams(T=30.0)
        out = step_coupled(s, P_DEFAULT, noise, AdaptationParams(l=0.1), eta=0.2)
        assert out.i == pytest.approx(0.2)
        # the shock enters x only on the following step
        assert out.x == step_environment(5.0, 0.0, P_DEFAULT)
        out2 = step_coupled(out, P_DEFAULT, noise, AdaptationParams(l=0.1), eta=0.0)
        assert out2.x == step_environment(out.x, out.i, P_DEFAULT)


def test_noise_memory_coefficient_matches_formula():
    noise = NoiseParams(T=30.0)
    assert noise.memory == pytest.approx(1.0 - 1.0 / 30.0, rel=1e-15)
    assert step_noise(1.0, noise, 0.0) == noise.memory


def test_harvest_saturates_toward_c():
    # type-III harvest approaches the extraction rate c at high stock
    p = EcoParams(r=1.0, K=1e6, c=2.0, h=1.0)
    x = 5000.0
    logistic = p.r * x * (1.0 - x / p.K)
    harvest = logistic - growth_increment(x, p)
    assert harvest == pytest.approx(2.0, rel=1e-6)
    assert harvest < 2.0


def test_half_saturation_at_h():
    p = EcoParams(r=1.0, K=10.0, c=2.0, h=1.5)
    logistic = p.r * p.h * (1.0 - p.h / p.K)
    harvest = logistic - growth_increment(p.h, p)
    assert harvest == pytest.approx(1.0, rel=1e-12)  # half of c

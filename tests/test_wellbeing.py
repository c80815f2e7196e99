import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from flickersim import (
    GENERALIST,
    PROFILES,
    SPECIALIST,
    WellbeingParams,
    payoff,
    penalty,
    utility,
)
from oracles import average_payoff, average_utility, expression_payoff, expression_penalty

W1 = SPECIALIST.params
W2 = GENERALIST.params


def test_profile_defaults():
    assert (W1.m, W1.n, W1.a) == (5.0, 0.5, 3.0)
    assert (W2.m, W2.n, W2.a) == (5.75, 0.1, 5.0)
    assert set(PROFILES) == {"specialist", "generalist"}


def test_params_validation():
    with pytest.raises(ValueError, match="wellbeing.a"):
        WellbeingParams(m=5.0, n=0.5, a=0.0)
    with pytest.raises(ValueError, match="wellbeing.m"):
        WellbeingParams(m=0.0, n=0.5, a=3.0)


class TestPayoff:
    def test_specialist_range(self):
        assert payoff(0.0, W1) == 5.0
        assert payoff(10.0, W1) == 10.0

    def test_generalist_point(self):
        assert payoff(10.0, W2) == pytest.approx(6.75)

    def test_flat_payoff(self):
        w = WellbeingParams(m=4.0, n=0.0, a=2.0)
        for x in (0.0, 3.7, 19.0):
            assert payoff(x, w) == 4.0

    def test_vectorized(self):
        xs = np.array([0.0, 10.0])
        assert payoff(xs, W1) == pytest.approx([5.0, 10.0])


def specials(width: int):
    """Signed zeros, nan, the infinities and the largest finite values of a float width."""
    big = float(np.finfo(np.float32 if width == 32 else np.float64).max)
    return st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), big, -big])


@st.composite
def scoring_inputs(draw):
    """A Python float, an np.float64, a 0-d array, or a float32 or float64
    array, holding ordinary, signed-zero, nan, infinite and huge values."""
    kind = draw(st.sampled_from(["float", "float64", "0-d", "float32 array", "float64 array"]))
    if kind.endswith("array"):
        width = 32 if kind.startswith("float32") else 64
        return draw(arrays(f"float{width}", array_shapes(max_dims=3, max_side=4),
                           elements=st.floats(width=width) | specials(width)))
    value = draw(st.floats() | specials(64))
    return {"float": value, "float64": np.float64(value), "0-d": np.array(value)}[kind]


# shipped profiles, and drawn ones whose m + n*x and d * d / (a * a) can
# overflow but never multiply 0 by inf
SCORING_PARAMS = st.sampled_from([W1, W2]) | st.builds(
    WellbeingParams, m=st.floats(1e-3, 1e6),
    n=st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3), a=st.floats(1e-3, 1e3))


@settings(max_examples=400, deadline=None)
@given(value=scoring_inputs(), w=SCORING_PARAMS)
def test_scoring_matches_the_expressions(value, w):
    """payoff and penalty build their results in place, yet equal m + n*x and
    exp(-ln(2) * d * d / (a * a)) bit for bit, with the same type and dtype,
    leave their input as it was and warn on no value."""
    before = np.array(value, copy=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scored, oracle in ((payoff, expression_payoff), (penalty, expression_penalty)):
            got, want = scored(value, w), oracle(value, w)
            assert type(got) is type(want)
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert np.array(value).tobytes() == before.tobytes()


class TestUtility:
    def test_perfect_adaptation_recovers_payoff(self):
        for x in (0.0, 3.2, 7.0, 18.5):
            assert utility(x, x, W1) == payoff(x, W1)

    def test_halved_at_half_width(self):
        for x in (2.0, 7.0, 12.0):
            assert utility(x, x + W1.a, W1) == pytest.approx(payoff(x, W1) / 2, rel=1e-13)
            assert utility(x, x - W1.a, W1) == pytest.approx(payoff(x, W1) / 2, rel=1e-13)

    def test_specialist_misadapted_value(self):
        # pi(7) = 8.5 scaled by 2^-(36/9) = 1/16
        assert utility(7.0, 1.0, W1) == pytest.approx(0.53125, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(0.0, 20.0),
        d=st.floats(0.0, 20.0),
        a=st.floats(0.5, 8.0),
    )
    def test_symmetry_in_misadaptation(self, x, d, a):
        # equality up to the rounding of x+d and x-d themselves
        w = WellbeingParams(m=5.0, n=0.5, a=a)
        assert utility(x, x + d, w) == pytest.approx(utility(x, x - d, w), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.floats(width=64) | st.sampled_from([0.0, -0.0, float("nan")]),
                    min_size=1, max_size=8),
        ys=st.lists(st.floats(width=64) | st.sampled_from([0.0, -0.0, float("nan")]),
                    min_size=8, max_size=8),
        w=st.sampled_from([W1, W2]),
    )
    def test_payoff_times_penalty_is_utility(self, xs, ys, w):
        # the cell sums score payoff(x, w) * penalty(x - y, w); as bytes, so
        # nan and -0.0 compare by bits
        x, y = np.array(xs), np.array(ys[:len(xs)])
        with np.errstate(all="ignore"):
            assert (payoff(x, w) * penalty(x - y, w)).tobytes() == utility(x, y, w).tobytes()
            for a, b in zip(xs, ys):
                split = np.float64(payoff(a, w) * penalty(a - b, w))
                assert split.tobytes() == np.float64(utility(a, b, w)).tobytes()

    def test_strictly_decreasing_in_misadaptation(self):
        ds = np.linspace(0.0, 12.0, 60)
        us = utility(7.0, 7.0 + ds, W1)
        assert np.all(np.diff(us) < 0.0)

    def test_bounded_by_payoff(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 20, 300)
        ys = rng.uniform(0, 20, 300)
        assert np.all(utility(xs, ys, W1) <= payoff(xs, W1))
        assert np.all(utility(xs, ys, W1) > 0.0)

    def test_generalist_wins_under_large_misadaptation(self):
        # at x = 7, the specialist is better when well adapted; find the
        # misadaptation threshold beyond which the generalist dominates
        ds = np.linspace(0.0, 10.0, 2001)
        u1 = utility(7.0, 7.0 - ds, W1)
        u2 = utility(7.0, 7.0 - ds, W2)
        better = u2 > u1
        assert not better[0]
        assert better[-1]
        threshold = ds[np.argmax(better)]
        assert 0.0 < threshold < 10.0
        assert np.all(better[np.argmax(better):])


class TestAverages:
    def test_constant_trajectory(self):
        assert average_payoff([10.0] * 5, W1) == pytest.approx(10.0)

    def test_two_point_mean(self):
        assert average_payoff([0.0, 10.0], W1) == pytest.approx(7.5)

    def test_linearity_in_mean(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 20, 1000)
        assert average_payoff(xs, W1) == pytest.approx(W1.m + W1.n * xs.mean(), rel=1e-12)

    def test_perfect_adaptation_equality(self):
        rng = np.random.default_rng(12)
        xs = rng.uniform(0, 20, 500)
        assert average_utility(xs, xs, W1) == pytest.approx(average_payoff(xs, W1), rel=1e-14)

    def test_single_pair(self):
        assert average_utility([7.0], [1.0], W1) == pytest.approx(0.53125, rel=1e-12)

    def test_utility_never_exceeds_payoff(self):
        rng = np.random.default_rng(13)
        xs = rng.uniform(0, 20, 500)
        ys = rng.uniform(0, 20, 500)
        assert average_utility(xs, ys, W1) <= average_payoff(xs, W1)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            average_payoff([], W1)
        with pytest.raises(ValueError, match="empty"):
            average_utility([], [], W1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            average_utility([1.0, 2.0], [1.0], W1)


def test_payoff_lines_cross_at_derived_state():
    # 5 + 0.5 x = 5.75 + 0.1 x at x = 0.75 / 0.4
    x_cross = (W2.m - W1.m) / (W1.n - W2.n)
    assert x_cross == pytest.approx(1.875, rel=1e-15)
    assert payoff(x_cross, W1) == pytest.approx(payoff(x_cross, W2), rel=1e-15)
    assert payoff(1.0, W2) > payoff(1.0, W1)
    assert payoff(3.0, W2) < payoff(3.0, W1)

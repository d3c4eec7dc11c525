import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iiorbit import plants
from iiorbit.core import augmented_field
from iiorbit.odesim import (
    FieldEvaluationError,
    IntegrationAbort,
    Trajectory,
    detect_crossings,
    estimate_period,
    integrate_adaptive,
    integrate_fixed,
)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
ROTATION = lambda y: J @ y
DECAY = lambda y: (-y[0],)


def rotation_exact(t, y0=(1.0, 0.0)):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, s], [-s, c]]) @ np.asarray(y0)


class TestTrajectory:
    def test_knot_interpolation_is_exact(self):
        traj = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 1.0, 0.01)
        for i in (0, 3, len(traj) - 1):
            assert np.array_equal(traj.interpolate(float(traj.times[i])), traj.states[i])

    def test_interpolation_outside_span_raises(self):
        traj = Trajectory([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            traj.interpolate(1.5)

    def test_nonmonotone_times_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [[1.0], [2.0]])

    def test_restrict_and_component(self):
        traj = Trajectory([0.0, 1.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        sub = traj.restrict([2, 0])
        assert sub.dimension == 2
        assert np.array_equal(sub.states[0], [3.0, 1.0])
        assert np.array_equal(traj.component(1), [2.0, 5.0])

    def test_tail_keeps_final_fraction(self):
        times = np.linspace(0.0, 10.0, 101)
        traj = Trajectory(times, np.zeros((101, 1)))
        tail = traj.tail(0.2)
        assert tail.t0 <= 8.0 + 1e-12
        assert tail.t1 == 10.0

    @given(st.integers(min_value=2, max_value=30), st.floats(0.01, 100.0))
    def test_interpolation_linear_between_knots(self, n, span):
        times = np.linspace(0.0, span, n)
        states = np.column_stack([2.0 * times - 1.0, times**0])
        traj = Trajectory(times, states)
        t = 0.37 * span
        got = traj.interpolate(t)
        assert got[0] == pytest.approx(2.0 * t - 1.0, abs=1e-9 * max(1.0, span))


class TestFixedStep:
    def test_rotation_oracle(self):
        traj = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 2 * math.pi, 1e-3)
        assert traj.t1 == 2 * math.pi
        assert np.max(np.abs(traj.final_state - [1.0, 0.0])) < 1e-8

    def test_halving_ratio_is_fourth_order(self):
        errs = []
        for dt in (2e-2, 1e-2, 5e-3):
            traj = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 2 * math.pi, dt)
            errs.append(np.max(np.abs(traj.final_state - [1.0, 0.0])))
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 < coarse / fine < 20.0

    def test_single_step_run(self):
        traj = integrate_fixed(DECAY, [1.0], 0.0, 0.5, 0.5)
        assert len(traj) == 2

    def test_constant_field(self):
        traj = integrate_fixed(lambda y: np.zeros(1), [3.5], 0.0, 1.0, 0.1)
        assert np.all(traj.states == 3.5)

    def test_final_time_landed_exactly(self):
        traj = integrate_fixed(DECAY, [1.0], 0.0, 1.0, 0.3)
        assert traj.t1 == 1.0
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_blowup_aborts_with_partial_trajectory(self):
        # y' = y^2 from 1 blows up at t = 1; the overflow on the way out is
        # exactly what the abort path is for
        field = lambda y: (y[0] ** 2,)
        with pytest.raises(IntegrationAbort) as info:
            integrate_fixed(field, [1.0], 0.0, 2.0, 1e-3)
        assert len(info.value.trajectory) > 100
        assert 0.9 < info.value.abort_time <= 1.1

    def test_field_error_aborts(self):
        def guarded(y):
            if y[0] > 0.5:
                raise FieldEvaluationError("left the admissible region")
            return np.ones(1)

        with pytest.raises(IntegrationAbort) as info:
            integrate_fixed(guarded, [0.0], 0.0, 2.0, 1e-2)
        assert info.value.abort_time == pytest.approx(0.5, abs=0.02)

    def test_state_dimension_checked(self):
        # the field's output length must match the initial state
        with pytest.raises(ValueError, match="state has shape"):
            integrate_fixed(DECAY, [1.0, 2.0], 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="state has shape"):
            integrate_adaptive(DECAY, [1.0, 2.0], 0.0, 1.0)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            integrate_fixed(DECAY, [1.0], 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            integrate_fixed(DECAY, [1.0], 1.0, 0.0, 0.1)


class TestAdaptive:
    def test_rotation_oracle(self):
        traj = integrate_adaptive(ROTATION, [1.0, 0.0], 0.0, 2 * math.pi, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(traj.final_state - [1.0, 0.0])) < 1e-7

    def test_exponential_oracle(self):
        traj = integrate_adaptive(DECAY, [1.0], 0.0, 5.0, rtol=1e-9, atol=1e-12)
        assert traj.final_state[0] == pytest.approx(math.exp(-5.0), abs=1e-9)

    def test_zero_span_returns_single_sample(self):
        traj = integrate_adaptive(DECAY, [1.0], 2.0, 2.0)
        assert len(traj) == 1
        assert traj.t0 == 2.0

    def test_stiff_cubic_survives_large_scale(self):
        # radial cubic with contraction rate ~ 2 A^2; the first trial step
        # must not abort on overflow
        A2 = 144.0

        def f(y):
            r2 = y @ y - A2
            return np.array([-r2 * y[0] + 300.0 * y[1], -300.0 * y[0] - r2 * y[1]])

        traj = integrate_adaptive(f, [24.0, 0.0], 0.0, 1.0,
                                  rtol=1e-10, atol=1e-12)
        assert np.hypot(*traj.final_state) == pytest.approx(12.0, abs=1e-6)

    def test_blowup_aborts(self):
        field = lambda y: (y[0] ** 2,)
        with pytest.raises(IntegrationAbort) as info:
            integrate_adaptive(field, [1.0], 0.0, 2.0)
        assert info.value.abort_time == pytest.approx(1.0, abs=1e-3)

    def test_matches_fixed_on_all_bundles(self, bundles):
        # closed-loop spot check: both integrators land on the same state.
        # The converter spins at 314 rad/s, so its fixed-step reference needs
        # a smaller dt for the comparison to be meaningful at 1e-6.
        horizons = {
            "lti-identity": (5.0, 1e-4, [1.0, 0.0, 0.1, -1.0]),
            "iwp-default": (10.0, 1e-4, [3 * math.pi / 4, math.pi / 3, 0.0, 0.0]),
            "cartpend-lin-default": (10.0, 1e-4, [math.pi / 5, 0.0, math.pi / 10, 0.0]),
            "cartpend-nl-default": (10.0, 1e-4, [3 * math.pi / 10, -math.pi / 36, 0.0, 0.0]),
            "dcac-default": (0.05, 2e-5, [12.0, 0.0, 2.2, -3.7699111843077517]),
        }
        for name, (t1, dt, x0) in horizons.items():
            bundle = bundles[name]
            fld = augmented_field(bundle)
            x0 = np.asarray(x0)
            y0 = np.concatenate([x0, np.atleast_1d(bundle.manifold.phi(x0))])
            ref = integrate_fixed(fld, y0, 0.0, t1, dt)
            probe = integrate_adaptive(fld, y0, 0.0, t1, rtol=1e-10, atol=1e-12)
            diff = np.max(np.abs(ref.final_state - probe.final_state))
            assert diff < 1e-6, f"{name}: adaptive vs fixed differ by {diff}"


class TestSections:
    def test_rotation_crossings(self):
        traj = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 4 * math.pi, 1e-3)
        events = detect_crossings(traj, lambda s: s[1])
        assert len(events) == 4
        expected = [0.0, math.pi, 2 * math.pi, 3 * math.pi]
        for ev, t_exp in zip(events, expected):
            assert ev.time == pytest.approx(t_exp, abs=1e-6)
        assert [e.direction for e in events] == [-1, 1, -1, 1]

    def test_no_crossings(self):
        traj = integrate_fixed(DECAY, [1.0], 0.0, 5.0, 1e-2)
        assert detect_crossings(traj, lambda s: s[0]) == []

    def test_constant_trajectory_empty(self):
        traj = Trajectory([0.0, 1.0, 2.0], [[1.0], [1.0], [1.0]])
        assert detect_crossings(traj, lambda s: s[0] - 5.0) == []

    def test_min_separation_filters_chatter(self):
        times = np.linspace(0.0, 1.0, 1001)
        noisy = np.sin(2 * math.pi * 40 * times).reshape(-1, 1)
        traj = Trajectory(times, noisy)
        dense = detect_crossings(traj, lambda s: s[0], min_separation=1e-6)
        sparse = detect_crossings(traj, lambda s: s[0], min_separation=0.3)
        assert len(dense) > 20
        assert len(sparse) <= 4

    def test_refinement_stability(self):
        # doubling the sample density moves each event by less than one
        # coarse step
        coarse = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 4 * math.pi, 2e-2)
        fine = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 4 * math.pi, 1e-2)
        ec = detect_crossings(coarse, lambda s: s[1])
        ef = detect_crossings(fine, lambda s: s[1])
        assert len(ec) == len(ef)
        for a, b in zip(ec, ef):
            assert abs(a.time - b.time) < 2e-2


class TestPeriod:
    def test_rotation_period(self):
        traj = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 20 * math.pi, 1e-3)
        period = estimate_period(traj, lambda s: s[1])
        assert period == pytest.approx(2 * math.pi, abs=1e-6)

    def test_too_few_crossings_returns_none(self):
        traj = integrate_fixed(DECAY, [1.0], 0.0, 5.0, 1e-2)
        assert estimate_period(traj, lambda s: s[0]) is None

    def test_small_amplitude_pendulum(self):
        a = 0.1308
        field = lambda y: np.array([y[1], -a * math.sin(y[0])])
        traj = integrate_fixed(field, [0.01, 0.0], 0.0, 140.0, 1e-3)
        period = estimate_period(traj, lambda s: s[1])
        expected = 2 * math.pi / math.sqrt(a)
        assert abs(period - expected) / expected < 0.005

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iiorbit import odesim, plants
from iiorbit.core import augmented_field
from iiorbit.odesim import (
    FieldEvaluationError,
    IntegrationAbort,
    Trajectory,
    detect_crossings,
    estimate_period,
    integrate_adaptive,
    integrate_dense,
    integrate_fixed,
)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
ROTATION = lambda y: J @ y
DECAY = lambda y: (-y[0],)


def rotation_exact(t, y0=(1.0, 0.0)):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, s], [-s, c]]) @ np.asarray(y0)


class TestTrajectory:
    def test_nonmonotone_times_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [[1.0], [2.0]])

    def test_restrict_and_component(self):
        traj = Trajectory([0.0, 1.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        sub = traj.restrict([2, 0])
        assert sub.states.shape == (2, 2)
        assert np.array_equal(sub.states[0], [3.0, 1.0])
        assert np.array_equal(traj.states[:, 1], [2.0, 5.0])

    def test_tail_keeps_final_fraction(self):
        times = np.linspace(0.0, 10.0, 101)
        traj = Trajectory(times, np.zeros((101, 1)))
        tail = traj.tail(0.2)
        assert tail.t0 <= 8.0 + 1e-12
        assert tail.t1 == 10.0


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

    @pytest.mark.parametrize(
        "name,value",
        [("t0", math.nan), ("t1", math.inf), ("t1", math.nan), ("dt", math.nan), ("dt", math.inf)],
    )
    def test_non_finite_argument_rejected(self, name, value):
        calls = []
        args = {"t0": 0.0, "t1": 1.0, "dt": 0.1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            integrate_fixed(lambda y: calls.append(y) or DECAY(y), [1.0], **args)
        assert calls == []

    def test_grid_over_the_step_limit_rejected_before_any_step(self, monkeypatch):
        # the limit is cut to 4 so that a regression builds a small grid,
        # not one of MAX_STEPS points
        monkeypatch.setattr(odesim, "MAX_STEPS", 4)
        assert len(integrate_fixed(DECAY, [1.0], 0.0, 1.0, 0.25)) == 5
        calls = []
        with pytest.raises(ValueError, match="takes 5 steps, more than 4"):
            integrate_fixed(lambda y: calls.append(y) or DECAY(y), [1.0], 0.0, 1.0, 0.2)
        assert calls == []
        with pytest.raises(ValueError, match="takes inf steps"):
            integrate_fixed(DECAY, [1.0], 0.0, 1e10, 1e-320)


class TestAdaptive:
    @pytest.mark.parametrize(
        "name,value",
        [("t0", math.nan), ("t1", math.nan), ("t1", math.inf), ("t0", -math.inf),
         ("rtol", math.nan), ("atol", math.inf)],
    )
    def test_non_finite_argument_rejected(self, name, value):
        # a non-finite span used to make the minimum step NaN or infinite,
        # so the step loop never stopped
        calls = []
        args = {"t0": 0.0, "t1": 1.0, "rtol": 1e-8, "atol": 1e-10, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            integrate_adaptive(lambda y: calls.append(y) or DECAY(y), [1.0], **args)
        assert calls == []

    def test_overflowing_span_rejected(self):
        # t0 and t1 are finite, but t1 - t0 is inf, and so would be the
        # minimum step; the step loop then retried until MAX_STEPS ran out
        calls = []
        with pytest.raises(ValueError, match="t1 - t0 = inf is not finite"):
            integrate_adaptive(lambda y: calls.append(y) or DECAY(y), [1.0], -1e308, 1e308)
        assert calls == []

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
            r2 = y[0] * y[0] + y[1] * y[1] - A2
            return (-r2 * y[0] + 300.0 * y[1], -300.0 * y[0] - r2 * y[1])

        traj = integrate_adaptive(f, [24.0, 0.0], 0.0, 1.0,
                                  rtol=1e-10, atol=1e-12)
        assert np.hypot(*traj.final_state) == pytest.approx(12.0, abs=1e-6)

    def test_blowup_aborts(self):
        # error control follows y = 1/(1 - t) with finite states until the
        # step cannot shrink further
        field = lambda y: (y[0] ** 2,)
        with pytest.raises(IntegrationAbort) as info:
            integrate_adaptive(field, [1.0], 0.0, 2.0)
        assert info.value.abort_time == pytest.approx(1.0, abs=1e-3)
        assert "step size underflow" in str(info.value)

    def test_overflow_reads_as_non_finite(self):
        # math.exp overflows once y > 709.78/1000; every attempt past that
        # point is retried shorter, as for a non-finite state, until the step
        # underflows
        def field(y):
            math.exp(1000.0 * y[0])
            return (1.0,)

        with pytest.raises(IntegrationAbort, match="non-finite state near t=") as info:
            integrate_adaptive(field, [0.0], 0.0, 2.0)
        assert info.value.abort_time == pytest.approx(math.log(1e308) / 1000.0, abs=1e-3)
        assert np.all(info.value.trajectory.states <= 0.71)
        with pytest.raises(IntegrationAbort, match="non-finite state near t=0.0"):
            integrate_adaptive(field, [1.0], 0.0, 2.0)

    def test_nan_field_reads_as_non_finite(self, monkeypatch):
        # the new state gets no weight from the field there, so a NaN in that
        # last stage shows only in the error estimate; it must shrink the
        # step like a non-finite state, not be retried with a larger one
        monkeypatch.setattr(odesim, "MAX_STEPS", 20_000)
        field = lambda y: (math.nan if y[0] > 0.5 else 1.0,)
        with pytest.raises(IntegrationAbort, match="non-finite state near t=") as info:
            integrate_adaptive(field, [0.0], 0.0, 2.0)
        assert info.value.abort_time == pytest.approx(0.5, abs=1e-9)

    def test_field_gets_a_tuple_of_floats(self):
        seen = set()

        def field(y):
            seen.add((type(y), *map(type, y)))
            return (y[1], -y[0])

        traj = integrate_adaptive(field, [1.0, 0.0], 0.0, 3.0)
        assert len(traj) > 10
        assert seen == {(tuple, float, float)}

    @staticmethod
    def counted(monkeypatch):
        """Count field evaluations and Dormand-Prince step attempts."""
        counts = {"evals": 0, "attempts": 0}
        step = odesim._dp_step

        def attempt(*args):
            counts["attempts"] += 1
            return step(*args)

        monkeypatch.setattr(odesim, "_dp_step", attempt)
        return counts

    def test_six_new_evaluations_per_step(self, monkeypatch):
        # two evaluations at x0 (the shape check and the first stage), then
        # six per attempt: the first stage is the last one of the step before
        counts = self.counted(monkeypatch)

        def field(y):
            counts["evals"] += 1
            return (-y[0],)

        # exponential decay: every attempt is accepted
        traj = integrate_adaptive(field, [1.0], 0.0, 5.0, rtol=1e-9, atol=1e-12)
        assert counts["attempts"] == len(traj) - 1 > 50
        assert counts["evals"] == 2 + 6 * (len(traj) - 1)

    def test_rejected_step_reuses_its_first_stage(self, monkeypatch):
        # the stiff cubic of test_stiff_cubic_survives_large_scale rejects
        # steps; a retry from the same state evaluates six new stages too
        counts = self.counted(monkeypatch)

        def f(y):
            counts["evals"] += 1
            r2 = y[0] * y[0] + y[1] * y[1] - 144.0
            return (-r2 * y[0] + 300.0 * y[1], -300.0 * y[0] - r2 * y[1])

        traj = integrate_adaptive(f, [24.0, 0.0], 0.0, 1.0, rtol=1e-10, atol=1e-12)
        assert counts["attempts"] > len(traj) - 1
        assert counts["evals"] == 2 + 6 * counts["attempts"]

    def test_step_is_a_left_to_right_stage_sum(self):
        # the first step, against the tableau summed term by term from the
        # left, zero weights included, bit for bit
        A = [
            [1 / 5],
            [3 / 40, 9 / 40],
            [44 / 45, -56 / 15, 32 / 9],
            [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
            [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        ]
        b5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
        mu = 2.0

        def vdp(y):
            return (y[1], mu * (1.0 - y[0] * y[0]) * y[1] - y[0])

        def advance(y, k, weights, h):
            out = []
            for i, a in enumerate(y):
                acc = weights[0] * k[0][i]
                for w, kj in zip(weights[1:], k[1:]):
                    acc = acc + w * kj[i]
                out.append(a + h * acc)
            return tuple(out)

        y0 = (1.5, -0.25)
        traj = integrate_adaptive(vdp, y0, 0.0, 1.0, rtol=1e-6, atol=1e-9)
        h = traj.times[1]
        k = [vdp(y0)]
        for row in A:
            k.append(vdp(advance(y0, k, row, h)))
        assert tuple(traj.states[1].tolist()) == advance(y0, k, b5[:6], h)
        assert advance(y0, k, b5[:6], h) == advance(y0, k + [vdp(traj.states[1])], b5, h)

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
            y0 = np.concatenate([x0, np.atleast_1d(bundle.phi(x0))])
            ref = integrate_fixed(fld, y0, 0.0, t1, dt)
            probe = integrate_adaptive(fld, y0, 0.0, t1, rtol=1e-10, atol=1e-12)
            diff = np.max(np.abs(ref.final_state - probe.final_state))
            assert diff < 1e-6, f"{name}: adaptive vs fixed differ by {diff}"


def vdp(y, mu=2.0):
    return (y[1], mu * (1.0 - y[0] * y[0]) * y[1] - y[0])


class TestDense:
    def test_knots_are_a_chain_of_dp_steps(self):
        # every DENSE_STEPS-th row, and the last, is the state of a chain of
        # Dormand-Prince steps between the knot times, bit for bit
        traj = integrate_dense(vdp, [1.5, -0.25], 0.0, 1.037, 0.01)
        knots = [*range(0, len(traj) - 1, odesim.DENSE_STEPS), len(traj) - 1]
        assert knots[-1] - knots[-2] == 4
        y = (1.5, -0.25)
        k1 = vdp(y)
        for a, b in zip(knots, knots[1:]):
            y, *_, k1 = odesim._dp_stages(vdp, y, k1, float(traj.times[b] - traj.times[a]))
            assert tuple(traj.states[b].tolist()) == y

    @pytest.mark.parametrize(
        "t0,t1,dt", [(0.0, 1.037, 0.01), (0.3, 2.0, 0.07), (-1.0, 0.5, 0.0123), (0.0, 0.2, 1e-5)]
    )
    def test_times_match_fixed(self, t0, t1, dt):
        fixed = integrate_fixed(DECAY, [1.0], t0, t1, dt)
        dense = integrate_dense(DECAY, [1.0], t0, t1, dt)
        assert np.array_equal(dense.times, fixed.times)

    def test_fifth_order_on_rotation(self):
        # knot states and dense rows alike: halving dt divides the grid
        # error by about 2^5
        errs = []
        for dt in (4e-2, 2e-2, 1e-2):
            traj = integrate_dense(ROTATION, [1.0, 0.0], 0.0, 2 * math.pi, dt)
            exact = np.column_stack((np.cos(traj.times), -np.sin(traj.times)))
            errs.append(np.max(np.abs(traj.states - exact)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 26.0 < coarse / fine < 38.0

    def test_field_gets_a_tuple_of_floats(self):
        seen = set()

        def field(y):
            seen.add((type(y), *map(type, y)))
            return (y[1], -y[0])

        assert len(integrate_dense(field, [1.0, 0.0], 0.0, 3.0, 0.01)) == 301
        assert seen == {(tuple, float, float)}

    def test_six_evaluations_per_step(self):
        # two at x0 (the shape check and the first stage), then six per step
        calls = []
        traj = integrate_dense(lambda y: calls.append(y) or DECAY(y), [1.0], 0.0, 1.0, 0.01)
        assert len(traj) == 101
        assert len(calls) == 2 + 6 * 20

    def test_grid_over_the_step_limit_rejected_before_any_step(self, monkeypatch):
        monkeypatch.setattr(odesim, "MAX_STEPS", 4)
        assert len(integrate_dense(DECAY, [1.0], 0.0, 1.0, 0.25)) == 5
        calls = []
        with pytest.raises(ValueError, match="takes 5 steps, more than 4"):
            integrate_dense(lambda y: calls.append(y) or DECAY(y), [1.0], 0.0, 1.0, 0.2)
        assert calls == []

    @staticmethod
    def guarded(kind):
        """y' = 1 from 0, failing once a stage passes 0.52: the step from
        the knot t = 0.5 to t = 0.55 (dt = 0.01) is the first to fail."""

        def field(y):
            if y[0] > 0.52:
                if kind == "field":
                    raise FieldEvaluationError("left the admissible region")
                if kind == "overflow":
                    math.exp(1e4)
                return (math.nan,)
            return (1.0,)

        return field

    @pytest.mark.parametrize("kind,end", [("field", 50), ("overflow", 55), ("nan", 55)])
    def test_abort_stores_no_row_past_the_last_step(self, kind, end):
        # the rows up to the failing step's start knot, as a run that does
        # not fail stores them; the abort time is that knot for a field
        # error and the step's end knot for a non-finite state
        full = integrate_dense(lambda y: (1.0,), [0.0], 0.0, 1.0, 0.01)
        with pytest.raises(IntegrationAbort) as info:
            integrate_dense(self.guarded(kind), [0.0], 0.0, 1.0, 0.01)
        traj = info.value.trajectory
        assert np.array_equal(traj.times, full.times[:51])
        assert np.array_equal(traj.states, full.states[:51])
        assert info.value.abort_time == full.times[end]

    def test_field_error_at_x0_keeps_x0(self):
        def broken(y):
            raise FieldEvaluationError("nowhere admissible")

        with pytest.raises(IntegrationAbort) as info:
            integrate_dense(broken, [0.5], 1.0, 2.0, 0.1)
        assert info.value.abort_time == 1.0
        assert info.value.trajectory.states.tolist() == [[0.5]]


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


    def test_root_of_linear_interpolant_is_exact(self):
        (event,) = detect_crossings(Trajectory([0.0, 1.0], [[-1.0], [2.0]]), lambda s: s[0])
        assert abs(event.time - 1.0 / 3.0) <= 1e-15
        assert abs(event.state[0]) <= 1e-15
        assert event.direction == 1

    def test_zero_knot_is_an_event_at_that_knot(self):
        traj = Trajectory([0.0, 1.0, 2.0], [[1.0, 5.0], [0.0, 6.0], [-1.0, 7.0]])
        (event,) = detect_crossings(traj, lambda s: s[0])
        assert event.time == 1.0
        assert np.array_equal(event.state, traj.states[1])
        assert event.direction == -1

    def test_section_is_called_once_on_the_stack(self):
        traj = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 4 * math.pi, 1e-2)
        calls = []

        def section(s):
            calls.append(np.shape(s))
            return s[1]

        assert len(detect_crossings(traj, section)) == 4
        assert calls == [(2, len(traj))]

    def test_constant_section_is_broadcast(self):
        traj = Trajectory([0.0, 1.0, 2.0], [[1.0], [2.0], [3.0]])
        assert detect_crossings(traj, lambda s: 1.0) == []
        assert [e.time for e in detect_crossings(traj, lambda s: 0.0)] == [0.0, 1.0]

    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 1.0),
                st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_nan=False)),
            ),
            min_size=2,
            max_size=40,
        ),
        st.floats(0.0, 2.0),
    )
    def test_matches_per_interval_reference(self, samples, min_separation):
        times = np.cumsum([gap for gap, _ in samples])
        values = [value for _, value in samples]
        # the second coordinate is the time itself, so an event's state
        # carries its own time
        traj = Trajectory(times, np.column_stack((values, times)))
        expected = []
        for i in range(len(values) - 1):
            sl, sr = values[i], values[i + 1]
            if sl == 0.0:
                t, direction = float(times[i]), 1 if sr > 0 else -1
            elif sl * sr < 0.0:
                w = sl / (sl - sr)
                t = float(times[i] + w * (times[i + 1] - times[i]))
                direction = 1 if sr > sl else -1
            else:
                continue
            if expected and t - expected[-1][0] < min_separation:
                continue
            expected.append((t, direction, i))
        events = detect_crossings(traj, lambda s: s[0], min_separation)
        # knot: the interval's left end, the stored state at or before the event
        assert [(e.time, e.direction, e.knot) for e in events] == expected
        for e in events:
            assert abs(e.state[0]) <= 1e-14 * max(1.0, max(map(abs, values)))
            assert e.state[1] == pytest.approx(e.time, rel=1e-14, abs=1e-14)


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

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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
        kernels = odesim._kernels

        def counting(d):
            compiled = kernels(d)

            def attempt(*args):
                counts["attempts"] += 1
                return compiled.dp_step(*args)

            return SimpleNamespace(dp_step=attempt)

        monkeypatch.setattr(odesim, "_kernels", counting)
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


def reference_dense_rows(times, knots, data, q):
    """_dense_rows as it evaluated contd8 row by row, on the two knot blocks
    gathered for each row's step, 4096 rows at a time: the per-step terms
    must give these rows bit for bit."""
    out = np.empty((knots[q] + 1, data.shape[2]))
    for start in range(0, len(out) if q else 0, 4096):
        rows = np.arange(start, min(start + 4096, len(out)))
        j = np.minimum(rows // odesim.DENSE_STEPS, q - 1)
        ta = times[knots[j]]
        h = times[knots[j + 1]] - ta
        theta = ((times[rows] - ta) / h)[:, None]
        h = h[:, None]
        y0, k1, d1, d2, d3, d4 = (data[j][:, r, :] for r in range(6))
        y1, k13 = data[j + 1][:, 0, :], data[j + 1][:, 1, :]
        ydiff = y1 - y0
        bspl = h * k1 - ydiff
        theta1 = 1.0 - theta
        tail = h * d1 + theta * (h * d2 + theta1 * (h * d3 + theta * (h * d4)))
        out[rows] = y0 + theta * (
            ydiff + theta1 * (bspl + theta * ((ydiff - h * k13 - bspl) + theta1 * tail))
        )
    out[knots[: q + 1]] = data[: q + 1, 0]
    return out


def nan_bits(a: np.ndarray) -> bytes:
    """a's bytes with every NaN written as numpy's, so that equal bytes mean
    equal numbers, the signs of zeros included (see flat_bits)."""
    a = a.copy()
    a[np.isnan(a)] = np.nan
    return a.tobytes()


class TestDense:
    @pytest.mark.parametrize("t1", [10.0, 10.013])
    def test_rows_match_the_per_row_reference(self, t1):
        # knot data with signed zeros, non-finite values and magnitudes from
        # 1e-5 to 1e4, on 10,001 rows whose steps all have DENSE_STEPS rows
        # and on 10,014 whose last step has 13; q runs over the prefixes an
        # abort leaves (q below the last knot), across the blocks of steps
        times = np.asarray(odesim._grid(0.0, t1, 1e-3))
        knots = np.array([*range(0, len(times) - 1, odesim.DENSE_STEPS), len(times) - 1])
        rng = np.random.default_rng(len(times))
        shape = (len(knots), 6, 3)
        data = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
        data[3, 2, 1], data[7, 1, 0], data[11, 0, 2], data[12, 5, 0] = (
            math.nan, math.inf, -0.0, -math.inf
        )
        last = len(knots) - 1
        for q in sorted({0, 1, 2, 3, 203, 204, 205, 409, last - 1, last}):
            with np.errstate(invalid="ignore"):  # theta = 0 at a knot times an infinity
                got = odesim._dense_rows(times, knots, data, q)
                want = reference_dense_rows(times, knots, data, q)
            assert nan_bits(got) == nan_bits(want), q

    def test_knots_are_a_chain_of_dp_steps(self):
        # every DENSE_STEPS-th row, and the last, is the state of a chain of
        # Dormand-Prince 8(5,3) steps between the knot times, bit for bit
        traj = integrate_dense(vdp, [1.5, -0.25], 0.0, 1.037, 0.01)
        knots = [*range(0, len(traj) - 1, odesim.DENSE_STEPS), len(traj) - 1]
        assert knots[-1] - knots[-2] == 4
        y = (1.5, -0.25)
        k1 = vdp(y)
        step = odesim._kernels(2).dop853_dense
        for a, b in zip(knots, knots[1:]):
            y, k1, _ = step(vdp, y, k1, float(traj.times[b] - traj.times[a]))
            assert tuple(traj.states[b].tolist()) == y

    @pytest.mark.parametrize(
        "t0,t1,dt", [(0.0, 1.037, 0.01), (0.3, 2.0, 0.07), (-1.0, 0.5, 0.0123), (0.0, 0.2, 1e-5)]
    )
    def test_times_match_fixed(self, t0, t1, dt):
        fixed = integrate_fixed(DECAY, [1.0], t0, t1, dt)
        dense = integrate_dense(DECAY, [1.0], t0, t1, dt)
        assert np.array_equal(dense.times, fixed.times)

    def test_eighth_order_on_rotation(self):
        # knot states and dense rows alike: halving dt, and with it the step
        # H = DENSE_STEPS dt, divides the grid error by about 2^8; the
        # observed order log2(ratio) is within 0.3 of 8 (measured 7.99, 7.97).
        # The finest error, about 1e-12, is far above rounding
        errs = []
        for dt in (4e-2, 2e-2, 1e-2):
            traj = integrate_dense(ROTATION, [1.0, 0.0], 0.0, 2 * math.pi, dt)
            exact = np.column_stack((np.cos(traj.times), -np.sin(traj.times)))
            errs.append(np.max(np.abs(traj.states - exact)))
        assert errs[-1] > 1e-13, errs
        for coarse, fine in zip(errs, errs[1:]):
            assert abs(math.log2(coarse / fine) - 8.0) < 0.3, errs

    def test_field_gets_a_tuple_of_floats(self):
        seen = set()

        def field(y):
            seen.add((type(y), *map(type, y)))
            return (y[1], -y[0])

        assert len(integrate_dense(field, [1.0, 0.0], 0.0, 3.0, 0.01)) == 301
        assert seen == {(tuple, float, float)}

    def test_fifteen_evaluations_per_step(self):
        # two at x0 (the shape check and the first stage), then 15 per step
        # of DENSE_STEPS rows: eleven stages, the field at the new state (the
        # next step's first stage) and three dense-output stages
        calls = []
        traj = integrate_dense(lambda y: calls.append(y) or DECAY(y), [1.0], 0.0, 1.0, 0.01)
        assert len(traj) == 101
        assert odesim.DENSE_STEPS == 20
        assert len(calls) == 2 + 15 * 5

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
        the knot t = 0.4 to t = 0.6 (dt = 0.01) is the first to fail."""

        def field(y):
            if y[0] > 0.52:
                if kind == "field":
                    raise FieldEvaluationError("left the admissible region")
                if kind == "overflow":
                    math.exp(1e4)
                return (math.nan,)
            return (1.0,)

        return field

    @pytest.mark.parametrize("kind,end", [("field", 40), ("overflow", 60), ("nan", 60)])
    def test_abort_stores_no_row_past_the_last_step(self, kind, end):
        # the rows up to the failing step's start knot, as a run that does
        # not fail stores them; the abort time is that knot for a field
        # error and the step's end knot for a non-finite state
        full = integrate_dense(lambda y: (1.0,), [0.0], 0.0, 1.0, 0.01)
        with pytest.raises(IntegrationAbort) as info:
            integrate_dense(self.guarded(kind), [0.0], 0.0, 1.0, 0.01)
        traj = info.value.trajectory
        assert np.array_equal(traj.times, full.times[:41])
        assert np.array_equal(traj.states, full.states[:41])
        assert info.value.abort_time == full.times[end]

    def test_field_error_at_x0_keeps_x0(self):
        def broken(y):
            raise FieldEvaluationError("nowhere admissible")

        with pytest.raises(IntegrationAbort) as info:
            integrate_dense(broken, [0.5], 1.0, 2.0, 0.1)
        assert info.value.abort_time == 1.0
        assert info.value.trajectory.states.tolist() == [[0.5]]


class TestTableaus:
    TABLEAUS = {"dp5": (odesim._DP5, 5), "dop853": (odesim._DOP853, 8)}

    @pytest.mark.parametrize("name", TABLEAUS)
    def test_quadrature_conditions(self, name):
        # b . c^(q-1) = 1/q for every q up to the order
        tab, order = self.TABLEAUS[name]
        for q in range(1, order + 1):
            total = math.fsum(w * c ** (q - 1) for w, c in zip(tab.b, tab.c))
            assert abs(total - 1.0 / q) <= 1e-15, (q, total)

    @pytest.mark.parametrize("name", TABLEAUS)
    def test_rows_sum_to_the_nodes(self, name):
        # A . 1 = c for every stage, the extra ones included; the stage after
        # the last row of A is the field at the new state, at node 1
        tab, _ = self.TABLEAUS[name]
        last = len(tab.b) + 1
        stages = [*range(2, last), *range(last + 1, last + 1 + len(tab.extra))]
        assert len(tab.c) == (stages[-1] if tab.extra else last)
        for s, row in zip(stages, (*tab.A, *tab.extra)):
            assert len(row) == s - 1
            assert abs(math.fsum(row) - tab.c[s - 1]) <= 2e-15, s
        assert tab.c[last - 1] == 1.0

    def test_error_row_sums_to_zero(self):
        # an embedded pair's two weight rows both sum to 1
        assert abs(math.fsum(odesim._DP5.e)) <= 1e-16
        assert len(odesim._DP5.e) == len(odesim._DP5.b) + 1

    def test_continuous_extension_meets_the_step_at_both_ends(self):
        # contd8 at theta = 0 is the step's start state, bit for bit, and at
        # theta = 1 its end state up to the rounding of y + (y_new - y)
        y = (1.5, -0.25)
        k1 = vdp(y)
        y_new, k13, sums = odesim._kernels(2).dop853_dense(vdp, y, k1, 0.3)
        terms = odesim._contd8_terms(0.3, np.array([y, k1, *sums]), np.array([y_new, k13]))
        assert odesim._contd8(0.0, terms).tolist() == list(y)
        at_one = odesim._contd8(1.0, terms)
        assert np.allclose(at_one, y_new, rtol=0.0, atol=4e-16), at_one - y_new


# The per-component step bodies that the generated kernels replaced, kept as
# references: every kernel must reproduce them bit for bit.
def reference_rk4_step(field, y, h):
    k1 = field(y)
    k2 = field(tuple([a + (0.5 * h) * b for a, b in zip(y, k1)]))
    k3 = field(tuple([a + (0.5 * h) * b for a, b in zip(y, k2)]))
    k4 = field(tuple([a + h * b for a, b in zip(y, k3)]))
    return tuple([
        a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ])


def reference_dp_stages(field, y, k1, h):
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = (
        odesim._DP_A
    )
    b1, b3, b4, b5, b6 = odesim._DP_B5
    k2 = field(tuple([a + h * (a21 * c1) for a, c1 in zip(y, k1)]))
    k3 = field(tuple([a + h * (a31 * c1 + a32 * c2) for a, c1, c2 in zip(y, k1, k2)]))
    k4 = field(tuple([
        a + h * (a41 * c1 + a42 * c2 + a43 * c3) for a, c1, c2, c3 in zip(y, k1, k2, k3)
    ]))
    k5 = field(tuple([
        a + h * (a51 * c1 + a52 * c2 + a53 * c3 + a54 * c4)
        for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)
    ]))
    k6 = field(tuple([
        a + h * (a61 * c1 + a62 * c2 + a63 * c3 + a64 * c4 + a65 * c5)
        for a, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)
    ]))
    y_new = tuple([
        a + h * (b1 * c1 + b3 * c3 + b4 * c4 + b5 * c5 + b6 * c6)
        for a, c1, c3, c4, c5, c6 in zip(y, k1, k3, k4, k5, k6)
    ])
    return y_new, k3, k4, k5, k6, field(y_new)


def reference_dp_step(field, y, k1, h, rtol, atol):
    e1, e3, e4, e5, e6, e7 = odesim._DP_E
    y_new, k3, k4, k5, k6, k7 = reference_dp_stages(field, y, k1, h)
    total = 0.0
    for a, b, c1, c3, c4, c5, c6, c7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        q = h * (e1 * c1 + e3 * c3 + e4 * c4 + e5 * c5 + e6 * c6 + e7 * c7) / (
            atol + rtol * max(abs(a), abs(b))
        )
        total += q * q
    return y_new, k7, math.sqrt(total / len(y))


def reference_rk4_kahan(field, y, e, h):
    half, sixth = 0.5 * h, h / 6.0
    k1 = field(y)
    k2 = field(tuple([a + half * b for a, b in zip(y, k1)]))
    k3 = field(tuple([a + half * b for a, b in zip(y, k2)]))
    k4 = field(tuple([a + h * b for a, b in zip(y, k3)]))
    e = [
        c + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for c, b1, b2, b3, b4 in zip(e, k1, k2, k3, k4)
    ]
    new = tuple([a + c for a, c in zip(y, e)])
    return new, tuple([c + (a - b) for c, a, b in zip(e, y, new)])


def reference_stage_sum(weights, stages, i):
    """Component i of the stage sum over the nonzero weights, left to right."""
    terms = [w * k[i] for w, k in zip(weights, stages) if w]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def reference_dop853_dense(field, y, k1, h):
    tab = odesim._DOP853
    stages = [k1]

    def argument(row):
        return tuple([a + h * reference_stage_sum(row, stages, i) for i, a in enumerate(y)])

    for row in tab.A:
        stages.append(field(argument(row)))
    y_new = argument(tab.b)
    stages.append(field(y_new))
    for row in tab.extra:
        stages.append(field(argument(row)))
    sums = tuple(
        tuple([reference_stage_sum(row, stages, i) for i in range(len(y))]) for row in tab.dense
    )
    return y_new, stages[len(tab.b)], sums


REFERENCE = SimpleNamespace(
    rk4=reference_rk4_step, rk4_kahan=reference_rk4_kahan, dp_step=reference_dp_step,
    dop853_dense=reference_dop853_dense,
)


def mixing(y):
    """A field on any number of components that mixes them, so that every
    stage term reaches every component; it runs on complex input, keeps the
    signs of zeros apart and carries NaN and infinity through."""
    d = len(y)
    return tuple([
        -y[i] + 0.5 * y[(i + 1) % d] * y[i - 1] - 0.25 * y[(i + 2) % d] for i in range(d)
    ])


def flat_bits(out):
    """Every number of a (nested) kernel result as one array's bytes, so
    that equal bytes mean equal bits, the signs of zeros included. Every
    NaN is written as numpy's: the sign and payload of a NaN that CPython's
    float arithmetic makes depend on which of its add paths ran (the
    specialised one of a warm loop or the generic one), not on the code."""

    def flat(v):
        return [w for part in v for w in flat(part)] if isinstance(v, (tuple, list)) else [v]

    values = np.array(flat(out))
    parts = values.view(float) if values.dtype == complex else values
    parts[np.isnan(parts)] = np.nan
    return values.tobytes()


def outcome(kernel, *args):
    """A kernel's result as bits, or the exception it raised."""
    try:
        return flat_bits(kernel(*args))
    except Exception as exc:  # the reference's exception is the expectation
        return type(exc), str(exc)


def state(kind, d, rng):
    if kind == "float":
        return tuple(rng.normal(size=d).tolist())
    if kind == "array":
        return rng.normal(size=d)
    if kind == "complex":
        return tuple((rng.normal(size=d) + 1j * rng.normal(size=d)).tolist())
    if kind == "signed-zero":
        return tuple(rng.choice([0.0, -0.0], size=d).tolist())
    return tuple(rng.choice([math.nan, math.inf, -math.inf, 1.5, -0.0], size=d).tolist())


class TestGeneratedKernels:
    @pytest.mark.parametrize("kind", ["float", "array", "complex", "signed-zero", "non-finite"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_kernels_match_the_reference_bodies(self, d, kind):
        # the same operations in the same order: bit for bit, signs of zeros,
        # NaNs and exceptions alike
        kernels = odesim._kernels(d)
        rng = np.random.default_rng(100 * d + len(kind))
        for h in (0.1, 1e-3, -0.37):
            y = state(kind, d, rng)
            k1 = mixing(y)
            cases = [
                (kernels.rk4, REFERENCE.rk4, (mixing, y, h)),
                (kernels.rk4_kahan, REFERENCE.rk4_kahan, (mixing, y, k1, h)),
                (kernels.dp_step, REFERENCE.dp_step, (mixing, y, k1, h, 1e-8, 1e-10)),
                (kernels.dop853_dense, REFERENCE.dop853_dense, (mixing, y, k1, h)),
            ]
            for got, want, args in cases:
                assert outcome(got, *args) == outcome(want, *args), (got.__name__, y, h)
            if kind != "complex":
                got, want = (np.array(k.rk4(mixing, y, h)) for k in (kernels, REFERENCE))
                numbers = ~np.isnan(want)
                assert np.array_equal(np.isnan(got), ~numbers)
                assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))

    def test_public_names_run_the_kernels(self):
        y, h = (0.3, -1.2, 2.5), 0.01
        k1 = mixing(y)
        assert flat_bits(odesim.rk4_step(mixing, y, h)) == flat_bits(REFERENCE.rk4(mixing, y, h))
        assert flat_bits(odesim._dp_step(mixing, y, k1, h, 1e-6, 1e-9)) == flat_bits(
            REFERENCE.dp_step(mixing, y, k1, h, 1e-6, 1e-9)
        )

    def test_kernels_name_their_shape_in_a_traceback(self):
        def broken(y):
            raise FieldEvaluationError("nowhere admissible")

        with pytest.raises(FieldEvaluationError) as info:
            odesim._kernels(3).dop853_dense(broken, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.1)
        assert info.traceback[-2].path == "<iiorbit dop853_dense d=3>"

    INTEGRATORS = {
        "fixed": lambda field: integrate_fixed(field, [1.5, -0.25], 0.0, 2.0, 0.01),
        "dense": lambda field: integrate_dense(field, [1.5, -0.25], 0.0, 2.0, 0.01),
        "adaptive": lambda field: integrate_adaptive(field, [1.5, -0.25], 0.0, 2.0),
    }

    @pytest.mark.parametrize("method", INTEGRATORS)
    def test_runs_match_the_reference(self, monkeypatch, method):
        got = self.INTEGRATORS[method](vdp)
        monkeypatch.setattr(odesim, "_kernels", lambda d: REFERENCE)
        want = self.INTEGRATORS[method](vdp)
        assert np.array_equal(got.times, want.times)
        assert got.states.tobytes() == want.states.tobytes()

    @pytest.mark.parametrize("kind", ["field", "overflow"])
    @pytest.mark.parametrize("stage", range(1, 7))
    @pytest.mark.parametrize("method", INTEGRATORS)
    def test_aborts_match_the_reference(self, monkeypatch, method, stage, kind):
        # the field fails from its call 20 + stage on: after the shape check,
        # the first stage and three adaptive attempts of six, that is stage
        # `stage` of the fourth attempt (a fixed-step run fails in its sixth
        # step, a dense run at its fourth to ninth call of the second step of
        # 15); the adaptive integrator retries shorter steps until its step
        # underflows
        def broken():
            calls = []

            def field(y):
                calls.append(y)
                if len(calls) >= 20 + stage:
                    if kind == "field":
                        raise FieldEvaluationError(f"call {len(calls)}")
                    math.exp(1e4)
                return vdp(y)

            return field

        def aborted():
            with pytest.raises(IntegrationAbort) as info:
                self.INTEGRATORS[method](broken())
            exc, traj = info.value, info.value.trajectory
            return str(exc), exc.abort_time, traj.times.tobytes(), traj.states.tobytes()

        got = aborted()
        monkeypatch.setattr(odesim, "_kernels", lambda d: REFERENCE)
        assert got == aborted()

    def test_import_and_set_up_compile_no_kernel(self):
        # importing the package, loading a scenario and building its bundle
        # leave both kernel caches empty; a run fills them
        code = (
            "from iiorbit import cli, core, odesim; "
            "scn = cli.load_scenario('lti-circle'); cli.check_scenario(scn); "
            "sizes = lambda: (odesim._kernels.cache_info().currsize, "
            "core._field_factory.cache_info().currsize); "
            "print(sizes()); core.augmented_field(cli.build_bundle(scn.bundle)); print(sizes())"
        )
        src = Path(odesim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["(0, 0)", "(0, 1)"]

    def test_a_dense_run_compiles_only_the_kernels_it_calls(self, tmp_path):
        # a fresh process runs a short dense scenario: the augmented state
        # (d = 6) takes dop853_dense steps, and the orbit scouting on the
        # target (d = 2) takes dp_step and rk4; each kernel compiled is
        # called, under its traceback name, and no other is compiled
        code = (
            "import dataclasses, pathlib, sys; from iiorbit import cli, odesim\n"
            "compiled, called = [], set(); make = odesim._compile_factory\n"
            "def compile_factory(source, filename):\n"
            "    factory = make(source, filename); compiled.append(filename)\n"
            "    def traced(**constants):\n"
            "        kernel = factory(**constants)\n"
            "        def call(*args):\n"
            "            called.add(filename); return kernel(*args)\n"
            "        return call\n"
            "    return traced\n"
            "odesim._compile_factory = compile_factory\n"
            "scn = dataclasses.replace(cli.load_scenario('lti-circle'), t_span=(0.0, 2.0))\n"
            "cli.run_scenario(scn, pathlib.Path(sys.argv[1]))\n"
            "print('|'.join(compiled)); print('|'.join(sorted(called)))"
        )
        src = Path(odesim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        compiled, called = (line.split("|") for line in proc.stdout.splitlines())
        assert sorted(compiled) == called == [
            "<iiorbit dop853_dense d=6>", "<iiorbit dp_step d=2>", "<iiorbit rk4 d=2>",
        ]


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

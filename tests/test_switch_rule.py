"""The switch rule of tests/switch_rule.py: its compensated reference and
its verdict."""

import math

import numpy as np

import switch_rule
from iiorbit.odesim import _grid, integrate_fixed

ROTATION = lambda y: (y[1], -y[0])


def test_compensated_reference_does_not_accumulate_rounding():
    # one period of the rotation in 100,000 RK4 steps, whose truncation
    # error is far below rounding: plain RK4 adds one rounding per step,
    # the compensated sum stays at the closed form's own rounding
    period = 2 * math.pi
    plain = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, period, period / 100_000)
    times = _grid(0.0, period, period / 100_000 * switch_rule.SUBSTEPS)
    ref = switch_rule.compensated_reference(ROTATION, [1.0, 0.0], times, switch_rule.SUBSTEPS)
    assert len(ref) == 100_000 // switch_rule.SUBSTEPS + 1
    e_plain, e_ref = (
        float(np.max(np.abs(rows - np.column_stack((np.cos(t), -np.sin(t))))))
        for rows, t in ((plain.states, plain.times), (ref, np.asarray(times)))
    )
    assert e_ref <= 1e-15, e_ref
    assert 10 * e_ref <= e_plain, (e_ref, e_plain)


def test_an_unresolved_gain_fails():
    # dense below RK4, but not by more than twice the reference's resolution
    assert switch_rule.Verdict(delta=1e-12, e_rk4=4e-12, e_dense=2e-12).passed
    assert not switch_rule.Verdict(delta=1e-12, e_rk4=4e-12, e_dense=2.5e-12).passed
    assert not switch_rule.Verdict(delta=0.0, e_rk4=1e-12, e_dense=2e-12).passed


def test_verdicts_on_a_rotation_and_a_stiff_decay():
    # the rotation at dt = 0.002: dense's fifth order wins by about 4.7x;
    # y' = -100 y puts the dense step H = 5 dt at H lambda = -5, past the
    # Dormand-Prince stability interval, while RK4 at dt lambda = -1 is stable
    smooth = switch_rule.judge(ROTATION, [1.0, 0.0], 0.0, 10.0, 0.002)
    assert smooth.passed, smooth
    assert 3.0 < smooth.ratio < 7.0, smooth
    stiff = switch_rule.judge(lambda y: (-100.0 * y[0],), [1.0], 0.0, 0.2, 0.01)
    assert not stiff.passed, stiff
    assert stiff.e_dense > 1.0 > stiff.e_rk4

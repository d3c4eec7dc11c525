"""The switch rule of tests/switch_rule.py: its compensated reference and
its verdict."""

import math

import numpy as np

import switch_rule
from iiorbit import cli
from iiorbit.core import augmented_field
from iiorbit.odesim import _grid, integrate_fixed

ROTATION = lambda y: (y[1], -y[0])


def loop_reference(field, x0, times, substeps):
    """compensated_reference as per-component loops, the form that the
    generated rk4_kahan kernel replaced: the same operations in the same
    order."""
    rows = np.empty((len(times), len(x0)))
    rows[0] = x0
    y = tuple(map(float, x0))
    e = [0.0] * len(y)
    for i in range(1, len(times)):
        h = (times[i] - times[i - 1]) / substeps
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(substeps):
            k1 = field(y)
            k2 = field(tuple([a + half * b for a, b in zip(y, k1)]))
            k3 = field(tuple([a + half * b for a, b in zip(y, k2)]))
            k4 = field(tuple([a + h * b for a, b in zip(y, k3)]))
            e = [
                c + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for c, b1, b2, b3, b4 in zip(e, k1, k2, k3, k4)
            ]
            new = tuple([a + c for a, c in zip(y, e)])
            e = [c + (a - b) for c, a, b in zip(e, y, new)]
            y = new
        rows[i] = y
    return rows


def test_generated_reference_matches_the_loops():
    # the first 200 rows of dcac-steady, whose field mixes all six
    # components: every row bit for bit
    scn = cli.load_scenario("dcac-steady")
    plan = cli.check_scenario(scn)
    field = augmented_field(plan.bundle)
    times = _grid(0.0, 200 * plan.settings["dt"], plan.settings["dt"])
    got = switch_rule.compensated_reference(field, plan.y0, times, switch_rule.SUBSTEPS)
    want = loop_reference(field, plan.y0, times, switch_rule.SUBSTEPS)
    assert len(got) == 201
    assert got.tobytes() == want.tobytes()


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
    # the rotation at dt = 0.02 (H = 0.4): dense's eighth order wins by
    # about 15x, with its error 18 times the reference's resolution (at
    # smaller dt it falls to that resolution); y' = -100 y puts the dense
    # step H = 20 dt at H lambda = -20, past DOP853's stability interval,
    # while RK4 at dt lambda = -1 is stable
    smooth = switch_rule.judge(ROTATION, [1.0, 0.0], 0.0, 10.0, 0.02)
    assert smooth.passed, smooth
    assert 10.0 < smooth.ratio < 20.0, smooth
    assert smooth.e_dense > 10.0 * smooth.delta, smooth
    stiff = switch_rule.judge(lambda y: (-100.0 * y[0],), [1.0], 0.0, 0.2, 0.01)
    assert not stiff.passed, stiff
    assert stiff.e_dense > 1.0 > stiff.e_rk4

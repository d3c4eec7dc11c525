"""Parameter records, preset registry, and per-plant closed-form oracles."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from iiorbit import plants
from iiorbit.core import ParameterError, derivative
from iiorbit.odesim import FieldEvaluationError
from iiorbit.plants import (
    CartPendLinearParams,
    CartPendNonlinearParams,
    IwpParams,
    make_inline,
    make_preset,
    preset_params,
)


class TestRequire:
    # a kernel's flag is one np.bool_ at a single point and an array on a stack
    @pytest.mark.parametrize(
        "flag",
        [np.bool_(False), np.array([True, False, True]), np.array(False)],
        ids=["scalar", "array", "zero-d-array"],
    )
    def test_any_false_flag_raises(self, flag):
        with pytest.raises(FieldEvaluationError, match="^left the region$"):
            plants._require(flag, "left the region")

    @pytest.mark.parametrize(
        "flag", [np.bool_(True), np.array([True, True]), True], ids=["scalar", "array", "bool"]
    )
    def test_true_flag_passes(self, flag):
        assert plants._require(flag, "left the region") is None

    def test_point_flag_is_not_read_with_all(self):
        # a single point's flag is read with bool(), not ndarray.all()
        class Flag:
            def __init__(self, value):
                self.value = value

            def __bool__(self):
                return self.value

            def all(self):
                raise AssertionError("all() called on a point flag")

        plants._require(Flag(True), "left the region")
        with pytest.raises(FieldEvaluationError):
            plants._require(Flag(False), "left the region")


def _trig_grid() -> np.ndarray:
    """Seeded values for the point-aware trig helpers: ordinary and large
    arguments, signed zeros, subnormals, the float neighbours of the
    multiples of pi/2, and the non-finite values."""
    rng = np.random.default_rng(15)
    tiny = np.finfo(float).tiny
    quarter_turns = [j * math.pi / 2 for j in (-4, -3, -2, -1, 1, 2, 3, 4)]
    return np.concatenate([
        rng.uniform(-10.0, 10.0, 4000),
        rng.uniform(-1e6, 1e6, 4000),
        rng.standard_normal(500) * 1e-8,
        [0.0, -0.0, 5e-324, -5e-324, tiny / 2, -tiny / 2, tiny, -tiny, 1e6, -1e6],
        quarter_turns,
        [math.nextafter(h, toward) for h in quarter_turns for toward in (-math.inf, math.inf)],
        [math.nan, -math.nan, math.inf, -math.inf],
    ])


class TestPointTrig:
    # the float path must give numpy's bits: every trajectory byte of a
    # trigonometric plant rests on it, so a libm that disagrees fails here
    @pytest.mark.parametrize(
        "helper,reference", [(plants._sin, np.sin), (plants._cos, np.cos)], ids=["sin", "cos"]
    )
    def test_float_path_matches_numpy_bit_for_bit(self, helper, reference):
        grid = _trig_grid()
        with np.errstate(invalid="ignore"):
            want = reference(grid)
            # one value at a time, as numpy's scalar path computes it
            want_scalar = np.array([reference(v) for v in grid.tolist()])
        got = [helper(v) for v in grid.tolist()]
        assert all(type(c) is float for c in got)
        got = np.array(got)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got.view(np.int64), want_scalar.view(np.int64))

    @pytest.mark.parametrize(
        "helper,reference", [(plants._sin, np.sin), (plants._cos, np.cos)], ids=["sin", "cos"]
    )
    def test_everything_else_goes_to_numpy(self, helper, reference):
        stack = np.linspace(-4.0, 4.0, 9)
        assert np.array_equal(helper(stack), reference(stack))
        for value in (np.float64(0.7), np.array(0.7)):
            got = helper(value)
            assert type(got) is type(reference(value)) and got == reference(value)
        assert type(helper(1)) is np.float64  # an int is not a float


class TestFloatAware:
    # log, tan and power keep numpy's bits on the float path too; only the
    # result type changes
    @pytest.mark.parametrize(
        "helper,reference,args",
        [(plants._log, np.log, ()), (plants._tan, np.tan, ()), (plants._power, np.power, (-3.0,))],
        ids=["log", "tan", "power"],
    )
    def test_float_path_is_numpy_as_a_float(self, helper, reference, args):
        grid = np.abs(_trig_grid())
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = np.array([reference(v, *args) for v in grid.tolist()])
            got = [helper(v, *args) for v in grid.tolist()]
            assert type(helper(np.float64(0.7), *args)) is np.float64
        assert all(type(c) is float for c in got)
        assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))


class TestParameterRecords:
    def test_iwp_restoring_coefficient(self):
        p = IwpParams(m=1.962, b=10.0, k=-1.6, gamma1=2.0, gamma2=1.0)
        # 1 + bk = -15 exactly, so a = 1.962/15
        assert p.a == 1.962 / 15.0
        assert abs(p.a - 0.1308) < 1e-15

    @pytest.mark.parametrize(
        "k,expected",
        [
            (-1.4, 1.962 / 13.0),
            (-1.6, 1.962 / 15.0),
            (-1.8, 1.962 / 17.0),
            (-2.0, 1.962 / 19.0),
        ],
    )
    def test_iwp_slope_sweep_values(self, k, expected):
        p = IwpParams(m=1.962, b=10.0, k=k, gamma1=2.0, gamma2=1.0)
        assert abs(p.a - expected) < 1e-15

    def test_iwp_rejects_shallow_slope(self):
        with pytest.raises(ParameterError, match="k must satisfy"):
            IwpParams(m=1.962, b=10.0, k=-0.05, gamma1=2.0, gamma2=1.0)

    def test_iwp_rejects_nonpositive_gains(self):
        # the gains are judged where they become the z matrix, when the
        # bundle is built: gamma1 = 0 leaves its poles on the imaginary axis
        IwpParams(m=1.962, b=10.0, k=-1.6, gamma1=0.0, gamma2=1.0)
        with pytest.raises(ParameterError, match="not Hurwitz"):
            make_inline("iwp", m=1.962, b=10.0, k=-1.6, gamma1=0.0, gamma2=1.0)
        with pytest.raises(ParameterError, match="m and b must be positive"):
            IwpParams(m=-1.0, b=10.0, k=-1.6, gamma1=2.0, gamma2=1.0)

    def test_cartpend_linear_rejects_shallow_slope(self):
        with pytest.raises(ParameterError, match="k must satisfy"):
            CartPendLinearParams(a1=9.8, a2=1.0, k=-0.9, gamma1=2.0, gamma2=2.0)

    def test_slope_whose_product_rounds_to_minus_one_is_rejected(self):
        # k is the float just below -1/b, but b k rounds to -1.0, so 1 + b k
        # is 0.0 and a = -m/(1 + b k) would divide by zero
        b, k = 8.971307580456251, -0.11146647141810997
        assert k < -1.0 / b and 1.0 + b * k == 0.0
        with pytest.raises(ParameterError, match="k must satisfy"):
            IwpParams(m=1.962, b=b, k=k, gamma1=2.0, gamma2=1.0)
        with pytest.raises(ParameterError, match="k must satisfy"):
            CartPendLinearParams(a1=9.8, a2=b, k=k, gamma1=2.0, gamma2=2.0)

    def test_cartpend_linear_cone_half_width(self):
        p = CartPendLinearParams(a1=9.8, a2=1.0, k=-4.0, gamma1=2.0, gamma2=2.0)
        assert p.beta_star == math.acos(0.25)

    def test_cartpend_nonlinear_rejects_nonpositive_a(self):
        with pytest.raises(ParameterError, match="a must be positive"):
            CartPendNonlinearParams(
                a1=9.8, a2=1.0, a=0.0, a0=0.0, gamma1=1.0, gamma2=1.0
            )
        with pytest.raises(ParameterError):
            CartPendNonlinearParams(
                a1=9.8, a2=1.0, a=-2.0, a0=0.0, gamma1=1.0, gamma2=1.0
            )

    def test_dcac_rejects_nonpositive_fields(self):
        good = dict(R=10.0, C=1e-3, L=1e-3, E=24.0, A=12.0, omega=100 * math.pi,
                    gamma=0.01)
        for field in good:
            bad = dict(good)
            bad[field] = 0.0
            # gamma = 0 makes the z matrix zero, which the bundle rejects
            message = "not Hurwitz" if field == "gamma" else "must be positive"
            with pytest.raises(ParameterError, match=message):
                make_inline("dcac", **bad)


class TestPresetRegistry:
    def test_all_presets_listed(self):
        assert plants.PRESETS == (
            "cartpend-lin-default",
            "cartpend-nl-default",
            "dcac-default",
            "iwp-default",
            "lti-identity",
        )

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="unknown preset"):
            make_preset("no-such-thing")
        with pytest.raises(KeyError, match="unknown preset"):
            preset_params("no-such-thing")

    def test_unknown_inline_kind_raises(self):
        with pytest.raises(KeyError, match="unknown bundle kind"):
            make_inline("pendulum-on-a-train")

    def test_override_rebuilds_derived_values(self):
        # a = -m/(1 + b k) is the target's restoring coefficient, and
        # sin(pi/2) is 1.0 in floats, so alpha there reads -a
        bundle = make_preset("iwp-default", k=-1.8)
        assert abs(bundle.alpha((math.pi / 2, 0.0))[1] + 1.962 / 17.0) < 1e-15

    def test_override_runs_validation(self):
        with pytest.raises(ParameterError, match="k must satisfy"):
            make_preset("iwp-default", k=-0.05)

    @pytest.mark.parametrize(
        "name,overrides,eigenvalues",
        [
            ("iwp-default", {"gamma1": -1.0}, r"0.5\+0.866025j, 0.5-0.866025j"),
            ("cartpend-lin-default", {"gamma1": -3.0, "gamma2": 2.0}, "(1, 2|2, 1)"),
            ("cartpend-nl-default", {"gamma1": 0.0}, r"-?0\+1j, -?0-1j"),
            ("dcac-default", {"gamma": -0.01}, "240, 240"),
        ],
    )
    def test_non_hurwitz_gains_raise(self, name, overrides, eigenvalues):
        # no record checks its gains; the bundle's Hurwitz check does
        kind = make_preset(name).name
        with pytest.raises(ParameterError, match=f"^z_matrix of {kind} is not Hurwitz: "
                                                 f"eigenvalues {eigenvalues},"):
            make_preset(name, **overrides)

    def test_non_hurwitz_run_is_a_constraint_violation(self, tmp_path):
        # a fresh interpreter, so an uncaught exception shows up as a traceback
        path = tmp_path / "unstable.yaml"
        path.write_text(
            "name: unstable\n"
            "bundle: {preset: iwp-default, overrides: {gamma1: -1.0}}\n"
            "x0: [0.1, -0.16, 0.0, 0.0]\n"
            "t_span: [0.0, 0.1]\n"
            "integrator: {method: fixed, dt: 0.01}\n",
            encoding="utf-8",
        )
        src = Path(plants.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "iiorbit.cli", "run", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("constraint violated: z_matrix of iwp is not Hurwitz"), (
            proc.stderr
        )

    def test_unknown_override_field_raises(self):
        # the record's own constructor rejects the name, as on the inline path
        with pytest.raises(TypeError, match="mass"):
            make_preset("iwp-default", mass=2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "name,field",
        [
            (name, f.name)
            for name in plants.PRESETS
            for f in dataclasses.fields(preset_params(name))
            if isinstance(getattr(preset_params(name), f.name), float)
        ],
    )
    def test_non_finite_field_raises(self, name, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            make_preset(name, **{field: value})

    @pytest.mark.parametrize(
        "name,field",
        [(name, f.name) for name in plants.PRESETS for f in dataclasses.fields(preset_params(name))],
    )
    def test_bool_field_raises(self, name, field):
        # True would pass every inequality as 1
        with pytest.raises(TypeError, match=f"{field} must be a number, not a bool"):
            make_preset(name, **{field: True})

    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1)])
    def test_non_finite_lti_matrix_raises(self, entry):
        P = np.eye(2)
        P[entry] = math.nan
        with pytest.raises(ParameterError, match="P must be finite"):
            make_preset("lti-identity", P=P)

    def test_inline_matches_preset(self):
        inline = make_inline("iwp", m=1.962, b=10.0, k=-1.6, gamma1=2.0, gamma2=1.0)
        preset = make_preset("iwp-default")
        xi = (math.pi / 2, 0.3)
        assert inline.alpha(xi) == preset.alpha(xi)
        x = np.array([0.4, -0.3, 0.2, 0.1])
        assert np.allclose(inline.phi(x), preset.phi(x))


class TestIwpBundle:
    def test_first_integral_values(self):
        # pendulum energy 0.5 xi2^2 - a cos(xi1)
        p = IwpParams(m=1.962, b=10.0, k=-1.6, gamma1=2.0, gamma2=1.0)
        H = plants.make_iwp(p).first_integral
        assert H(np.array([0.0, 0.0])) == -p.a
        assert abs(H(np.array([math.pi / 2, 1.0])) - 0.5) < 1e-15
        expected = 0.5 * 0.4**2 - p.a * math.cos(0.7)
        assert abs(H(np.array([0.7, -0.4])) - expected) < 1e-15

    def test_target_is_pendulum(self):
        bundle = make_preset("iwp-default")
        a = preset_params("iwp-default").a
        for s in np.linspace(-3.0, 3.0, 11):
            xdd = bundle.alpha(np.array([s, 0.0]))[1]
            assert abs(xdd + a * math.sin(s)) < 1e-15


class TestCartPendLinearBundle:
    def test_potential_is_antiderivative_of_alpha(self):
        # the first integral at zero velocity is the on-manifold potential V,
        # which must vanish at the upright and satisfy -V'(s) = alpha2(s)
        bundle = make_preset("cartpend-lin-default")
        H, alpha = bundle.first_integral, bundle.alpha
        assert H(np.array([0.0, 0.0])) == 0.0
        h = 1e-6
        s_max = preset_params("cartpend-lin-default").beta_star - 0.1
        for s in np.linspace(-s_max, s_max, 61):
            dV = (H(np.array([s + h, 0.0])) - H(np.array([s - h, 0.0]))) / (2 * h)
            want = alpha(np.array([s, 0.0]))[1]
            assert abs(-dV - want) < 1e-6, f"s={s}: {-dV} vs {want}"

    def test_target_linearization_at_origin(self):
        bundle = make_preset("cartpend-lin-default")
        params = preset_params("cartpend-lin-default")
        a1, a2, k = params.a1, params.a2, params.k
        h = 1e-7
        slope = (
            bundle.alpha(np.array([h, 0.0]))[1]
            - bundle.alpha(np.array([-h, 0.0]))[1]
        ) / (2 * h)
        assert abs(slope - a1 / (1.0 + k * a2)) < 1e-6
        assert abs(slope + 9.8 / 3.0) < 1e-6

    def test_control_raises_outside_cone(self):
        bundle = make_preset("cartpend-lin-default")
        beta_star = preset_params("cartpend-lin-default").beta_star
        x = np.array([beta_star + 0.01, 0.0, 0.0, 0.0])
        with pytest.raises(FieldEvaluationError, match="admissible cone"):
            bundle.v(x, np.zeros(2))
        # and stays finite just inside
        x_in = np.array([beta_star - 0.01, 0.0, 0.0, 0.0])
        assert np.all(np.isfinite(bundle.v(x_in, np.zeros(2))))

    def test_exact_cone_edge_raises_a_field_error(self):
        # 1 + k a2 cos(s) is exactly 0.0 at this float for k = -4, a2 = 1; a
        # float divisor must not turn that into ZeroDivisionError
        bundle = make_preset("cartpend-lin-default")
        s = 1.318116071652818
        assert 1.0 + (-4.0 * 1.0) * math.cos(s) == 0.0
        with pytest.raises(FieldEvaluationError, match="cone edge"):
            bundle.alpha((s, 0.0))
        with pytest.raises(FieldEvaluationError, match="admissible cone"):
            bundle.v((s, 0.0, 0.0, 0.0), (0.0, 0.0))

    def test_singularity_margin(self):
        # -(1 + k a2 cos(x1)), evaluated over a stack of states
        bundle = make_preset("cartpend-lin-default")
        beta_star = preset_params("cartpend-lin-default").beta_star
        X = np.array([[0.0, 0.0, 0.0, 0.0], [beta_star, 0.0, 0.0, 0.0]])
        margins = bundle.singularity_margin(X.T)
        assert margins.shape == (2,)
        assert abs(margins[0] - 3.0) < 1e-15
        assert margins[1] < 1e-12
        assert bundle.singularity_margin(np.array([beta_star + 0.01, 0.0, 0.0, 0.0])) < 0.0

    def test_singularity_margin_absent_on_other_bundles(self):
        for name in ("lti-identity", "iwp-default", "dcac-default"):
            assert make_preset(name).singularity_margin is None


class TestCartPendNonlinearBundle:
    # pi(xi) = (xi1, k(xi1), xi2, k'(xi1) xi2), so the slaving curve k(s) is
    # pi((s, 0))[1] and its slope k'(s) is pi((s, 1))[3], both exactly; k''
    # lives only inside v, and TestValidateBundle pins it with a mutant

    def test_slaving_curve_flattens_denominator(self):
        # 1 + a2 k'(s) cos(s) must collapse to the constant -a for every s
        bundle = make_preset("cartpend-nl-default")
        a2 = 1.0
        for s in np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 101):
            kprime = bundle.pi((s, 1.0))[3]
            assert abs(1.0 + a2 * kprime * math.cos(s) + 2.0) < 1e-12

    def test_slaving_curve_through_offset(self):
        bundle = make_preset("cartpend-nl-default")
        assert bundle.pi((0.0, 0.0))[1] == 0.0
        shifted = make_inline(
            "cartpend-nonlinear", a1=9.8, a2=1.0, a=2.0, a0=0.7, gamma1=1.0,
            gamma2=1.0,
        )
        assert shifted.pi((0.0, 0.0))[1] == 0.7

    def test_slaving_curve_derivative_consistency(self):
        # the complex-step derivative of k(s) = pi((s, .))[1] is k'(s)
        bundle = make_preset("cartpend-nl-default")
        for s in (-1.2, -0.5, 0.0, 0.3, 1.1):
            kprime = bundle.pi((s, 1.0))[3]
            slope = derivative(bundle.pi, (s, 1.0), (1.0, 0.0))[1]
            assert abs(slope - kprime) < 1e-13 * max(1.0, abs(kprime))

    def test_singularity_margin(self):
        # distance of the link angle from the domain edge pi/2
        bundle = make_preset("cartpend-nl-default")
        X = np.array([[0.0, 0.0, 0.0, 0.0], [-1.0, 2.0, 0.5, 0.0]])
        assert np.array_equal(bundle.singularity_margin(X.T), [math.pi / 2, math.pi / 2 - 1.0])

    def test_angle_domain_enforced(self):
        bundle = make_preset("cartpend-nl-default")
        for s in (math.pi / 2, math.pi / 2 + 0.1, -math.pi / 2):
            with pytest.raises(FieldEvaluationError, match="outside"):
                bundle.pi((s, 0.0))
        with pytest.raises(FieldEvaluationError):
            bundle.pi(np.array([1.6, 0.0]))


class TestDcAcBundle:
    def test_on_orbit_duty_cycle_magnitude(self):
        # with z = 0 and the state on the target circle, the commanded duty
        # cycle reduces to a rotation-invariant vector of known magnitude
        bundle = make_preset("dcac-default")
        p = preset_params("dcac-default")
        expected = (p.A / p.E) * math.hypot(
            1.0 - p.L * p.C * p.omega**2, p.L * p.omega / p.R
        )
        assert abs(expected - 0.4509256539391283) < 1e-12
        for theta in np.linspace(0.0, 2 * math.pi, 9):
            xi = p.A * np.array([math.cos(theta), math.sin(theta)])
            u = bundle.v(bundle.pi(xi), np.zeros(2))
            assert abs(np.linalg.norm(u) - expected) < 1e-12

    def test_duty_cycle_within_limit_on_orbit(self):
        bundle = make_preset("dcac-default")
        assert bundle.u_limit == 1.0
        xi = np.array([12.0, 0.0])
        u = bundle.v(bundle.pi(xi), np.zeros(2))
        assert np.max(np.abs(u)) < 1.0

    def test_target_circle_is_invariant(self):
        bundle = make_preset("dcac-default")
        A = preset_params("dcac-default").A
        for theta in (0.1, 1.7, 3.0, 5.5):
            xi = A * np.array([math.cos(theta), math.sin(theta)])
            radial = float(xi @ bundle.alpha(xi))
            assert abs(radial) < 1e-9 * A * A

    def test_no_first_integral_recorded(self):
        bundle = make_preset("dcac-default")
        assert bundle.first_integral is None


def test_import_does_not_load_scipy():
    src = Path(plants.__file__).resolve().parents[1]
    code = "import sys, iiorbit; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_export_resolves():
    import iiorbit

    missing = [name for name in iiorbit.__all__ if not hasattr(iiorbit, name)]
    assert missing == []

import dataclasses
import functools
import math
import operator

import numpy as np
import pytest

from iiorbit.core import (
    ControlAffineSystem,
    Controller,
    IandIBundle,
    ImmersionMap,
    ImplicitManifold,
    TargetDynamics,
    ValidationReport,
    admissible_mask,
    as_array,
    augmented_field,
    closed_loop_field,
    constraint_residual,
    derivative,
    evaluate,
    fbi_residual,
    manifold_residual,
    on_manifold_control,
    validate_bundle,
)
from iiorbit.odesim import FieldEvaluationError, IntegrationAbort, integrate_fixed, rk4_step
from iiorbit import core, plants


def _central_difference(kernel, x, v):
    """Reference derivative of kernel at x along v, per row: central
    differences with step 1e-6 max(1, |x|) / |v|."""
    norm = functools.partial(np.linalg.norm, axis=-1, keepdims=True)
    step = 1e-6 * np.maximum(1.0, norm(x)) / norm(v)
    return (evaluate(kernel, x + step * v) - evaluate(kernel, x - step * v)) / (2.0 * step)


def _grid_and_directions(bundle, which, count=200, seed=13):
    """Seeded points of pi's or phi's sample box, with pi's derivative taken
    along alpha and phi's along random directions."""
    rng = np.random.default_rng(seed)
    if which == "pi":
        xi = rng.uniform(*bundle.xi_sample_box.T, size=(count, bundle.target.p))
        return bundle.immersion.pi, xi, evaluate(bundle.target.alpha, xi)
    x = rng.uniform(*bundle.x_sample_box.T, size=(count, bundle.plant.n))
    x = x[admissible_mask(bundle, x)]
    return bundle.manifold.phi, x, rng.normal(size=x.shape)


class TestDerivative:
    def test_analytic_case(self):
        def fn(x):
            return (x[0] * x[0] * x[1], np.sin(x[1]))

        x, v = np.array([1.3, -0.4]), np.array([0.7, -1.1])
        exact = [2 * 1.3 * -0.4 * 0.7 + 1.3**2 * -1.1, math.cos(-0.4) * -1.1]
        assert np.max(np.abs(derivative(fn, x, v) - exact)) < 1e-15

    @pytest.mark.parametrize("name", ["lti-identity", "iwp-default", "cartpend-lin-default"])
    @pytest.mark.parametrize("which", ["pi", "phi"])
    def test_linear_kernels_are_exact(self, bundles, name, which):
        # D pi(x) v = pi(v) for a linear pi, bit for bit
        kernel, x, v = _grid_and_directions(bundles[name], which)
        assert np.array_equal(derivative(kernel, x, v), evaluate(kernel, v))

    @pytest.mark.parametrize("name", plants.PRESETS)
    @pytest.mark.parametrize("which", ["pi", "phi"])
    def test_matches_central_differences(self, bundles, name, which):
        kernel, x, v = _grid_and_directions(bundles[name], which)
        got, want = derivative(kernel, x, v), _central_difference(kernel, x, v)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-6

    @pytest.mark.parametrize("name", plants.PRESETS)
    @pytest.mark.parametrize("which", ["pi", "phi"])
    def test_point_matches_rows(self, bundles, name, which):
        # numpy's complex loops round scalars and arrays differently, so the
        # two agree to rounding, not bit for bit
        kernel, x, v = _grid_and_directions(bundles[name], which, count=20)
        rows = derivative(kernel, x, v)
        points = np.array([derivative(kernel, xk, vk) for xk, vk in zip(x, v)])
        np.testing.assert_allclose(points, rows, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", plants.PRESETS)
    def test_through_the_closed_loop(self, bundles, name):
        # the complex step through every preset's augmented field, its cone
        # and domain tests included: rows and points raise nothing, the real
        # part of the rows is the float evaluation (to rounding: numpy's
        # complex division rounds it differently), and the derivative
        # matches central differences
        bundle, h = bundles[name], 2.0**-100
        field = augmented_field(bundle)
        rng = np.random.default_rng(17)
        x = rng.uniform(*bundle.x_sample_box.T, size=(40, bundle.plant.n))
        x = x[admissible_mask(bundle, x)]
        y = np.hstack([x, rng.uniform(-0.5, 0.5, size=(len(x), bundle.z_dim))])
        v = rng.normal(size=y.shape)
        real = evaluate(field, y)
        np.testing.assert_allclose(
            evaluate(field, y + 1j * (h * v)).real, real, rtol=1e-14, atol=1e-14 * np.abs(real).max()
        )
        rows = derivative(field, y, v)
        points = np.array([derivative(field, yk, vk) for yk, vk in zip(y, v)])
        np.testing.assert_allclose(points, rows, rtol=1e-13, atol=1e-13 * np.abs(rows).max())
        want = _central_difference(field, y, v)
        assert np.max(np.abs(rows - want) / np.maximum(1.0, np.abs(want))) < 1e-6


class TestResiduals:
    def test_identities_on_small_grids(self, bundles):
        rng = np.random.default_rng(7)
        for bundle in bundles.values():
            lo, hi = bundle.xi_sample_box[:, 0], bundle.xi_sample_box[:, 1]
            for _ in range(50):
                xi = rng.uniform(lo, hi)
                assert np.max(np.abs(fbi_residual(bundle, xi))) < 1e-9
                assert np.max(np.abs(manifold_residual(bundle, xi))) < 1e-12
                assert np.max(np.abs(constraint_residual(bundle, xi))) < 1e-9

    def test_pinv_matches_closed_form(self, bundles):
        rng = np.random.default_rng(11)
        for bundle in bundles.values():
            if bundle.closed_form_c is None:
                continue
            lo, hi = bundle.xi_sample_box[:, 0], bundle.xi_sample_box[:, 1]
            for _ in range(50):
                xi = rng.uniform(lo, hi)
                c_pinv = on_manifold_control(bundle, xi)
                c_closed = np.atleast_1d(bundle.closed_form_c(xi))
                assert np.max(np.abs(c_pinv - c_closed)) < 1e-10

    def test_rank_deficient_g_rejected(self, bundles):
        # the second column is zero, so g has rank one at every point
        good = bundles["lti-identity"]
        G = ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (0.0, 0.0))
        plant = dataclasses.replace(good.plant, g=lambda x: G)
        bad = dataclasses.replace(good, plant=plant)
        with pytest.raises(ValueError, match="smallest singular value 0.000e"):
            fbi_residual(bad, [0.3, -0.2])


def _mistargeted(bundle, make_alpha):
    """The bundle with its target field replaced; plant, immersion, manifold
    and feedback are unchanged."""
    return dataclasses.replace(
        bundle, target=dataclasses.replace(bundle.target, alpha=make_alpha(bundle))
    )


# design errors that leave pi and phi consistent: the iwp target's
# restoring term and the whole dcac target field slightly off
MISTARGETED = {
    "iwp-default": lambda b: lambda xi: (xi[1], -1.001 * b.info["a"] * plants._sin(xi[0])),
    "dcac-default": lambda b: lambda xi: tuple(1.0001 * c for c in b.target.alpha(xi)),
}


class TestImmersionResidual:
    @pytest.mark.parametrize("name", sorted(MISTARGETED))
    def test_mistargeted_design_fails_on_the_immersion_residual(self, bundles, name):
        report = validate_bundle(_mistargeted(bundles[name], MISTARGETED[name]))
        failures = report.failures()
        assert failures and failures[0].startswith("immersion residual"), failures
        assert not [msg for msg in failures if "manifold" in msg]

    @pytest.mark.parametrize("name", sorted(MISTARGETED))
    def test_norm_is_that_of_the_annihilated_mismatch(self, bundles, name):
        bundle = _mistargeted(bundles[name], MISTARGETED[name])
        box = bundle.xi_sample_box
        xi = np.random.default_rng(5).uniform(box[:, 0], box[:, 1], size=(500, 2))
        x = evaluate(bundle.immersion.pi, xi)
        mismatch = evaluate(bundle.plant.f, x) - derivative(
            bundle.immersion.pi, xi, evaluate(bundle.target.alpha, xi)
        )
        # orthonormal columns spanning the left null space of g
        null = np.linalg.svd(evaluate(bundle.plant.g, x))[0][..., bundle.plant.m:]
        expected = np.linalg.norm(np.einsum("...ji,...j->...i", null, mismatch), axis=-1)
        residual = fbi_residual(bundle, xi)
        assert residual.shape == (500, bundle.plant.n)
        np.testing.assert_allclose(np.linalg.norm(residual, axis=-1), expected, rtol=1e-9, atol=0.0)


class TestValidateBundle:
    def test_all_presets_pass(self, bundles):
        for bundle in bundles.values():
            report = validate_bundle(bundle, grid_size=300, seed=3)
            assert report.passed, report.failures()

    def test_report_text_roundtrip_keys(self, bundles):
        report = validate_bundle(bundles["iwp-default"], grid_size=50, seed=1)
        text = report.to_text()
        assert "max_immersion_residual" in text
        assert text.strip().endswith("status: pass")

    def test_broken_immersion_is_named(self, bundles):
        good = bundles["iwp-default"]

        def warped_pi(xi):
            x = good.immersion.pi(xi)
            return (x[0], x[1] + 0.01, x[2], x[3])

        warped = ImmersionMap(pi=warped_pi)
        bad = IandIBundle(
            name=good.name,
            plant=good.plant,
            target=good.target,
            immersion=warped,
            manifold=good.manifold,
            controller=good.controller,
            xi_sample_box=good.xi_sample_box,
            x_sample_box=good.x_sample_box,
            closed_form_c=good.closed_form_c,
            z_dynamics=good.z_dynamics,
            xi_projection=good.xi_projection,
            angle_indices=good.angle_indices,
            section_index=good.section_index,
            info=good.info,
        )
        report = validate_bundle(bad, grid_size=50, seed=1)
        assert not report.passed
        assert any("manifold" in msg or "immersion" in msg for msg in report.failures())

    @pytest.mark.parametrize("name", ["iwp-default", "dcac-default"])
    @pytest.mark.parametrize(
        "part,attr,named",
        [
            ("immersion", "pi", "immersion residual"),
            ("manifold", "phi", "off-manifold dynamics mismatch"),
        ],
    )
    def test_kernel_dropping_the_imaginary_part_fails(self, bundles, name, part, attr, named):
        # the same real values, but a zero complex-step derivative
        good = bundles[name]
        record = getattr(good, part)
        kernel = getattr(record, attr)
        real = dataclasses.replace(record, **{attr: lambda y: tuple(map(np.real, kernel(y)))})
        failures = validate_bundle(dataclasses.replace(good, **{part: real})).failures()
        assert failures and failures[0].startswith(named), failures

    @pytest.mark.parametrize(
        "field,named",
        [
            ("max_fbi", "immersion residual"),
            ("max_z_consistency_err", "off-manifold dynamics mismatch"),
            ("max_closed_form_c_err", "closed-form control mismatch"),
            ("min_g_margin", "input-matrix rank margin"),
        ],
    )
    def test_nan_is_a_failure(self, bundles, field, named):
        # NaN compares false with every tolerance, so it must not read as a pass
        good = validate_bundle(bundles["iwp-default"], grid_size=20, seed=1)
        assert good.passed
        report = dataclasses.replace(good, **{field: math.nan})
        assert not report.passed
        assert [msg for msg in report.failures() if msg.startswith(named)], report.failures()
        assert "status: FAIL" in report.to_text()


class TestClosedLoop:
    def test_lti_field_matches_matrix(self, bundles):
        bundle = bundles["lti-identity"]
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        A_cl = np.block([[np.zeros((2, 2)), np.eye(2)], [J, J - np.eye(2)]])
        fld = closed_loop_field(bundle)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=4)
            assert np.allclose(fld(x), A_cl @ x, atol=1e-12)

    def test_manifold_invariance_along_closed_loop(self, bundles):
        # starting from z(0) = phi(x0), the augmented z must track phi(x(t))
        # the converter runs at 50 Hz, so it needs a much finer step than the
        # mechanical examples to keep the RK4 truncation error below the bar
        cases = {
            "lti-identity": (12.0, 1e-3, [1.0, 0.0, 0.1, -1.0]),
            "iwp-default": (40.0, 1e-3, [3 * math.pi / 4, math.pi / 3, 0.0, 0.0]),
            "cartpend-lin-default": (20.0, 1e-3, [math.pi / 5, 0.0, math.pi / 10, 0.0]),
            "cartpend-nl-default": (20.0, 1e-3, [3 * math.pi / 10, -math.pi / 36, 0.0, 0.0]),
            "dcac-default": (0.05, 2e-6, [12.0, 0.0, 2.2, -3.7699111843077517]),
        }
        for name, (t1, dt, x0) in cases.items():
            bundle = bundles[name]
            x0 = np.asarray(x0)
            phi = bundle.manifold.phi
            y0 = np.concatenate([x0, np.atleast_1d(phi(x0))])
            traj = integrate_fixed(augmented_field(bundle), y0, 0.0, t1, dt)
            n = bundle.plant.n
            worst = 0.0
            for row in traj.states[:: max(1, len(traj) // 500)]:
                worst = max(worst, float(np.max(np.abs(row[n:] - phi(row[:n])))))
            assert worst < 1e-7, f"{name}: invariance violated by {worst}"

    def test_augmented_z_block_matches_closed_form(self, bundles):
        # literal d(phi)/dt pushforward agrees with the declared z dynamics
        # when evaluated on the manifold z = phi(x)
        rng = np.random.default_rng(9)
        for bundle in bundles.values():
            fld = augmented_field(bundle)
            n = bundle.plant.n
            lo, hi = bundle.x_sample_box[:, 0], bundle.x_sample_box[:, 1]
            tried = 0
            for _ in range(200):
                if tried >= 25:
                    break
                x = rng.uniform(lo, hi)
                if not admissible_mask(bundle, x):
                    continue
                tried += 1
                z = np.atleast_1d(bundle.manifold.phi(x))
                y = np.concatenate([x, z])
                ydot = fld(y)
                zdot_literal = derivative(bundle.manifold.phi, x, ydot[:n])
                assert np.max(np.abs(ydot[n:] - zdot_literal)) < 1e-9

    @pytest.mark.parametrize("name", plants.PRESETS)
    def test_augmented_field_matches_reference_composition(self, bundles, name):
        # f_i + g_i u summed left to right, then the declared z dynamics, bit
        # for bit and with the sign of every zero
        bundle = bundles[name]
        n, f, g, v = bundle.plant.n, bundle.plant.f, bundle.plant.g, bundle.controller.v

        def reference(y):
            x, z = y[:n], y[n:]
            u = v(x, z)
            xdot = [fi + functools.reduce(operator.add, map(operator.mul, gi, u))
                    for fi, gi in zip(f(x), g(x))]
            return xdot + list(bundle.z_dynamics(x, z))

        rng = np.random.default_rng(17)
        X = rng.uniform(*bundle.x_sample_box.T, size=(300, n))
        X = X[admissible_mask(bundle, X)][:200]
        Y = np.hstack([X, rng.normal(size=(len(X), bundle.z_dim))])
        Y[:3, n:] = [[0.0] * bundle.z_dim, [-0.0] * bundle.z_dim, [1.0] + [-0.0] * (bundle.z_dim - 1)]
        Y[3:5, :n] = [[-0.0] * n, [0.0] * n]
        fld = augmented_field(bundle)
        for y in map(tuple, Y.tolist()):
            got, want = np.array(fld(y), dtype=float), np.array(reference(y), dtype=float)
            assert np.array_equal(got, want), y
            assert np.array_equal(np.signbit(got), np.signbit(want)), y

    @pytest.mark.parametrize("name", plants.PRESETS)
    def test_rk4_step_stays_in_python_floats(self, bundles, name):
        # a numpy scalar anywhere in a stage would make every later stage
        # sum run in numpy's slower scalar arithmetic
        bundle = bundles[name]
        rng = np.random.default_rng(23)
        X = rng.uniform(*(0.5 * bundle.x_sample_box.T), size=(20, bundle.plant.n))
        x = tuple(X[admissible_mask(bundle, X)][0].tolist())
        z = tuple(np.atleast_1d(bundle.manifold.phi(x)).tolist())
        y = rk4_step(augmented_field(bundle), x + z, 1e-3)
        assert [type(c) for c in y] == [float] * len(y)

    def test_stage_overflow_to_inf_aborts_as_non_finite(self, bundles):
        # the second stage puts x1 at 0.5 h 1e308 = inf; sin(inf) must read
        # as NaN and end the run as a non-finite state, not raise ValueError
        field = augmented_field(bundles["iwp-default"])
        with pytest.raises(IntegrationAbort, match="^non-finite state at t=10.0$") as info:
            integrate_fixed(field, [0.0, 0.0, 1e308, 0.0, 0.0, 0.0], 0.0, 10.0, 10.0)
        assert len(info.value.trajectory) == 1


def _fold_rate(bundle, x, z):
    """f_i + g_i u with the row product written as the _dot fold."""
    u = bundle.controller.v(x, z)
    g = bundle.plant.g(x)
    return tuple(
        fi + functools.reduce(operator.add, map(operator.mul, gi, u))
        for fi, gi in zip(bundle.plant.f(x), g)
    )


def _three_input_bundle(template):
    """A toy plant with three inputs: x' = (x2, -x1 + u1 + u2 + u3, u1 - u2,
    u3 x1), the other parts borrowed from a two-input design."""
    plant = ControlAffineSystem(
        n=4,
        m=3,
        f=lambda x: (x[1], -x[0], 0.0, 0.0),
        g=lambda x: ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, -1.0, 0.0), (0.0, 0.0, x[0])),
    )
    return dataclasses.replace(
        template,
        name="three-input",
        plant=plant,
        controller=Controller(v=lambda x, z: (0.1 * z[0], -0.3 * z[1], 0.7 * x[3])),
    )


class TestPlantRate:
    @pytest.mark.parametrize("name", ["lti-identity", "dcac-default"])
    def test_two_inputs_match_the_fold_at_points(self, bundles, name, monkeypatch):
        # the written-out two-input sum is the fold's left-to-right sum, bit
        # for bit and with the sign of every zero, and the fold is not run
        bundle = bundles[name]
        folds = []
        monkeypatch.setattr(core, "_dot", lambda row, u: folds.append(1))
        rate = core._plant_rate(bundle)
        rng = np.random.default_rng(23)
        X = rng.uniform(*bundle.x_sample_box.T, size=(1000, bundle.plant.n))
        Z = rng.normal(size=(1000, bundle.z_dim))
        Z[:2] = [[0.0, -0.0], [-0.0, -0.0]]
        for x, z in zip(map(tuple, X.tolist()), map(tuple, Z.tolist())):
            got = np.array(rate(x, z), dtype=float)
            want = np.array(_fold_rate(bundle, x, z), dtype=float)
            assert np.array_equal(got, want), (x, z)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (x, z)
        assert folds == []

    @pytest.mark.parametrize("name", ["lti-identity", "dcac-default"])
    def test_two_inputs_match_the_fold_on_a_stack(self, bundles, name):
        # the (n, N) stack validate_bundle passes
        bundle = bundles[name]
        rng = np.random.default_rng(29)
        X = rng.uniform(*bundle.x_sample_box.T, size=(1000, bundle.plant.n))
        Z = evaluate(bundle.manifold.phi, X) + rng.normal(size=(1000, bundle.z_dim))
        got = evaluate(core._plant_rate(bundle), X, Z)
        want = as_array(_fold_rate(bundle, X.T, Z.T), (1000,))
        assert got.shape == (1000, bundle.plant.n)
        assert np.array_equal(got, want)

    def test_three_inputs_run_through_the_fold(self, bundles, monkeypatch):
        bundle = _three_input_bundle(bundles["lti-identity"])
        folds = []
        dot = core._dot
        monkeypatch.setattr(core, "_dot", lambda row, u: folds.append(1) or dot(row, u))
        x, z = (0.5, -1.25, 2.0, 0.75), (0.3, -0.7)
        u1, u2, u3 = 0.1 * z[0], -0.3 * z[1], 0.7 * x[3]
        want = (
            x[1] + (0.0 * u1 + 0.0 * u2 + 0.0 * u3),
            -x[0] + (1.0 * u1 + 1.0 * u2 + 1.0 * u3),
            0.0 + (1.0 * u1 + -1.0 * u2 + 0.0 * u3),
            0.0 + (0.0 * u1 + 0.0 * u2 + x[0] * u3),
        )
        assert core._plant_rate(bundle)(x, z) == want
        assert len(folds) == 4
        traj = integrate_fixed(closed_loop_field(bundle), [0.5, -1.25, 2.0, 0.75], 0.0, 0.1, 0.01)
        assert np.all(np.isfinite(traj.states))


class TestKernels:
    @pytest.mark.parametrize("name", plants.PRESETS)
    def test_stack_matches_row_by_row(self, bundles, name):
        # one kernel serves single points and stacks, bit for bit
        bundle = bundles[name]
        rng = np.random.default_rng(21)

        def grid(box):
            return rng.uniform(box[:, 0], box[:, 1], size=(64, len(box)))

        X = grid(bundle.x_sample_box)
        X = X[admissible_mask(bundle, X)]
        Z = rng.normal(size=(len(X), bundle.z_dim))
        Xi = grid(bundle.xi_sample_box)
        kernels = {
            "f": (bundle.plant.f, X),
            "g": (bundle.plant.g, X),
            "alpha": (bundle.target.alpha, Xi),
            "first_integral": (bundle.target.first_integral, Xi),
            "pi": (bundle.immersion.pi, Xi),
            "phi": (bundle.manifold.phi, X),
            "v": (bundle.controller.v, X, Z),
            "closed_form_c": (bundle.closed_form_c, Xi),
            "z_dynamics": (bundle.z_dynamics, X, Z),
            "singularity_margin": (bundle.singularity_margin, X),
        }
        for label, (kernel, *args) in kernels.items():
            if kernel is None:
                continue
            rows = [
                as_array(kernel(*(tuple(a[i].tolist()) for a in args)))
                for i in range(len(args[0]))
            ]
            assert np.array_equal(evaluate(kernel, *args), np.array(rows)), f"{name}: {label}"


def _link_angles(beta_star: float) -> list:
    """Edge values for the link angle, each with its two float neighbours."""
    edges = [math.nan]
    for c in (math.inf, 0.0, beta_star, math.pi / 2):
        edges += [c, -c]
    return [s for c in edges for s in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))]


class TestAdmissibleMask:
    @pytest.mark.parametrize("name", ["cartpend-lin-default", "cartpend-nl-default"])
    def test_mask_is_where_the_feedback_does_not_raise(self, bundles, name):
        bundle = bundles[name]
        rng = np.random.default_rng(33)
        X = rng.uniform(-3.0, 3.0, size=(400, 4))
        X[:, 0] = rng.uniform(-2.0, 2.0, size=400)
        beta_star = plants.preset_params("cartpend-lin-default").beta_star
        edge = rng.uniform(-1.0, 1.0, size=(len(_link_angles(beta_star)), 4))
        edge[:, 0] = _link_angles(beta_star)
        X = np.vstack([X, edge])
        z = (0.3, -0.2)
        kernels = [bundle.controller.v]
        if name == "cartpend-nl-default":
            kernels.append(lambda x, z: bundle.manifold.phi(x))
        flags = []
        with np.errstate(invalid="ignore", divide="ignore"):
            for x in map(tuple, X.tolist()):
                for kernel in kernels:
                    try:
                        kernel(x, z)
                        defined = True
                    except FieldEvaluationError:
                        defined = False
                    assert bool(admissible_mask(bundle, np.array(x))) == defined, x
                flags.append(admissible_mask(bundle, np.array(x)))
            assert 0 < sum(flags) < len(flags)
            assert np.array_equal(admissible_mask(bundle, X), flags)

    @pytest.mark.parametrize("name", ["lti-identity", "iwp-default", "dcac-default"])
    def test_no_margin_is_defined_everywhere(self, bundles, name):
        bundle = bundles[name]
        stack = np.full((5, 4), np.nan)
        assert np.array_equal(admissible_mask(bundle, stack), np.ones(5, dtype=bool))
        point = admissible_mask(bundle, np.zeros(4))
        assert point.shape == () and point.dtype == bool and point


class TestBundleShape:
    def test_project_xi(self, bundles):
        bundle = bundles["iwp-default"]
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(bundle.project_xi(x), [1.0, 3.0])

    def test_zdim(self, bundles):
        for bundle in bundles.values():
            assert bundle.z_dim == bundle.plant.n - bundle.target.p

    def test_bad_box_shape_rejected(self):
        plant = ControlAffineSystem(
            n=2, m=1,
            f=lambda x: np.zeros(2),
            g=lambda x: np.array([[0.0], [1.0]]),
        )
        target = TargetDynamics(p=1, alpha=lambda xi: np.zeros(1))
        imm = ImmersionMap(pi=lambda xi: np.zeros(2))
        man = ImplicitManifold(phi=lambda x: np.zeros(1))
        ctl = Controller(v=lambda x, z: np.zeros(1))
        with pytest.raises(ValueError):
            IandIBundle(
                name="bad",
                plant=plant,
                target=target,
                immersion=imm,
                manifold=man,
                controller=ctl,
                xi_sample_box=np.zeros((3, 2)),
                x_sample_box=np.zeros((2, 2)),
                z_dynamics=lambda x, z: np.zeros(1),
                closed_form_c=lambda xi: np.zeros(1),
                xi_projection=(0,),
                section_index=0,
            )

    @pytest.mark.parametrize(
        "projection,section",
        [((0, 2), 1), ((0, 1, 2), 1), ((0,), 0)],
        ids=["section-outside-projection", "projection-too-long", "projection-too-short"],
    )
    def test_projection_and_section_checked(self, bundles, projection, section):
        good = bundles["iwp-default"]
        with pytest.raises(ValueError, match="xi_projection"):
            dataclasses.replace(good, xi_projection=projection, section_index=section)

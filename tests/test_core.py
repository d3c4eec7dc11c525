import math

import numpy as np
import pytest

from iiorbit.core import (
    ControlAffineSystem,
    Controller,
    IandIBundle,
    ImmersionMap,
    ImplicitManifold,
    TargetDynamics,
    admissible_mask,
    as_array,
    augmented_field,
    closed_loop_field,
    constraint_residual,
    evaluate,
    fbi_residual,
    fd_jacobian,
    left_annihilator,
    manifold_residual,
    on_manifold_control,
    validate_bundle,
)
from iiorbit.odesim import integrate_fixed
from iiorbit import plants


class TestLeftAnnihilator:
    @pytest.mark.parametrize("n,m", [(2, 1), (4, 1), (4, 2), (6, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_annihilates_and_is_orthonormal(self, n, m, seed):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(n, m))
        W = left_annihilator(G)
        assert W.shape == (n - m, n)
        assert np.max(np.abs(W @ G)) < 1e-12
        assert np.allclose(W @ W.T, np.eye(n - m), atol=1e-12)

    def test_sign_convention_is_deterministic(self):
        G = np.array([[0.0], [0.0], [-10.0], [1.0]])
        W = left_annihilator(G)
        for row in W:
            first = row[np.nonzero(np.abs(row) > 1e-12)[0][0]]
            assert first > 0

    def test_rank_deficient_rejected(self):
        G = np.zeros((3, 2))
        G[:, 1] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            left_annihilator(G)


class TestJacobian:
    def test_fd_matches_analytic(self):
        def fn(x):
            return np.array([x[0] ** 2 * x[1], math.sin(x[1])])

        x = np.array([1.3, -0.4])
        J = fd_jacobian(fn, x)
        exact = np.array(
            [[2 * 1.3 * -0.4, 1.3**2], [0.0, math.cos(-0.4)]]
        )
        assert np.max(np.abs(J - exact)) < 1e-8


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

        warped = ImmersionMap(pi=warped_pi, jacobian=good.immersion.jacobian)
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
                if not bundle.plant.admissible(x):
                    continue
                tried += 1
                z = np.atleast_1d(bundle.manifold.phi(x))
                y = np.concatenate([x, z])
                ydot = fld(y)
                dphi = np.array(bundle.manifold.jacobian(x))
                zdot_literal = dphi @ ydot[:n]
                assert np.max(np.abs(ydot[n:] - zdot_literal)) < 1e-9


class TestKernels:
    @pytest.mark.parametrize("name", plants.PRESETS)
    def test_stack_matches_row_by_row(self, bundles, name):
        # one kernel serves single points and stacks, bit for bit
        bundle = bundles[name]
        rng = np.random.default_rng(21)

        def grid(box):
            return rng.uniform(box[:, 0], box[:, 1], size=(64, len(box)))

        X = grid(bundle.x_sample_box)
        X = X[admissible_mask(bundle.plant, X)]
        Z = rng.normal(size=(len(X), bundle.z_dim))
        Xi = grid(bundle.xi_sample_box)
        kernels = {
            "f": (bundle.plant.f, X),
            "g": (bundle.plant.g, X),
            "admissible": (bundle.plant.admissible, X),
            "alpha": (bundle.target.alpha, Xi),
            "first_integral": (bundle.target.first_integral, Xi),
            "pi": (bundle.immersion.pi, Xi),
            "pi jacobian": (bundle.immersion.jacobian, Xi),
            "phi": (bundle.manifold.phi, X),
            "phi jacobian": (bundle.manifold.jacobian, X),
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
        imm = ImmersionMap(pi=lambda xi: np.zeros(2), jacobian=lambda xi: np.zeros((2, 1)))
        man = ImplicitManifold(phi=lambda x: np.zeros(1), jacobian=lambda x: np.zeros((1, 2)))
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
            )

"""Plant/target/immersion/manifold types and the residual checks tying them
together.

A bundle packages one complete design: a control-affine plant, a
lower-dimensional target oscillator, an immersion of the target into the
plant's state space, an implicit description of the immersed manifold, and a
feedback that renders the manifold invariant and attractive. The functions
here evaluate the defining identities numerically (immersion residual,
manifold residual, on-manifold control consistency) and assemble the
closed-loop and augmented vector fields for simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .odesim import FieldEvaluationError, VectorFieldHandle

FBI_TOL = 1e-9
MANIFOLD_TOL = 1e-12
CONSTRAINT_TOL = 1e-9
JACOBIAN_TOL = 1e-6
RANK_MARGIN = 1e-10
CLOSED_FORM_C_TOL = 1e-10
Z_CONSISTENCY_TOL = 1e-9

FAMILY_OF_ORBITS = "family_of_orbits"
UNIQUE_ATTRACTIVE_ORBIT = "unique_attractive_orbit"


class ParameterError(ValueError):
    """A design parameter violates its admissibility inequality."""


@dataclass(frozen=True)
class ControlAffineSystem:
    """Plant x' = f(x) + g(x) u with n states and m < n inputs."""

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    admissible: Callable[[np.ndarray], bool] = lambda x: True


@dataclass(frozen=True)
class TargetDynamics:
    """Reduced-order dynamics xi' = alpha(xi) whose orbits the closed loop
    should reproduce.

    first_integral, when present, is constant along target solutions and is
    used for drift diagnostics. orbit_kind records whether orbits come as a
    family selected by the initial condition or as a single attractive orbit.
    """

    p: int
    alpha: Callable[[np.ndarray], np.ndarray]
    first_integral: Optional[Callable[[np.ndarray], float]] = None
    orbit_kind: str = FAMILY_OF_ORBITS


@dataclass(frozen=True)
class ImmersionMap:
    """Map pi from target space into plant space, with its Jacobian
    (the n-by-p matrix that multiplies alpha in the immersion identity)."""

    pi: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ImplicitManifold:
    """Map phi whose zero set is the immersed manifold; z = phi(x) are the
    off-manifold coordinates."""

    phi: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Controller:
    """Feedback v(x, z)."""

    v: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IandIBundle:
    """One complete immersion-and-invariance design.

    Extra per-design knowledge used by simulation and metrics:
      closed_form_c   hand-derived on-manifold control (cross-checked against
                      the pseudoinverse path)
      z_dynamics      hand-derived off-manifold dynamics z' = h(x, z); when
                      present the augmented field integrates it instead of
                      the generic Jacobian product (same trajectories from
                      z(0) = phi(x(0)), but exactly linear in z where the
                      designs say so)
      xi_projection   indices of the plant coordinates that realize the
                      target state (used by energy/orbit metrics)
      angle_indices   plant coordinates living on the circle; metrics wrap
                      them, integration never does
      section_index   plant coordinate whose zero crossings define the
                      default period-measurement section
      singularity_margin
                      for designs whose feedback is defined on part of the
                      state space only: maps an (N, n) array of plant states
                      to N margins from where it breaks down
      info            derived scalars worth reporting (e.g. the effective
                      restoring coefficient, the analytic z decay rate)
    """

    name: str
    plant: ControlAffineSystem
    target: TargetDynamics
    immersion: ImmersionMap
    manifold: ImplicitManifold
    controller: Controller
    xi_sample_box: np.ndarray  # (p, 2) lower/upper
    x_sample_box: np.ndarray  # (n, 2)
    closed_form_c: Optional[Callable[[np.ndarray], np.ndarray]] = None
    z_dynamics: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    xi_projection: tuple[int, ...] = ()
    angle_indices: tuple[int, ...] = ()
    section_index: int = 0
    singularity_margin: Optional[Callable[[np.ndarray], np.ndarray]] = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        n, m, p = self.plant.n, self.plant.m, self.target.p
        if not (0 < m < n and 0 < p < n):
            raise ValueError("need 0 < m < n and 0 < p < n")
        if self.xi_sample_box.shape != (p, 2):
            raise ValueError("xi_sample_box must be (p, 2)")
        if self.x_sample_box.shape != (n, 2):
            raise ValueError("x_sample_box must be (n, 2)")

    @property
    def z_dim(self) -> int:
        return self.plant.n - self.target.p

    def project_xi(self, x: np.ndarray) -> np.ndarray:
        """Target coordinates read off a plant state."""
        if not self.xi_projection:
            raise ValueError(f"bundle {self.name} declares no target projection")
        return np.asarray(x)[..., list(self.xi_projection)]


def left_annihilator(G: np.ndarray) -> np.ndarray:
    """Orthonormal-row matrix B with B G = 0, via the SVD left null space.

    Rows follow descending singular-vector order with each row's sign fixed
    so its first nonzero entry is positive, making the output deterministic.
    Raises ValueError when G is column-rank deficient.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise ValueError("G must be a matrix")
    n, m = G.shape
    if n <= m:
        raise ValueError("G must be tall (n > m)")
    U, s, _ = np.linalg.svd(G)
    if s[-1] <= 1e-12 * max(1.0, s[0]):
        raise ValueError(f"G is rank deficient (smallest singular value {s[-1]:.3e})")
    B = U[:, m:].T.copy()
    for row in B:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if len(nz) and row[nz[0]] < 0:
            row *= -1.0
    return B


def _pi_point(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    x = bundle.immersion.pi(xi)
    if not bundle.plant.admissible(x):
        raise FieldEvaluationError(
            f"pi(xi) leaves the admissible region of {bundle.name} at xi={xi}"
        )
    return x


def fbi_residual(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """Immersion-condition residual at xi.

    Projects the velocity mismatch f(pi(xi)) - Dpi(xi) alpha(xi) onto the
    directions annihilated by g; identically zero for a correct design.
    """
    xi = np.asarray(xi, dtype=float)
    x = _pi_point(bundle, xi)
    mismatch = bundle.plant.f(x) - bundle.immersion.jacobian(xi) @ bundle.target.alpha(xi)
    return left_annihilator(bundle.plant.g(x)) @ mismatch


def on_manifold_control(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """Least-squares input holding the state on the manifold at pi(xi),
    computed through the pseudoinverse of g."""
    xi = np.asarray(xi, dtype=float)
    x = _pi_point(bundle, xi)
    G = bundle.plant.g(x)
    rhs = bundle.immersion.jacobian(xi) @ bundle.target.alpha(xi) - bundle.plant.f(x)
    gram = G.T @ G
    try:
        return np.linalg.solve(gram, G.T @ rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"g'g singular at pi(xi) for {bundle.name}") from exc


def constraint_residual(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """Boundary-condition residual v(pi(xi), 0) - c(pi(xi))."""
    xi = np.asarray(xi, dtype=float)
    x = _pi_point(bundle, xi)
    z0 = np.zeros(bundle.z_dim)
    return bundle.controller.v(x, z0) - on_manifold_control(bundle, xi)


def manifold_residual(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """phi(pi(xi)); zero when the immersed manifold sits inside phi's zero
    set."""
    return bundle.manifold.phi(_pi_point(bundle, np.asarray(xi, dtype=float)))


def closed_loop_field(bundle: IandIBundle) -> VectorFieldHandle:
    """The autonomous loop x' = f(x) + g(x) v(x, phi(x))."""
    f, g = bundle.plant.f, bundle.plant.g
    phi = bundle.manifold.phi
    v = bundle.controller.v

    def rhs(x: np.ndarray) -> np.ndarray:
        return f(x) + g(x) @ v(x, phi(x))

    return VectorFieldHandle(bundle.plant.n, rhs)


def augmented_field(bundle: IandIBundle) -> VectorFieldHandle:
    """The pair (x, z) with x' = f + g v(x, z) and the off-manifold dynamics
    for z, meant to start from z(0) = phi(x(0)).

    Uses the bundle's closed-form z dynamics when available, otherwise the
    Jacobian product Dphi(x) (f + g v).
    """
    n, nz = bundle.plant.n, bundle.z_dim
    f, g = bundle.plant.f, bundle.plant.g
    v = bundle.controller.v
    z_rhs = bundle.z_dynamics
    dphi = bundle.manifold.jacobian

    def rhs(y: np.ndarray) -> np.ndarray:
        x, z = y[:n], y[n:]
        xdot = f(x) + g(x) @ v(x, z)
        zdot = z_rhs(x, z) if z_rhs is not None else dphi(x) @ xdot
        out = np.empty(n + nz)
        out[:n] = xdot
        out[n:] = zdot
        return out

    return VectorFieldHandle(n + nz, rhs)


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central finite differences with per-coordinate step 1e-6*max(1,|x_i|)."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(fun(x))
    J = np.empty((len(f0), len(x)))
    for j in range(len(x)):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2.0 * h)
    return J


@dataclass
class ValidationReport:
    """Residual maxima and consistency margins over a seeded sample grid."""

    bundle_name: str
    grid_size: int
    seed: int
    skipped_xi: int
    skipped_x: int
    max_fbi: float
    max_manifold: float
    max_constraint: float
    max_pi_jacobian_err: float
    max_phi_jacobian_err: float
    min_g_margin: float
    max_closed_form_c_err: Optional[float] = None
    max_z_consistency_err: Optional[float] = None

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        checks = [
            ("immersion residual", self.max_fbi, FBI_TOL),
            ("manifold residual", self.max_manifold, MANIFOLD_TOL),
            ("boundary-condition residual", self.max_constraint, CONSTRAINT_TOL),
            ("immersion Jacobian mismatch", self.max_pi_jacobian_err, JACOBIAN_TOL),
            ("manifold Jacobian mismatch", self.max_phi_jacobian_err, JACOBIAN_TOL),
        ]
        out = [
            f"{name} {value:.3e} exceeds {tol:.1e}"
            for name, value, tol in checks
            if value > tol
        ]
        if self.min_g_margin <= RANK_MARGIN:
            out.append(
                f"input-matrix rank margin {self.min_g_margin:.3e} at or below {RANK_MARGIN:.1e}"
            )
        if (
            self.max_closed_form_c_err is not None
            and self.max_closed_form_c_err > CLOSED_FORM_C_TOL
        ):
            out.append(
                f"closed-form control mismatch {self.max_closed_form_c_err:.3e} "
                f"exceeds {CLOSED_FORM_C_TOL:.1e}"
            )
        if (
            self.max_z_consistency_err is not None
            and self.max_z_consistency_err > Z_CONSISTENCY_TOL
        ):
            out.append(
                f"off-manifold dynamics mismatch {self.max_z_consistency_err:.3e} "
                f"exceeds {Z_CONSISTENCY_TOL:.1e}"
            )
        return out

    def to_text(self) -> str:
        lines = [
            f"bundle: {self.bundle_name}",
            f"grid_size: {self.grid_size}",
            f"seed: {self.seed}",
            f"skipped_xi_samples: {self.skipped_xi}",
            f"skipped_x_samples: {self.skipped_x}",
            f"max_immersion_residual: {self.max_fbi:.6e}",
            f"max_manifold_residual: {self.max_manifold:.6e}",
            f"max_boundary_residual: {self.max_constraint:.6e}",
            f"max_pi_jacobian_mismatch: {self.max_pi_jacobian_err:.6e}",
            f"max_phi_jacobian_mismatch: {self.max_phi_jacobian_err:.6e}",
            f"min_g_rank_margin: {self.min_g_margin:.6e}",
        ]
        if self.max_closed_form_c_err is not None:
            lines.append(f"max_closed_form_c_mismatch: {self.max_closed_form_c_err:.6e}")
        if self.max_z_consistency_err is not None:
            lines.append(f"max_z_dynamics_mismatch: {self.max_z_consistency_err:.6e}")
        lines.append(f"status: {'pass' if self.passed else 'FAIL'}")
        for msg in self.failures():
            lines.append(f"violation: {msg}")
        return "\n".join(lines)


def _sample_box(rng: np.random.Generator, box: np.ndarray, count: int) -> np.ndarray:
    return rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))


def validate_bundle(bundle: IandIBundle, grid_size: int = 1000, seed: int = 42) -> ValidationReport:
    """Evaluate every defining identity of the bundle on seeded random grids.

    Inadmissible sample points are skipped and counted. Deterministic for a
    given seed.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    rng = np.random.default_rng(seed)
    xi_samples = _sample_box(rng, bundle.xi_sample_box, grid_size)
    x_samples = _sample_box(rng, bundle.x_sample_box, grid_size)

    max_fbi = max_manifold = max_constraint = 0.0
    max_pi_jac = 0.0
    max_c_err = 0.0 if bundle.closed_form_c is not None else None
    skipped_xi = 0
    for xi in xi_samples:
        try:
            x = _pi_point(bundle, xi)
        except FieldEvaluationError:
            skipped_xi += 1
            continue
        max_fbi = max(max_fbi, float(np.max(np.abs(fbi_residual(bundle, xi)))))
        max_manifold = max(
            max_manifold, float(np.max(np.abs(bundle.manifold.phi(x))))
        )
        max_constraint = max(
            max_constraint, float(np.max(np.abs(constraint_residual(bundle, xi))))
        )
        J = bundle.immersion.jacobian(xi)
        J_fd = fd_jacobian(bundle.immersion.pi, xi)
        max_pi_jac = max(
            max_pi_jac,
            float(np.max(np.abs(J - J_fd) / np.maximum(1.0, np.abs(J)))),
        )
        if bundle.closed_form_c is not None:
            c_err = np.abs(
                on_manifold_control(bundle, xi) - np.atleast_1d(bundle.closed_form_c(xi))
            )
            max_c_err = max(max_c_err, float(np.max(c_err)))

    max_phi_jac = 0.0
    min_g_margin = np.inf
    max_z_err = 0.0 if bundle.z_dynamics is not None else None
    f, g, v = bundle.plant.f, bundle.plant.g, bundle.controller.v
    skipped_x = 0
    for x in x_samples:
        if not bundle.plant.admissible(x):
            skipped_x += 1
            continue
        J = bundle.manifold.jacobian(x)
        J_fd = fd_jacobian(bundle.manifold.phi, x)
        max_phi_jac = max(
            max_phi_jac,
            float(np.max(np.abs(J - J_fd) / np.maximum(1.0, np.abs(J)))),
        )
        s = np.linalg.svd(g(x), compute_uv=False)
        min_g_margin = min(min_g_margin, float(s[-1]))
        if bundle.z_dynamics is not None:
            z = bundle.manifold.phi(x)
            xdot = f(x) + g(x) @ v(x, z)
            z_err = np.abs(bundle.z_dynamics(x, z) - J @ xdot)
            max_z_err = max(max_z_err, float(np.max(z_err)))

    return ValidationReport(
        bundle_name=bundle.name,
        grid_size=grid_size,
        seed=seed,
        skipped_xi=skipped_xi,
        skipped_x=skipped_x,
        max_fbi=max_fbi,
        max_manifold=max_manifold,
        max_constraint=max_constraint,
        max_pi_jacobian_err=max_pi_jac,
        max_phi_jacobian_err=max_phi_jac,
        min_g_margin=float(min_g_margin),
        max_closed_form_c_err=max_c_err,
        max_z_consistency_err=max_z_err,
    )

"""Plant/target/immersion/manifold types and the residual checks tying them
together.

A bundle packages one complete design: a control-affine plant, a
lower-dimensional target oscillator, an immersion of the target into the
plant's state space, an implicit description of the immersed manifold, and a
feedback that renders the manifold invariant and attractive. The functions
here evaluate the defining identities numerically (immersion residual,
manifold residual, on-manifold control consistency) and assemble the
closed-loop and augmented vector fields for simulation.

Every bundle callable is a kernel: it reads components by index with numpy
ufuncs and returns a tuple (of row tuples for a matrix), so it runs alike on
one point and on a stack, the (n, N) transpose of N points (see evaluate);
constant components stay floats that the consumer broadcasts. A kernel that
breaks down raises FieldEvaluationError if any point is outside its region;
array consumers mask with the plant's admissible kernel first.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .odesim import Field, FieldEvaluationError

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
    f: Callable
    g: Callable
    admissible: Callable = lambda x: True


@dataclass(frozen=True)
class TargetDynamics:
    """Reduced-order dynamics xi' = alpha(xi) whose orbits the closed loop
    should reproduce.

    first_integral, when present, is constant along target solutions and is
    used for drift diagnostics. orbit_kind records whether orbits come as a
    family selected by the initial condition or as a single attractive orbit.
    """

    p: int
    alpha: Callable
    first_integral: Optional[Callable] = None
    orbit_kind: str = FAMILY_OF_ORBITS


@dataclass(frozen=True)
class ImmersionMap:
    """Map pi from target space into plant space, with its Jacobian
    (the n-by-p matrix that multiplies alpha in the immersion identity)."""

    pi: Callable
    jacobian: Callable


@dataclass(frozen=True)
class ImplicitManifold:
    """Map phi whose zero set is the immersed manifold; z = phi(x) are the
    off-manifold coordinates."""

    phi: Callable
    jacobian: Callable


@dataclass(frozen=True)
class Controller:
    """Feedback v(x, z)."""

    v: Callable


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
                      state space only: the margin from where it breaks
                      down, one per point
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
    closed_form_c: Optional[Callable] = None
    z_dynamics: Optional[Callable] = None
    xi_projection: tuple[int, ...] = ()
    angle_indices: tuple[int, ...] = ()
    section_index: int = 0
    singularity_margin: Optional[Callable] = None
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


def as_array(out, shape: tuple = ()) -> np.ndarray:
    """A kernel's output as one float array: the stack axes `shape` (none for
    a single point), then one axis per level of tuple nesting; constant
    components are broadcast over the stack."""
    if isinstance(out, tuple):
        return np.stack([as_array(c, shape) for c in out], axis=len(shape))
    out = np.asarray(out, dtype=float)
    return out if out.ndim > len(shape) else np.broadcast_to(out, shape)


def evaluate(kernel: Callable, *points) -> np.ndarray:
    """A kernel at one point, or at every row of (N, .) arrays of points,
    as one float array with a row per point."""
    points = [np.asarray(p, dtype=float) for p in points]
    return as_array(kernel(*(p.T for p in points)), points[0].shape[:-1])


def admissible_mask(plant: ControlAffineSystem, x: np.ndarray) -> np.ndarray:
    """Where the plant's feedback is defined, one flag per row of x."""
    return np.broadcast_to(plant.admissible(x.T), x.shape[:-1])


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for one matrix or row by row for a stack of them."""
    return np.einsum("...ij,...j->...i", M, v)


def left_annihilator(G: np.ndarray) -> np.ndarray:
    """Orthonormal-row matrix B with B G = 0, via the SVD left null space.

    G is one (n, m) matrix or an (N, n, m) stack, and B one (n - m, n)
    matrix or a stack of them. Rows follow descending singular-vector order
    with each row's sign fixed so its first nonzero entry is positive,
    making the output deterministic. Raises ValueError when G is
    column-rank deficient.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim not in (2, 3):
        raise ValueError("G must be a matrix or a stack of matrices")
    n, m = G.shape[-2:]
    if n <= m:
        raise ValueError("G must be tall (n > m)")
    U, s, _ = np.linalg.svd(G)
    if np.any(s[..., -1] <= 1e-12 * np.maximum(1.0, s[..., 0])):
        raise ValueError(
            f"G is rank deficient (smallest singular value {s[..., -1].min():.3e})"
        )
    B = np.swapaxes(U[..., m:], -1, -2)
    first = np.take_along_axis(B, np.argmax(np.abs(B) > 1e-12, axis=-1)[..., None], -1)
    return np.where(first < 0, -B, B)


def _immersed(bundle: IandIBundle, xi: Sequence[float]):
    """xi as a float array and x = pi(xi), which must be admissible at every
    point."""
    xi = np.asarray(xi, dtype=float)
    x = evaluate(bundle.immersion.pi, xi)
    if not admissible_mask(bundle.plant, x).all():
        raise FieldEvaluationError(f"pi(xi) leaves the admissible region of {bundle.name}")
    return xi, x


def _target_velocity(bundle: IandIBundle, xi: np.ndarray) -> np.ndarray:
    """Dpi(xi) alpha(xi), the plant velocity the immersion asks for."""
    return _matvec(evaluate(bundle.immersion.jacobian, xi), evaluate(bundle.target.alpha, xi))


def fbi_residual(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """Immersion-condition residual at xi, one point (p,) or (N, p) rows.

    Projects the velocity mismatch f(pi(xi)) - Dpi(xi) alpha(xi) onto the
    directions annihilated by g; identically zero for a correct design.
    """
    xi, x = _immersed(bundle, xi)
    mismatch = evaluate(bundle.plant.f, x) - _target_velocity(bundle, xi)
    return _matvec(left_annihilator(evaluate(bundle.plant.g, x)), mismatch)


def on_manifold_control(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """Least-squares input holding the state on the manifold at pi(xi),
    computed through the pseudoinverse of g; xi is a point or rows."""
    xi, x = _immersed(bundle, xi)
    G = evaluate(bundle.plant.g, x)
    Gt = np.swapaxes(G, -1, -2)
    rhs = _target_velocity(bundle, xi) - evaluate(bundle.plant.f, x)
    try:
        return np.linalg.solve(Gt @ G, Gt @ rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"g'g singular at pi(xi) for {bundle.name}") from exc


def constraint_residual(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """Boundary-condition residual v(pi(xi), 0) - c(pi(xi)) at a point or
    rows."""
    xi, x = _immersed(bundle, xi)
    z0 = np.zeros(xi.shape[:-1] + (bundle.z_dim,))
    return evaluate(bundle.controller.v, x, z0) - on_manifold_control(bundle, xi)


def manifold_residual(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """phi(pi(xi)) at a point or rows; zero when the immersed manifold sits
    inside phi's zero set."""
    return evaluate(bundle.manifold.phi, _immersed(bundle, xi)[1])


def _dot(row, u):
    """row[0] u[0] + row[1] u[1] + ..., summed left to right."""
    return functools.reduce(operator.add, map(operator.mul, row, u))


def _plant_rate(bundle: IandIBundle):
    """The plant velocity x' = f(x) + g(x) v(x, z), component by component."""
    f, g, v = bundle.plant.f, bundle.plant.g, bundle.controller.v

    def rate(x, z) -> tuple:
        u = v(x, z)
        return tuple([fi + _dot(gi, u) for fi, gi in zip(f(x), g(x))])

    return rate


def closed_loop_field(bundle: IandIBundle) -> Field:
    """The autonomous loop x' = f(x) + g(x) v(x, phi(x))."""
    rate, phi = _plant_rate(bundle), bundle.manifold.phi
    return lambda x: rate(x, phi(x))


def augmented_field(bundle: IandIBundle) -> Field:
    """The pair (x, z) with x' = f + g v(x, z) and the off-manifold dynamics
    for z, meant to start from z(0) = phi(x(0)).

    Uses the bundle's closed-form z dynamics when available, otherwise the
    Jacobian product Dphi(x) (f + g v).
    """
    n = bundle.plant.n
    rate = _plant_rate(bundle)
    z_rhs = bundle.z_dynamics
    dphi = bundle.manifold.jacobian

    def field(y) -> tuple:
        x, z = y[:n], y[n:]
        xdot = rate(x, z)
        if z_rhs is not None:
            return xdot + tuple(z_rhs(x, z))
        return xdot + tuple(_dot(row, xdot) for row in dphi(x))

    return field


def fd_jacobian(fun: Callable, x: Sequence[float]) -> np.ndarray:
    """Central finite differences with per-coordinate step 1e-6*max(1,|x_i|).

    x is one point or (N, n) rows of points; the result is one (k, n)
    Jacobian of the kernel fun, or one per row.
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(x.shape[-1]):
        h = 1e-6 * np.maximum(1.0, np.abs(x[..., j]))
        xp, xm = x.copy(), x.copy()
        xp[..., j] += h
        xm[..., j] -= h
        columns.append((evaluate(fun, xp) - evaluate(fun, xm)) / (2.0 * h[..., None]))
    return np.stack(columns, axis=-1)


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


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _jacobian_mismatch(jacobian: Callable, fun: Callable, points: np.ndarray):
    """The hand-written Jacobian at the points and its largest relative
    distance from central finite differences."""
    J = evaluate(jacobian, points)
    return J, _max_abs((J - fd_jacobian(fun, points)) / np.maximum(1.0, np.abs(J)))


def validate_bundle(bundle: IandIBundle, grid_size: int = 1000, seed: int = 42) -> ValidationReport:
    """Evaluate every defining identity of the bundle on seeded random grids.

    Each identity is evaluated once over the admissible part of each grid;
    inadmissible sample points are skipped and counted. pi must be defined
    on the whole xi sample box. Deterministic for a given seed.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    rng = np.random.default_rng(seed)
    xi_grid = _sample_box(rng, bundle.xi_sample_box, grid_size)
    x_grid = _sample_box(rng, bundle.x_sample_box, grid_size)

    xi = xi_grid[admissible_mask(bundle.plant, evaluate(bundle.immersion.pi, xi_grid))]
    _, max_pi_jac = _jacobian_mismatch(bundle.immersion.jacobian, bundle.immersion.pi, xi)
    max_c_err = None
    if bundle.closed_form_c is not None:
        max_c_err = _max_abs(on_manifold_control(bundle, xi) - evaluate(bundle.closed_form_c, xi))

    x = x_grid[admissible_mask(bundle.plant, x_grid)]
    J, max_phi_jac = _jacobian_mismatch(bundle.manifold.jacobian, bundle.manifold.phi, x)
    g_margins = np.linalg.svd(evaluate(bundle.plant.g, x), compute_uv=False)[..., -1]
    max_z_err = None
    if bundle.z_dynamics is not None:
        z = evaluate(bundle.manifold.phi, x)
        xdot = evaluate(_plant_rate(bundle), x, z)
        max_z_err = _max_abs(evaluate(bundle.z_dynamics, x, z) - _matvec(J, xdot))

    return ValidationReport(
        bundle_name=bundle.name,
        grid_size=grid_size,
        seed=seed,
        skipped_xi=grid_size - len(xi),
        skipped_x=grid_size - len(x),
        max_fbi=_max_abs(fbi_residual(bundle, xi)),
        max_manifold=_max_abs(manifold_residual(bundle, xi)),
        max_constraint=_max_abs(constraint_residual(bundle, xi)),
        max_pi_jacobian_err=max_pi_jac,
        max_phi_jacobian_err=max_phi_jac,
        min_g_margin=float(np.min(g_margins, initial=np.inf)),
        max_closed_form_c_err=max_c_err,
        max_z_consistency_err=max_z_err,
    )

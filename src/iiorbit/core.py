"""Plant/target/immersion/manifold types and the residual checks tying them
together.

A bundle packages one complete design: a control-affine plant, a
lower-dimensional target oscillator, an immersion of the target into the
plant's state space, an implicit description of the immersed manifold, and a
feedback that renders the manifold invariant and attractive. The functions
here evaluate the defining identities numerically and assemble the
closed-loop and augmented vector fields for simulation. The immersion
identity f(pi(xi)) + g(pi(xi)) c = Dpi(xi) alpha(xi) is solved once, in
least squares, for the on-manifold control c; what is left of it is the
immersion residual, and c feeds the boundary-condition and closed-form
checks. Dpi alpha and Dphi x' are computed from pi and phi by derivative.

Every bundle callable is a kernel: it reads components by index and returns
a tuple (of row tuples for a matrix), so it runs alike on one point and on a
stack, the (n, N) transpose of N points (see evaluate); constant components
stay floats that the consumer broadcasts. Its functions give the same bits
on both: numpy ufuncs, or for sine and cosine the plants' point-aware
helpers, which keep one Python float a Python float so that a field
evaluated at an integrator's tuple of floats returns floats. A kernel that
breaks down raises FieldEvaluationError if any point is outside its region;
array consumers mask with admissible_mask first. pi and phi also run on
complex input, which derivative steps them through.
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
RANK_MARGIN = 1e-10
CLOSED_FORM_C_TOL = 1e-10
Z_CONSISTENCY_TOL = 1e-9

class ParameterError(ValueError):
    """A design parameter violates its admissibility inequality."""


@dataclass(frozen=True)
class ControlAffineSystem:
    """Plant x' = f(x) + g(x) u with n states and m < n inputs."""

    n: int
    m: int
    f: Callable
    g: Callable


@dataclass(frozen=True)
class TargetDynamics:
    """Reduced-order dynamics xi' = alpha(xi) whose orbits the closed loop
    should reproduce.

    first_integral, when present, is constant along target solutions and is
    used for drift diagnostics.
    """

    p: int
    alpha: Callable
    first_integral: Optional[Callable] = None


@dataclass(frozen=True)
class ImmersionMap:
    """Map pi from target space into plant space."""

    pi: Callable


@dataclass(frozen=True)
class ImplicitManifold:
    """Map phi whose zero set is the immersed manifold; z = phi(x) are the
    off-manifold coordinates."""

    phi: Callable


@dataclass(frozen=True)
class Controller:
    """Feedback v(x, z)."""

    v: Callable


@dataclass(frozen=True)
class IandIBundle:
    """One complete immersion-and-invariance design.

    Extra per-design knowledge used by simulation and metrics:
      z_dynamics      hand-derived off-manifold dynamics z' = h(x, z), which
                      the augmented field integrates (validate_bundle checks
                      it against Dphi (f + g v))
      closed_form_c   hand-derived on-manifold control (cross-checked against
                      the pseudoinverse path)
      xi_projection   indices of the p plant coordinates that realize the
                      target state (used by energy/orbit metrics)
      section_index   plant coordinate, one of xi_projection, whose zero
                      crossings define the period-measurement section of
                      the run and of the target orbit
      angle_indices   plant coordinates living on the circle; metrics wrap
                      them, integration never does
      singularity_margin
                      signed, in the design's units: positive exactly where
                      the feedback is defined (its kernels raise elsewhere),
                      one per point; None when it is defined everywhere
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
    z_dynamics: Callable
    closed_form_c: Callable
    xi_projection: tuple[int, ...]
    section_index: int
    angle_indices: tuple[int, ...] = ()
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
        if len(self.xi_projection) != p or self.section_index not in self.xi_projection:
            raise ValueError("xi_projection must hold p indices, section_index among them")

    @property
    def z_dim(self) -> int:
        return self.plant.n - self.target.p

    def project_xi(self, x: np.ndarray) -> np.ndarray:
        """Target coordinates read off a plant state."""
        return np.asarray(x)[..., list(self.xi_projection)]


def as_array(out, shape: tuple = ()) -> np.ndarray:
    """A kernel's output as one float array (complex if the output is): the
    stack axes `shape` (none for a single point), then one axis per level of
    tuple nesting; constant components are broadcast over the stack."""
    if isinstance(out, tuple):
        return np.stack([as_array(c, shape) for c in out], axis=len(shape))
    out = np.asarray(out, dtype=complex if np.iscomplexobj(out) else float)
    return out if out.ndim > len(shape) else np.broadcast_to(out, shape)


def evaluate(kernel: Callable, *points) -> np.ndarray:
    """A kernel at one point, or at every row of (N, .) arrays of points,
    as one float array (complex for complex points) with a row per point."""
    points = [np.asarray(p, dtype=complex if np.iscomplexobj(p) else float) for p in points]
    return as_array(kernel(*(p.T for p in points)), points[0].shape[:-1])


def derivative(kernel: Callable, x: Sequence[float], v: Sequence[float]) -> np.ndarray:
    """Dkernel(x) v at one point or per row, by the complex step
    Im kernel(x + i h v) / h. No difference cancels, so it is exact to
    rounding; h = 2^-100 is a power of two, so scaling by it is exact and a
    linear kernel's derivative comes out bit for bit."""
    h = 2.0**-100
    return evaluate(kernel, np.asarray(x, float) + 1j * (h * np.asarray(v, float))).imag / h


def admissible_mask(bundle: IandIBundle, x: np.ndarray) -> np.ndarray:
    """Where the feedback is defined, one flag for a point or per row of x:
    a positive singularity margin, and everywhere for a bundle without one."""
    return evaluate(bundle.singularity_margin or (lambda x: 1.0), x) > 0.0


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for one matrix or row by row for a stack of them."""
    return np.einsum("...ij,...j->...i", M, v)


def _immersed(bundle: IandIBundle, xi: Sequence[float]):
    """xi as a float array and x = pi(xi), which must be admissible at every
    point."""
    xi = np.asarray(xi, dtype=float)
    x = evaluate(bundle.immersion.pi, xi)
    if not admissible_mask(bundle, x).all():
        raise FieldEvaluationError(f"pi(xi) leaves the admissible region of {bundle.name}")
    return xi, x


def _immersion(bundle: IandIBundle, xi: Sequence[float]):
    """x = pi(xi), the least-squares on-manifold control c and the immersion
    residual f(x) + g(x) c - Dpi(xi) alpha(xi), at a point or rows.

    c solves the normal equations g'g c = g'(Dpi alpha - f). Raises
    ValueError when g is column-rank deficient at some pi(xi).
    """
    xi, x = _immersed(bundle, xi)
    G = evaluate(bundle.plant.g, x)
    s = np.linalg.svd(G, compute_uv=False)
    if np.any(s[..., -1] <= 1e-12 * np.maximum(1.0, s[..., 0])):
        raise ValueError(
            f"g is rank deficient at pi(xi) for {bundle.name} "
            f"(smallest singular value {s[..., -1].min():.3e})"
        )
    Gt = np.swapaxes(G, -1, -2)
    velocity = derivative(bundle.immersion.pi, xi, evaluate(bundle.target.alpha, xi))
    rhs = velocity - evaluate(bundle.plant.f, x)
    try:
        c = np.linalg.solve(Gt @ G, Gt @ rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"g'g singular at pi(xi) for {bundle.name}") from exc
    return x, c, _matvec(G, c) - rhs


def fbi_residual(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """Immersion-condition residual f(pi(xi)) + g(pi(xi)) c - Dpi(xi) alpha(xi)
    with the least-squares c: n plant components for one point xi (p,), or
    per row of (N, p) points; identically zero for a correct design.

    It is the part of the velocity mismatch f - Dpi alpha that no input can
    cancel, so its Euclidean norm is that of the mismatch annihilated by g.
    """
    return _immersion(bundle, xi)[2]


def on_manifold_control(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """Least-squares input c(pi(xi)) holding the state on the manifold, from
    the normal equations of g(pi(xi)) c = Dpi(xi) alpha(xi) - f(pi(xi)); xi
    is a point or rows."""
    return _immersion(bundle, xi)[1]


def constraint_residual(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """Boundary-condition residual v(pi(xi), 0) - c(pi(xi)) at a point or
    rows."""
    x, c, _ = _immersion(bundle, xi)
    return evaluate(bundle.controller.v, x, np.zeros(c.shape[:-1] + (bundle.z_dim,))) - c


def manifold_residual(bundle: IandIBundle, xi: Sequence[float]) -> np.ndarray:
    """phi(pi(xi)) at a point or rows; zero when the immersed manifold sits
    inside phi's zero set."""
    return evaluate(bundle.manifold.phi, _immersed(bundle, xi)[1])


def _dot(row, u):
    """row[0] u[0] + row[1] u[1] + ..., summed left to right."""
    return functools.reduce(operator.add, map(operator.mul, row, u))


def _plant_rate(bundle: IandIBundle):
    """The plant velocity x' = f(x) + g(x) v(x, z), component by component.

    The row product g_i(x) u is chosen once from the input count: the single
    term g_i[0] u[0] for one input, g_i[0] u[0] + g_i[1] u[1] written out for
    two, and the _dot fold for more. All three are the same left-to-right
    sum, so the result does not depend on which one runs."""
    f, g, v = bundle.plant.f, bundle.plant.g, bundle.controller.v
    if bundle.plant.m > 2:

        def rate(x, z) -> tuple:
            u = v(x, z)
            return tuple([fi + _dot(gi, u) for fi, gi in zip(f(x), g(x))])

        return rate

    if bundle.plant.m == 2:

        def rate(x, z) -> tuple:
            u0, u1 = v(x, z)
            return tuple([fi + (g0 * u0 + g1 * u1) for fi, (g0, g1) in zip(f(x), g(x))])

        return rate

    def rate(x, z) -> tuple:
        (u,) = v(x, z)
        return tuple([fi + gi * u for fi, (gi,) in zip(f(x), g(x))])

    return rate


def closed_loop_field(bundle: IandIBundle) -> Field:
    """The autonomous loop x' = f(x) + g(x) v(x, phi(x))."""
    rate, phi = _plant_rate(bundle), bundle.manifold.phi
    return lambda x: rate(x, phi(x))


def augmented_field(bundle: IandIBundle) -> Field:
    """The pair (x, z) with x' = f + g v(x, z) and the bundle's off-manifold
    dynamics z' = h(x, z), meant to start from z(0) = phi(x(0))."""
    n = bundle.plant.n
    rate, h = _plant_rate(bundle), bundle.z_dynamics

    def field(y) -> tuple:
        x, z = y[:n], y[n:]
        return rate(x, z) + h(x, z)

    return field


# Each residual maximum of a ValidationReport: its field, its to_text key,
# its failure label and its tolerance.
RESIDUAL_MAXIMA = (
    ("max_fbi", "max_immersion_residual", "immersion residual", FBI_TOL),
    ("max_manifold", "max_manifold_residual", "manifold residual", MANIFOLD_TOL),
    ("max_constraint", "max_boundary_residual", "boundary-condition residual", CONSTRAINT_TOL),
    ("max_closed_form_c_err", "max_closed_form_c_mismatch", "closed-form control mismatch",
     CLOSED_FORM_C_TOL),
    ("max_z_consistency_err", "max_z_dynamics_mismatch", "off-manifold dynamics mismatch",
     Z_CONSISTENCY_TOL),
)


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
    min_g_margin: float
    max_z_consistency_err: float
    max_closed_form_c_err: float

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """Every maximum above its tolerance and a rank margin at or below
        its floor; a NaN maximum or margin counts as a violation."""
        out = [
            f"{label} {getattr(self, attr):.3e} exceeds {tol:.1e}"
            for attr, _, label, tol in RESIDUAL_MAXIMA
            if not getattr(self, attr) <= tol
        ]
        if not self.min_g_margin > RANK_MARGIN:
            out.append(
                f"input-matrix rank margin {self.min_g_margin:.3e} at or below {RANK_MARGIN:.1e}"
            )
        return out

    def to_text(self) -> str:
        maxima = [f"{key}: {getattr(self, attr):.6e}" for attr, key, _, _ in RESIDUAL_MAXIMA]
        lines = [
            f"bundle: {self.bundle_name}",
            f"grid_size: {self.grid_size}",
            f"seed: {self.seed}",
            f"skipped_xi_samples: {self.skipped_xi}",
            f"skipped_x_samples: {self.skipped_x}",
            *maxima[:3],  # the rank margin prints after the boundary residual
            f"min_g_rank_margin: {self.min_g_margin:.6e}",
            *maxima[3:],
            f"status: {'pass' if self.passed else 'FAIL'}",
        ]
        lines += [f"violation: {msg}" for msg in self.failures()]
        return "\n".join(lines)


def _sample_box(rng: np.random.Generator, box: np.ndarray, count: int) -> np.ndarray:
    return rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


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

    xi = xi_grid[admissible_mask(bundle, evaluate(bundle.immersion.pi, xi_grid))]
    pi_xi, c, fbi = _immersion(bundle, xi)
    z0 = np.zeros((len(xi), bundle.z_dim))

    x = x_grid[admissible_mask(bundle, x_grid)]
    g_margins = np.linalg.svd(evaluate(bundle.plant.g, x), compute_uv=False)[..., -1]
    z = evaluate(bundle.manifold.phi, x)
    xdot = evaluate(_plant_rate(bundle), x, z)
    zdot = derivative(bundle.manifold.phi, x, xdot)

    return ValidationReport(
        bundle_name=bundle.name,
        grid_size=grid_size,
        seed=seed,
        skipped_xi=grid_size - len(xi),
        skipped_x=grid_size - len(x),
        max_fbi=_max_abs(fbi),
        max_manifold=_max_abs(evaluate(bundle.manifold.phi, pi_xi)),
        max_constraint=_max_abs(evaluate(bundle.controller.v, pi_xi, z0) - c),
        min_g_margin=float(np.min(g_margins, initial=np.inf)),
        max_closed_form_c_err=_max_abs(c - evaluate(bundle.closed_form_c, xi)),
        max_z_consistency_err=_max_abs(evaluate(bundle.z_dynamics, x, z) - zdot),
    )

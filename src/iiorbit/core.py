"""The design bundle and the residual checks tying its maps together.

A bundle is one complete design, the tuple (f, g, alpha, pi, phi, v): a
control-affine plant x' = f(x) + g(x) u, a lower-dimensional target
oscillator xi' = alpha(xi), an immersion pi of the target into the plant's
state space, an implicit description phi of the immersed manifold, and a
feedback v that renders the manifold invariant and attractive. The functions
here evaluate the defining identities numerically and assemble the
closed-loop and augmented vector fields for simulation. The immersion
identity f(pi(xi)) + g(pi(xi)) c = Dpi(xi) alpha(xi) is solved once, in
least squares, for the on-manifold control c (see immersion); what is left
of it is the immersion residual. The feedback states c a second time, since
the boundary condition v(pi(xi), 0) = c(pi(xi)) makes it that control on
the manifold, and the boundary-condition check compares the two. Dpi alpha
and Dphi x' are computed from pi and phi by derivative.

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

The plant rate f + g v, the off-manifold rate Lambda z and the augmented
field built from them are straight-line code, generated and compiled once
per shape (n, m, z_dim) and bound to each bundle's kernels and Lambda (see
_field_factory). Each component is the left-to-right sum a per-component
loop would form, so a point, a stack and a complex step all pass through
them unchanged.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .odesim import Field, FieldEvaluationError, _compile_factory, _each

FBI_TOL = 1e-9
MANIFOLD_TOL = 1e-12
CONSTRAINT_TOL = 1e-10
RANK_MARGIN = 1e-10
Z_CONSISTENCY_TOL = 1e-9

class ParameterError(ValueError):
    """A design parameter violates its admissibility inequality."""


@dataclass(frozen=True)
class IandIBundle:
    """One complete immersion-and-invariance design.

    The design's six maps, each a plain field:
      f, g            the plant x' = f(x) + g(x) u with m < n inputs; n is
                      the row count of x_sample_box, m the one declared size
      alpha           the target xi' = alpha(xi), whose orbits the closed
                      loop should reproduce; p < n is xi_sample_box's rows
      pi              the immersion xi -> x of target space into plant space
      phi             the implicit manifold map x -> z, whose zero set is the
                      immersed manifold; z = phi(x) are the off-manifold
                      coordinates
      v               the feedback u = v(x, z); on the manifold, v(pi(xi), 0)
                      is the on-manifold control c (see immersion)

    Extra per-design knowledge used by simulation and metrics:
      z_matrix        the off-manifold dynamics z' = Lambda z as Lambda's
                      z_dim rows of Python floats, zeros written 0.0; it
                      must be Hurwitz. The augmented field integrates it,
                      and validate_bundle checks it against Dphi (f + g v)
      xi_projection   indices of the p plant coordinates that realize the
                      target state (used by energy/orbit metrics)
      section_index   plant coordinate, one of xi_projection, whose zero
                      crossings define the period-measurement section of
                      the run and of the target orbit
      angle_indices   plant coordinates living on the circle; metrics wrap
                      them, integration never does
      first_integral  constant along target solutions, used for drift
                      diagnostics; None when the target has none
      singularity_margin
                      signed, in the design's units: positive exactly where
                      the feedback is defined (its kernels raise elsewhere),
                      one per point; None when it is defined everywhere
      u_limit         bound on every input's magnitude that a run reports
                      exceeding on stderr; monitored, never enforced; None
                      when the design has none
    """

    name: str
    f: Callable
    g: Callable
    m: int
    alpha: Callable
    pi: Callable
    phi: Callable
    v: Callable
    xi_sample_box: np.ndarray  # (p, 2) lower/upper
    x_sample_box: np.ndarray  # (n, 2)
    z_matrix: tuple[tuple[float, ...], ...]
    xi_projection: tuple[int, ...]
    section_index: int
    angle_indices: tuple[int, ...] = ()
    first_integral: Optional[Callable] = None
    singularity_margin: Optional[Callable] = None
    u_limit: Optional[float] = None

    def __post_init__(self):
        for label in ("xi_sample_box", "x_sample_box"):
            shape = np.shape(getattr(self, label))
            if len(shape) != 2 or shape[1] != 2:
                raise ValueError(f"{label} must be (rows, 2), got shape {shape}")
        n, m, p = self.n, self.m, self.p
        if not (0 < m < n and 0 < p < n):
            raise ValueError(f"need 0 < m < n and 0 < p < n (got n={n}, m={m}, p={p})")
        proj = set(self.xi_projection)
        if not len(self.xi_projection) == len(proj) == p or self.section_index not in proj:
            raise ValueError("xi_projection must hold p distinct indices, section_index among them")
        if not proj | set(self.angle_indices) <= set(range(n)):
            raise ValueError(f"xi_projection and angle_indices must lie in 0..{n - 1}")
        # Python floats keep the integrators' stage sums out of numpy scalars
        z_dim = self.z_dim
        if len(self.z_matrix) != z_dim or any(
            len(row) != z_dim or any(type(entry) is not float for entry in row)
            for row in self.z_matrix
        ):
            raise ValueError(f"z_matrix must hold {z_dim} rows of {z_dim} Python floats")
        Lam = np.array(self.z_matrix, dtype=float)
        if not np.isfinite(Lam).all():
            raise ParameterError(f"z_matrix of {self.name} is not finite: {self.z_matrix}")
        eig = np.linalg.eigvals(Lam)
        if not eig.real.max() < 0.0:
            raise ParameterError(
                f"z_matrix of {self.name} is not Hurwitz: eigenvalues "
                f"{', '.join(f'{e:.6g}' for e in eig)}, need every real part < 0"
            )

    @property
    def n(self) -> int:
        return len(self.x_sample_box)

    @property
    def p(self) -> int:
        return len(self.xi_sample_box)

    @property
    def z_dim(self) -> int:
        return self.n - self.p

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


def _singular_values(G) -> np.ndarray:
    """The singular values of one n x m matrix (n >= m), or of each matrix
    in a (..., n, m) stack, largest first.

    Cyclic one-sided Jacobi (Hestenes 1958), vectorised over the stack: a
    sweep visits every column pair (i, j) and rotates, in the matrices where
    the pair's inner product gamma exceeds eps sqrt(alpha beta) in
    magnitude (alpha, beta the squared column norms), by Rutishauser's
    t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)), zeta = (beta - alpha) /
    (2 gamma), written as 2 gamma / (d + sign(d) hypot(d, 2 gamma)) with
    d = beta - alpha so that nothing overflows. Sweeps stop when one
    rotates nothing (or after 30), and the column norms are then the
    singular values (Demmel & Veselic, "Jacobi's method is more accurate
    than QR", SIAM J. Matrix Anal. Appl. 13(4), 1992). One column makes no
    rotation and gives its norm.

    Each matrix is first scaled by the power of two that brings its largest
    entry below 1, which is exact, so no square overflows. A matrix with a
    NaN or infinite entry gives NaN values, and a value beyond the float
    range reads inf, as LAPACK's does; neither raises a floating-point
    warning.
    """
    A = np.asarray(G, dtype=float)
    stack, (n, m) = A.shape[:-2], A.shape[-2:]
    # column k of every matrix as one (n, N) block C[k], so that a column
    # sum is n adds of N values
    C = A.reshape(-1, n, m).transpose(2, 1, 0).copy()
    amax = np.abs(C).max(axis=(0, 1))
    finite = np.isfinite(amax)
    C[..., ~finite] = 0.0
    exp = np.frexp(amax)[1]
    np.ldexp(C, -exp, out=C)
    eps = np.finfo(float).eps
    for _ in range(30):  # the sweep cap of LAPACK's dgesvj
        rotated = False
        for i, j in itertools.combinations(range(m), 2):
            ai, aj = C[i], C[j]
            alpha, beta, gamma = (ai * ai).sum(0), (aj * aj).sum(0), (ai * aj).sum(0)
            rot = np.abs(gamma) > eps * np.sqrt(alpha * beta)
            if not rot.any():
                continue
            rotated = True
            d, e = beta[rot] - alpha[rot], 2.0 * gamma[rot]
            t = e / (d + np.copysign(np.hypot(d, e), d))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            bi, bj = ai[:, rot], aj[:, rot]
            ai[:, rot], aj[:, rot] = c * bi - s * bj, s * bi + c * bj
        if not rotated:
            break
    norms = np.sqrt((C * C).sum(axis=1))
    with np.errstate(over="ignore"):
        values = np.ldexp(np.sort(norms.T, axis=-1)[:, ::-1], exp[:, None])
    values[~finite] = np.nan
    return values.reshape(*stack, m)


def immersion(bundle: IandIBundle, xi: Sequence[float]):
    """x = pi(xi), the least-squares on-manifold control c and the immersion
    residual f(x) + g(x) c - Dpi(xi) alpha(xi), at a point xi (p,) or per
    row of (N, p) points.

    c solves the normal equations g'g c = g'(Dpi alpha - f). The residual is
    zero for a correct design; it is the part of the velocity mismatch
    f - Dpi alpha that no input can cancel, so its Euclidean norm is that of
    the mismatch annihilated by g. The boundary-condition residual is
    v(x, 0) - c and the manifold residual phi(x). Raises FieldEvaluationError
    when some pi(xi) is not admissible, and ValueError when g is column-rank
    deficient at some pi(xi); a g with a NaN or infinite entry at some
    pi(xi) gives NaN c and residual there.
    """
    xi = np.asarray(xi, dtype=float)
    x = evaluate(bundle.pi, xi)
    if not admissible_mask(bundle, x).all():
        raise FieldEvaluationError(f"pi(xi) leaves the admissible region of {bundle.name}")
    return (x, *_control_and_residual(bundle, xi, x))


def _control_and_residual(bundle: IandIBundle, xi: np.ndarray, x: np.ndarray):
    """immersion's c and residual at xi, given its admissible x = pi(xi)."""
    G = evaluate(bundle.g, x)
    s = _singular_values(G)
    if np.any(s[..., -1] <= 1e-12 * np.maximum(1.0, s[..., 0])):
        raise ValueError(
            f"g is rank deficient at pi(xi) for {bundle.name} "
            f"(smallest singular value {s[..., -1].min():.3e})"
        )
    Gt = np.swapaxes(G, -1, -2)
    velocity = derivative(bundle.pi, xi, evaluate(bundle.alpha, xi))
    rhs = velocity - evaluate(bundle.f, x)
    try:
        c = np.linalg.solve(Gt @ G, Gt @ rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"g'g singular at pi(xi) for {bundle.name}") from exc
    return c, _matvec(G, c) - rhs


class _Fields(NamedTuple):
    rate: Callable  # _plant_rate
    z_rate: Callable  # _z_rate
    augmented: Callable  # augmented_field


@functools.lru_cache(maxsize=None)
def _field_factory(n: int, m: int, z_dim: int) -> Callable:
    """make(f, g, v, l0_0, l0_1, ..., l1_0, ...), which returns the plant
    rate, the off-manifold rate and the augmented field for bundles of
    n states, m inputs and z_dim off-manifold coordinates, the l the entries
    of Lambda row by row; compiled on first use under the file name
    <iiorbit fields n=4 m=1 z=2> (for example).

    The plant rate unpacks v(x, z), f(x) and g(x), in that order, into
    names, and its component i is f_i + (g_i0 u0 + g_i1 u1 + ...): the row
    product summed left to right, a single term for one input. The
    off-manifold rate's row r is l_r0 z0 + l_r1 z1 + ..., left to right
    with Lambda's zeros included, since dropping them would change the sign
    of zero results. The augmented field splits y into x = y[:n] and
    z = y[n:] and returns both rates in one tuple. The source holds only
    names and integer indices; the kernels and Lambda's entries are the
    arguments of make."""

    lam = [f"l{r}_{c}" for r in range(z_dim) for c in range(z_dim)]
    plant = [
        f"{_each('u{i}', m)} = v(x, z)",
        f"{_each('f{i}', n)} = f(x)",
        f"{_each(_each('g{{i}}_{i}', m), n)} = g(x)",
    ]
    rates = " + ".join(f"g{{i}}_{j} * u{j}" for j in range(m))
    plant_rows = "".join(f"f{i} + ({rates.format(i=i)}), " for i in range(n))
    z_rows = "".join(
        " + ".join(f"l{r}_{c} * z{c}" for c in range(z_dim)) + ", " for r in range(z_dim)
    )
    source = "".join(
        line + "\n"
        for line in [
            f"def make(f, g, v, {', '.join(lam)}):",
            "    def rate(x, z):",
            *(f"        {line}" for line in plant),
            f"        return ({plant_rows})",
            "    def z_rate(z):",
            f"        {_each('z{i}', z_dim)} = z",
            f"        return ({z_rows})",
            "    def augmented_field(y):",
            f"        x = y[:{n}]",
            f"        z = y[{n}:]",
            *(f"        {line}" for line in plant),
            f"        {_each('z{i}', z_dim)} = z",
            f"        return ({plant_rows}{z_rows})",
            "    return rate, z_rate, augmented_field",
        ]
    )
    return _compile_factory(source, f"<iiorbit fields n={n} m={m} z={z_dim}>")


def _fields(bundle: IandIBundle) -> _Fields:
    """The bundle's plant rate, off-manifold rate and augmented field, from
    the code compiled once for its shape."""
    make = _field_factory(bundle.n, bundle.m, bundle.z_dim)
    lam = itertools.chain.from_iterable(bundle.z_matrix)
    return _Fields(*make(bundle.f, bundle.g, bundle.v, *lam))


def _plant_rate(bundle: IandIBundle):
    """The plant velocity x' = f(x) + g(x) v(x, z), component by component
    (see _field_factory); it runs alike on a point and on a stack."""
    return _fields(bundle).rate


def _z_rate(bundle: IandIBundle):
    """The off-manifold rate z' = Lambda z, row by row (see _field_factory)."""
    return _fields(bundle).z_rate


def closed_loop_field(bundle: IandIBundle) -> Field:
    """The autonomous loop x' = f(x) + g(x) v(x, phi(x))."""
    rate, phi = _plant_rate(bundle), bundle.phi
    return lambda x: rate(x, phi(x))


def augmented_field(bundle: IandIBundle) -> Field:
    """The pair (x, z) with x' = f + g v(x, z) and the bundle's off-manifold
    dynamics z' = Lambda z, meant to start from z(0) = phi(x(0)); one
    straight-line function (see _field_factory)."""
    return _fields(bundle).augmented


# Each residual maximum of a ValidationReport: its field, its to_text key,
# its failure label and its tolerance.
RESIDUAL_MAXIMA = (
    ("max_fbi", "max_immersion_residual", "immersion residual", FBI_TOL),
    ("max_manifold", "max_manifold_residual", "manifold residual", MANIFOLD_TOL),
    ("max_constraint", "max_boundary_residual", "boundary-condition residual", CONSTRAINT_TOL),
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

    pi_grid = evaluate(bundle.pi, xi_grid)
    kept = admissible_mask(bundle, pi_grid)
    xi, pi_xi = xi_grid[kept], pi_grid[kept]
    c, fbi = _control_and_residual(bundle, xi, pi_xi)
    z0 = np.zeros((len(xi), bundle.z_dim))

    x = x_grid[admissible_mask(bundle, x_grid)]
    g_margins = _singular_values(evaluate(bundle.g, x))[..., -1]
    z = evaluate(bundle.phi, x)
    xdot = evaluate(_plant_rate(bundle), x, z)
    zdot = derivative(bundle.phi, x, xdot)

    return ValidationReport(
        bundle_name=bundle.name,
        grid_size=grid_size,
        seed=seed,
        skipped_xi=grid_size - len(xi),
        skipped_x=grid_size - len(x),
        max_fbi=_max_abs(fbi),
        max_manifold=_max_abs(evaluate(bundle.phi, pi_xi)),
        max_constraint=_max_abs(evaluate(bundle.v, pi_xi, z0) - c),
        min_g_margin=float(np.min(g_margins, initial=np.inf)),
        max_z_consistency_err=_max_abs(evaluate(_z_rate(bundle), z) - zdot),
    )

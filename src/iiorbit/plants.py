"""The five built-in designs, their parameter records, and the preset registry.

Each make_* constructor validates its parameter inequalities, derives the
closed forms (immersion, implicit map, feedback) and the off-manifold matrix,
and returns an immutable bundle ready for residual checks and simulation.
The gains need no inequality of their own: the bundle rejects a matrix that
is not Hurwitz.
No design states its on-manifold control separately: v(pi(xi), 0) is that
control. Every closed form is a kernel in the sense of iiorbit.core:
components in by index, a tuple out, so one definition serves single points
and whole stacks. Sines and cosines go through _sin and _cos,
which keep one Python float a Python float (through math) and pass anything
else to numpy with the same bits. Logarithm, tangent and power stay numpy's
on every path, because math's versions differ from them in the last bit;
_log, _tan and _power return numpy's result as a Python float for a Python
float argument, so every kernel evaluated at a tuple of floats returns
floats.
Every kernel also carries a complex input through, for core.derivative;
a test that a cone or domain boundary holds reads the real part, so a
complex step is judged where its real part lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import IandIBundle, ParameterError
from .odesim import FieldEvaluationError

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _box(rows) -> np.ndarray:
    return np.array(rows, dtype=float)


def _rows(M) -> tuple:
    """A constant matrix as a tuple of row tuples, the kernel form."""
    return tuple(map(tuple, np.asarray(M, dtype=float).tolist()))


def _matvec2(M, v) -> tuple:
    """M v for a 2x2 matrix in kernel form and two components."""
    return (M[0][0] * v[0] + M[0][1] * v[1], M[1][0] * v[0] + M[1][1] * v[1])


def _finite_fields(record) -> None:
    """Raise TypeError for a bool field and ParameterError for a non-finite
    one; a bool passes every inequality below as 0 or 1, and NaN fails
    every one of them, which would let both through."""
    for f in fields(record):
        value = getattr(record, f.name)
        if np.asarray(value).dtype == bool:
            raise TypeError(f"{f.name} must be a number, not a bool (got {value!r})")
        if not np.all(np.isfinite(value)):
            raise ParameterError(f"{f.name} must be finite (got {value!r})")


def _point_aware(math_fun, numpy_fun):
    """A trig function that takes one Python float through math and
    anything else (an array, an np.float64) through numpy.

    The two agree bit for bit on every float tried (tests pin this on a
    seeded grid), and a float result keeps the integrators' stage arithmetic in
    Python floats, which numpy's float64 scalars run at about half speed.
    A non-finite float gives NaN, as numpy does; math raises for +-inf."""

    def fun(s):
        if type(s) is float:
            try:
                return math_fun(s)
            except ValueError:  # s is +-inf
                return s - s
        return numpy_fun(s)

    return fun


_sin = _point_aware(math.sin, np.sin)
_cos = _point_aware(math.cos, np.cos)


def _float_aware(numpy_fun):
    """numpy_fun with numpy's bits on every path, its result a Python float
    when the first argument is one."""

    def fun(s, *args):
        if type(s) is float:
            return float(numpy_fun(s, *args))
        return numpy_fun(s, *args)

    return fun


_log = _float_aware(np.log)
_tan = _float_aware(np.tan)
_power = _float_aware(np.power)


def _require(ok, message: str) -> None:
    """Raise FieldEvaluationError unless ok holds at every point: a flag
    array is read with all(), one point's flag with bool()."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise FieldEvaluationError(message)


@dataclass(frozen=True)
class LtiParams:
    """Double-integrator-like linear plant: x_b' = -P x_a - R x_b + u."""

    P: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        _finite_fields(self)


@dataclass(frozen=True)
class IwpParams:
    """Inertia wheel pendulum (normalized).

    m is the gravity torque coefficient, b the input coupling on the link
    acceleration, k the manifold slope, gamma1/gamma2 the off-manifold gains.
    k < -1/b is required so the effective restoring coefficient
    a = -m/(1 + b k) is positive.
    """

    m: float
    b: float
    k: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        _finite_fields(self)
        if self.m <= 0 or self.b <= 0:
            raise ParameterError("m and b must be positive")
        # 1 + b k is what a and the feedback divide by; it rounds to zero
        # for some k just below -1/b, so it is checked as computed
        if self.k >= -1.0 / self.b or 1.0 + self.b * self.k >= 0.0:
            raise ParameterError(
                f"k must satisfy k < -1/b (got k={self.k}, -1/b={-1.0 / self.b}, "
                f"1 + b k = {1.0 + self.b * self.k}); "
                "the restoring coefficient -m/(1+bk) is not positive otherwise"
            )

    @property
    def a(self) -> float:
        return -self.m / (1.0 + self.b * self.k)


@dataclass(frozen=True)
class CartPendLinearParams:
    """Cart-pendulum, design with a linear manifold map.

    a1 = g/l, a2 = 1/l in the normalized model. k < -1/a2 keeps the control
    denominator 1 + k a2 cos(x1) negative on the admissible cone
    cos(x1) > -1/(k a2).
    """

    a1: float
    a2: float
    k: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        _finite_fields(self)
        if self.a1 <= 0 or self.a2 <= 0:
            raise ParameterError("a1 and a2 must be positive")
        # the potential divides by 1 + k a2, which rounds to zero for some
        # k just below -1/a2, so it is checked as computed
        if self.k >= -1.0 / self.a2 or 1.0 + self.k * self.a2 >= 0.0:
            raise ParameterError(
                f"k must satisfy k < -1/a2 (got k={self.k}, -1/a2={-1.0 / self.a2}, "
                f"1 + k a2 = {1.0 + self.k * self.a2}); "
                "the control denominator 1 + k a2 cos(x1) changes sign otherwise"
            )

    @property
    def beta_star(self) -> float:
        """Half-width of the admissible angle cone."""
        return math.acos(-1.0 / (self.k * self.a2))


@dataclass(frozen=True)
class CartPendNonlinearParams:
    """Cart-pendulum, design with a curved manifold map.

    a > 0 is the design constant that keeps the target's potential minimum
    at the upright; a0 shifts the cart's rest position.
    """

    a1: float
    a2: float
    a: float
    a0: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        _finite_fields(self)
        if self.a1 <= 0 or self.a2 <= 0:
            raise ParameterError("a1 and a2 must be positive")
        if self.a <= 0:
            raise ParameterError(f"a must be positive (got {self.a})")


@dataclass(frozen=True)
class DcAcParams:
    """Averaged single-phase inverter in the stationary two-axis frame.

    R (ohm), C (farad), L (henry), E (DC source, volt); A and omega set the
    amplitude and angular frequency of the target orbit; gamma scales the
    off-manifold feedback. The duty-cycle inputs should stay inside [-1, 1]:
    the bundle's u_limit records that limit for monitoring, it is never
    enforced.
    """

    R: float
    C: float
    L: float
    E: float
    A: float
    omega: float
    gamma: float

    def __post_init__(self):
        _finite_fields(self)
        for name in ("R", "C", "L", "E", "A", "omega"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")


def make_lti(params: LtiParams) -> IandIBundle:
    """Linear plant tracking a pure rotation.

    The feedback cancels P and R and leaves the closed loop with the block
    matrix [[0, I], [J, J - I]], whose spectrum is {i, -i, -1, -1} for any
    P, R.
    """
    P = np.asarray(params.P, dtype=float)
    R = np.asarray(params.R, dtype=float)
    if P.shape != (2, 2) or R.shape != (2, 2):
        raise ParameterError("P and R must be 2x2")
    Pk, Rk, RJk = _rows(P), _rows(R), _rows(R + _J)
    G = _rows(np.vstack([np.zeros((2, 2)), np.eye(2)]))

    def f(x):
        px, rx = _matvec2(Pk, x[:2]), _matvec2(Rk, x[2:])
        return (x[2], x[3], -px[0] - rx[0], -px[1] - rx[1])

    def v(x, z):
        px, rx = _matvec2(Pk, x[:2]), _matvec2(RJk, x[2:])
        return (px[0] + rx[0] - z[0], px[1] + rx[1] - z[1])

    return IandIBundle(
        name="lti",
        f=f,
        g=lambda x: G,
        m=2,
        alpha=lambda xi: (xi[1], -xi[0]),
        pi=lambda xi: (xi[0], xi[1], xi[1], -xi[0]),
        phi=lambda x: (x[2] - x[1], x[0] + x[3]),
        v=v,
        xi_sample_box=_box([[-2, 2], [-2, 2]]),
        x_sample_box=_box([[-2, 2]] * 4),
        z_matrix=((-1.0, 0.0), (0.0, -1.0)),
        xi_projection=(0, 1),
        section_index=1,
        first_integral=lambda xi: 0.5 * (xi[0] * xi[0] + xi[1] * xi[1]),
    )


def make_iwp(params: IwpParams) -> IandIBundle:
    """Inertia wheel pendulum oscillating about the upright.

    The manifold ties the disk coordinates to the link by the slope k; on it
    the link obeys a pendulum with restoring coefficient a = -m/(1+bk).
    """
    m, b, k = params.m, params.b, params.k
    g1, g2 = params.gamma1, params.gamma2
    a = params.a
    pi, phi = _straight_manifold(k)
    G = ((0.0,), (0.0,), (-b,), (1.0,))
    inv_den = 1.0 / (1.0 + k * b)
    km = k * m

    def v(x, z):
        return (inv_den * (-g1 * z[1] - g2 * z[0] + km * _sin(x[0])),)

    return IandIBundle(
        name="iwp",
        f=lambda x: (x[2], x[3], m * _sin(x[0]), 0.0),
        g=lambda x: G,
        m=1,
        alpha=lambda xi: (xi[1], -a * _sin(xi[0])),
        pi=pi,
        phi=phi,
        v=v,
        xi_sample_box=_box([[-3, 3], [-3, 3]]),
        x_sample_box=_box([[-3, 3]] * 4),
        z_matrix=((0.0, 1.0), (-g2, -g1)),
        xi_projection=(0, 2),
        angle_indices=(0, 1),
        section_index=2,
        first_integral=lambda xi: 0.5 * (xi[1] * xi[1]) - a * _cos(xi[0]),
    )


def _straight_manifold(k: float):
    """pi(xi) = (xi1, k xi1, xi2, k xi2) and the phi whose zero set is its
    image, x2 = k x1 and x4 = k x3."""
    return (
        lambda xi: (xi[0], k * xi[0], xi[1], k * xi[1]),
        lambda x: (x[1] - k * x[0], x[3] - k * x[2]),
    )


def _cartpend_plant(a1: float, a2: float) -> dict:
    """The f, g and m that both cart-pendulum designs share."""
    return {
        "f": lambda x: (x[2], x[3], a1 * _sin(x[0]), 0.0),
        "g": lambda x: ((0.0,), (0.0,), (-a2 * _cos(x[0]),), (1.0,)),
        "m": 1,
    }


def make_cartpend_linear(params: CartPendLinearParams) -> IandIBundle:
    """Cart-pendulum design with linear manifold map.

    Valid on the cone cos(x1) > -1/(k a2), where the control denominator
    1 + k a2 cos(x1) stays negative; evaluating the feedback outside raises
    and aborts the surrounding integration.
    """
    a1, a2, k = params.a1, params.a2, params.k
    g1, g2 = params.gamma1, params.gamma2
    beta_star = params.beta_star
    pi, phi = _straight_manifold(k)
    ka1, ka2 = k * a1, k * a2
    outside = f"x1 leaves the admissible cone (|x1| < {beta_star:.6f})"
    edge = f"x1 on the cone edge (|x1| = {beta_star:.6f}), where 1 + k a2 cos(x1) = 0"

    def denom(s):
        return 1.0 + ka2 * _cos(s)

    def v(x, z):
        d = denom(x[0])
        _require(d.real < 0.0, outside)
        return ((-g1 * z[1] - g2 * z[0] + ka1 * _sin(x[0])) / d,)

    def nonzero_denom(s):
        """denom(s), which must not vanish: a float divisor would raise
        ZeroDivisionError there (v's own check excludes it)."""
        d = denom(s)
        _require(d != 0.0, edge)
        return d

    def alpha2(s):
        return a1 * _sin(s) / nonzero_denom(s)

    def potential(s):
        """-integral of alpha2 from 0 to s, in closed form."""
        return (a1 / ka2) * _log(abs(denom(s) / (1.0 + ka2)))

    # the sample boxes keep clear of the cone edge by 0.05, or by half of
    # beta_star when that is below 0.1, so a narrow cone keeps a box
    s_lim = beta_star - min(0.05, beta_star / 2)
    return IandIBundle(
        name="cartpend-linear",
        **_cartpend_plant(a1, a2),
        alpha=lambda xi: (xi[1], alpha2(xi[0])),
        pi=pi,
        phi=phi,
        v=v,
        xi_sample_box=_box([[-s_lim, s_lim], [-1.5, 1.5]]),
        x_sample_box=_box([[-s_lim, s_lim], [-3, 3], [-2, 2], [-3, 3]]),
        z_matrix=((0.0, 1.0), (-g2, -g1)),
        xi_projection=(0, 2),
        angle_indices=(0,),
        section_index=2,
        first_integral=lambda xi: 0.5 * (xi[1] * xi[1]) + potential(xi[0]),
        singularity_margin=lambda x: -denom(x[0]),
    )


def make_cartpend_nonlinear(params: CartPendNonlinearParams) -> IandIBundle:
    """Cart-pendulum design with curved manifold map, valid on the whole
    upper half plane |x1| < pi/2.

    The cart coordinate is slaved to the link through
    kfun(s) = -((1+a)/a2) ln((1+sin s)/cos s) + a0, which makes the control
    denominator the constant -a.
    """
    a1, a2, a, a0 = params.a1, params.a2, params.a, params.a0
    g1, g2 = params.gamma1, params.gamma2
    c1 = (1.0 + a) / a2
    half_pi = math.pi / 2

    def slaving(s):
        """kfun(s), kfun'(s), kfun''(s); raises off (-pi/2, pi/2). On it
        cos(s) >= 2.8e-16 (half_pi is the float just below pi/2), so neither
        divisor vanishes on the float path."""
        _require(abs(s.real) < half_pi, "link angle outside (-pi/2, pi/2)")
        sin, cos = _sin(s), _cos(s)
        return -c1 * _log((1.0 + sin) / cos) + a0, -c1 / cos, -c1 * sin / (cos * cos)

    def pi_map(xi):
        k, kp, _ = slaving(xi[0])
        return (xi[0], k, xi[1], kp * xi[1])

    def phi(x):
        k, kp, _ = slaving(x[0])
        return (x[1] - k, x[3] - kp * x[2])

    def v(x, z):
        _, kp, kpp = slaving(x[0])
        return (-(kpp * (x[2] * x[2]) + a1 * kp * _sin(x[0]) - g2 * z[0] - g1 * z[1]) / a,)

    def alpha(xi):
        rho = -(a1 / a) * _sin(xi[0])
        beta = -((1.0 + a) / a) * _tan(xi[0])
        return (xi[1], rho + beta * (xi[1] * xi[1]))

    exp_m = -2.0 * (1.0 + 1.0 / a)
    exp_u = -(1.0 + 2.0 / a)
    u_scale = a1 / (a + 2.0)

    def first_integral(xi):
        c = _cos(xi[0])
        return 0.5 * _power(abs(c), exp_m) * (xi[1] * xi[1]) + u_scale * _power(c, exp_u)

    s_lim = half_pi - 0.05
    return IandIBundle(
        name="cartpend-nonlinear",
        **_cartpend_plant(a1, a2),
        alpha=alpha,
        pi=pi_map,
        phi=phi,
        v=v,
        xi_sample_box=_box([[-s_lim, s_lim], [-1.0, 1.0]]),
        x_sample_box=_box([[-s_lim, s_lim], [-3, 3], [-1.5, 1.5], [-3, 3]]),
        z_matrix=((0.0, 1.0), (-g2, -g1)),
        xi_projection=(0, 2),
        angle_indices=(0,),
        section_index=2,
        first_integral=first_integral,
        singularity_margin=lambda x: half_pi - abs(x[0]),
    )


def make_dcac(params: DcAcParams) -> IandIBundle:
    """Averaged inverter driven onto a circular voltage/current orbit.

    The target has a single attractive orbit |xi| = A, so no first integral
    is recorded. The duty-cycle magnitude limit |u| <= 1 is the bundle's
    u_limit, monitored and never enforced.
    """
    R, C, L, E = params.R, params.C, params.L, params.E
    A, omega, gamma = params.A, params.omega, params.gamma
    A2 = A * A
    G = _rows(np.vstack([np.zeros((2, 2)), (E / L) * np.eye(2)]))

    def f0(x):
        return (-x[0] / (R * C) + x[2] / C, -x[1] / (R * C) + x[3] / C)

    def f(x):
        return f0(x) + (-x[0] / L, -x[1] / L)

    def beta(x1, x2):
        r2 = x1 * x1 + x2 * x2 - A2
        return (
            x1 / R - C * r2 * x1 + C * omega * x2,
            x2 / R - C * omega * x1 - C * r2 * x2,
        )

    def beta_jac(x1, x2):
        return (
            (
                1.0 / R - C * (3.0 * x1 * x1 + x2 * x2 - A2),
                C * omega - 2.0 * C * x1 * x2,
            ),
            (
                -C * omega - 2.0 * C * x1 * x2,
                1.0 / R - C * (x1 * x1 + 3.0 * x2 * x2 - A2),
            ),
        )

    def v(x, z):
        """x/E + (L/E) Dbeta(x) f0(x) - gamma z."""
        Jf = _matvec2(beta_jac(x[0], x[1]), f0(x))
        return (
            x[0] / E + (L / E) * Jf[0] - gamma * z[0],
            x[1] / E + (L / E) * Jf[1] - gamma * z[1],
        )

    def alpha(xi):
        r2 = xi[0] * xi[0] + xi[1] * xi[1] - A2
        return (-r2 * xi[0] + omega * xi[1], -omega * xi[0] - r2 * xi[1])

    def pi_map(xi):
        return (xi[0], xi[1]) + beta(xi[0], xi[1])

    def phi(x):
        b = beta(x[0], x[1])
        return (x[2] - b[0], x[3] - b[1])

    z_rate = gamma * E / L
    return IandIBundle(
        name="dcac",
        f=f,
        g=lambda x: G,
        m=2,
        alpha=alpha,
        pi=pi_map,
        phi=phi,
        v=v,
        xi_sample_box=_box([[-1.25 * A, 1.25 * A]] * 2),
        x_sample_box=_box(
            [[-1.25 * A, 1.25 * A]] * 2 + [[-5.0 * A * C * omega, 5.0 * A * C * omega]] * 2
        ),
        z_matrix=((-z_rate, 0.0), (0.0, -z_rate)),
        xi_projection=(0, 1),
        section_index=0,
        u_limit=1.0,
    )


_PRESET_PARAMS = {
    "cartpend-lin-default": CartPendLinearParams(
        a1=9.8, a2=1.0, k=-4.0, gamma1=2.0, gamma2=2.0
    ),
    "cartpend-nl-default": CartPendNonlinearParams(
        a1=9.8, a2=1.0, a=2.0, a0=0.0, gamma1=1.0, gamma2=1.0
    ),
    "dcac-default": DcAcParams(
        R=10.0, C=1e-3, L=1e-3, E=24.0, A=12.0, omega=100.0 * math.pi, gamma=0.01
    ),
    "iwp-default": IwpParams(m=1.962, b=10.0, k=-1.6, gamma1=2.0, gamma2=1.0),
    "lti-identity": LtiParams(P=np.eye(2), R=np.eye(2)),
}

PRESETS = tuple(sorted(_PRESET_PARAMS))

_KIND_MAKERS = {
    "lti": (LtiParams, make_lti),
    "iwp": (IwpParams, make_iwp),
    "cartpend-linear": (CartPendLinearParams, make_cartpend_linear),
    "cartpend-nonlinear": (CartPendNonlinearParams, make_cartpend_nonlinear),
    "dcac": (DcAcParams, make_dcac),
}


def preset_params(name: str):
    """The parameter record behind a named preset."""
    try:
        return _PRESET_PARAMS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}") from None


def make_preset(name: str, **overrides) -> IandIBundle:
    """Build a preset bundle, optionally overriding parameter fields.

    Overriding a field re-runs the parameter record's validation, so an
    out-of-range value raises ParameterError before anything is simulated;
    an unknown field name raises TypeError.
    """
    params = replace(preset_params(name), **overrides)
    make = next(make for cls, make in _KIND_MAKERS.values() if type(params) is cls)
    return make(params)


def make_inline(kind: str, **kwargs) -> IandIBundle:
    """Build a bundle from an inline parameter block (CLI config path)."""
    try:
        cls, make = _KIND_MAKERS[kind]
    except KeyError:
        raise KeyError(
            f"unknown bundle kind {kind!r}; known: {', '.join(sorted(_KIND_MAKERS))}"
        ) from None
    return make(cls(**kwargs))

"""Example systems with exact flows, torus actions, embeddings, and phase data.

Every entry packages a closed-form flow together with whatever exact
structure it supports: a torus action, a linearizing embedding and its
generator, an asymptotic phase map, Lyapunov level-set data for the basin
builders, and the expected linearizability verdict.  These are the ground
truth that the numerical modules are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .embed import EmbeddingCandidate, LyapunovData, TransverseData
from .errors import FlowlinError
from .flows import (
    TWO_PI,
    ChartDescriptor,
    FlowSystem,
    circle_coords,
    euclidean,
    join_coords,
    polar_annulus,
    product,
    torus_angles,
    torus_translation,
)
from .integrate import batch_pow
from .linalg import block_diag, frequency_vector, row_norms
from .obstruct import SystemFacts
from .phase import AttractorModel

__all__ = [
    "TorusActionSpec",
    "ExactEmbedding",
    "ExpectedVerdict",
    "EquilibriumInfo",
    "CatalogEntry",
    "UnknownEntry",
    "names",
    "get",
    "STANDARD_TIMES",
]


class UnknownEntry(FlowlinError):
    """No catalog entry under that name."""


_J = np.array([[0.0, -1.0], [1.0, 0.0]])
# the default verification times; a t = 0 copy of a state is the state itself
STANDARD_TIMES = (0.1, 1.0, float(np.pi), 10.0)
_CLOUD_SEED = 77003


@dataclass(frozen=True, eq=False)
class TorusActionSpec:
    """Torus action whose 1-parameter subgroup along omega is the flow."""

    action: Callable  # (h (N, n) in [0,1)^n, x (N, dim)) -> (N, dim), one h row per state
    omega: np.ndarray  # frequencies, one per angle

    def __post_init__(self):
        object.__setattr__(self, "omega", frequency_vector(self.omega))


# bench/tests/test_oracle.py builds exact embeddings as catalog.ExactEmbedding(F, B)
ExactEmbedding = EmbeddingCandidate


@dataclass(frozen=True)
class ExpectedVerdict:
    kind: str  # "linearizable_smooth" | "linearizable_topological" | "not_linearizable"
    reason: str | None = None


@dataclass(frozen=True, eq=False)
class EquilibriumInfo:
    """Isolated equilibrium with its index and a planar chart field for winding."""

    location: tuple
    index: int
    planar_field: Callable  # (N, 2) points -> (N, 2) vectors


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    system: FlowSystem
    expected_verdict: ExpectedVerdict
    sample_states: Callable  # (rng, count) -> (count, dim) array
    ode_system: FlowSystem | None = None
    action: TorusActionSpec | None = None
    exact_embedding: EmbeddingCandidate | None = None
    exact_phase: Callable | None = None
    lyapunov: LyapunovData | None = None
    transverse: TransverseData | None = None
    attractor: AttractorModel | None = None
    attractor_embedding: EmbeddingCandidate | None = None  # F0 on the attractor
    equilibria: tuple = ()
    facts: SystemFacts | None = None
    escape_states: Callable | None = None  # count -> (states, V values)
    custom_observables: dict = field(default_factory=dict)


def _rotate2(x, y, angle):
    c, s = np.cos(angle), np.sin(angle)
    return c * x - s * y, s * x + c * y


# --- quasiperiodic tori ------------------------------------------------------

_TORUS_OMEGAS = {
    1: np.array([1.0]),
    2: np.array([1.0, np.sqrt(2.0)]),
    3: np.array([1.0, np.sqrt(2.0), np.sqrt(3.0)]),
}


def _torus_entry(n: int) -> CatalogEntry:
    w = _TORUS_OMEGAS[n]
    system = torus_translation(f"quasiperiodic_torus_{n}", w)
    action = TorusActionSpec(
        action=lambda h, x: system.chart.wrap(np.asarray(x, float) + np.asarray(h, float)),
        omega=w,
    )
    B = block_diag(*[TWO_PI * wi * _J for wi in w])
    embedding = EmbeddingCandidate(lambda x: circle_coords(TWO_PI * np.asarray(x, float), 1.0), B)
    return CatalogEntry(
        name=system.name,
        system=system,
        expected_verdict=ExpectedVerdict("linearizable_smooth"),
        sample_states=lambda rng, count: rng.random((count, n)),
        action=action,
        exact_embedding=embedding,
        facts=SystemFacts(dim=n, surface_type="torus" if n == 2 else None,
                          euler_characteristic=0),
    )


# --- sphere rotation ---------------------------------------------------------


def _sphere_closed(t, x):
    zx, zy = _rotate2(x[..., 0], x[..., 1], TWO_PI * t)
    return join_coords(zx, zy, x[..., 2])


def _sphere_sampler(rng, count):
    pts = rng.normal(size=(count, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# the circle action of the sphere rotation and its north pole, shared with the
# projective plane, where the north pole stands for the antipodal pair of poles
_SPHERE_ACTION = TorusActionSpec(
    action=lambda h, x: _sphere_closed(h[..., 0], np.asarray(x, float)), omega=[1.0]
)
_NORTH_POLE = EquilibriumInfo(
    (0.0, 0.0, 1.0), 1, lambda p: TWO_PI * np.column_stack([-p[:, 1], p[:, 0]])
)


def _sphere_entry() -> CatalogEntry:
    chart = euclidean(3)
    system = FlowSystem(name="sphere_rotation", chart=chart, closed_form=_sphere_closed)
    B = block_diag(TWO_PI * _J, np.zeros((1, 1)))
    south = EquilibriumInfo(
        (0.0, 0.0, -1.0), 1, lambda p: TWO_PI * np.column_stack([p[:, 1], -p[:, 0]])
    )
    return CatalogEntry(
        name="sphere_rotation",
        system=system,
        expected_verdict=ExpectedVerdict("linearizable_smooth"),
        sample_states=_sphere_sampler,
        action=_SPHERE_ACTION,
        exact_embedding=EmbeddingCandidate(lambda x: np.asarray(x, float).copy(), B),
        equilibria=(_NORTH_POLE, south),
        facts=SystemFacts(
            dim=2, equilibrium_indices=(1, 1), surface_type="sphere", euler_characteristic=2
        ),
    )


# --- Klein bottle ------------------------------------------------------------


def _klein_identify(p):
    p = np.asarray(p, float)
    return join_coords(np.mod(p[..., 0] + 0.5, 1.0), np.mod(-p[..., 1], 1.0))


def _klein_F(x):
    a, b = TWO_PI * x[..., 0], TWO_PI * x[..., 1]
    return join_coords(
        np.cos(2 * a), np.sin(2 * a), np.sin(b) * np.cos(a), np.sin(b) * np.sin(a), np.cos(b)
    )


def _klein_entry() -> CatalogEntry:
    chart = torus_angles(2, identifications=(_klein_identify,))
    system = FlowSystem(
        name="klein_bottle",
        chart=chart,
        closed_form=lambda t, x: join_coords(x[..., 0] + t, x[..., 1]),
    )
    action = TorusActionSpec(
        action=lambda h, x: chart.wrap(join_coords(x[..., 0] + h[..., 0], x[..., 1])),
        omega=[1.0],
    )
    B = block_diag(2 * TWO_PI * _J, TWO_PI * _J, np.zeros((1, 1)))
    return CatalogEntry(
        name="klein_bottle",
        system=system,
        expected_verdict=ExpectedVerdict("linearizable_smooth"),
        sample_states=lambda rng, count: rng.random((count, 2)),
        action=action,
        exact_embedding=EmbeddingCandidate(_klein_F, B),
        facts=SystemFacts(dim=2, surface_type="klein_bottle", euler_characteristic=0),
    )


# --- real projective plane ---------------------------------------------------


def _rp2_F(x):
    zx, zy, s = x[..., 0], x[..., 1], x[..., 2]
    return join_coords(zx * zx - zy * zy, 2 * zx * zy, s * zx, -s * zy, s * s)


def _rp2_entry() -> CatalogEntry:
    chart = ChartDescriptor("euclidean", (None, None, None), (lambda p: -np.asarray(p, float),))
    system = FlowSystem(name="projective_plane", chart=chart, closed_form=_sphere_closed)
    B = block_diag(2 * TWO_PI * _J, -TWO_PI * _J, np.zeros((1, 1)))
    return CatalogEntry(
        name="projective_plane",
        system=system,
        expected_verdict=ExpectedVerdict("linearizable_smooth"),
        sample_states=_sphere_sampler,
        action=_SPHERE_ACTION,
        exact_embedding=EmbeddingCandidate(_rp2_F, B),
        equilibria=(_NORTH_POLE,),
        facts=SystemFacts(
            dim=2, equilibrium_indices=(1,), surface_type="projective_plane",
            euler_characteristic=1,
        ),
    )


# --- stabilized sphere (attractor with product phase) ------------------------


def _product_closed(t, x):
    zx, zy = _rotate2(x[..., 0], x[..., 1], TWO_PI * t)
    return join_coords(zx, zy, x[..., 2], x[..., 3] * np.exp(-t))


def _product_phase(x):
    out = np.array(x, dtype=float)
    out[..., 3] = 0.0
    return out


def _product_entry() -> CatalogEntry:
    chart = product(euclidean(3), euclidean(1))
    system = FlowSystem(name="product_attractor", chart=chart, closed_form=_product_closed)
    rng = np.random.default_rng(_CLOUD_SEED)
    sphere = _sphere_sampler(rng, 256)
    cloud = np.column_stack([sphere, np.zeros(256)])
    restricted = FlowSystem(name="product_attractor|A", chart=chart, closed_form=_product_closed)

    def projector(x):
        x = np.asarray(x, float)
        out = np.zeros(x.shape)
        out[..., :3] = x[..., :3] / row_norms(x[..., :3])[..., None]
        return out

    attractor = AttractorModel(cloud=cloud, restricted_flow=restricted, exact_projector=projector)
    B = block_diag(TWO_PI * _J, np.zeros((1, 1)), -np.eye(1))
    lyap = LyapunovData(
        V=lambda x: x[..., 3] * x[..., 3],
        level=1.0,
        level_set_embedding=lambda x: join_coords(
            x[..., 0], x[..., 1], x[..., 2], np.sign(x[..., 3])
        )
        / np.sqrt(2.0),
        sphere_dim=4,
    )

    def sampler(rng, count):
        sphere = _sphere_sampler(rng, count)
        y = rng.uniform(0.1, 2.0, count) * rng.choice([-1.0, 1.0], count)
        return np.column_stack([sphere, y])

    def escape(count):
        ys = np.exp(np.linspace(0.0, 4.0, count))
        states = np.array([[1.0, 0.0, 0.0, y] for y in ys])
        return states, ys**2

    F0 = EmbeddingCandidate(
        lambda a: np.asarray(a, float)[..., :3], block_diag(TWO_PI * _J, np.zeros((1, 1)))
    )
    return CatalogEntry(
        name="product_attractor",
        system=system,
        expected_verdict=ExpectedVerdict("linearizable_smooth"),
        sample_states=sampler,
        exact_embedding=EmbeddingCandidate(lambda x: np.asarray(x, float).copy(), B),
        exact_phase=_product_phase,
        lyapunov=lyap,
        attractor=attractor,
        attractor_embedding=F0,
        escape_states=escape,
    )


# --- cubic-pinned limit cycle on the punctured plane --------------------------
#
# dr/dt = -(r-1)^3, dtheta/dt = r.  With u = r - 1 and w = sqrt(1 + 2 t u^2):
#   r(t) = 1 + u / w,   theta(t) = theta + t + 2 t u / (1 + w),
# a single expression stable through u -> 0 that agrees with the two-branch
# solution on either side of the limit cycle.  Trajectories leave the
# punctured plane at finite backward time, hence the explicit domain bound.


def _annulus_closed(t, x):
    r, theta = x[..., 0], x[..., 1]
    u = r - 1.0
    w = np.sqrt(1.0 + 2.0 * t * u * u)
    return join_coords(1.0 + u / w, theta + t + 2.0 * t * u / (1.0 + w))


def _annulus_t_min(x):
    r = x[..., 0][()]  # one state's r as a float, whose arithmetic skips ufunc dispatch
    u = r - 1.0
    # -0.5 / 0 = -inf on the limit cycle: no bound; r (r - 2) is u^2 - 1 unrounded near r = 0
    with np.errstate(divide="ignore"):
        return np.where(u > 0.0, -0.5, 0.5 * r * (r - 2.0)) / (u * u)


def _annulus_field(x):
    return -batch_pow(x[0] - 1.0, 3), x[0]


def _circle_attractor(name: str) -> AttractorModel:
    thetas = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    cloud = np.column_stack([np.ones(256), thetas])
    restricted = FlowSystem(
        name=f"{name}|A",
        chart=polar_annulus(),
        closed_form=lambda t, x: join_coords(x[..., 0], x[..., 1] + t),
    )
    return AttractorModel(
        cloud=cloud,
        restricted_flow=restricted,
        exact_projector=lambda x: join_coords(np.ones_like(x[..., 1]), x[..., 1]),
    )


def _annulus_sampler(rng, count):
    r = np.where(
        rng.random(count) < 0.5,
        rng.uniform(0.4, 0.95, count),
        rng.uniform(1.05, 2.2, count),
    )
    theta = rng.uniform(0.0, TWO_PI, count)
    return np.column_stack([r, theta])


def _polar_fourier_observables(max_radial_power: int, max_harmonic: int):
    """Radial monomials crossed with angular harmonics on a polar chart."""
    radial = range(max_radial_power + 1)
    harmonics = range(1, max_harmonic + 1)
    labels = [f"r^{a}" for a in radial] + [
        f"r^{a}*{trig}({k}t)" for a in radial for k in harmonics for trig in ("cos", "sin")
    ]

    def F(x):
        r, theta = x[..., 0], x[..., 1]
        # r^a as a product of a factors r, the same for one state or a batch
        powers = np.cumprod(join_coords(np.ones_like(r), *[r] * max_radial_power), axis=-1)
        ang = np.multiply.outer(theta, np.array(harmonics))
        waves = join_coords(np.cos(ang), np.sin(ang)).reshape(ang.shape[:-1] + (-1,))
        cross = powers[..., :, None] * waves[..., None, :]
        return np.concatenate([powers, cross.reshape(powers.shape[:-1] + (-1,))], axis=-1)

    return labels, F


def _annulus_entry() -> CatalogEntry:
    chart = polar_annulus()
    system = FlowSystem(
        name="annulus_cubic", chart=chart, closed_form=_annulus_closed, t_min=_annulus_t_min
    )
    ode = FlowSystem(
        name="annulus_cubic_ode", chart=chart, vector_field=_annulus_field, t_min=_annulus_t_min
    )
    return CatalogEntry(
        name="annulus_cubic",
        system=system,
        expected_verdict=ExpectedVerdict(
            "not_linearizable", reason="no continuous asymptotic phase"
        ),
        sample_states=_annulus_sampler,
        ode_system=ode,
        attractor=_circle_attractor("annulus_cubic"),
        custom_observables={"polar_fourier_5": _polar_fourier_observables(2, 5)},
    )


# --- logarithmic radial decay with sheared rotation ---------------------------
#
# dr/dt = -r ln r, dtheta/dt = 1 + ln r.  With v = ln r the radial part is
# v(t) = v0 e^{-t} and theta(t) = theta0 + t + v0 (1 - e^{-t}), so the flow is
# complete, the unit circle attracts, and phi = theta + ln r is an exact phase
# angle.  F = (e^{i phi}, v e^{i phi}) linearizes with generator
# blockdiag(J, -I + J).


def _log_radial_closed(t, x):
    r, theta = x[..., 0], x[..., 1]
    v = np.log(r)
    decay = np.exp(-t)
    return join_coords(np.exp(v * decay), theta + t - v * np.expm1(-t))


def _log_radial_field(x):
    v = np.log(x[0])
    return -x[0] * v, 1.0 + v


def _log_radial_phase(x):
    phi = np.mod(x[..., 1] + np.log(x[..., 0]), TWO_PI)
    return join_coords(np.ones_like(phi), phi)


def _log_radial_F(x):
    r, theta = x[..., 0], x[..., 1]
    v = np.log(r)
    phi = theta + v
    c, s = np.cos(phi), np.sin(phi)
    return join_coords(c, s, v * c, v * s)


_LOG_RADIAL_BG = np.array([[-1.0, -1.0], [1.0, -1.0]])


def _log_radial_G(x):
    r, theta = x[..., 0], x[..., 1]
    v = np.log(r)
    phi = theta + v
    return join_coords(v * np.cos(phi), v * np.sin(phi))


def _log_radial_F1(x):
    c, s = np.cos(x[..., 1]), np.sin(x[..., 1])
    outer = np.log(x[..., 0]) > 0
    zero = np.zeros_like(c)
    return join_coords(
        np.where(outer, c, zero), np.where(outer, s, zero),
        np.where(outer, zero, c), np.where(outer, zero, s),
    )


def _log_radial_V(x):
    v = np.log(x[..., 0])
    return v * v


def _log_radial_entry() -> CatalogEntry:
    chart = polar_annulus()
    system = FlowSystem(name="log_radial", chart=chart, closed_form=_log_radial_closed)
    ode = FlowSystem(name="log_radial_ode", chart=chart, vector_field=_log_radial_field)
    B = block_diag(_J, _LOG_RADIAL_BG)
    lyap = LyapunovData(
        V=_log_radial_V,
        level=1.0,
        level_set_embedding=_log_radial_F1,
        sphere_dim=4,
    )
    transverse = TransverseData(
        G=_log_radial_G,
        B=_LOG_RADIAL_BG,
        in_U=lambda x: np.ones(np.shape(x)[:-1], dtype=bool),
    )

    def sampler(rng, count):
        r = np.exp(rng.uniform(np.log(0.5), np.log(2.0), count))
        theta = rng.uniform(0.0, TWO_PI, count)
        return np.column_stack([r, theta])

    def escape(count):
        vs = np.linspace(1.0, 4.0, count)
        states = np.column_stack([np.exp(vs), np.zeros(count)])
        return states, vs**2

    F0 = EmbeddingCandidate(lambda a: join_coords(np.cos(a[..., 1]), np.sin(a[..., 1])), _J)
    exact_lift = (["re_phase", "im_phase", "re_decay", "im_decay"], _log_radial_F)
    return CatalogEntry(
        name="log_radial",
        system=system,
        expected_verdict=ExpectedVerdict("linearizable_smooth"),
        sample_states=sampler,
        ode_system=ode,
        exact_embedding=EmbeddingCandidate(_log_radial_F, B),
        exact_phase=_log_radial_phase,
        lyapunov=lyap,
        transverse=transverse,
        attractor=_circle_attractor("log_radial"),
        attractor_embedding=F0,
        escape_states=escape,
        custom_observables={"exact_lift": exact_lift},
    )


# --- planar saddle (obstruction fixture) --------------------------------------


def _saddle_entry() -> CatalogEntry:
    chart = euclidean(2)
    system = FlowSystem(
        name="saddle_plane",
        chart=chart,
        closed_form=lambda t, x: join_coords(x[..., 0] * np.exp(t), x[..., 1] * np.exp(-t)),
    )
    ode = FlowSystem(
        name="saddle_plane_ode",
        chart=chart,
        vector_field=lambda x: (x[0], -x[1]),
    )
    eq = EquilibriumInfo(
        (0.0, 0.0), -1, lambda p: np.column_stack([p[:, 0], -p[:, 1]])
    )
    return CatalogEntry(
        name="saddle_plane",
        system=system,
        expected_verdict=ExpectedVerdict("linearizable_smooth"),
        sample_states=lambda rng, count: rng.uniform(-2.0, 2.0, (count, 2)),
        ode_system=ode,
        equilibria=(eq,),
    )


_BUILDERS = {
    "quasiperiodic_torus_1": lambda: _torus_entry(1),
    "quasiperiodic_torus_2": lambda: _torus_entry(2),
    "quasiperiodic_torus_3": lambda: _torus_entry(3),
    "sphere_rotation": _sphere_entry,
    "klein_bottle": _klein_entry,
    "projective_plane": _rp2_entry,
    "product_attractor": _product_entry,
    "annulus_cubic": _annulus_entry,
    "log_radial": _log_radial_entry,
    "saddle_plane": _saddle_entry,
}

_CACHE: dict[str, CatalogEntry] = {}


def names() -> list[str]:
    return list(_BUILDERS)


def get(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise UnknownEntry(f"unknown catalog entry {name!r}; known: {', '.join(names())}")
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]

"""Vanishing geodesic distance for an infimal convolution of two l^2 metrics.

The two factor metrics on truncated l^2 are a diagonal flat metric with
positive decaying weights m_i and a conformal multiple f(|x|^2) of the
standard inner product.  Their infimal convolution splits coordinatewise and
has the closed-form speed

    G_x(u, u) = sum_i (m_i f(|x|^2) / (m_i + f(|x|^2))) u_i^2

(the harmonic mean of the two quadratic weights).  Both factors have
non-degenerate distance, yet the three-segment detour through a far-out
basis direction e_n

    x  ->  x + m_n^(-1/4) e_n  ->  y + m_n^(-1/4) e_n  ->  y

has total length -> 0 as n grows: the outer segments cost at most m_n^(1/4)
in the flat factor, and along the middle segment |c(t)|^2 >= m_n^(-1/2) -
2 m_n^(-1/4) (|x| + |y - x|) blows up, killing the conformal factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Quadrature points per ic_speed call in segment_length: its memory stays near
# SPEED_BLOCK * n_max floats for any quad_points.
SPEED_BLOCK = 4096


def default_weights(n_max):
    """m_i = 2^-i for i = 1..n_max; refused where the last weight underflows to zero."""
    if 0.5**n_max == 0.0:
        raise ValueError(f"n_max = {n_max} exceeds 1074: the weights 0.5**n underflow to zero")
    return 0.5 ** np.arange(1, n_max + 1)


def default_conformal(s):
    return 1.0 / (1.0 + s)


@dataclass(frozen=True)
class SeqSpace:
    """Truncation dimension, with the weights ``default_weights(n_max)``.

    The conformal factor is ``default_conformal``, 1/(1+s); the certified
    bounds below assume it is nonincreasing, which it is.
    """

    n_max: int = 64
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    conformal_f = staticmethod(default_conformal)

    def __post_init__(self):
        object.__setattr__(self, "weights", default_weights(self.n_max))

    def vector(self, coords) -> np.ndarray:
        v = np.zeros(self.n_max)
        coords = np.asarray(coords, float)
        if coords.size > self.n_max:
            raise ValueError("coordinates exceed the truncation dimension")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        v[: coords.size] = coords
        return v

    def basis(self, n) -> np.ndarray:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"basis index must lie in [1, {self.n_max}]")
        v = np.zeros(self.n_max)
        v[n - 1] = 1.0
        return v


def ic_speed(space: SeqSpace, x, u):
    """Closed-form infimal-convolution speed: harmonic-mean weights.

    ``x`` is one point, shape (n_max,), or a stack of points (q, n_max) that
    share the velocity ``u``; a point gives a float, a stack an array of q
    speeds.  ``ic_speed_grid_search`` is its brute-force check over the
    coordinatewise splits.
    """
    x = np.asarray(x, float)
    f_val = space.conformal_f(np.einsum("...i,...i->...", x, x))[..., None]
    weights = space.weights * f_val / (space.weights + f_val)
    speed = weights @ np.asarray(u, float) ** 2
    return float(speed) if x.ndim == 1 else speed


def ic_speed_grid_search(space: SeqSpace, x, u, split_grid=1000) -> float:
    """Brute-force verification of the speed over coordinatewise splits t_i.

    Minimizes m_i t^2 u_i^2 + f(|x|^2) (1-t)^2 u_i^2 over t in a uniform
    grid on [0, 1] per coordinate; exceeds the closed form by at most the
    quadratic-interpolation error O(split_grid^-2).
    """
    f_val = float(space.conformal_f(float(np.dot(x, x))))
    ts = np.linspace(0.0, 1.0, split_grid + 1)
    u = np.asarray(u, float)
    total = 0.0
    for m_i, u_i in zip(space.weights, u):
        if u_i == 0.0:
            continue
        costs = (m_i * ts**2 + f_val * (1.0 - ts) ** 2) * u_i**2
        total += float(np.min(costs))
    return total


def _simpson(values, dt):
    return (dt / 3.0) * float(
        values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-2:2])
    )


def segment_length(space: SeqSpace, start, velocity, quad_points=2049) -> float:
    """Composite-Simpson length of t -> start + t * velocity, t in [0, 1]."""
    if quad_points % 2 == 0:
        quad_points += 1
    ts = np.linspace(0.0, 1.0, quad_points)
    speeds = np.concatenate([
        np.sqrt(ic_speed(space, start + block[:, None] * velocity, velocity))
        for block in np.split(ts, range(SPEED_BLOCK, quad_points, SPEED_BLOCK))
    ])
    return _simpson(speeds, ts[1] - ts[0])


class ThreeSegmentResult(NamedTuple):
    len1: float
    len2: float
    len3: float
    total: float
    bound_outer: float      # each outer segment <= m_n^(1/4)
    bound_middle: float     # middle segment <= sqrt(f at the norm bound) |y - x|
    analytic_bound: float   # 2 bound_outer + bound_middle
    middle_norm_bound: float


def three_segment_length(space: SeqSpace, x, y, n, quad_points=2049) -> ThreeSegmentResult:
    """Lengths of the three-segment detour through m_n^(-1/4) e_n.

    Also reports the closed-form bounds: outer segments cost at most
    m_n^(1/4) in the flat factor; along the middle segment the squared norm
    is at least m_n^(-1/2) - 2 m_n^(-1/4)(|x| + |y-x|), which caps the
    conformal factor.
    """
    x = space.vector(x)
    y = space.vector(y)
    e_n = space.basis(n)
    m_n = space.weights[n - 1]
    lift = m_n ** (-0.25) * e_n

    len1 = segment_length(space, x, lift, quad_points)
    len2 = segment_length(space, x + lift, y - x, quad_points)
    len3 = segment_length(space, y + lift, -lift, quad_points)

    norm_x = float(np.linalg.norm(x))
    norm_yx = float(np.linalg.norm(y - x))
    norm_bound = m_n ** (-0.5) - 2.0 * m_n ** (-0.25) * (norm_x + norm_yx)
    f_cap = float(space.conformal_f(max(norm_bound, 0.0)))
    bound_outer = m_n**0.25
    bound_middle = np.sqrt(f_cap) * norm_yx
    return ThreeSegmentResult(
        len1=len1,
        len2=len2,
        len3=len3,
        total=len1 + len2 + len3,
        bound_outer=float(bound_outer),
        bound_middle=float(bound_middle),
        analytic_bound=float(2.0 * bound_outer + bound_middle),
        middle_norm_bound=float(norm_bound),
    )


class BaselineDistances(NamedTuple):
    d1: float
    d2_lower: float


def baseline_distances(space: SeqSpace, x, y) -> BaselineDistances:
    """Non-degeneracy of the factors: exact flat distance, conformal lower bound.

    d1 is the weighted-norm distance (the flat factor's geodesic distance).
    d2_lower multiplies |x - y| by the minimum of sqrt(f) over the tube of
    radius |x - y| around the segment: any competitor either stays in the
    tube (where f is at least that minimum) or must travel a full |x - y|
    inside it before leaving, so this is a certified lower bound.  The
    conformal factor is nonincreasing, so that minimum is f at the tube's
    outer squared radius.
    """
    x = space.vector(x)
    y = space.vector(y)
    d1 = float(np.sqrt(np.dot(space.weights, (x - y) ** 2)))
    dist = float(np.linalg.norm(x - y))
    if dist == 0.0:
        return BaselineDistances(0.0, 0.0)
    reach = max(float(np.linalg.norm(x)), float(np.linalg.norm(y))) + dist
    f_min = float(space.conformal_f(reach**2))
    return BaselineDistances(d1, float(np.sqrt(f_min) * dist))


def vanishing_sweep(space: SeqSpace, x, y, ns, quad_points=2049):
    """Rows (n, len1, len2, len3, total, analytic_bound, d1, d2_lower)."""
    base = baseline_distances(space, space.vector(x), space.vector(y))
    rows = []
    for n in ns:
        seg = three_segment_length(space, x, y, n, quad_points)
        rows.append(
            {
                "n": int(n),
                "len1": seg.len1,
                "len2": seg.len2,
                "len3": seg.len3,
                "total": seg.total,
                "analytic_bound": seg.analytic_bound,
                "d1": base.d1,
                "d2_lower": base.d2_lower,
            }
        )
    return rows

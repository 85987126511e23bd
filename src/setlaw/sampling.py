"""Reproducibly seeded generators of random convex bodies.

The headline construction draws a point uniformly from an axis-aligned
ellipsoid and turns its shifted coordinates into a coupled sequence of
random intervals [0, Y_i]: the coordinates are pairwise uncorrelated but
neither independent nor identically distributed, which is exactly the
regime the law-of-large-numbers harness exercises.  Scalar-process
families (i.i.d. and AR(1) scalings of a template body) provide positive
and negative controls.  Every family is a scalar sequence times one fixed
body, V_k = s_k T (s_k = Y_k and T = [0, 1] for the intervals, s_k = 1
for a deterministic family), so its support values are s_k h_T(u) and its
draws, means and variances are written once for all families.

Streams are addressed by (master_seed, stream_index) through a
counter-based Philox generator, so any replication can be regenerated in
isolation and results cannot depend on worker count.  Families draw
blocks of replications: each row reads its raw numbers from its own
stream, once, front to back, and the transform to supports runs once for
the whole block.  The one degenerate draw, an all-zero normal vector in
the ellipsoid draw, takes the signs of its zeros instead of reading more.
A family's ``sample`` is one such draw: it holds its family and its
scales, and builds body objects only when they are read.  The grid rule,
the support row and ``describe``, the family's one label, live in the
family base ``_ScaledBody``.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .geometry import (
    ConvexBody,
    Interval,
    embed,
    format_body,
    parse_body,
    scalar_mul,
    support_values,
    DirectionGrid,
    _default_grid,
)

_U64 = 1 << 64


class FamilyError(ValueError):
    """Invalid sampling specification or draw."""


@dataclass(frozen=True)
class SeedSpec:
    """Address of one independent random stream.

    (master_seed, stream_index) -> generator state is a pure function;
    distinct stream indices give statistically independent streams.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = getattr(self, name)
            if not isinstance(v, int) or not (0 <= v < _U64):
                raise FamilyError(f"{name} must be an integer in [0, 2^64)")

    def generator(self) -> np.random.Generator:
        key = (self.master_seed << 64) | self.stream_index
        return np.random.Generator(np.random.Philox(key=key))


class StreamCursor:
    """One Philox generator that can be put at the start of any stream of a
    master seed.

    ``at(index)`` gives the stream of ``SeedSpec(master_seed, index).generator()``
    (key words ``[index, master_seed]``, counter zero, empty buffers) by
    writing the state of one reused bit generator, which costs a fraction
    of building a new ``Philox`` (that also reads OS entropy).  Every call
    restarts and returns the same generator object.
    """

    def __init__(self, master_seed: int):
        SeedSpec(master_seed)  # the same range check
        self._bits = np.random.Philox(0)
        self._generator = np.random.Generator(self._bits)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": np.zeros(4, np.uint64),
                                 "key": np.array([0, master_seed], np.uint64)},
                       "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def at(self, index: int) -> np.random.Generator:
        self._state["state"]["key"][0] = index  # the setter copies the words
        self._bits.state = self._state
        return self._generator


# A block's stream source: streams(i) is row i's generator at the start of
# its stream, asked for once per row.  (A string, so that importing this
# module does not import numpy.random.)
Streams = Callable[[int], "np.random.Generator"]


@dataclass(frozen=True)
class EllipsoidFamilySpec:
    """Axis-aligned ellipsoid sum(x_i^2 / a_i^2) <= 1 centered at 0.

    The semi-axes are the whole spec; interval draws use Y_i = X_i + a_i.
    """

    semi_axes: tuple[float, ...]

    def __post_init__(self):
        axes = tuple(float(a) for a in self.semi_axes)
        object.__setattr__(self, "semi_axes", axes)
        if not axes:
            raise FamilyError("semi_axes must be nonempty")
        if any(not math.isfinite(a) or a <= 0.0 for a in axes):
            raise FamilyError("all semi-axes must be positive and finite")

    @property
    def dim(self) -> int:
        return len(self.semi_axes)

    @cached_property
    def axes(self) -> np.ndarray:
        """Semi-axes as a float array; read-only because specs are shared."""
        axes = np.asarray(self.semi_axes, dtype=float)
        axes.flags.writeable = False
        return axes


class SetSample:
    """Ordered sequence of body draws plus the seed that produced them.

    ``SetSample(bodies, seed, family_tag)`` holds the bodies it is given.  A
    family's ``sample`` gives one that holds its family and one scale per
    draw instead: its support table on the family grid is the scales times
    the family's support row, and ``bodies`` are built from the same scales
    when first read.  ``supports(grid)`` serves both kinds.
    """

    def __init__(self, bodies, seed: SeedSpec | None = None, family_tag: str = "adhoc"):
        bodies = tuple(bodies)
        if not bodies:
            raise FamilyError("a set sample must contain at least one body")
        d = bodies[0].dim
        if any(b.dim != d for b in bodies):
            raise FamilyError("all bodies in a sample must share one dimension")
        self._bodies, self._family = bodies, None
        self.seed, self._tag = seed, family_tag

    @classmethod
    def _drawn(cls, family: "_ScaledBody", scales: np.ndarray, seed: SeedSpec) -> "SetSample":
        """The draw s_k T, k = 1..L, of ``family`` from stream ``seed``."""
        sample = cls.__new__(cls)
        sample._bodies, sample._family, sample._scales = None, family, scales
        sample.seed = seed
        return sample

    @property
    def family_tag(self) -> str:
        """The tag given, or the family's ``describe`` at this sample's length."""
        return self._tag if self._family is None else self._family.describe(len(self))

    @property
    def bodies(self) -> tuple[ConvexBody, ...]:
        if self._bodies is None:
            self._bodies = self._family._bodies(self._scales)
        return self._bodies

    @property
    def dim(self) -> int:
        return self._family.dim if self._family is not None else self._bodies[0].dim

    def __len__(self) -> int:
        return len(self._scales) if self._family is not None else len(self._bodies)

    def supports(self, grid: DirectionGrid) -> np.ndarray:
        """(L, m) support values of the L draws on the rows of ``grid``.

        The scales times the family's support row when ``grid`` equals the
        family grid; otherwise one ``support_values`` call per body.
        """
        if self._family is not None and grid == self._family.grid:
            return np.multiply.outer(self._scales, self._family._row)
        return np.stack([support_values(b, grid.matrix) for b in self.bodies])


def uniform_density_constant(spec: EllipsoidFamilySpec) -> float:
    """Constant value of the uniform density on the ellipsoid interior."""
    n = spec.dim
    volume_factor = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return 1.0 / (volume_factor * math.prod(spec.semi_axes))


def sample_ellipsoid_uniform(spec: EllipsoidFamilySpec, count: int,
                             seed: SeedSpec) -> np.ndarray:
    """Uniform draws from the solid ellipsoid, shape (count, dim).

    Rejection-free: a standard normal vector normalized to the sphere
    gives the direction, the radius is U^(1/dim), and each coordinate is
    then stretched by its semi-axis.  An all-zero normal vector takes the
    direction copysign(1, z) / sqrt(dim), the signs of its zeros.
    """
    if count < 1:
        raise FamilyError("count must be >= 1")
    return _ellipsoid_block(spec, count, lambda _row: seed.generator(), 1)[0]


def _ellipsoid_block(spec: EllipsoidFamilySpec, count: int, streams: Streams,
                     size: int) -> np.ndarray:
    """(size, count, dim) uniform ellipsoid draws; row i draws from ``streams(i)``.

    Each row's normals and then its uniforms come from its own stream, and
    the transform runs once for the block, so a row's values are those of
    a block of one.
    """
    n = spec.dim
    z = np.empty((size, count, n))
    u = np.empty((size, count))
    for i in range(size):
        rng = streams(i)
        rng.standard_normal(out=z[i])
        rng.random(out=u[i])
    norms = np.linalg.norm(z, axis=2, keepdims=True)
    # an all-zero normal vector (+-0.0 has probability 2^-52 per coordinate) takes
    # the signs of its zeros: in dimension 1, the fair coin a redraw would toss
    if not norms.all():
        zero = norms[..., 0] == 0.0
        z[zero] = np.copysign(1.0 / math.sqrt(n), z[zero])
        norms[zero] = 1.0
    # in place, in the order of z / norms * u**(1/n) * axes, which fixes the bits
    z /= norms
    z *= (u ** (1.0 / n))[..., None]
    z *= spec.axes
    return z


def _shifted_block(spec: EllipsoidFamilySpec, count: int, streams: Streams,
                   size: int) -> np.ndarray:
    """(size, count) nonnegative coordinates Y = X + a across independent blocks.

    In each row, consecutive length-dim blocks are independent draws;
    within a block the coordinates are uncorrelated but coupled.  A row
    holds the first ``count`` values in draw order.
    """
    x = _ellipsoid_block(spec, -(-count // spec.dim), streams, size)
    return (x + spec.axes).reshape(size, -1)[:, :count]


def interval_family_variances(spec: EllipsoidFamilySpec) -> np.ndarray:
    """Exact per-index variance of the upper endpoint: a_i^2 / (dim + 2).

    An a_i^2 that overflows gives inf, which a variance schedule refuses.
    """
    with np.errstate(over="ignore"):
        return spec.axes ** 2 / (spec.dim + 2.0)


def sample_ellipse_pair(a: float, b: float, center: tuple[float, float],
                        count: int, seed: SeedSpec) -> np.ndarray:
    """Pairs uniform on the ellipse ((x-c1)/a)^2 + ((y-c2)/b)^2 <= 1.

    The coordinates are uncorrelated yet dependent: the spread of one
    shrinks near the edge of the other's range.
    """
    if a <= 0.0 or b <= 0.0:
        raise FamilyError("ellipse semi-axes must be positive")
    spec = EllipsoidFamilySpec((float(a), float(b)))
    pts = sample_ellipsoid_uniform(spec, count, seed)
    return pts + np.asarray(center, dtype=float)


_PROCESSES = ("iid_uniform", "ar1")


def _ar1(u: np.ndarray, rho: float) -> np.ndarray:
    """c_0 = u_0, c_k = rho c_{k-1} + (1 - rho) u_k along each row of u."""
    keep = 1.0 - rho
    rows = []
    for row in u.tolist():  # indexing numpy scalars costs about 3x as much
        c = row[:1]
        for x in row[1:]:
            c.append(rho * c[-1] + keep * x)
        rows.append(c)
    return np.array(rows)


def _scalar_block(process: str, count: int, streams: Streams, size: int, rho: float) -> np.ndarray:
    """(size, count) scalar sequences; row i draws from ``streams(i)``.  It checks
    nothing: ``ScaledTemplateFamily.__post_init__`` checks process and rho."""
    u = np.empty((size, count))
    for i in range(size):
        streams(i).random(out=u[i])
    return u if process == "iid_uniform" else _ar1(u, rho)


def _growth_factors(growth: float, n: int) -> np.ndarray:
    """g_k = k**growth for k = 1..n.

    A non-finite ``growth``, or one whose g_n**2 (the variance factor)
    overflows, is an error rather than a run on inf or nan values.
    """
    if not math.isfinite(growth):
        raise FamilyError(f"growth must be finite, not {growth!r}")
    if not growth:
        return np.ones(n)
    with np.errstate(over="ignore"):
        g = np.arange(1, n + 1) ** float(growth)
        peak = g.max() ** 2
    if not np.isfinite(peak):
        raise FamilyError(f"growth {growth!r} overflows: k**growth squared is not finite "
                          f"for k up to n = {n}")
    return g


# ---------------------------------------------------------------------------
# Families as the harness sees them: V_k = s_k T, so h(V_k, u) = s_k h_T(u).
# Support columns follow the family grid order (for dimension 1: +1 then -1).
# ---------------------------------------------------------------------------


class _ScaledBody:
    """A family V_k = s_k T.  Each family gives its scale process (``_scales``,
    ``_mean_scales``, ``_scale_variances``), its body ``_template``, its one
    label ``describe(n)`` and its two bounds.  The rest is written here once:
    the grid (``direction_grid``; without one, the exact grid {+1, -1} of
    dimension 1), the support row ``_row`` of T on that grid, and the draws,
    samples, means and variances that follow from them."""

    direction_grid: DirectionGrid | None = None

    @property
    def dim(self) -> int:
        return self._template.dim

    @property
    def grid(self) -> DirectionGrid:
        return self.direction_grid if self.direction_grid is not None else _default_grid(1)

    def _check_grid(self) -> None:
        if self.direction_grid is None:
            if self.dim >= 2:
                raise FamilyError(f"{type(self).__name__} of dim >= 2 needs a direction grid")
        elif self.direction_grid.dim != self.dim:
            raise FamilyError("grid dimension must match the family's bodies")

    @cached_property
    def _row(self) -> np.ndarray:
        return embed(self._template, self.grid).values

    def support_block(self, n: int, streams: Streams, size: int) -> np.ndarray:
        """(n, size, m) support values of ``size`` draws of n bodies,
        length-major; draw i comes from ``streams(i)``."""
        s = self._scales(n, streams, size)
        row = self._row
        return np.multiply(s.T[:, :, None], row, out=np.empty((n, size, len(row))))

    def support_draws(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, m) support values of n bodies drawn from ``rng``."""
        return self.support_block(n, lambda _row: rng, 1)[:, 0]

    def mean_supports(self, n: int) -> np.ndarray:
        return np.outer(self._mean_scales(n), self._row)

    def variances(self, n: int) -> np.ndarray:
        """Exact Var of the support values, Var(s_k) h_T(u)^2, one row per index.

        An h_T(u)^2 that overflows gives inf, which a variance schedule
        refuses, except where Var(s_k) = 0: a constant scale gives constant
        supports, however large the body.
        """
        v = self._scale_variances(n)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.outer(v, self._row ** 2)
        out[v == 0.0] = 0.0
        return out

    def sample(self, count: int, seed: SeedSpec) -> SetSample:
        """``count`` bodies drawn from stream ``seed``: the scales of the draw
        ``support_block`` makes, with the bodies built when first read."""
        if count < 1:
            raise FamilyError(f"sequence length must be >= 1, got {count}")
        return SetSample._drawn(self, self._scales(count, lambda _row: seed.generator(), 1)[0],
                                seed)

    def _bodies(self, scales: np.ndarray) -> tuple[ConvexBody, ...]:
        """The bodies s_k T of one draw."""
        return tuple(scalar_mul(float(v), self._template) for v in scales)


def _chebyshev(variances: np.ndarray, epsilon: float, n: int, weight: float = 1.0) -> float:
    """weight * sum(variances) / (epsilon n)^2; inf where the sum overflows or
    (epsilon n)^2 underflows to 0."""
    with np.errstate(over="ignore"):
        total = weight * float(variances.sum())
    scale = (epsilon * n) ** 2
    return total / scale if scale else math.inf


@lru_cache(maxsize=64)
def _interval_spec(axes_pattern: tuple[float, ...], d: int,
                   clamp: bool) -> EllipsoidFamilySpec:
    """d-axis spec cycling ``axes_pattern``, clamped to sqrt(d) if asked.

    Cached because the weak-law harness asks for a spec once per row block:
    the README ``wlln`` config makes 752 lookups for 3 specs, an n = 1000
    spec costs 250-290 us to build, and the cache takes that run from 0.72
    to 0.54 s (one worker, best of 4, on a 2-CPU box).  A spec is
    immutable, so sharing one is safe.
    """
    axes = np.resize(np.asarray(axes_pattern), d)
    if clamp:
        axes = np.minimum(axes, math.sqrt(d))
    return EllipsoidFamilySpec(tuple(axes))


# supports of [0, 1] on {+1, -1}, with +0.0 at -1 as ``support_block`` writes it
_UPPER_ENDPOINT = np.array([1.0, 0.0])
_UPPER_ENDPOINT.flags.writeable = False


@dataclass(frozen=True)
class EllipsoidIntervalFamily(_ScaledBody):
    """Interval family [0, Y_i] driven by one uniform ellipsoid draw.

    The scales are Y_i = X_i + a_i >= 0 and the body is [0, 1].  E[X_i] = 0,
    so E[Y_i] = a_i and the expected body is [0, a_i].  ``block_dim`` fixes
    the ellipsoid dimension, with longer sequences built from independent
    blocks, which keeps them pairwise uncorrelated.  ``block_dim=None``
    regenerates the family at the requested length n (one coupled draw of
    dimension n), clamping each semi-axis to sqrt(n); the clamp keeps the
    variance sum (1/n^2) * sum a_i^2/(n+2) under 1/(n+2) at every n.
    """

    axes_pattern: tuple[float, ...] = (1.0,)
    block_dim: int | None = None

    _template = Interval(0.0, 1.0)
    _row = _UPPER_ENDPOINT

    def __post_init__(self):
        axes = tuple(float(a) for a in self.axes_pattern)
        object.__setattr__(self, "axes_pattern", axes)
        if not axes or any(a <= 0.0 or not math.isfinite(a) for a in axes):
            raise FamilyError("axes pattern must be positive and finite")
        if self.block_dim is not None and self.block_dim < 1:
            raise FamilyError("block_dim must be >= 1 when given")

    def _spec_for(self, n: int) -> EllipsoidFamilySpec:
        if n < 1:
            raise FamilyError(f"sequence length must be >= 1, got {n}")
        if self.block_dim is None:
            return _interval_spec(self.axes_pattern, n, True)
        return _interval_spec(self.axes_pattern, self.block_dim, False)

    def axes_for(self, n: int) -> np.ndarray:
        """Semi-axes actually used for positions 1..n (cycled over blocks)."""
        return np.resize(self._spec_for(n).axes, n)

    def describe(self, n: int) -> str:
        spec = self._spec_for(n)
        # regenerated mode always applies the clamp rule, even if it only
        # bites at lengths below the one being described
        mode = f"block_dim={self.block_dim}" if self.block_dim else "regenerated"
        note = " axes=min(pattern, sqrt(n))" if self.block_dim is None else ""
        return f"ellipsoid_interval a={self.axes_pattern} {mode} draw_dim={spec.dim}{note}"

    def _scales(self, n: int, streams: Streams, size: int) -> np.ndarray:
        return _shifted_block(self._spec_for(n), n, streams, size)

    def _mean_scales(self, n: int) -> np.ndarray:
        return self.axes_for(n)

    def _scale_variances(self, n: int) -> np.ndarray:
        return np.resize(interval_family_variances(self._spec_for(n)), n)

    def support_block(self, n: int, streams: Streams, size: int) -> np.ndarray:
        # the upper endpoints written into a zeroed table cost about a tenth of
        # the general product over a row of two; Y is drawn before the table
        # is made, which keeps the weak law's n = 1000 blocks fast
        y = self._scales(n, streams, size)
        out = np.zeros((n, size, 2))
        out[:, :, 0] = y.T
        return out

    # bound here by name: the benchmark's trace wraps this class's own support_draws
    support_draws = _ScaledBody.support_draws

    def variance_bound(self) -> float:
        """A constant dominating Var of every support value at every length:
        inf when a block's a^2 overflows, which the variance schedule refuses."""
        a = max(self.axes_pattern)
        peak = a * a  # inf, not OverflowError, where a ** 2 overflows
        if self.block_dim is not None:
            return peak / (self.block_dim + 2.0)
        # regenerated: min(a^2, n) / (n+2) <= peak / (peak + 2) for all n, whose
        # limit is 1 when a^2 overflows
        return peak / (peak + 2.0) if math.isfinite(peak) else 1.0

    def chebyshev_bound(self, n: int, epsilon: float) -> float:
        """Published tail bound 2 * sum Var(Y_i) / (epsilon n)^2."""
        return _chebyshev(self.variances(n)[:, 0], epsilon, n, 2.0)


@dataclass(frozen=True)
class DeterministicFamily(_ScaledBody):
    """Constant family V_k = A for every k: scales 1; all variances are zero."""

    body: ConvexBody
    direction_grid: DirectionGrid | None = None

    _template = property(lambda self: self.body)

    def __post_init__(self):
        self._check_grid()

    def describe(self, n: int) -> str:
        return f"deterministic {type(self.body).__name__}"

    def _scales(self, n: int, streams: Streams, size: int) -> np.ndarray:
        return np.ones((size, n))

    def _mean_scales(self, n: int) -> np.ndarray:
        return np.ones(n)

    def _scale_variances(self, n: int) -> np.ndarray:
        return np.zeros(n)

    def _bodies(self, scales: np.ndarray) -> tuple[ConvexBody, ...]:
        # the body as given: 1.0 * T would rewrite an interval [-0.0, 0.0] as [0.0, 0.0]
        return (self.body,) * len(scales)

    def variance_bound(self) -> float:
        return 0.0

    def chebyshev_bound(self, n: int, epsilon: float) -> float:
        return 0.0


@dataclass(frozen=True)
class ScaledTemplateFamily(_ScaledBody):
    """V_k = g_k * c_k * template with c_k a nonnegative scalar process.

    ``process`` is ``iid_uniform`` or ``ar1`` (uniform innovations keep the
    AR chain inside (0, 1), so scales never go negative for rho >= 0);
    ``growth`` sets g_k = k**growth.  Means and variances of the scalar
    chain are exact recursions, so bound rows stay analytic.
    """

    template: ConvexBody
    process: str = "iid_uniform"
    rho: float = 0.0
    growth: float = 0.0
    direction_grid: DirectionGrid | None = None

    _template = property(lambda self: self.template)

    def __post_init__(self):
        if self.process not in _PROCESSES:
            raise FamilyError("scaled families support processes 'iid_uniform' and 'ar1'")
        if self.process == "ar1" and not 0.0 <= self.rho < 1.0:
            raise FamilyError("ar1 scaled families need 0 <= rho < 1")
        _growth_factors(self.growth, 1)  # rejects a non-finite growth
        self._check_grid()

    def describe(self, n: int) -> str:
        extra = f" rho={self.rho}" if self.process == "ar1" else ""
        extra += f" growth={self.growth}" if self.growth else ""
        return f"scaled_{self.process}{extra} x {type(self.template).__name__}"

    def _growth_factors(self, n: int) -> np.ndarray:
        return _growth_factors(self.growth, n)

    def _scales(self, n: int, streams: Streams, size: int) -> np.ndarray:
        """(size, n) scales g_k c_k of ``size`` draws; draw i comes from ``streams(i)``."""
        return _scalar_block(self.process, n, streams, size, self.rho) * self._growth_factors(n)

    def _mean_scales(self, n: int) -> np.ndarray:
        # E[c_k] = 1/2 for both processes (uniform innovations preserve it)
        return 0.5 * self._growth_factors(n)

    def _scale_variances(self, n: int) -> np.ndarray:
        if self.process == "iid_uniform":
            base = np.full(n, 1.0 / 12.0)
        else:
            a, b = self.rho ** 2, (1.0 - self.rho) ** 2 / 12.0
            base = [1.0 / 12.0]
            for _ in range(1, n):
                base.append(a * base[-1] + b)
            base = np.array(base)
        return base * self._growth_factors(n) ** 2

    # bound here by name: the benchmark's trace wraps this class's own sample
    sample = _ScaledBody.sample

    def variance_bound(self) -> float | None:
        if self.growth:
            return None  # per-index variance grows without bound
        with np.errstate(over="ignore"):  # an overflow gives inf, refused with the variances
            peak = float(np.max(self._row ** 2))
        return peak / 12.0

    def chebyshev_bound(self, n: int, epsilon: float) -> float | None:
        if self.dim != 1:
            return None
        return _chebyshev(self.variances(n), epsilon, n)


# ---------------------------------------------------------------------------
# Text serialization of samples
# ---------------------------------------------------------------------------


def write_set_sample(sample: SetSample, path) -> None:
    """Header line with seed metadata, then one body per line."""
    seed = sample.seed
    meta = f"master_seed={seed.master_seed} stream_index={seed.stream_index}" \
        if seed is not None else "master_seed=? stream_index=?"
    lines = [f"# setlaw-sample family={sample.family_tag!r} {meta} "
             f"count={len(sample)} dim={sample.dim}"]
    lines += [format_body(b) for b in sample.bodies]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_SAMPLE_HEADER = re.compile(r"# setlaw-sample family=(.+) master_seed=(\d+|\?) "
                            r"stream_index=(\d+|\?) count=(\d+) dim=(\d+)")


def read_set_sample(path) -> SetSample:
    """Inverse of :func:`write_set_sample`; the header's count and dim must hold."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = _SAMPLE_HEADER.fullmatch(lines[0]) if lines else None
    if header is None:
        raise FamilyError("sample file must start with the header write_set_sample writes")
    family, master, index, count, dim = header.groups()
    try:
        tag = ast.literal_eval(family)
    except (ValueError, SyntaxError):
        tag = None
    if not isinstance(tag, str):
        raise FamilyError(f"sample header: family={family} is not a quoted string")
    # written as '?' for a sample without a seed
    seed = None if "?" in (master, index) else SeedSpec(int(master), int(index))
    bodies = tuple(parse_body(ln) for ln in lines[1:])
    if len(bodies) != int(count) or any(b.dim != int(dim) for b in bodies):
        raise FamilyError(f"sample header says count={count} dim={dim}, but the file holds "
                          f"{len(bodies)} bodies of dimension {sorted({b.dim for b in bodies})}")
    return SetSample(bodies, seed=seed, family_tag=tag)

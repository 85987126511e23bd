"""Reproducibly seeded generators of random convex bodies.

The headline construction draws a point uniformly from an axis-aligned
ellipsoid and turns its shifted coordinates into a coupled sequence of
random intervals [0, Y_i]: the coordinates are pairwise uncorrelated but
neither independent nor identically distributed, which is exactly the
regime the law-of-large-numbers harness exercises.  Scalar-process
families (i.i.d. and AR(1) scalings of a template body) provide positive
and negative controls.

Streams are addressed by (master_seed, stream_index) through a
counter-based Philox generator, so any replication can be regenerated in
isolation and results cannot depend on worker count.  Families draw
blocks of replications: each row takes its raw numbers from its own
stream, and the transform to supports runs once for the whole block.
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

    def stream(self, index: int) -> "SeedSpec":
        """Sibling stream under the same master seed."""
        return SeedSpec(self.master_seed, index)


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
# its stream.  Asking again for a row restarts that row's stream.  (A string,
# so that importing this module does not import numpy.random.)
Streams = Callable[[int], "np.random.Generator"]


def _restartable(rng: np.random.Generator) -> Streams:
    """The stream source of a block of one that draws from ``rng``: every
    call puts ``rng`` back where it stood when this was made."""
    state = rng.bit_generator.state

    def streams(_row: int) -> np.random.Generator:
        rng.bit_generator.state = state
        return rng
    return streams


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


@dataclass(frozen=True)
class SetSample:
    """Ordered sequence of body draws plus the seed that produced them."""

    bodies: tuple[ConvexBody, ...]
    seed: SeedSpec | None = None
    family_tag: str = "adhoc"
    expectations: tuple[ConvexBody, ...] | None = None

    def __post_init__(self):
        bodies = tuple(self.bodies)
        object.__setattr__(self, "bodies", bodies)
        if not bodies:
            raise FamilyError("a set sample must contain at least one body")
        d = bodies[0].dim
        if any(b.dim != d for b in bodies):
            raise FamilyError("all bodies in a sample must share one dimension")
        if self.expectations is not None:
            exp = tuple(self.expectations)
            object.__setattr__(self, "expectations", exp)
            if len(exp) != len(bodies) or any(b.dim != d for b in exp):
                raise FamilyError("expectations must match the sample in length and dimension")

    @property
    def dim(self) -> int:
        return self.bodies[0].dim

    def __len__(self) -> int:
        return len(self.bodies)


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
    then stretched by its semi-axis.
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
    # exact-zero normal vectors have probability ~0 but would divide by zero;
    # such a row is drawn again from the start of its stream in the order
    # normals, redraws, uniforms
    if not norms.all():
        for i in np.flatnonzero(~norms.all(axis=(1, 2))).tolist():
            rng, zi, ni = streams(i), z[i], norms[i]
            rng.standard_normal(out=zi)
            while np.any(ni == 0.0):
                bad = ni[:, 0] == 0.0
                zi[bad] = rng.standard_normal((int(bad.sum()), n))
                ni[:] = np.linalg.norm(zi, axis=1, keepdims=True)
            rng.random(out=u[i])
    return z / norms * (u ** (1.0 / n))[..., None] * spec.axes


def _shifted_block(spec: EllipsoidFamilySpec, count: int, streams: Streams,
                   size: int) -> np.ndarray:
    """(size, count) nonnegative coordinates Y = X + a across independent blocks.

    In each row, consecutive length-dim blocks are independent draws;
    within a block the coordinates are uncorrelated but coupled.  A row
    holds the first ``count`` values in draw order.
    """
    x = _ellipsoid_block(spec, -(-count // spec.dim), streams, size)
    return (x + spec.axes).reshape(size, -1)[:, :count]


def make_interval_family(spec: EllipsoidFamilySpec, count: int,
                         seed: SeedSpec) -> SetSample:
    """Coupled random intervals [0, Y_i] with Y_i = X_i + a_i >= 0.

    The exact expected bodies [0, a_i] ride along as metadata.  Lengths beyond
    ``dim`` concatenate independent blocks, preserving pairwise uncorrelation.
    """
    if count < 1:
        raise FamilyError("count must be >= 1")
    y = _shifted_block(spec, count, lambda _row: seed.generator(), 1)[0]
    axes = np.resize(spec.axes, count)
    bodies = tuple(Interval(0.0, float(v)) for v in y)
    expectations = tuple(Interval(0.0, float(a)) for a in axes)
    return SetSample(bodies, seed=seed, family_tag=f"ellipsoid_interval dim={spec.dim}",
                     expectations=expectations)


def interval_family_variances(spec: EllipsoidFamilySpec) -> np.ndarray:
    """Exact per-index variance of the upper endpoint: a_i^2 / (dim + 2)."""
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


_PROCESSES = ("iid_uniform", "uncorrelated_ellipsoid", "ar1")


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
    """(size, count) scalar sequences; row i draws from ``streams(i)``.  It checks nothing:
    ``ScaledTemplateFamily.__post_init__`` and ``make_generic_family`` check process and rho."""
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


def make_generic_family(body_template: ConvexBody, scalar_process: str, count: int,
                        seed: SeedSpec, *, rho: float | None = None,
                        ellipsoid: EllipsoidFamilySpec | None = None,
                        growth: float = 0.0) -> SetSample:
    """Bodies c_k * template with c_k >= 0 from the chosen scalar process.

    ``growth`` multiplies c_k by k**growth, giving controls whose
    per-index variance grows with k.  A process realization that would
    scale by a negative value is an error, not a silent clamp.  The process,
    ``rho`` and ``ellipsoid`` are checked here, as ``_scalar_block`` checks nothing.
    """
    if count < 1:
        raise FamilyError("count must be >= 1")
    if scalar_process not in _PROCESSES:
        raise FamilyError(f"unknown scalar process {scalar_process!r}; choose one of {_PROCESSES}")
    if scalar_process == "ar1" and (rho is None or not abs(rho) < 1.0):
        raise FamilyError("process 'ar1' needs |rho| < 1")
    if scalar_process == "uncorrelated_ellipsoid":
        if ellipsoid is None:
            raise FamilyError("process 'uncorrelated_ellipsoid' needs an ellipsoid spec")
        c = _shifted_block(ellipsoid, count, lambda _row: seed.generator(), 1)[0]
    else:
        c = _scalar_block(scalar_process, count, lambda _row: seed.generator(), 1, rho)[0]
    c = c * _growth_factors(growth, count)
    if np.any(c < 0.0):
        k = int(np.argmax(c < 0.0))
        raise FamilyError(f"scalar process produced negative scale c_{k} = {c[k]!r}")
    bodies = tuple(scalar_mul(float(v), body_template) for v in c)
    return SetSample(bodies, seed=seed,
                     family_tag=f"{scalar_process} x {type(body_template).__name__}")


# ---------------------------------------------------------------------------
# Families as the harness sees them: vectorized support draws plus the
# analytic moments needed for bounds and variance conditions.  Support
# columns follow the family grid order (for dimension 1: +1 then -1).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _interval_spec(axes_pattern: tuple[float, ...], d: int,
                   clamp: bool) -> EllipsoidFamilySpec:
    """d-axis spec cycling ``axes_pattern``, clamped to sqrt(d) if asked.

    Cached because the weak-law harness asks for the same spec at every
    replication; a spec is immutable, so sharing one is safe.
    """
    axes = np.resize(np.asarray(axes_pattern), d)
    if clamp:
        axes = np.minimum(axes, math.sqrt(d))
    return EllipsoidFamilySpec(tuple(axes))


@dataclass(frozen=True)
class EllipsoidIntervalFamily:
    """Interval family [0, Y_i] driven by one uniform ellipsoid draw.

    ``block_dim`` fixes the ellipsoid dimension, with longer sequences
    built from independent blocks.  ``block_dim=None`` regenerates the
    family at the requested length n (one coupled draw of dimension n),
    clamping each semi-axis to sqrt(n); the clamp keeps the variance sum
    (1/n^2) * sum a_i^2/(n+2) under 1/(n+2) at every n.
    """

    axes_pattern: tuple[float, ...] = (1.0,)
    block_dim: int | None = None

    def __post_init__(self):
        axes = tuple(float(a) for a in self.axes_pattern)
        object.__setattr__(self, "axes_pattern", axes)
        if not axes or any(a <= 0.0 or not math.isfinite(a) for a in axes):
            raise FamilyError("axes pattern must be positive and finite")
        if self.block_dim is not None and self.block_dim < 1:
            raise FamilyError("block_dim must be >= 1 when given")

    @property
    def dim(self) -> int:
        return 1

    @property
    def grid(self) -> DirectionGrid:
        return _default_grid(1)

    @property
    def tag(self) -> str:
        mode = f"block_dim={self.block_dim}" if self.block_dim else "regenerated"
        return f"ellipsoid_interval a={self.axes_pattern} {mode}"

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
        note = " axes=min(pattern, sqrt(n))" if self.block_dim is None else ""
        return f"{self.tag} draw_dim={spec.dim}{note}"

    def support_block(self, n: int, streams: Streams, size: int) -> np.ndarray:
        """(n, size, 2) support values on {+1, -1} of ``size`` draws of n
        intervals, length-major; draw i comes from ``streams(i)``."""
        y = _shifted_block(self._spec_for(n), n, streams, size)
        out = np.zeros((n, size, 2))
        out[:, :, 0] = y.T  # support at +1 is the upper endpoint; at -1 it is 0
        return out

    def support_draws(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, 2) support values of the n drawn intervals on {+1, -1}."""
        return self.support_block(n, _restartable(rng), 1)[:, 0]

    def mean_supports(self, n: int) -> np.ndarray:
        out = np.zeros((n, 2))
        out[:, 0] = self.axes_for(n)
        return out

    def variances(self, n: int) -> np.ndarray:
        """Exact Var of the support values, one row per index."""
        spec = self._spec_for(n)
        out = np.zeros((n, 2))
        out[:, 0] = np.resize(interval_family_variances(spec), n)
        return out

    def variance_bound(self) -> float:
        """A constant dominating Var of every support value at every length."""
        peak = max(self.axes_pattern) ** 2
        if self.block_dim is not None:
            return peak / (self.block_dim + 2.0)
        # regenerated: min(a^2, n) / (n+2) <= peak / (peak + 2) for all n
        return peak / (peak + 2.0)

    def chebyshev_bound(self, n: int, epsilon: float) -> float:
        """Published tail bound 2 * sum Var(Y_i) / (epsilon n)^2."""
        total = float(self.variances(n)[:, 0].sum())
        return 2.0 * total / (epsilon * n) ** 2

    def sample(self, count: int, seed: SeedSpec) -> SetSample:
        return make_interval_family(self._spec_for(count), count, seed)


class _OnGrid:
    """A family of multiples of one template body, ``_template``, with support
    columns on ``direction_grid``; without one, on {+1, -1} (dimension 1 only)."""

    def _check_grid(self) -> None:
        if self.direction_grid is None:
            if self.dim >= 2:
                raise FamilyError(f"{type(self).__name__} of dim >= 2 needs a direction grid")
        elif self.direction_grid.dim != self.dim:
            raise FamilyError("grid dimension must match the family's bodies")

    @property
    def dim(self) -> int:
        return self._template.dim

    @property
    def grid(self) -> DirectionGrid:
        return self.direction_grid if self.direction_grid is not None else _default_grid(1)

    def describe(self, n: int) -> str:
        return self.tag

    @cached_property
    def _template_supports(self) -> np.ndarray:
        return embed(self._template, self.grid).values

    def support_draws(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.support_block(n, _restartable(rng), 1)[:, 0]


@dataclass(frozen=True)
class DeterministicFamily(_OnGrid):
    """Constant family V_k = A for every k; all variances are zero."""

    body: ConvexBody
    direction_grid: DirectionGrid | None = None

    _template = property(lambda self: self.body)

    def __post_init__(self):
        self._check_grid()

    @property
    def tag(self) -> str:
        return f"deterministic {type(self.body).__name__}"

    def support_block(self, n: int, streams: Streams, size: int) -> np.ndarray:
        return np.tile(self._template_supports, (n, size, 1))

    def mean_supports(self, n: int) -> np.ndarray:
        return np.tile(self._template_supports, (n, 1))

    def variances(self, n: int) -> np.ndarray:
        return np.zeros((n, len(self.grid)))

    def variance_bound(self) -> float:
        return 0.0

    def chebyshev_bound(self, n: int, epsilon: float) -> float:
        return 0.0

    def sample(self, count: int, seed: SeedSpec) -> SetSample:
        bodies = (self.body,) * count
        return SetSample(bodies, seed=seed, family_tag=self.tag, expectations=bodies)


@dataclass(frozen=True)
class ScaledTemplateFamily(_OnGrid):
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
        if self.process not in ("iid_uniform", "ar1"):
            raise FamilyError("scaled families support processes 'iid_uniform' and 'ar1'")
        if self.process == "ar1" and not 0.0 <= self.rho < 1.0:
            raise FamilyError("ar1 scaled families need 0 <= rho < 1")
        _growth_factors(self.growth, 1)  # rejects a non-finite growth
        self._check_grid()

    @property
    def tag(self) -> str:
        extra = f" rho={self.rho}" if self.process == "ar1" else ""
        extra += f" growth={self.growth}" if self.growth else ""
        return f"scaled_{self.process}{extra} x {type(self.template).__name__}"

    def _growth_factors(self, n: int) -> np.ndarray:
        return _growth_factors(self.growth, n)

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

    def support_block(self, n: int, streams: Streams, size: int) -> np.ndarray:
        """(n, size, m) support values of ``size`` draws of n bodies,
        length-major; draw i comes from ``streams(i)``."""
        c = _scalar_block(self.process, n, streams, size, self.rho) * self._growth_factors(n)
        t = self._template_supports
        return np.multiply(c.T[:, :, None], t, out=np.empty((n, size, len(t))))

    def mean_supports(self, n: int) -> np.ndarray:
        # E[c_k] = 1/2 for both processes (uniform innovations preserve it)
        return np.outer(0.5 * self._growth_factors(n), self._template_supports)

    def variances(self, n: int) -> np.ndarray:
        return np.outer(self._scale_variances(n), self._template_supports ** 2)

    def variance_bound(self) -> float | None:
        if self.growth:
            return None  # per-index variance grows without bound
        peak = float(np.max(self._template_supports ** 2))
        return peak / 12.0

    def chebyshev_bound(self, n: int, epsilon: float) -> float | None:
        if self.dim != 1:
            return None
        total = float(self.variances(n).sum())
        return total / (epsilon * n) ** 2

    def sample(self, count: int, seed: SeedSpec) -> SetSample:
        return make_generic_family(self.template, self.process, count, seed,
                                   rho=self.rho, growth=self.growth)


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

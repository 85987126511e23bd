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
isolation and results cannot depend on worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import (
    ConvexBody,
    Interval,
    embed,
    format_body,
    make_direction_grid,
    parse_body,
    scalar_mul,
    DirectionGrid,
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


@dataclass(frozen=True)
class EllipsoidFamilySpec:
    """Axis-aligned ellipsoid sum(x_i^2 / a_i^2) <= 1 centered at 0.

    ``shift`` selects whether downstream constructions translate
    coordinate i by +a_i to make it nonnegative.  When
    ``enforce_sqrt_bound`` is set, every semi-axis must satisfy
    a_i <= sqrt(dim).
    """

    semi_axes: tuple[float, ...]
    shift: str = "none"
    enforce_sqrt_bound: bool = False

    def __post_init__(self):
        axes = tuple(float(a) for a in self.semi_axes)
        object.__setattr__(self, "semi_axes", axes)
        if not axes:
            raise FamilyError("semi_axes must be nonempty")
        if any(not math.isfinite(a) or a <= 0.0 for a in axes):
            raise FamilyError("all semi-axes must be positive and finite")
        if self.shift not in ("none", "to_positive"):
            raise FamilyError(f"unknown shift mode {self.shift!r}")
        if self.enforce_sqrt_bound:
            limit = math.sqrt(len(axes)) + 1e-12
            if any(a > limit for a in axes):
                raise FamilyError(f"semi-axes must satisfy a_i <= sqrt(dim)={limit:.6g}")

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
    rng = seed.generator()
    return _draw_ellipsoid(spec, count, rng)


def _draw_ellipsoid(spec: EllipsoidFamilySpec, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = spec.dim
    z = rng.standard_normal((count, n))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # exact-zero normal vectors have probability ~0 but would divide by zero
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        z[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / n)
    return z / norms * radii[:, None] * spec.axes


def _draw_shifted_coords(spec: EllipsoidFamilySpec, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Flattened nonnegative coordinates Y = X + a across independent blocks.

    Consecutive length-dim blocks are independent draws; within a block the
    coordinates are uncorrelated but coupled.  Returns the first ``count``
    values in draw order.
    """
    blocks = -(-count // spec.dim)
    x = _draw_ellipsoid(spec, blocks, rng)
    y = x + spec.axes
    return y.reshape(-1)[:count]


def make_interval_family(spec: EllipsoidFamilySpec, count: int,
                         seed: SeedSpec) -> SetSample:
    """Coupled random intervals [0, Y_i] with Y_i = X_i + a_i >= 0.

    Requires ``shift == 'to_positive'``.  The exact expected bodies
    [0, a_i] ride along as metadata.  Lengths beyond ``dim`` concatenate
    independent blocks, preserving pairwise uncorrelation.
    """
    if spec.shift != "to_positive":
        raise FamilyError("interval families need shift='to_positive' so endpoints are >= 0")
    if count < 1:
        raise FamilyError("count must be >= 1")
    y = _draw_shifted_coords(spec, count, seed.generator())
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


def _scalar_process(process: str, count: int, rng: np.random.Generator,
                    rho: float | None, ellipsoid: EllipsoidFamilySpec | None) -> np.ndarray:
    if process == "iid_uniform":
        return rng.random(count)
    if process == "uncorrelated_ellipsoid":
        if ellipsoid is None:
            raise FamilyError("process 'uncorrelated_ellipsoid' needs an ellipsoid spec")
        if ellipsoid.shift != "to_positive":
            raise FamilyError("scalar ellipsoid process needs shift='to_positive'")
        return _draw_shifted_coords(ellipsoid, count, rng)
    if process == "ar1":
        if rho is None or not abs(rho) < 1.0:
            raise FamilyError("process 'ar1' needs |rho| < 1")
        u = rng.random(count)
        c = np.empty(count)
        c[0] = u[0]
        for k in range(1, count):
            c[k] = rho * c[k - 1] + (1.0 - rho) * u[k]
        return c
    raise FamilyError(f"unknown scalar process {process!r}; choose one of {_PROCESSES}")


def make_generic_family(body_template: ConvexBody, scalar_process: str, count: int,
                        seed: SeedSpec, *, rho: float | None = None,
                        ellipsoid: EllipsoidFamilySpec | None = None,
                        growth: float = 0.0) -> SetSample:
    """Bodies c_k * template with c_k >= 0 from the chosen scalar process.

    ``growth`` multiplies c_k by k**growth, giving controls whose
    per-index variance grows with k.  A process realization that would
    scale by a negative value is an error, not a silent clamp.
    """
    if count < 1:
        raise FamilyError("count must be >= 1")
    c = _scalar_process(scalar_process, count, seed.generator(), rho, ellipsoid)
    if growth:
        c = c * np.arange(1, count + 1) ** float(growth)
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


_EXACT_1D = make_direction_grid(1, 2, "exact1d")


@lru_cache(maxsize=64)
def _interval_spec(axes_pattern: tuple[float, ...], d: int,
                   clamp: bool) -> EllipsoidFamilySpec:
    """Shifted d-axis spec cycling ``axes_pattern``, clamped to sqrt(d) if asked.

    Cached because the weak-law harness asks for the same spec at every
    replication; a spec is immutable, so sharing one is safe.
    """
    axes = np.resize(np.asarray(axes_pattern), d)
    if clamp:
        axes = np.minimum(axes, math.sqrt(d))
    return EllipsoidFamilySpec(tuple(axes), shift="to_positive")


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
        return _EXACT_1D

    @property
    def tag(self) -> str:
        mode = f"block_dim={self.block_dim}" if self.block_dim else "regenerated"
        return f"ellipsoid_interval a={self.axes_pattern} {mode}"

    def _spec_for(self, n: int) -> EllipsoidFamilySpec:
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

    def support_draws(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, 2) support values of the n drawn intervals on {+1, -1}."""
        y = _draw_shifted_coords(self._spec_for(n), n, rng)
        out = np.zeros((n, 2))
        out[:, 0] = y  # support at +1 is the upper endpoint; at -1 it is 0
        return out

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


@dataclass(frozen=True)
class DeterministicFamily:
    """Constant family V_k = A for every k; all variances are zero."""

    body: ConvexBody
    direction_grid: DirectionGrid | None = None

    def __post_init__(self):
        if self.body.dim >= 2 and self.direction_grid is None:
            raise FamilyError("deterministic families of dim >= 2 need a direction grid")
        if self.direction_grid is not None and self.direction_grid.dim != self.body.dim:
            raise FamilyError("grid dimension must match the body")

    @property
    def dim(self) -> int:
        return self.body.dim

    @property
    def grid(self) -> DirectionGrid:
        return self.direction_grid if self.direction_grid is not None else _EXACT_1D

    @property
    def tag(self) -> str:
        return f"deterministic {type(self.body).__name__}"

    def describe(self, n: int) -> str:
        return self.tag

    @cached_property
    def _support_row(self) -> np.ndarray:
        return embed(self.body, self.grid).values

    def support_draws(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.tile(self._support_row, (n, 1))

    def mean_supports(self, n: int) -> np.ndarray:
        return np.tile(self._support_row, (n, 1))

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
class ScaledTemplateFamily:
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

    def __post_init__(self):
        if self.process not in ("iid_uniform", "ar1"):
            raise FamilyError("scaled families support processes 'iid_uniform' and 'ar1'")
        if self.process == "ar1" and not 0.0 <= self.rho < 1.0:
            raise FamilyError("ar1 scaled families need 0 <= rho < 1")
        if self.template.dim >= 2 and self.direction_grid is None:
            raise FamilyError("scaled families of dim >= 2 need a direction grid")
        if self.direction_grid is not None and self.direction_grid.dim != self.template.dim:
            raise FamilyError("grid dimension must match the template")

    @property
    def dim(self) -> int:
        return self.template.dim

    @property
    def grid(self) -> DirectionGrid:
        return self.direction_grid if self.direction_grid is not None else _EXACT_1D

    @property
    def tag(self) -> str:
        extra = f" rho={self.rho}" if self.process == "ar1" else ""
        extra += f" growth={self.growth}" if self.growth else ""
        return f"scaled_{self.process}{extra} x {type(self.template).__name__}"

    def describe(self, n: int) -> str:
        return self.tag

    @cached_property
    def _template_supports(self) -> np.ndarray:
        return embed(self.template, self.grid).values

    def _growth_factors(self, n: int) -> np.ndarray:
        if not self.growth:
            return np.ones(n)
        return np.arange(1, n + 1) ** float(self.growth)

    def _scales(self, n: int, rng: np.random.Generator) -> np.ndarray:
        rho = self.rho if self.process == "ar1" else None
        return _scalar_process(self.process, n, rng, rho, None) * self._growth_factors(n)

    def _scale_variances(self, n: int) -> np.ndarray:
        if self.process == "iid_uniform":
            base = np.full(n, 1.0 / 12.0)
        else:
            base = np.empty(n)
            v = 1.0 / 12.0
            base[0] = v
            for k in range(1, n):
                v = self.rho ** 2 * v + (1.0 - self.rho) ** 2 / 12.0
                base[k] = v
        return base * self._growth_factors(n) ** 2

    def support_draws(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.outer(self._scales(n, rng), self._template_supports)

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

    def rms_envelope(self, n: int) -> float:
        """Root of the mean-square bound an uncorrelated family would obey."""
        return math.sqrt(float(self.variances(n).sum())) / n

    def sample(self, count: int, seed: SeedSpec) -> SetSample:
        rho = self.rho if self.process == "ar1" else None
        return make_generic_family(self.template, self.process, count, seed,
                                   rho=rho, growth=self.growth)


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


def read_set_sample(path) -> SetSample:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise FamilyError("sample file must start with a '# setlaw-sample' header")
    header = lines[0]
    seed = None
    fields = dict(tok.split("=", 1) for tok in header.split() if "=" in tok)
    try:
        seed = SeedSpec(int(fields["master_seed"]), int(fields["stream_index"]))
    except (KeyError, ValueError):
        seed = None
    tag = fields.get("family", "adhoc").strip("'\"")
    bodies = tuple(parse_body(ln) for ln in lines[1:])
    return SetSample(bodies, seed=seed, family_tag=tag)

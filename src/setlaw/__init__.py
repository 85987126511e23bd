"""Compact convex random sets: Minkowski arithmetic, support functions,
the Hausdorff metric, uncorrelation tests, and seeded law-of-large-numbers
experiments."""

__version__ = "0.1.0"

from .geometry import (
    Box,
    ConvexBody,
    Direction,
    DirectionGrid,
    Ellipsoid,
    Embedded,
    GeometryError,
    Interval,
    Polytope,
    SupportVector,
    embed,
    format_body,
    hausdorff_distance,
    make_direction_grid,
    minkowski_sum,
    parse_body,
    scalar_mul,
    set_norm,
    support_function,
    support_values,
    zero_body,
)
from .sampling import (
    DeterministicFamily,
    EllipsoidFamilySpec,
    EllipsoidIntervalFamily,
    FamilyError,
    ScaledTemplateFamily,
    SeedSpec,
    SetSample,
    interval_family_variances,
    read_set_sample,
    sample_ellipse_pair,
    sample_ellipsoid_uniform,
    uniform_density_constant,
    write_set_sample,
)
from .stats import (
    ConditionResult,
    StatsError,
    UncorrelationVerdict,
    VarianceSchedule,
    aumann_mean_estimate,
    empirical_support_covariance,
    evaluate_variance_condition,
    test_interval_endpoint_reduction,
    test_uncorrelated,
)
from .harness import (
    ConvergenceReport,
    HarnessError,
    SllnConfig,
    WllnConfig,
    regenerated_wlln_trajectory,
    run_slln,
    run_wlln,
)

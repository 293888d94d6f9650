"""Certified random covers of grid sets.

Builds measurable partitions with per-region volume and diameter
certificates, evaluates closed-form coverage probability bounds for uniform
random sampling, exposes an exact discrete flat-norm minimizer used both as
a regularizer and as a reach surrogate, and validates every bound by direct
Monte Carlo simulation.
"""

from .errors import (
    CovergeoError,
    DeltaLambdaIncompatible,
    DimensionError,
    EmptySourceError,
    ErosionEmptyError,
    GridFormatError,
    HypothesisViolation,
    LambdaBelowThreshold,
    NotCompactlyContained,
    RemovedSetTooLarge,
    ResolutionFloorError,
    StabilityRadiusExceeded,
    SymDiffTooLarge,
)
from .grid import (
    DistanceField,
    GridSet,
    closing,
    closing_stability_radius,
    diameter,
    dilate,
    distance_transform,
    erode,
    eta_delta,
    opening,
    opening_stability_radius,
    perimeter,
    read_mask,
    write_mask,
)
from .shapes import (
    ball3,
    box,
    disk,
    disk_minus_box,
    disk_minus_cross,
    disk_minus_disk,
    dumbbell,
    rasterize,
    two_disks,
)
from .partition import (
    AlmostPartitionCertificate,
    GoodPartitionCertificate,
    Partition,
    certificate_json,
    certify_almost,
    certify_good,
    good_partition,
    partition_with_eta,
    read_labels,
    region_table,
    restrict_partition,
    write_labels,
)
from .bounds import (
    CoverageBound,
    ReachConstant,
    bound_U_minus_A,
    bound_flatnorm,
    bound_reach,
    bound_regions,
    invert_for_N,
    reach_constant,
)
from .montecarlo import (
    TrialReport,
    estimate_ladder,
    estimate_probability,
    ladder_csv,
    sample_uniform,
    wilson_interval,
)
from .flatnorm import (
    FillInReport,
    FlatNormResult,
    ReachReport,
    almost_cover_pipeline,
    fill_in_experiment,
    flatnorm_minimize,
    lambda_threshold,
    minimizer_reach_check,
)
from .render import render_labels, render_mask, render_overlay, render_samples

__version__ = "0.1.0"

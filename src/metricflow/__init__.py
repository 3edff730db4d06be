"""Numerical laboratory for transport-type geometries on Riemannian metrics."""

__version__ = "0.1.0"

from .cg import CGResult, solve_spd
from .divergences import (
    DivergenceKind,
    StaticProblem,
    conformal_lift,
    divergence,
    second_variation_probe,
    static_local_search,
    static_objective,
)
from .errors import (
    ConfigError,
    DegeneratePathError,
    FlatnessInconsistencyError,
    FrameDegeneracyError,
    GridMismatchError,
    NonInvertibleMapError,
    OutOfDomainError,
    PositivityViolation,
    SolverFailure,
)
from .fiber import (
    LiftReport,
    euler_alpha_lagrangian,
    optimal_lift,
    verify_pi1_submersion,
)
from .fields import (
    DensityField,
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
)
from .flatmaps import (
    FrameData,
    cartan_develop,
    factorize_flat_metric,
    flat_pullback_instance,
    frame_and_connection,
    non_flat_instance,
    reconstruct_diffeo,
)
from .randomfields import substream
from .seqdemo import (
    SeqSpace,
    baseline_distances,
    ic_speed,
    three_segment_length,
    vanishing_sweep,
)
from .serialization import field_from_json, field_to_json
from .tensors import (
    DisplacementMap,
    MetricField,
    invert_displacement,
    lie_derivative_metric,
    pullback_metric,
    pushforward_metric,
    trace_decompose,
    volume_map,
    volume_tangent,
)
from .transport import (
    NormResult,
    SolverConfig,
    ebin_inner,
    linear_metric_path,
    path_energy,
    path_length,
    toy_geodesic,
    wasserstein_orbit_norm,
    we_distance_bounds,
    we_tangent_norm,
    we_tangent_norms,
    wfr_tangent_norm,
)

"""copthrottle: exact solver, strategy laboratory, and verification harness
for throttling in the game of Cops and Robbers."""

from .engine import (
    GameState,
    ROBBER_WINS,
    canonical_config,
    capt_k,
    cop_number,
    is_finite,
    optimal_moves,
    solve_k,
    solve_placement,
)
from .graph import (
    BudgetExceeded,
    CornerWitness,
    DEFAULT_BUDGET,
    Graph,
    boundary_vertices,
    corners,
    distances_from,
    distances_from_set,
    domination_number,
    feedback_vertex_number,
    geodesic_between,
    is_outerplanar,
    k_distance_dominating,
    k_radius_exact,
    radius_and_center,
)
from .chordal import (
    ChordalThrottling,
    EliminationOrdering,
    chordal_throttling,
    is_chordal,
    lexbfs_order,
    retraction_onto,
)
from .lambertw import LambertParams, lambert_w
from .strategy import (
    CertificationResult,
    PlacementCertificate,
    ball_cover_strategy,
    certify_strategy,
    feedback_bound,
    guard_placement,
    path_retraction,
    shadow_guard_simulate,
    staged_decomposition,
)
from .throttling import (
    ThrottlingPoint,
    ThrottlingReport,
    ThrottlingRow,
    check_iq_proposition,
    classify_thprod_low,
    throttling_points,
    throttling_report,
)

__version__ = "0.1.0"

"""Integrable top systems built from binary projective incidence geometry.

The package enumerates the points, lines and hyperplanes of the projective
space over GF(2), generates the (2^n - 1)-dimensional quadratic top flow
from the line set, verifies its conserved quantities, and reduces the flow
to a single scalar quadrature whose solution reconstructs the full state.
"""

from .dynamics import (
    TopSystem,
    Trajectory,
    a_inverse,
    a_rhs,
    a_transform,
    guarded_horizon,
    integrate,
    omega_rhs,
)
from .errors import (
    BranchError,
    DegenerateOrbitError,
    InvalidParameterError,
    UnsupportedSearchError,
)
from .geometry import (
    Collineation,
    classic_fano_lines,
    classic_line_set,
    classic_planes_15,
    find_collineation,
    find_hyperplane_collineation,
    geometry_json,
    hyperplanes,
    incidence_dot,
    lines,
)
from .invariants import (
    DriftEntry,
    DriftReport,
    big_T,
    drift_report,
    gamma,
    gamma_jacobian_rank,
    independent_count,
    n_matrix,
)
from .reduction import (
    ReductionData,
    RouteComparison,
    compare_routes,
    compute_reduction,
    genus,
    integrate_R,
    reconstruct_a,
    scalar_rhs,
)
from .zktop import (
    ZkSystem,
    integrate_zk,
    zk_drift_report,
    zk_genus,
    zk_guarded_horizon,
    zk_invariants,
    zk_rhs,
)

__version__ = "0.1.0"

"""Heat kernel, gradients and Riesz transform of the flow Laplacian on
homogeneous trees, with desk-scale verification of their weighted
L1 estimates."""

__version__ = "0.1.0"

from .tree import (
    Rel,
    TreeParams,
    TruncationError,
    Vertex,
    distance,
    enumerate_ball,
    flow_measure,
    level,
    pair_strata,
    relation,
    restricted_sphere_sums,
    sphere_stratum_count,
    weighted_sphere_sum,
)
from .zline import (
    comparability_ratio,
    heat_z,
    heat_z_row,
    heat_z_rows,
    phi,
    recurrence_residual,
    weighted_l1,
    weighted_sup,
)
from .heat import (
    KernelQuery,
    combinatorial_kernel,
    grad_x,
    grad_xy,
    grad_y,
    j_value,
    kernel,
)
from .sums import (
    CLAIMED_POWERS,
    ExpWeight,
    PolyWeight,
    SumSpec,
    fit_decay,
    horocycle_profile,
    horocycle_sup,
    q_uniformity,
    scan,
    scan_many,
    split_gradient_sum,
    sweep,
    weighted_sum,
)
from .riesz import (
    RieszQuery,
    kernel_rows,
    kn_grad_sum,
    kn_weighted_sum,
    lipschitz_check,
    riesz_kernel,
    small_time_column_sums,
    weak_type_probe,
)
from .oracle import (
    BallModel,
    RelState,
    WalkConfig,
    analytic_arrival_probability,
    assemble_operators,
    build_ball_model,
    delta_min_eig,
    flow_spectrum_bounds,
    heat_matrix,
    mc_heat,
    radial_heat_profile,
    spectrum,
    z_heat_column,
)

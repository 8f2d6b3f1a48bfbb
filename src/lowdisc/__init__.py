"""Digital nets, low-discrepancy sequences, and discrepancy computation.

Construct the classical optimal-L2-discrepancy point sets (binomial
matrices over F_b, interlaced Niederreiter nets and sequences over F_2,
Davenport's symmetrized set), verify their defining structure exactly
(t-value, dual-space weights, Walsh character property), and measure
their discrepancy (exact L2, estimated Lq) against the universal lower
bound shapes.
"""

from .constructions import (
    arbitrary_n_trim,
    cs_matrices,
    davenport_symmetrized,
    dp_finite_base,
    dp_finite_pointset,
    dp_net,
    dp_net_matrices,
    dp_sequence,
    faure_matrices,
    interlace_matrices,
    interlace_pointset,
    niederreiter_net_matrices,
    niederreiter_t_bound,
    van_der_corput,
    van_der_corput_matrices,
)
from .discrepancy import (
    DiscrepancyReport,
    l2_exact,
    l2_exact_rational,
    trim_inequality_check,
    local_discrepancy,
    lq_estimate,
    roth_constant,
    roth_lower_bound,
    sequence_profile,
    sum_of_digits,
)
from .errors import (
    CapacityError,
    ConsistencyError,
    LowdiscError,
    ParameterError,
)
from .field import (
    binomial_mod_p,
    irreducible_polys_f2,
    is_prime,
    kernel_basis,
    matrix_rank,
)
from .nets import (
    DualSpace,
    GeneratingMatrixSet,
    PointSet,
    char_property_sums,
    compute_t_value,
    dual_space,
    generate_net_points,
    geometric_net_check,
    geometric_t_value,
)
from .pointfile import read_point_file, write_point_file
from .weights import (
    min_dual_weight,
    t_alpha,
)

__version__ = "0.1.0"

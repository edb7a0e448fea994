"""q-randomized RSK dynamics on interlacing integer arrays.

The package implements the four randomized insertion dynamics (row/column,
Bernoulli/q-geometric input) and the push-block dynamics on interlacing
arrays, their one-dimensional particle-system marginals (Bernoulli and
geometric q-TASEP / q-PushTASEP), nested-contour q-moment formulas, the
geometric RSK / lattice polymer limits, and an exact rational verification
engine for the structural identities tying all of these together.
"""

from .dynamics import (
    COL_ALPHA,
    COL_BETA,
    PUSH_BLOCK_ALPHA,
    PUSH_BLOCK_BETA,
    ROW_ALPHA,
    ROW_BETA,
    DynamicsSpec,
    LevelUpdateContext,
    classical_rsk_step,
    col_alpha_prob,
    col_beta_prob,
    exact_array_distribution,
    main_equation_residual,
    main_equation_squares,
    main_equation_sweep,
    push_block_prob,
    row_alpha_prob,
    row_beta_prob,
    sample_step,
)
from .gt import (
    complement,
    enumerate_arrays_with_top,
    enumerate_signatures,
    interlaces_h,
    interlaces_v,
    transpose,
    zero_array,
)
from .moments import MomentQuery, exact_qmoment, nested_moment_residues
from .particles import (
    bernoulli_qpush_step,
    bernoulli_qtasep_step,
    coupling_check,
    exact_trajectory_distribution,
    geometric_qpush_step,
    geometric_qtasep_step,
    step_config,
)
from .polymers import (
    PolymerEnv,
    grsk_col_insert,
    grsk_row_insert,
    lgv_partition,
    scaling_limit_experiment,
    transfer_matrix_check,
)
from .qnum import (
    INF,
    ExactModeError,
    PhiParams,
    phi_sample,
    phi_weight,
    q_binomial,
    q_pochhammer,
    q_pochhammer_inf,
)
from .whittaker import (
    SpecParams,
    check_gibbs,
    p_poly,
    phi_coef,
    process_weight,
    psi,
    psi_prime,
    q_poly_alpha,
    q_poly_dual,
    univariate_step_prob,
)

__version__ = "0.1.0"

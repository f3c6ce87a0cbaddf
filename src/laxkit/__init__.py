"""Deformed-oscillator chains and the complex Liouville field with local
integrable defects: exact charge extraction, Poisson-structure and
zero-curvature verification, time integration, and Darboux/Backlund solution
generators, plus a deterministic command-line harness."""

from .laurent import (
    LaurentMatrix,
    LaurentSeries,
    log_expand,
    matrix_product_chain,
    series_inverse,
)
from .stepping import Abort, Aborted, march
from .lattice import (
    LatticeState,
    SingularStateError,
    build_lax,
    bulk_eom,
    charges_closed_form,
    charges_from_trace,
    check_quadratic_algebra,
    integrate,
    monodromy,
    poisson_bracket,
    time_lax_from_rmatrix,
    time_lax_order2,
    zero_curvature_residual,
)
from .lattice_defect import (
    DefectSite,
    build_defect_lax,
    check_defect_algebra,
    defect_charges,
    defect_eom,
    defect_monodromy,
    defect_time_lax,
    integrate_with_defect,
)
from .liouville import (
    FieldConfig,
    charges,
    check_linear_algebra,
    dual_charges,
    evolve,
    fit_first_charge,
    gauge_transform,
    lax_U,
    lax_V,
    liouville_rhs,
    monodromy_ode,
)
from .continuum_defect import (
    IntervalField,
    SplitFieldConfig,
    defect_charge_order1,
    defect_charge_order1_mirror,
    defect_momentum_hamiltonian,
    sewing_residual,
    v_matrices_near_defect,
)
from .backlund import (
    DarbouxState,
    HeteroParams,
    LightConeField,
    bt_evolve,
    bt_residual_t,
    bt_residual_x,
    bt_solve_YZ,
    darboux_matrix_type2,
    hetero_bt_generate,
    hetero_darboux,
    interface_residual,
    select_hetero_variant,
)

__version__ = "0.1.0"

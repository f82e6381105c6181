"""phaselab: double-well phase transitions on intervals, circles, and flat tori.

Construct interface solutions of the width-weighted transition energy,
extract and analyze their nodal sets, and run the rigidity experiments
(antipodality, congruence, rotation symmetry, exponential decay, comparison
ordering, sliding barriers).
"""

from .fields import Field, energy, gradient, hessian_apply, inner, laplacian
from .grids import (
    Grid,
    ResolutionError,
    circle_distance,
    circle_grid,
    interval_grid,
    require_resolution,
    torus_grid,
)
from .nodal import (
    CongruenceReport,
    DecayFit,
    NodalSet,
    SymmetryReport,
    check_alternation,
    check_congruent_intervals,
    check_rotation_symmetry,
    cluster_fiber_angles,
    extract_nodal_set,
    fit_decay,
    hausdorff_distance,
)
from .potentials import (
    AxiomReport,
    Potential,
    check_double_well,
    from_callables,
    from_table,
    interface_energy,
    make_potential,
    quartic,
)
from .experiments import (
    Barrier,
    BarrierConstructionError,
    ComparisonReport,
    SlideReport,
    build_barrier,
    comparison_test,
    experiment_comparison,
    experiment_decay,
    experiment_m_rigidity,
    experiment_slide,
    experiment_two_interface,
    slide_to_touch,
)
from .io import emit_plotdata, load_snapshot, load_snapshot_with_meta, save_snapshot
from .reports import ExperimentReport
from .solvers import (
    FlowTrace,
    ModelSolution,
    NewtonResult,
    SolveConfig,
    SolverError,
    StopRule,
    existence_threshold,
    gradient_flow,
    multi_interface_seed,
    newton_refine,
    reflect_extend,
    solve_dirichlet_model,
)

__version__ = "0.1.0"

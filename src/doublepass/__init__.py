"""Double-pass atom-field model: symbolic QSDE engine plus three
mutually independent numerical verification routes (closed forms,
moment ODEs, truncated-Fock collision oracle)."""

from .errors import ConfigError
from .scalars import Cyclo, FormalScalar
from .weyl import (AXIS_P, AXIS_X, FragmentError, OpPoly, WeylTerm, adjoint,
                   mul)
from .ito import (FAMILY_F, FAMILY_G, PAPER_FORMS, Derivation, HPSystem,
                  IORelation, IORelations, ItoDifferential, PdeCoefficients,
                  char_fn_generator, derivation_report, double_pass_derivation,
                  double_pass_system, flow_differential, ito_product, lindblad,
                  output_commutator_rate, output_quadrature_relations,
                  series_product, single_pass_systems, subset_terms)
from .gaussian import (CovTrajectory, LinearOde, build_moment_odes,
                       closed_form_covariances, integrate_covariance,
                       variance_table)
from .charfn import (BoundaryLeakError, CharSurface, GridSpec,
                     closed_form_char, fd_solve, moc_solve, pde_residual)
from .fock import (AtomMomentSeries, OracleConfig, TrajectoryStats,
                   TruncationLeakError, homodyne_monte_carlo, homodyne_series,
                   kraus_stack, simulate_atom_moments, step_unitaries)

__version__ = "0.1.0"

"""radcomp: radial comparison models for semilinear elliptic problems on
curved model spaces: profile shooting, boundary-response scans, geometric
bounds, and isoparametric reductions, cross-validated against closed forms.
"""

from .spaceform import SpaceForm
from .nonlinearity import (Nonlinearity, serrin_fk, affine, lane_emden, allen_cahn,
                           bratu, constant, polynomial, from_descriptor,
                           check_standard_conditions, check_derivative_bound,
                           check_tau_monotonicity_condition)
from .ode import (CauchyData, SolveOptions, ModelProfile, solve_profile,
                  solve_generic, pole_residue)
from .tau import (TauTable, GapEstimate, normalization_constant, tau_scan,
                  gap_estimate, figure_gap_curve)
from .bounds import (ComparisonPair, mu_sign_scan, mu_at_boundary, curvature_bounds,
                     area_ratio_factor, isoperimetric_model_ratio,
                     isoperimetric_coarea_ratio, serrin_lower_bound,
                     hotspot_bounds, bound_report)
from .closedform import (serrin_flat_centered, serrin_flat_radius, serrin_explicit,
                         SerrinExplicit, helmholtz_s3, HelmholtzS3,
                         asymptotic_gap, AsymptoticProfile,
                         asymptote_parameter_from_cauchy_max)
from .isoparametric import (IsoparametricFamily, IsoProfile, solve_iso_profile,
                            descent_check)
from . import errors

__version__ = "0.1.0"

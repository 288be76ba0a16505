"""Positivity-preserving explicit time integration of a generalized SEIR model.

The package provides

* the SEIR right-hand side with catalogs of incidence and recruitment
  functions (:mod:`ssp_seir.model`),
* Butcher-tableau algebra, canonical Shu-Osher forms and SSP coefficients
  (:mod:`ssp_seir.shu_osher`),
* SSP Runge-Kutta stepping, explicit Euler as its one-stage form
  (:mod:`ssp_seir.stepping`),
* theoretical step-size and population bounds (:mod:`ssp_seir.step_bounds`),
* trajectory property checks and empirical threshold search
  (:mod:`ssp_seir.checks`),
* independent reference oracles (:mod:`ssp_seir.reference`),
* an experiment CLI (:mod:`ssp_seir.cli`).
"""

from .model import (
    IncidenceFunction,
    ModelParams,
    ProblemSetup,
    RecruitmentFunction,
    State,
    incidence_from_key,
    recruitment_from_key,
    recruitment_sup,
    rhs,
    sup_incidence,
)
from .shu_osher import (
    BUILTIN_METHOD_KEYS,
    ButcherTableau,
    InfeasibleFormError,
    ShuOsherForm,
    builtin_method,
    builtin_tableau,
    k_matrix,
    shu_osher_from_butcher,
    ssp_coefficient,
)
from .stepping import (
    IntegrationOverflowError,
    Trajectory,
    integrate,
    trajectory_to_csv,
)
from .step_bounds import (
    BoundReport,
    EulerBound,
    PopulationCap,
    ab_coefficients,
    bound_report,
    euler_step_bound,
    gamma_coefficients,
    population_cap,
    rk_step_bound,
)
from .checks import (
    Verdict,
    check_limit,
    check_nonnegativity,
    check_population_bound,
    detect_oscillation,
    find_empirical_bound,
)
from .reference import (
    adaptive_simpson,
    exact_population,
    reference_trajectory,
)

__all__ = [
    "BUILTIN_METHOD_KEYS",
    "BoundReport",
    "ButcherTableau",
    "EulerBound",
    "IncidenceFunction",
    "InfeasibleFormError",
    "IntegrationOverflowError",
    "ModelParams",
    "PopulationCap",
    "ProblemSetup",
    "RecruitmentFunction",
    "ShuOsherForm",
    "State",
    "Trajectory",
    "Verdict",
    "ab_coefficients",
    "adaptive_simpson",
    "bound_report",
    "builtin_method",
    "builtin_tableau",
    "check_limit",
    "check_nonnegativity",
    "check_population_bound",
    "detect_oscillation",
    "euler_step_bound",
    "exact_population",
    "find_empirical_bound",
    "gamma_coefficients",
    "incidence_from_key",
    "integrate",
    "k_matrix",
    "population_cap",
    "recruitment_from_key",
    "recruitment_sup",
    "reference_trajectory",
    "rhs",
    "rk_step_bound",
    "shu_osher_from_butcher",
    "ssp_coefficient",
    "sup_incidence",
    "trajectory_to_csv",
]

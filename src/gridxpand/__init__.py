"""Generation and transmission expansion planning with thermally rated lines.

The package builds a single mixed-integer linear program that selects new
generating units and new lines, dispatches them across demand periods, and —
in its full mode — rates every candidate line through a linearized conductor
heat balance under weather uncertainty instead of a fixed seasonal limit.

Typical use::

    from gridxpand import load_case, load_scenario, apply_scenario, run_plan
    case = apply_scenario(load_case("case.json"), load_scenario("s.json"))
    plan = run_plan(case, params, mode="dtlr_robust")
"""

from .errors import (CaseFormatError, CaseValidationError, CyclingGuardError,
                     ExtractionError, GridxpandError, ModelBuildError,
                     SolverError, UnknownEntityError)
from .ir import ModelIR, Row, Variable
from .uncertainty import (NormalApprox, RobustParams, binomial_normal_approx,
                          binomial_pmf, inverse_normal_cdf, normal_cdf,
                          omega_from_reliability, robust_margin)
from .linearize import (Segment, TrigSegments, certify_segment,
                        fit_line_minimax, trig_segments)
from .thermal import (ConductorSpec, ConvectionCoeffs, HbeBreakdown,
                      RadiationLogFit, WeatherRecord, ampacity,
                      convection_coefficients, heat_balance_breakdown,
                      line_convection, radiation_log_fit, radiation_loss,
                      reynolds_number, steady_state_temperature)
from .solve import SolveConfig, Solution, external_solve, oracle_solve
from .network import (BusSpec, CaseSystem, GeneratorSpec, LineSpec, PeriodSpec,
                      Violation, scale_to_peak, validate_case)
from .caseio import (Scenario, WeatherPatch, apply_scenario, case_to_document,
                     load_case, load_scenario, parse_case, parse_scenario,
                     save_case)
from .builder import (MODES, PlanResult, VarMap, build_igtep, extract_plan,
                      hbe_certificate_bound, hbe_residual_audit)
from .runner import (SweepSpec, plan_document, plan_table, run_plan, run_sweep,
                     sweep_table, write_document)

__version__ = "0.1.0"

__all__ = [
    "GridxpandError", "CaseFormatError", "CaseValidationError",
    "UnknownEntityError", "ModelBuildError", "ExtractionError", "SolverError",
    "CyclingGuardError",
    "Variable", "Row", "ModelIR",
    "normal_cdf", "inverse_normal_cdf", "omega_from_reliability",
    "RobustParams", "binomial_pmf", "NormalApprox", "binomial_normal_approx",
    "robust_margin",
    "Segment", "certify_segment", "fit_line_minimax", "TrigSegments",
    "trig_segments",
    "ConductorSpec", "WeatherRecord", "ConvectionCoeffs", "HbeBreakdown",
    "RadiationLogFit", "reynolds_number", "convection_coefficients",
    "line_convection", "radiation_loss", "heat_balance_breakdown",
    "steady_state_temperature", "ampacity", "radiation_log_fit",
    "SolveConfig", "Solution", "external_solve", "oracle_solve",
    "BusSpec", "LineSpec", "GeneratorSpec", "PeriodSpec", "CaseSystem",
    "Violation", "validate_case", "scale_to_peak",
    "parse_case", "load_case", "save_case", "case_to_document",
    "Scenario", "WeatherPatch", "parse_scenario", "load_scenario",
    "apply_scenario",
    "MODES", "VarMap", "PlanResult", "build_igtep", "extract_plan",
    "hbe_residual_audit", "hbe_certificate_bound",
    "SweepSpec", "run_plan", "run_sweep", "plan_document", "plan_table",
    "sweep_table", "write_document",
    "__version__",
]

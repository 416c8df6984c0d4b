"""Window-average pseudometrics on example dynamical systems over the
integer group: estimation along Folner windows, proximality lattices, and
factor-map regularity scans.

Importing the package registers the bundled systems and factor maps; see
`weylab.cli` or the `weylab` console script for the scenario runner.
"""

from .core import (CompositionError, CrossSystemError, FactorMap,
                   FolnerSchedule, FolnerWindow, Point, SamplerError,
                   ScenarioError, System, ToleranceError, UnknownFactorError,
                   UnknownSystemError, WeylabError, act, default_schedule,
                   dist, dyadic_schedule, factor_ids, get_factor, get_system,
                   register_factor, register_system, system_ids)
from .dyadic import DyadicInteger
from .estimators import (PairSummary, PseudometricEstimate, SummaryMemo,
                         WindowValue, banach_density, besicovitch, check,
                         estimate, estimates, hat, weyl)
from .factors import (DecompositionReport, DominationReport,
                      FactorClassification, FunctionFamily, classify_factor_map,
                      d_family, domination_check, lift_metric,
                      verify_decomposition)
from .profiles import DistanceProfile
from .relations import (MeanEquicontinuityReport, ModulusReport, PairSequence,
                        PairVerdict, PropertyMReport, SequenceReport,
                        Tolerances, WitnessReport, classify_pair,
                        default_classify_schedule, empirical_measure,
                        is_asymptotically_banach_proximal,
                        regional_witness_search, scan_equicontinuity,
                        scan_mean_equicontinuity, scan_property_M,
                        sequence_report)
from . import systems  # noqa: F401  (fills the registries)

__version__ = "0.1.0"

__all__ = [
    "CompositionError", "CrossSystemError", "DecompositionReport",
    "DistanceProfile", "DominationReport", "DyadicInteger",
    "FactorClassification", "FactorMap", "FolnerSchedule", "FolnerWindow",
    "FunctionFamily", "MeanEquicontinuityReport", "ModulusReport",
    "PairSequence", "PairSummary", "PairVerdict", "Point", "PropertyMReport",
    "PseudometricEstimate", "SamplerError", "ScenarioError",
    "SequenceReport", "SummaryMemo", "System", "ToleranceError", "Tolerances",
    "UnknownFactorError", "UnknownSystemError", "WeylabError",
    "WindowValue", "WitnessReport", "act", "banach_density", "besicovitch",
    "check", "classify_factor_map", "classify_pair", "d_family",
    "default_classify_schedule", "default_schedule", "dist",
    "domination_check", "dyadic_schedule", "empirical_measure", "estimate",
    "estimates", "factor_ids", "get_factor", "get_system", "hat",
    "is_asymptotically_banach_proximal", "lift_metric",
    "regional_witness_search", "register_factor", "register_system",
    "scan_equicontinuity", "scan_mean_equicontinuity", "scan_property_M",
    "sequence_report", "system_ids", "verify_decomposition", "weyl",
]

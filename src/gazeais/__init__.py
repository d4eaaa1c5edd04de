"""Scanpath predictability analysis via active information storage.

Plug-in information estimators with small-sample bias correction, greedy
data-driven past-state selection with max-statistic permutation testing,
an IDT gaze-to-scanpath pipeline, exact Markov-chain oracles, and the
per-participant condition-comparison protocol, plus a batch CLI.
"""

__version__ = "0.1.0"

from .embedding import (MIN_EMBEDDED_ROWS, SelectionStep, SelectionTrace,
                        max_statistic_test, optimize_past_state)
from .experiment import (ContrastResult, LagHistogram, ParticipantComparison,
                         RunConfig, TrialResult, analyze_trial,
                         analyze_trials, compare_conditions,
                         contrast_conditions, lag_histogram, parse_run_config,
                         union_past_state)
from .gaze import (AOIRegion, FIXATION_DTYPE, GAZE_DTYPE, PipelineParams,
                   ScanpathRecord, Trial, build_scanpath,
                   detect_fixations_idt, filter_fixations, filter_gaze,
                   load_aois, map_to_aoi, read_gaze_csv, trial_fixations)
from .infocore import (InfoEstimate, active_information_storage,
                       gaze_transition_entropy, next_symbol_entropy)
from .markov import (MarkovSpec, analytic_ais, analytic_entropy, analytic_gte,
                     cycle_spec, generate, lagged_copy_spec, load_markov_spec,
                     persistence_spec, stationary_distribution,
                     uniform_iid_spec)
from .rng import derive_rng, derive_seed
from .sequences import PastState, StateVectorSeries, SymbolSequence, embed
from .stats import (PermutationTestResult,
                    independent_samples_permutation_test, test_final_ais)

__all__ = [
    "AOIRegion", "ContrastResult", "FIXATION_DTYPE", "GAZE_DTYPE",
    "InfoEstimate", "LagHistogram", "MarkovSpec", "MIN_EMBEDDED_ROWS",
    "ParticipantComparison", "PastState", "PermutationTestResult",
    "PipelineParams", "RunConfig", "ScanpathRecord", "SelectionStep",
    "SelectionTrace", "StateVectorSeries", "SymbolSequence", "Trial",
    "TrialResult", "active_information_storage", "analytic_ais",
    "analytic_entropy", "analytic_gte", "analyze_trial", "analyze_trials",
    "build_scanpath", "compare_conditions", "contrast_conditions",
    "cycle_spec", "derive_rng", "derive_seed", "detect_fixations_idt", "embed",
    "filter_fixations", "filter_gaze", "gaze_transition_entropy", "generate",
    "independent_samples_permutation_test", "lag_histogram",
    "lagged_copy_spec", "load_aois", "load_markov_spec", "map_to_aoi",
    "max_statistic_test", "next_symbol_entropy", "optimize_past_state",
    "parse_run_config", "persistence_spec", "read_gaze_csv",
    "stationary_distribution", "test_final_ais", "trial_fixations",
    "uniform_iid_spec", "union_past_state"
]

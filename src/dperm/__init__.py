"""Differentially private empirical risk minimization lab.

Private learners over finite hypothesis spaces with exact output laws,
privacy wrappers (subsampling amplification, confidence boosting), exact
privacy and stability audits, and the experiment drivers that hold every
claimed bound to measurement.
"""

from .analysis import (
    ApproxAuditReport,
    GapReport,
    PureAuditReport,
    aerm_bound,
    aerm_gap,
    audit_approx_dp,
    audit_pure_dp,
    consistency_suite,
    counterexample_experiment,
    exhaustive_neighbor_pairs,
    phase_transition_experiment,
    sampled_neighbor_pairs,
    stability_audit,
    total_variation,
    utility_tail_check,
)
from .config import ConfigError, RunConfig, default_config, parse_config_file
from .experiments import EXPERIMENTS, ExperimentOutcome, Row, run_experiment
from .mechanisms import (
    Mechanism,
    MechanismDistribution,
    PrivacyBudget,
    amplify_approx,
    amplify_pure,
    boost_high_confidence,
    erm_mechanism,
    exponential_mechanism,
    logconcave_sampler,
    subsample_wrapper,
)
from .problems import (
    DataDistribution,
    Dataset,
    PROBLEM_BUILDERS,
    Problem,
    packed_datasets,
)
from .seeding import spawn_seed, trial_rng
from .spaces import (
    FiniteHypothesisSpace,
    GridSpec,
    SizeLimitError,
    discretize_box,
    estimate_sublevel_condition,
    sublevel_set,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxAuditReport",
    "ConfigError",
    "DataDistribution",
    "Dataset",
    "EXPERIMENTS",
    "ExperimentOutcome",
    "FiniteHypothesisSpace",
    "GapReport",
    "GridSpec",
    "Mechanism",
    "MechanismDistribution",
    "PrivacyBudget",
    "PROBLEM_BUILDERS",
    "Problem",
    "PureAuditReport",
    "Row",
    "RunConfig",
    "SizeLimitError",
    "aerm_bound",
    "aerm_gap",
    "amplify_approx",
    "amplify_pure",
    "audit_approx_dp",
    "audit_pure_dp",
    "boost_high_confidence",
    "consistency_suite",
    "counterexample_experiment",
    "default_config",
    "discretize_box",
    "erm_mechanism",
    "estimate_sublevel_condition",
    "exhaustive_neighbor_pairs",
    "exponential_mechanism",
    "logconcave_sampler",
    "packed_datasets",
    "parse_config_file",
    "phase_transition_experiment",
    "run_experiment",
    "sampled_neighbor_pairs",
    "spawn_seed",
    "stability_audit",
    "sublevel_set",
    "subsample_wrapper",
    "total_variation",
    "trial_rng",
    "utility_tail_check",
    "__version__",
]

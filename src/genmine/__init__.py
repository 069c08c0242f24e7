"""Process model generalization toolkit.

Train a generative sequence model on the variants observed in an event
log, estimate the underlying system's variant set by sampling (naively or
via Metropolis-Hastings), and score Petri-net process models against that
estimate with established conformance metrics.
"""

from .conformance import (
    ConformanceScores,
    GeneralizationResult,
    etc_precision,
    generalization_score,
    model_generalization,
    token_replay_fitness,
)
from .errors import (
    BudgetExceededError,
    BuildError,
    DegenerateInputError,
    GenmineError,
    InvalidInputError,
    TrainingDivergedError,
)
from .experiment import (
    BaselineModel,
    ExperimentConfig,
    NetModel,
    SamplerModel,
    run_experiment,
)
from .genmodel import (
    FeatureScorer,
    NGramGenerator,
    TrainConfig,
    TrainResult,
    fit_mle,
    load_checkpoint,
    sample_variant,
    save_checkpoint,
    score,
    select_model,
    train_and_select,
    train_discriminator,
)
from .logs import (
    EventInstance,
    EventLog,
    Trace,
    UniqueVariantLog,
    Variant,
    VariantLog,
    build_variant_logs,
    read_event_log_csv,
    read_variants_tsv,
    split_holdout,
    synth_event_log,
    variant_of,
    write_event_log_csv,
    write_variants_tsv,
)
from .metrics import MetricsReport, SystemTruth, compute_rates, score_s, split_system
from .petri import (
    Marking,
    PetriNet,
    Transition,
    dfg_discover,
    flower_model,
    load_net,
    make_net,
    net_from_dict,
    net_to_dict,
    playout_enumerate,
    save_net,
    trace_model,
)
from .sampling import (
    SampleResult,
    mh_acceptance,
    mh_chain_candidate,
    mh_sample,
    naive_sample,
)
from .stats import GateResult, normality_gate, paired_t_upper, shapiro_wilk, wilcoxon_upper
from .systems import ComplexityProfile, SystemSpec, build_system, complexity_profile

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

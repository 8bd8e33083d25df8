"""Simultaneous translation lab: adaptive divergence-gated read/write policy,
wait-k baseline, micro encoder-decoder with prefix-to-full training, and the
latency/quality evaluation stack."""

from .core import (
    ConfigError,
    CorpusError,
    CapacityError,
    Distribution,
    ModelFileError,
    NumericError,
    PolicyConfig,
    READ,
    SentencePair,
    Vocabulary,
    WRITE,
    build_vocabulary,
    load_parallel_corpus,
    uniform_distribution,
    validate_pair,
    write_parallel_corpus,
)
from .metrics import EvalResult, MetricError, average_lagging, corpus_bleu, \
    evaluate_run, hallucination_rate
from .micro import BIDIRECTIONAL, MicroModel, UNIDIRECTIONAL, sgd_step
from .modelio import load_model, save_model
from .policy import (
    DivergenceMatrix,
    FixedSuffix,
    OracleSuffix,
    RandomSuffix,
    cosine_divergence,
    divergence_matrix,
    make_suffix,
    psfuture_divergence,
    simulate_sentence,
    simulate_waitk,
    suffix_from_name,
    threshold_path,
    waitk_g,
)
from .sweep import DEFAULT_LAMBDA_GRID, SweepSpec, divergence_report_lines, \
    run_sweep, sentence_rng, sweep_csv_lines
from .synthetic import SyntheticSpec, generate_corpus, possible_next_tokens
from .tables import TableModel, backoff_probes
from .training import (
    TrainConfig,
    TrainResult,
    sample_alpha,
    sample_prefix_len,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]

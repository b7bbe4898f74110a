"""Protoform reconstruction with reflex-prediction reranking.

A numpy-only research library: cognate-set corpora, a small reverse-mode
autodiff engine, GRU encoder-decoder reconstruction and reflex models, beam
search, reranking, evaluation metrics, significance tests, and error
analysis.
"""

from .corpus import (
    CognateSet,
    Dataset,
    Vocabulary,
    assemble_reconstruction_input,
    assemble_reflex_input,
    build_vocabulary,
    parse_dataset,
    serialize_dataset,
    split_dataset,
)
from .decode import BeamConfig, Candidate, beam_search, greedy_decode
from .errors import (
    CheckpointError,
    ConfigError,
    DimensionError,
    ProtoreconError,
    SchemaError,
    TrainingError,
    VocabularyError,
)
from .metrics import FeatureTable, bundled_feature_table, evaluate
from .models import (
    ReconModel,
    ReconModelConfig,
    ReflexModel,
    ReflexModelConfig,
    load_checkpoint,
    new_model,
    train,
)
from .rerank import RerankedCandidate, reconstruct_reranked, rerank, rerank_sets
from .stats import bootstrap_ci, compare, pearson_correlation, significant, wilcoxon_rank_sum

__version__ = "0.1.0"

__all__ = [
    "BeamConfig",
    "Candidate",
    "CheckpointError",
    "CognateSet",
    "ConfigError",
    "Dataset",
    "DimensionError",
    "FeatureTable",
    "ProtoreconError",
    "ReconModel",
    "ReconModelConfig",
    "ReflexModel",
    "ReflexModelConfig",
    "RerankedCandidate",
    "SchemaError",
    "TrainingError",
    "Vocabulary",
    "VocabularyError",
    "assemble_reconstruction_input",
    "assemble_reflex_input",
    "beam_search",
    "bootstrap_ci",
    "build_vocabulary",
    "bundled_feature_table",
    "compare",
    "evaluate",
    "greedy_decode",
    "load_checkpoint",
    "new_model",
    "parse_dataset",
    "pearson_correlation",
    "reconstruct_reranked",
    "rerank",
    "rerank_sets",
    "serialize_dataset",
    "significant",
    "split_dataset",
    "train",
    "wilcoxon_rank_sum",
]

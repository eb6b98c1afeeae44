"""Cross-lingual knowledge-graph entity alignment via triple-aware attention."""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor
from .evaluation import EvalReport, evaluate
from .kg import (
    AlignmentTask,
    GraphStructure,
    KnowledgeGraph,
    generate_synthetic_pair,
    load_dbp15k,
    save_dbp15k,
)
from .training import FitResult, TrainConfig, fit

__all__ = [
    "AlignmentTask",
    "EvalReport",
    "FitResult",
    "GraphStructure",
    "KnowledgeGraph",
    "Tape",
    "Tensor",
    "TrainConfig",
    "evaluate",
    "fit",
    "generate_synthetic_pair",
    "load_dbp15k",
    "save_dbp15k",
]

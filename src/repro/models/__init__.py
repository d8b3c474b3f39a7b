"""Recommendation model zoo and the backend wiring its tables run on."""

from .base import Batch, IndexSampler, RecModel, SparseFeature
from .dien import DienConfig, DienModel
from .din import DinConfig, DinModel
from .dlrm import DlrmConfig, DlrmModel
from .layers import AttentionUnit, GruLayer, Mlp, relu, sigmoid
from .ncf import NcfConfig, NcfModel
from .runner import BackendKind, RunnerConfig, required_capacity_pages
from .widedeep import MultiTaskWideDeepModel, WideDeepConfig, WideDeepModel
from .zoo import (
    EMBEDDING_DOMINATED,
    MLP_DOMINATED,
    MODEL_NAMES,
    TableOneRow,
    build_model,
    table_one,
)

__all__ = [
    "Batch",
    "IndexSampler",
    "RecModel",
    "SparseFeature",
    "DienConfig",
    "DienModel",
    "DinConfig",
    "DinModel",
    "DlrmConfig",
    "DlrmModel",
    "AttentionUnit",
    "GruLayer",
    "Mlp",
    "relu",
    "sigmoid",
    "NcfConfig",
    "NcfModel",
    "BackendKind",
    "RunnerConfig",
    "required_capacity_pages",
    "MultiTaskWideDeepModel",
    "WideDeepConfig",
    "WideDeepModel",
    "EMBEDDING_DOMINATED",
    "MLP_DOMINATED",
    "MODEL_NAMES",
    "TableOneRow",
    "build_model",
    "table_one",
]

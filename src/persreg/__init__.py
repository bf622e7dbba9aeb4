"""Per-sample linear and logistic models with a learned covariate metric.

Trains one simple model per training sample through a shared low-rank
factorization, regularized so distances between per-sample loadings track a
learned distance over side covariates; test-time models are assembled by
averaging the nearest training models under that metric.
"""

from .model import (
    CATEGORICAL,
    CLASSIFICATION,
    CONTINUOUS,
    REGRESSION,
    CovariateTable,
    Dataset,
    HyperParams,
    TrainedModel,
)
from .objective import NumericalError
from .optimizer import fit, initialize
from .population import ElasticNetConfig, ElasticNetConvergenceError, fit_population
from .predictor import predict_batch, predict_point, rank_neighbors
from .simulate import evaluate_recovery, generate

__version__ = "0.1.0"

__all__ = [
    "CATEGORICAL",
    "CLASSIFICATION",
    "CONTINUOUS",
    "REGRESSION",
    "CovariateTable",
    "Dataset",
    "ElasticNetConfig",
    "ElasticNetConvergenceError",
    "HyperParams",
    "NumericalError",
    "TrainedModel",
    "evaluate_recovery",
    "fit",
    "fit_population",
    "generate",
    "initialize",
    "predict_batch",
    "predict_point",
    "rank_neighbors",
]

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
    Factorization,
    HyperParams,
    TrainedModel,
    center_of_mass,
    coefficient_matrix,
    normalize_dictionary,
)
from .metric import (
    CovariateMetric,
    auto_radius,
    neighbor_pairs,
    neighbor_sets,
    pairwise_squared,
    precompute_cache,
)
from .objective import (
    GradientBundle,
    NumericalError,
    composite_objective,
    distance_match,
)
from .optimizer import TrainState, fit, initialize, learning_rate, train_step
from .population import (
    ElasticNetConfig,
    ElasticNetConvergenceError,
    fit_population,
    predict_population,
)
from .predictor import Prediction, predict_batch, predict_point, rank_neighbors
from .simulate import RecoveryMetrics, SyntheticInstance, evaluate_recovery, generate

__version__ = "0.1.0"

__all__ = [
    "CATEGORICAL",
    "CLASSIFICATION",
    "CONTINUOUS",
    "REGRESSION",
    "CovariateMetric",
    "CovariateTable",
    "Dataset",
    "ElasticNetConfig",
    "ElasticNetConvergenceError",
    "Factorization",
    "GradientBundle",
    "HyperParams",
    "NumericalError",
    "Prediction",
    "RecoveryMetrics",
    "SyntheticInstance",
    "TrainState",
    "TrainedModel",
    "auto_radius",
    "center_of_mass",
    "coefficient_matrix",
    "composite_objective",
    "distance_match",
    "evaluate_recovery",
    "fit",
    "fit_population",
    "generate",
    "initialize",
    "learning_rate",
    "neighbor_pairs",
    "neighbor_sets",
    "normalize_dictionary",
    "pairwise_squared",
    "precompute_cache",
    "predict_batch",
    "predict_point",
    "predict_population",
    "rank_neighbors",
    "train_step",
]

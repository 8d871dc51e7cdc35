"""Cross-modal venue discovery with the CCA family.

Rank venues by the correlation between a photo and each venue's text
feature in a shared canonical space. Six methods: linear CCA, kernel CCA,
deep CCA, and their category-weighted variants (C-CCA, C-KCCA, C-DCCA)
that blend same-venue and same-category cross-covariances with a weight
beta. Retrieval supports exact-venue search (MRR1) and category-level
search (MAP, recall-precision), with an optional kilometre-scale location
filter.
"""

from .cca import (
    GroupIndex,
    LinearCcaModel,
    NoCrossPairsError,
    cca_transform,
    combined_cross_covariance,
    fit_cca,
)
from .dataio import (
    DatasetError,
    PairedDataset,
    SplitSpec,
    SynthConfig,
    VenueRecord,
    build_pairs,
    haversine_km,
    load_dataset,
    synth_generate,
    write_dataset,
)
from .dcca import DeepCcaModel, cca_objective, train_dcca
from .kcca import KernelCcaModel, KernelMap, fit_kcca, gaussian_kernel, median_heuristic_bandwidth
from .linalg import (
    DegenerateBatchError,
    NotPositiveDefiniteError,
    regularized_covariance,
    svd_topk,
)
from .methods import METHODS, fit
from .model_io import load_index, load_model, save_index, save_model
from .neural import AdamState, MlpNetwork, Standardizer, TrainConfig, adam_step, mlp_backward, mlp_forward
from .retrieval import (
    EvalReport,
    GeoFilter,
    RankList,
    VenueIndex,
    average_precision,
    build_index,
    evaluate,
    mean_average_precision,
    mrr1,
    rank_venues,
    recall_precision_curve,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "AdamState",
    "DatasetError",
    "DeepCcaModel",
    "DegenerateBatchError",
    "EvalReport",
    "GeoFilter",
    "GroupIndex",
    "KernelCcaModel",
    "KernelMap",
    "LinearCcaModel",
    "MlpNetwork",
    "NoCrossPairsError",
    "NotPositiveDefiniteError",
    "PairedDataset",
    "RankList",
    "SplitSpec",
    "Standardizer",
    "SynthConfig",
    "TrainConfig",
    "VenueIndex",
    "VenueRecord",
    "adam_step",
    "average_precision",
    "build_index",
    "build_pairs",
    "cca_objective",
    "cca_transform",
    "combined_cross_covariance",
    "evaluate",
    "fit",
    "fit_cca",
    "fit_kcca",
    "gaussian_kernel",
    "haversine_km",
    "load_dataset",
    "load_index",
    "load_model",
    "mean_average_precision",
    "median_heuristic_bandwidth",
    "mlp_backward",
    "mlp_forward",
    "mrr1",
    "rank_venues",
    "recall_precision_curve",
    "regularized_covariance",
    "save_index",
    "save_model",
    "svd_topk",
    "synth_generate",
    "train_dcca",
    "write_dataset",
]

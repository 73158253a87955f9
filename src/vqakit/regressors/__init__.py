"""Quality regressors: gated-fusion branch network and random forest."""

from .checkpoint import load_model, save_model
from .forest import ForestModel, fit_forest, predict_forest
from .losses import total_loss
from .net import ScgbParams, init_branchnet, predict_scores, scgb_fuse
from .training import TrainConfig, finetune_mos, total_loss_gradients, train_siamese

__all__ = [
    "ScgbParams",
    "ForestModel",
    "TrainConfig",
    "init_branchnet",
    "predict_scores",
    "scgb_fuse",
    "total_loss",
    "total_loss_gradients",
    "train_siamese",
    "finetune_mos",
    "fit_forest",
    "predict_forest",
    "save_model",
    "load_model",
]

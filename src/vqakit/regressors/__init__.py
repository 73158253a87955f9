"""Quality regressors: gated-fusion branch network and random forest."""

from .checkpoint import FOREST_FORMAT, NET_FORMAT, load_model, save_model
from .forest import ForestModel, Tree, fit_forest, predict_forest
from .losses import rel_loss, rel_loss_grad, total_loss
from .net import (
    BRANCH_ORDER,
    BranchNet,
    ScgbParams,
    init_branchnet,
    predict_scores,
    scgb_fuse,
)
from .training import TrainConfig, finetune_mos, total_loss_gradients, train_siamese

__all__ = [
    "BRANCH_ORDER",
    "BranchNet",
    "ScgbParams",
    "ForestModel",
    "Tree",
    "TrainConfig",
    "init_branchnet",
    "predict_scores",
    "scgb_fuse",
    "rel_loss",
    "rel_loss_grad",
    "total_loss",
    "total_loss_gradients",
    "train_siamese",
    "finetune_mos",
    "fit_forest",
    "predict_forest",
    "save_model",
    "load_model",
    "NET_FORMAT",
    "FOREST_FORMAT",
]

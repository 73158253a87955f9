"""Versioned JSON checkpoints for branch nets and forests. A v1 forest file
keeps per-tree ``left``/``right`` lists, -1 at a leaf; in memory the forest
holds one ``(nodes, 2)`` child array, ``kids``, where a leaf is its own child."""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from .forest import ForestModel
from .net import BranchNet, init_branchnet

__all__ = ["save_model", "load_model"]

NET_FORMAT = "vqakit-branchnet-v1"
FOREST_FORMAT = "vqakit-forest-v1"


# init_branchnet's arguments, in their order on disk, and how each is read back
_NET_HYPER = (("feature_names", tuple), ("groups", lambda g: {b: tuple(fs) for b, fs in g.items()}),
              ("embed_dim", int), ("head_hidden", int), ("gate_dropout", float), ("seed", int))


def _net_to_dict(net: BranchNet) -> dict:
    return {
        "format": NET_FORMAT,
        **{k: getattr(net, k) for k, _ in _NET_HYPER},
        "norm_fitted": net.norm_fitted,
        "norm_shift": net.norm_shift.tolist(),
        "norm_scale": net.norm_scale.tolist(),
        "params": {k: net.params[k].tolist() for k in net.param_names()},
    }


def _stored(d: dict, key: str, cast, path, where: str | None = None):
    """``cast(d[key])``, or CheckpointError naming the file and the key."""
    where = where or key
    try:
        return cast(d[key])
    except KeyError:
        raise CheckpointError(f"{path}: missing key {where!r}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: {where}: {e}") from e


def _stored_array(d: dict, key: str, shape: tuple, path, where: str | None = None):
    """A stored array of the given shape with finite entries only."""
    a = _stored(d, key, lambda v: np.array(v, dtype=np.float64), path, where)
    if a.shape != shape:
        raise CheckpointError(f"{path}: {where or key}: shape {a.shape}, the net needs {shape}")
    if not np.isfinite(a).all():
        raise CheckpointError(f"{path}: {where or key}: non-finite entry")
    return a


def _net_from_dict(d: dict, path) -> BranchNet:
    """The net init_branchnet builds from the stored hyper-parameters, holding
    the stored arrays: each a parameter of that net, of its shape, finite."""
    try:
        net = init_branchnet(**{k: _stored(d, k, cast, path) for k, cast in _NET_HYPER})
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e
    params = _stored(d, "params", dict, path)
    extra = sorted(set(params) - set(net.params))
    if extra:
        raise CheckpointError(f"{path}: params: {extra[0]!r} is not a parameter of this net")
    for k, view in net.params.items():  # each written into the net's vector
        view[...] = _stored_array(params, k, view.shape, path, f"params.{k}")
    n = (len(net.feature_names),)
    net.norm_shift = _stored_array(d, "norm_shift", n, path)
    net.norm_scale = _stored_array(d, "norm_scale", n, path)
    if not net.norm_scale.all():
        raise CheckpointError(f"{path}: norm_scale: a zero entry")
    net.norm_fitted = _stored(d, "norm_fitted", bool, path)
    return net


_TREE_ARRAYS = (("feature", np.intp), ("threshold", np.float64), ("left", np.intp),
                ("right", np.intp), ("value", np.float64))


def _forest_to_dict(model: ForestModel) -> dict:
    # v1 stores each tree on its own: nodes counted from its root, leaves with -1 children
    ends = model.roots[1:].tolist() + [model.node_count()]
    trees = []
    for r, e in zip(model.roots.tolist(), ends):
        kids = np.where(model.feature[r:e, None] < 0, -1, model.kids[r:e] - r)
        trees.append({
            "feature": model.feature[r:e].tolist(),
            "threshold": model.threshold[r:e].tolist(),
            "left": kids[:, 0].tolist(),
            "right": kids[:, 1].tolist(),
            "value": model.value[r:e].tolist(),
        })
    return {
        "format": FOREST_FORMAT,
        "n_trees": model.n_trees,
        "seed": model.seed,
        "max_depth": model.max_depth,
        "min_leaf": model.min_leaf,
        "feature_fraction": model.feature_fraction,
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "trees": trees,
    }


def _pack_trees(trees: list[dict], width: int | None, path) -> tuple[np.ndarray, ...]:
    """The stored trees as packed node arrays and root offsets.

    Raises CheckpointError, naming the file, tree and node, unless every tree
    is one that every row walks from root to leaf: children after their
    parent inside the same tree, one parent per node, -1 children at leaves,
    finite numbers and feature indices inside the width.
    """
    for t, tree in enumerate(trees):
        lengths = {k: len(tree[k]) for k, _ in _TREE_ARRAYS}
        if len(set(lengths.values())) != 1 or lengths["feature"] == 0:
            raise CheckpointError(f"{path}: tree {t}: node arrays must be non-empty lists "
                                  f"of one length, got lengths {lengths}")
    # one conversion per array for the whole forest
    feature, threshold, left, right, value = (
        np.fromiter(chain.from_iterable(tree[k] for tree in trees), dtype=dt)
        for k, dt in _TREE_ARRAYS)
    kids = np.stack((left, right), axis=1)
    sizes = np.array([len(tree["feature"]) for tree in trees], dtype=np.intp)
    roots = np.concatenate(([0], np.cumsum(sizes[:-1]))).astype(np.intp)
    first = np.repeat(roots, sizes)[:, None]        # each node's root
    own = np.arange(feature.size)[:, None] - first  # and its index within that tree
    size = np.repeat(sizes, sizes)[:, None]
    internal = feature >= 0

    def reject(bad, what):
        at = np.flatnonzero(bad)
        if at.size:
            t = int(np.searchsorted(roots, at[0], side="right")) - 1
            raise CheckpointError(f"{path}: tree {t}, node {at[0] - roots[t]}: {what}")

    too_wide = feature >= width if width is not None else False
    reject((feature < -1) | too_wide,
           "feature index below -1" if width is None else f"feature index outside -1..{width - 1}")
    reject(internal & ~((own < kids) & (kids < size)).all(axis=1),
           "an internal node's children must come after it inside its tree")
    reject(~internal & (kids != -1).any(axis=1), "a leaf's children must be -1")
    reject(~(np.isfinite(threshold) & np.isfinite(value)), "non-finite threshold or value")
    kids = np.where(internal[:, None], kids, own) + first
    parents = np.bincount(kids[internal].ravel(), minlength=feature.size)
    reject(parents != (own[:, 0] > 0), "every node but the root needs exactly one parent")
    return feature, threshold, kids, value, roots


def _forest_from_dict(d: dict, path) -> ForestModel:
    names = tuple(d["feature_names"]) if d.get("feature_names") else None
    width = len(names) if names else None
    if not d["trees"] or len(d["trees"]) != int(d["n_trees"]):
        raise CheckpointError(f"{path}: n_trees is {d['n_trees']} but {len(d['trees'])} "
                              "trees are stored")
    return ForestModel(
        *_pack_trees(d["trees"], width, path),
        n_features=width,
        seed=int(d["seed"]),
        max_depth=int(d["max_depth"]),
        min_leaf=int(d["min_leaf"]),
        feature_fraction=float(d["feature_fraction"]),
        feature_names=names,
    )


def save_model(path, model: BranchNet | ForestModel):
    if isinstance(model, BranchNet):
        d = _net_to_dict(model)
    elif isinstance(model, ForestModel):
        d = _forest_to_dict(model)
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    Path(path).write_text(json.dumps(d))


def load_model(path) -> BranchNet | ForestModel:
    try:
        d = json.loads(Path(path).read_text())
    except ValueError as e:  # a JSONDecodeError, or a UnicodeDecodeError
        raise CheckpointError(f"{path}: not a JSON checkpoint: {e}") from e
    fmt = d.get("format") if isinstance(d, dict) else None
    if fmt == NET_FORMAT:
        return _net_from_dict(d, path)
    if fmt == FOREST_FORMAT:
        try:
            return _forest_from_dict(d, path)
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: malformed forest checkpoint: {e}") from e
    raise CheckpointError(f"{path}: unknown checkpoint format {fmt!r}")

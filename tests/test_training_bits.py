"""Training keeps its bits: sha256 digests of a small forest fit and of a
2-epoch net, recorded before the forest's feature draw was replayed in Python
and before the net stepped one flat parameter vector. A change that moves a
bit of either fails here rather than passing unnoticed."""

import hashlib

import numpy as np
import pytest

from vqakit.regressors import (TrainConfig, finetune_mos, fit_forest, init_branchnet,
                               predict_scores, train_siamese)

# 60 trees on 160 rows: more than one chunk of lock-step growth
FOREST_DIGEST = "72b074478a37a3cbb76042b9dbd513ddde165a3461f804cae04358f92b291602"
NET_DIGEST = "afb9d59203b3c1a47300e9ae1d92bb65724c2a421f9d1e19e1531dcf4498385b"
SCORES_DIGEST = "2f7c251509075d3b2c1ba4e6503eeb691f92c985eb003c8791a5084db293c111"
# numpy's exp and tanh kernels and the BLAS matmul kernels round differently
# on other CPUs and builds; the net's digests were recorded where these
# kernels give KERNELS_DIGEST (numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64
# with AVX-512)
KERNELS_DIGEST = "35ab0e3d0e8dd7ceefa19c62a32aec0744f6b35999ea5cf86469f1c9ea2d5e50"


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


def _table(rows, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((rows, 9))
    return X, 1.0 + 4.0 * rng.random(rows)


def forest_digest() -> str:
    X, y = _table(160, 41)
    m = fit_forest(X, y, n_trees=60, seed=41)
    return _sha256(m.feature.astype(np.int64), m.threshold, m.kids[:, 0].astype(np.int64),
                   m.kids[:, 1].astype(np.int64), m.value, m.roots.astype(np.int64))


def net_digests() -> tuple[str, str]:
    X, mos = _table(40, 42)
    net = init_branchnet(seed=42)
    cfg = TrainConfig(epochs=2, seed=42)
    train_siamese([(X, mos)], net, cfg)
    finetune_mos((X, mos), net, cfg)
    return _sha256(net.flatten()), _sha256(predict_scores(net, X))


def kernels_digest() -> str:
    """The bits of the numpy kernels the net's arithmetic goes through that
    can vary with the platform: exp, tanh, and products of the net's shapes
    (batches of up to 40 rows, widths up to 8, operands transposed or not)."""
    rng = np.random.default_rng(43)
    x = 8.0 * rng.standard_normal(4096)
    out = [np.exp(x), np.tanh(x)]
    A, B = rng.standard_normal((40, 8)), rng.standard_normal((8, 8))
    for n in range(1, 41):
        for k in (1, 2, 3, 4, 8):
            a, b = A[:n, :k], B[:, :k]
            out += [a @ b.T, a.T @ A[:n], a @ b[0], a.T @ A[:n, 0]]
    return _sha256(*out)


def test_forest_fit_bits():
    assert forest_digest() == FOREST_DIGEST


def test_net_training_bits():
    if kernels_digest() != KERNELS_DIGEST:
        pytest.skip("numpy's exp, tanh or matmul kernels round differently on this "
                    "platform than where the net's digests were recorded")
    assert net_digests() == (NET_DIGEST, SCORES_DIGEST)

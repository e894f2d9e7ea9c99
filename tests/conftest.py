import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rfekit.corpus import CorpusConfig, generate_corpus

# A version-1 model file written by the version-1 save_model: three classes,
# n_features 3, and weights holding +-0.0, two subnormals, +-1e300 and the
# largest double (V1_FIXTURE_WEIGHTS).
V1_FIXTURE = Path(__file__).parent / "data" / "model-v1.json"
V1_FIXTURE_WEIGHTS = [
    [0.0, -0.0, 5e-324, 1e300],
    [-1e300, 2.2250738585072014e-308 / 3, 1 / 3, -2.5],
    [1.0, -0.0, 0.0, float.fromhex("0x1.fffffffffffffp+1023")],
]


def loss_and_gradient(weights, X, y_index, l2):
    """The reference training objective: mean cross-entropy of
    ``softmax(X @ W.T + b)`` plus ``(l2/2)*||W||^2`` (bias column excluded),
    and its gradient.

    ``weights`` is (n_classes, n_features + 1) with the bias in the last
    column; the returned gradient has the same shape. The cross-entropy is
    taken by log-sum-exp, so it stays finite when a true-class probability
    underflows to zero.
    """
    n = X.shape[0]
    design = np.hstack([X, np.ones((n, 1))])
    scores = design @ weights.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    ce = float(np.mean(np.log(total) - shifted[np.arange(n), y_index]))
    penalty = 0.5 * l2 * float(np.sum(weights[:, :-1] ** 2))
    delta = exp / total[:, None]
    delta[np.arange(n), y_index] -= 1.0
    grad = delta.T @ design / n
    grad[:, :-1] += l2 * weights[:, :-1]
    return ce + penalty, grad


def encode_model_v1(model) -> bytes:
    """The version-1 model file of a fitted ``SoftmaxClassifier``: weights as
    rows of ``float.hex`` strings, ``json.dumps(payload, sort_keys=True,
    indent=1)``, ``sha256`` over the compact sorted payload with it empty."""
    payload = {
        "format": "softmax-linear",
        "version": 1,
        "classes": list(model.classes_),
        "n_features": model.n_features_,
        "feature_kind": model.feature_kind_,
        "vocab_hash": model.vocab_hash_,
        "params": model.get_params(),
        "weights": [[float(w).hex() for w in row] for row in model.weights_],
        "sha256": "",
    }
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    payload["sha256"] = hashlib.sha256(canonical).hexdigest()
    return json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")


@pytest.fixture(scope="session")
def rfe_corpus_42(tmp_path_factory):
    """The seed-42 RFE corpus (49 RFEs, bank, store, templates) and its manifest."""
    root = tmp_path_factory.mktemp("rfe-corpus-42")
    manifest = generate_corpus(CorpusConfig(seed=42, docs_per_class=0, n_rfes=49), root)
    return root, manifest


@pytest.fixture(scope="session")
def corpus_42(tmp_path_factory):
    """The default seed-42 corpus, as ``rfekit gen-corpus --seed 42`` writes it."""
    root = tmp_path_factory.mktemp("corpus-42")
    return root, generate_corpus(CorpusConfig(seed=42), root)

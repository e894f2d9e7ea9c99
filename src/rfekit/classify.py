"""Multinomial logistic regression trained by full-batch gradient descent.

One implementation serves both heads of the document ensemble: the image head
(dense grid features) and the text head (TF-IDF vectors). Training is
deterministic: zero initialization, fixed iteration order, no randomness, so
identical data always yields identical weights.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

import numpy as np

from ._base import ParamsMixin, check_is_fitted
from .vectorize import SparseVector, Vocabulary, stack_dense, vocab_sha256

MODEL_MAGIC = "softmax-linear"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """Corrupt payload or unsupported model version."""


class VocabMismatchError(ValueError):
    """Model was trained against a different vocabulary or featurizer."""


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def loss_and_gradient(
    weights: np.ndarray, X: np.ndarray, y_index: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy plus ``(l2/2)*||W||^2`` (bias column excluded).

    ``weights`` is (n_classes, n_features + 1) with the bias in the last
    column; the returned gradient has the same shape and matches the analytic
    softmax cross-entropy gradient.
    """
    n = X.shape[0]
    design = np.hstack([X, np.ones((n, 1))])
    probs = softmax(design @ weights.T)
    ce = -np.mean(np.log(probs[np.arange(n), y_index]))
    penalty = 0.5 * l2 * float(np.sum(weights[:, :-1] ** 2))
    delta = probs.copy()
    delta[np.arange(n), y_index] -= 1.0
    grad = delta.T @ design / n
    grad[:, :-1] += l2 * weights[:, :-1]
    return ce + penalty, grad


class SoftmaxClassifier(ParamsMixin):
    """sklearn-style estimator: ``fit(X, y)``, ``predict_proba``, ``predict``.

    X may be a dense 2-D array or a list of :class:`SparseVector`; y is a
    sequence of class labels. Class order is frozen at fit time (pass
    ``classes`` to pin it explicitly; defaults to sorted unique labels) and
    argmax ties resolve to the earliest class in that order.
    """

    def __init__(self, l2=1e-3, learning_rate=0.5, max_iters=2000, grad_tol=1e-6):
        self.l2 = l2
        self.learning_rate = learning_rate
        self.max_iters = max_iters
        self.grad_tol = grad_tol

    def fit(self, X, y, classes: Sequence[str] | None = None,
            feature_kind: str = "dense", vocab_hash: str = ""):
        X = _as_design_input(X)
        labels = list(y)
        if X.shape[0] != len(labels):
            raise ValueError(f"{X.shape[0]} rows but {len(labels)} labels")
        if not labels:
            raise ValueError("empty training set")
        self.classes_ = tuple(classes) if classes is not None else tuple(
            sorted(set(labels))
        )
        if len(self.classes_) < 2:
            raise ValueError("need at least 2 classes")
        index = {c: i for i, c in enumerate(self.classes_)}
        if len(index) != len(self.classes_):
            raise ValueError("duplicate class labels")
        unknown = [lab for lab in labels if lab not in index]
        if unknown:
            raise ValueError(f"labels outside the class set: {sorted(set(unknown))}")
        counts = {c: 0 for c in self.classes_}
        for lab in labels:
            counts[lab] += 1
        empty = [c for c, n in counts.items() if n == 0]
        if empty:
            raise ValueError(f"classes with zero training examples: {empty}")
        y_index = np.array([index[lab] for lab in labels])

        coef, bias, self.n_iter_, self.converged_ = _gradient_descent_gram(
            X, y_index, len(self.classes_), self.l2, self.learning_rate,
            self.max_iters, self.grad_tol,
        )
        self.weights_ = np.hstack([coef @ X, bias[:, None]])
        self.n_features_ = X.shape[1]
        self.feature_kind_ = feature_kind
        self.vocab_hash_ = vocab_hash
        return self

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, "weights_")
        X = _as_design_input(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return X @ self.weights_[:, :-1].T + self.weights_[:, -1]

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.decision_function(X))

    def predict(self, X) -> list[str]:
        probs = self.predict_proba(X)
        return [self.classes_[i] for i in probs.argmax(axis=1)]


def _gradient_descent_gram(X, y_index, n_classes, l2, learning_rate, max_iters,
                           grad_tol):
    """Full-batch gradient descent on the loss of :func:`loss_and_gradient`,
    run in Gram (representer) form.

    Weights start at zero and only the weights (not the bias) are penalized,
    so every iterate stays in the row span of X: ``W = A @ X``. The same
    iterates, up to round-off, then run on the (n_classes, n) coefficients A
    over the Gram matrix ``K = X @ X.T``: O(n^2 * C) per iteration after a
    one-time O(n^2 * d) product. The weight gradient is ``g @ X`` with
    ``g = delta.T / n + l2 * A``.

    The stop rule is the primal ``max|grad| < grad_tol``, exactly. Because
    ``max|g @ X| >= ||g @ X||_F / sqrt(C * d)`` and
    ``||g @ X||_F^2 = sum(g * (g @ K))``, ``g @ X`` is formed only when that
    lower bound and the bias gradient are both below ``grad_tol``.

    Returns ``(A, bias, n_iter, converged)``: n_iter counts the updates made,
    converged says whether the stop rule fired.
    """
    n, d = X.shape
    rows = np.arange(n)
    gram = X @ X.T
    coef = np.zeros((n_classes, n))
    bias = np.zeros(n_classes)
    bound_sq = n_classes * d * grad_tol**2
    for n_iter in range(max_iters):
        coef_gram = coef @ gram
        probs = softmax(coef_gram.T + bias)
        loss = -np.mean(np.log(probs[rows, y_index]))
        loss += 0.5 * l2 * float(np.sum(coef * coef_gram))
        if not np.isfinite(loss):
            raise FloatingPointError("training diverged: non-finite loss")
        delta = probs
        delta[rows, y_index] -= 1.0
        grad_coef = delta.T / n + l2 * coef
        grad_bias = delta.sum(axis=0) / n
        if (
            np.abs(grad_bias).max() < grad_tol
            and np.sum(grad_coef * (grad_coef @ gram)) <= bound_sq
            and np.abs(grad_coef @ X).max(initial=0.0) < grad_tol
        ):
            return coef, bias, n_iter, True
        coef -= learning_rate * grad_coef
        bias -= learning_rate * grad_bias
    return coef, bias, max_iters, False


def _as_design_input(X) -> np.ndarray:
    if isinstance(X, np.ndarray):
        return np.atleast_2d(X).astype(np.float64)
    X = list(X)
    if X and isinstance(X[0], SparseVector):
        return stack_dense(X)
    return np.atleast_2d(np.array(X, dtype=np.float64))


def save_model(model: SoftmaxClassifier) -> bytes:
    """Versioned structured-text container; weights as hex floats (bit-exact)."""
    check_is_fitted(model, "weights_")
    payload = {
        "format": MODEL_MAGIC,
        "version": MODEL_VERSION,
        "classes": list(model.classes_),
        "n_features": model.n_features_,
        "feature_kind": model.feature_kind_,
        "vocab_hash": model.vocab_hash_,
        "params": model.get_params(),
        "weights": [[float(w).hex() for w in row] for row in model.weights_],
        "sha256": "",
    }
    payload["sha256"] = _payload_digest(payload)
    return json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")


def load_model(
    data: bytes,
    vocab: Vocabulary | None = None,
    expected_vocab_hash: str | None = None,
) -> SoftmaxClassifier:
    """Rebuild a fitted classifier; verifies format, checksum, and vocabulary.

    Pass ``vocab`` (text head) or ``expected_vocab_hash`` (image head) to
    reject a model that was trained against a different feature space.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable model payload: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_MAGIC:
        raise ModelFormatError("not a softmax-linear model file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {payload.get('version')!r}")
    recorded = payload.get("sha256", "")
    if recorded != _payload_digest({**payload, "sha256": ""}):
        raise ModelFormatError("model checksum mismatch (corrupt payload)")
    _check_header(payload)
    if vocab is not None:
        expected_vocab_hash = vocab_sha256(vocab)
    if expected_vocab_hash is not None and payload["vocab_hash"] != expected_vocab_hash:
        raise VocabMismatchError(
            "model was trained against a different vocabulary "
            f"({payload['vocab_hash'][:12]}... != {expected_vocab_hash[:12]}...)"
        )
    model = SoftmaxClassifier(**payload["params"])
    model.classes_ = tuple(payload["classes"])
    model.n_features_ = payload["n_features"]
    model.feature_kind_ = payload["feature_kind"]
    model.vocab_hash_ = payload["vocab_hash"]
    try:
        weights = np.array(
            [[float.fromhex(w) for w in row] for row in payload["weights"]]
        )
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad weight encoding: {exc}") from None
    if weights.shape != (len(model.classes_), model.n_features_ + 1):
        raise ModelFormatError(f"weight shape {weights.shape} inconsistent with header")
    if not np.isfinite(weights).all():
        raise ModelFormatError("non-finite weights")
    model.weights_ = weights
    return model


_HEADER_TYPES = {
    "classes": list,
    "n_features": int,
    "feature_kind": str,
    "vocab_hash": str,
    "params": dict,
    "weights": list,
}
_PARAM_TYPES = {
    "l2": (int, float),
    "learning_rate": (int, float),
    "max_iters": int,
    "grad_tol": (int, float),
}


def _check_header(payload: dict) -> None:
    """Reject a checksum-valid payload whose header fields are missing or
    mistyped (a string ``classes`` or weight row would otherwise split into
    characters, and a mistyped param would fail only at the first fit)."""
    for key, kind in _HEADER_TYPES.items():
        if not _is_a(payload.get(key), kind):
            raise ModelFormatError(
                f"model field {key!r} missing or not a {kind.__name__}"
            )
    for key, value in payload["params"].items():
        if key not in _PARAM_TYPES:
            raise ModelFormatError(f"unknown training param {key!r}")
        if not _is_a(value, _PARAM_TYPES[key]):
            raise ModelFormatError(f"param {key!r} is a {type(value).__name__}")
    if not all(isinstance(c, str) for c in payload["classes"]):
        raise ModelFormatError("model classes must be strings")
    if not all(isinstance(row, list) for row in payload["weights"]):
        raise ModelFormatError("model weight rows must be lists")
    if payload["n_features"] < 0:
        raise ModelFormatError("negative n_features")


def _is_a(value, kind) -> bool:
    """isinstance, except that a JSON ``true``/``false`` is never a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _payload_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()

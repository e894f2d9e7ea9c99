"""Multinomial logistic regression trained by truncated Newton (Newton-CG).

One implementation serves both heads of the document ensemble: the image head
(dense grid features) and the text head (TF-IDF vectors, held as a
:class:`CooMatrix` of their nonzeros). Training is deterministic: zero
initialization, fixed iteration order, no randomness, so identical data
always yields identical weights.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from typing import Sequence

import numpy as np

from ._base import ParamsMixin, check_is_fitted
from .ioutil import check_fields, is_a, json_text, read_json

MODEL_MAGIC = "softmax-linear"
MODEL_VERSION = 2


class ModelFormatError(ValueError):
    """Corrupt payload or unsupported model version."""


class VocabMismatchError(ValueError):
    """Model was trained against a different vocabulary or featurizer."""


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class CooMatrix:
    """An n x d matrix held as its nonzeros, ``value[k]`` at ``(row[k],
    col[k])`` (entries at one position add), with the solver's two products
    ``X @ B`` and ``A @ X`` for B of one or more columns and A of one or
    more rows: one ``np.bincount`` over the nonzeros per column of B or row
    of A, so X is never formed densely. A non-finite value or an index
    outside ``shape`` raises ``ValueError``."""

    __array_ufunc__ = None  # an ndarray's ``A @ X`` defers to __rmatmul__

    def __init__(self, row, col, value, shape):
        self.row, self.col = np.asarray(row, dtype=np.intp), np.asarray(col, dtype=np.intp)
        self.value, self.shape = np.asarray(value, dtype=np.float64), tuple(shape)
        if not np.isfinite(self.value).all():
            raise ValueError("X holds a NaN or an infinite value")
        for index, size in ((self.row, self.shape[0]), (self.col, self.shape[1])):
            if index.size and not 0 <= index.min() <= index.max() < size:
                raise ValueError(f"X has an index outside its shape {self.shape}")

    def __matmul__(self, B) -> np.ndarray:
        return np.column_stack([np.bincount(self.row, b[self.col] * self.value, self.shape[0])
                                for b in np.asarray(B).T])

    def __rmatmul__(self, A) -> np.ndarray:
        return np.array([np.bincount(self.col, a[self.row] * self.value, self.shape[1])
                         for a in np.asarray(A)])


class SoftmaxClassifier(ParamsMixin):
    """sklearn-style estimator: ``fit(X, y)``, ``predict_proba``, ``predict``.

    X is a 2-D numeric array (rows are samples); y is a sequence of class
    labels. ``fit`` also takes X as a :class:`CooMatrix`, for a design too
    large to hold densely. Class order is frozen at fit time (pass
    ``classes`` to pin it explicitly; defaults to sorted unique labels) and
    argmax ties resolve to the earliest class in that order.
    """

    def __init__(self, l2=1e-3, max_iters=2000, grad_tol=1e-6):
        self.l2 = l2
        self.max_iters = max_iters
        self.grad_tol = grad_tol

    def fit(self, X, y, classes: Sequence[str] | None = None,
            feature_kind: str = "dense", vocab_hash: str = ""):
        """Fit on the design X, a 2-D array or a :class:`CooMatrix`. An ``l2``
        that is negative or not finite, a negative ``max_iters`` or a negative
        or NaN ``grad_tol`` is refused before any work."""
        for name, valid in (("l2", 0 <= self.l2 < math.inf), ("max_iters", self.max_iters >= 0),
                            ("grad_tol", self.grad_tol >= 0)):
            if not valid:
                raise ValueError(f"{name} is out of range: {getattr(self, name)!r}")
        labels = list(y)
        if not isinstance(X, CooMatrix):
            X = _as_design_input(X)
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
        present = set(labels)
        empty = [c for c in self.classes_ if c not in present]
        if empty:
            raise ValueError(f"classes with zero training examples: {empty}")
        y_index = np.array([index[lab] for lab in labels])

        features, scale, unfold = _features(X)
        state, self.n_iter_, self.converged_, self.grad_max_ = _newton_cg(
            features, scale, y_index, len(self.classes_), self.l2, self.max_iters,
            self.grad_tol,
        )
        self.weights_ = unfold(state)
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


def _features(X):
    """``(F, scale, unfold)`` for the solver on the n x d design X: the
    features ``F = [X' | 1]``, the factor from each of their coordinates'
    gradient to the largest primal gradient it stands for, and the map from
    the solver's state to the (C, d + 1) weights ``[W | b]``.

    X' is X, except that a :class:`CooMatrix` drops its empty columns and
    folds the columns with one nonzero (the n-grams of one training document)
    into one column per row that has any, valued at the norm ``s_i`` of that
    row's entries in them. Under an L2 penalty the fold is exact: row i's
    folded weight v stands for the weights ``v * x_ij / s_i``, which give the
    same scores and penalty, and from zero every step stays in their span.
    Their gradients are ``x_ij / s_i`` times v's.
    """
    n, d = X.shape
    if not isinstance(X, CooMatrix):
        return np.hstack([X, np.ones((n, 1))]), 1.0, lambda state: state
    nonzero = X.value != 0
    row, col, value = X.row[nonzero], X.col[nonzero], X.value[nonzero]
    counts = np.bincount(col, minlength=d)
    single = counts[col] == 1
    shared = np.flatnonzero(counts > 1)
    folded, slot = np.unique(row[single], return_inverse=True)
    peak = np.zeros(folded.size)
    np.maximum.at(peak, slot, np.abs(value[single]))
    ratio = value[single] / peak[slot]  # over the row's peak, so no square underflows
    norm = peak * np.sqrt(np.bincount(slot, ratio * ratio, folded.size))
    k, width = shared.size, shared.size + folded.size
    features = CooMatrix(
        np.concatenate([row[~single], folded, np.arange(n)]),
        np.concatenate([np.searchsorted(shared, col[~single]), np.arange(k, width),
                        np.full(n, width)]),
        np.concatenate([value[~single], norm, np.ones(n)]),
        (n, width + 1),
    )
    spread = CooMatrix(  # W = [W' | v] @ spread: v * x_ij / s_i on each folded column
        np.concatenate([np.arange(k), k + slot]), np.concatenate([shared, col[single]]),
        np.concatenate([np.ones(k), value[single] / norm[slot]]), (width, d),
    )
    scale = np.concatenate([np.ones(k), peak / norm, [1.0]])
    return features, scale, lambda state: np.hstack([state[:, :-1] @ spread, state[:, -1:]])


_ARMIJO_C = 1e-4  # sufficient-decrease constant of the backtracking search
_MAX_HALVINGS = 60


def _newton_cg(features, scale, y_index, n_classes, l2, max_iters, grad_tol):
    """Truncated-Newton (Newton-CG) minimization, from zero, of the mean
    cross-entropy of ``softmax(F @ S.T)`` plus ``(l2/2) * ||W||^2`` over the
    state ``S = [W | b]``, for the features ``F = [X | 1]`` of
    :func:`_features` (the bias b is not penalized). Each outer step checks
    the stop rule ``max|grad * scale| < grad_tol``, takes a Newton step from
    :func:`_newton_direction`, and halves it from t = 1 until the Armijo
    condition holds (Lin, Weng & Keerthi, JMLR 2008; Nocedal & Wright,
    *Numerical Optimization*, ch. 7). Returns ``(S, n_iter, converged,
    grad_max)``, grad_max being the primal max|grad| at S. A step that finds
    no decrease ends the loop unconverged.
    """
    n, width = features.shape
    penalty = np.append(np.full(width - 1, l2), 0.0)
    state = np.zeros((n_classes, width))
    loss, probs = _objective(features, state, y_index, penalty)
    for n_iter in range(max_iters + 1):
        delta = probs.copy()
        delta[np.arange(n), y_index] -= 1.0
        grad = delta.T @ features / n + penalty * state
        grad_max = float(np.abs(grad * scale).max())  # NaN-propagating
        if not np.isfinite(grad_max):
            raise FloatingPointError("training diverged: non-finite gradient")
        if grad_max < grad_tol:
            return state, n_iter, True, grad_max
        if n_iter == max_iters:
            break
        step = _newton_direction(grad, probs, features, penalty)
        slope = float(np.sum(grad * step))
        if not slope < 0.0:
            break
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = state + t * step
            trial_loss, trial_probs = _objective(features, trial, y_index, penalty)
            if trial_loss <= loss + _ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            break
        state, loss, probs = trial, trial_loss, trial_probs
    return state, n_iter, False, grad_max


def _objective(features, state, y_index, penalty):
    """``(loss, probs)`` at the state ``S = [W | b]`` of :func:`_newton_cg`:
    the loss is the mean cross-entropy of ``probs = softmax(F @ S.T)`` plus
    ``sum(penalty * S**2) / 2`` (that is, ``(l2/2) * ||W||^2``). The
    cross-entropy is taken by log-sum-exp, so it stays finite when a
    true-class probability underflows to zero."""
    scores = features @ state.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    ce = float(np.mean(np.log(total) - shifted[np.arange(len(y_index)), y_index]))
    return ce + 0.5 * float(np.sum(penalty * state * state)), exp / total[:, None]


def _newton_direction(grad, probs, features, penalty):
    """Approximate solution S (shaped as ``[W | b]``) of ``H S = -grad`` by
    conjugate gradients, H being the Hessian of :func:`_objective`.

    The Hessian-vector product is ``dZ = F @ S.T``,
    ``R = P*dZ - P*rowsum(P*dZ)``, ``H S = R.T @ F / n + penalty * S``. CG
    stops at a residual norm of at most ``min(0.5, sqrt(|g|)) * |g|``, after
    ``S.size`` iterations (the number of unknowns), or on non-positive
    curvature (where a first iteration returns the steepest descent
    direction).
    """
    n = probs.shape[0]
    step = np.zeros_like(grad)
    res = dir_ = -grad
    res_sq = float(np.sum(res * res))
    grad_norm = np.sqrt(res_sq)
    tol_sq = (min(0.5, np.sqrt(grad_norm)) * grad_norm) ** 2
    for it in range(step.size):
        if res_sq <= tol_sq:
            break
        p_dz = probs * (features @ dir_.T)
        r = p_dz - probs * p_dz.sum(axis=1, keepdims=True)
        h = r.T @ features / n + penalty * dir_
        curvature = float(np.sum(h * dir_))
        if not curvature > 0.0:
            if it == 0:
                return dir_
            break
        alpha = res_sq / curvature
        step += alpha * dir_
        res = res - alpha * h
        new_sq = float(np.sum(res * res))
        dir_ = res + (new_sq / res_sq) * dir_
        res_sq = new_sq
    return step


def _as_design_input(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (samples x features), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X holds a NaN or an infinite value")
    return X


def save_model(model: SoftmaxClassifier) -> bytes:
    """A model file of the current version, as :func:`~rfekit.ioutil.json_text`.

    ``weights`` is the base64 of the (C, n_features + 1) weight array as
    little-endian float64, so a round trip is bit-exact, and ``sha256`` is
    :func:`_payload_digest` of the payload with ``sha256`` empty.
    """
    check_is_fitted(model, "weights_")
    payload = {
        "format": MODEL_MAGIC,
        "version": MODEL_VERSION,
        "classes": list(model.classes_),
        "n_features": model.n_features_,
        "feature_kind": model.feature_kind_,
        "vocab_hash": model.vocab_hash_,
        "params": model.get_params(),
        "weights": base64.b64encode(model.weights_.astype("<f8").tobytes()).decode("ascii"),
        "sha256": "",
    }
    payload["sha256"] = _payload_digest(payload)
    return json_text(payload).encode("utf-8")


def load_model(data: bytes, expected_vocab_hash: str | None = None) -> SoftmaxClassifier:
    """Rebuild a fitted classifier from a model file of version 1 (weights as
    ``float.hex`` rows) or 2 (see :func:`save_model`); verifies format,
    checksum (before any weight is decoded), and vocabulary.

    Pass ``expected_vocab_hash`` (a ``vocab_sha256`` or the featurizer's hash)
    to reject a model that was trained against a different feature space.
    """
    payload = read_json(data, ModelFormatError, "model payload", MODEL_MAGIC, (1, MODEL_VERSION))
    version = payload["version"]
    recorded = payload.get("sha256", "")
    if recorded != _payload_digest({**payload, "sha256": ""}):
        raise ModelFormatError("model checksum mismatch (corrupt payload)")
    fields = {**_HEADER_FIELDS, "weights": _WEIGHTS_KIND[version]}
    check_fields(payload, fields, ModelFormatError, "model payload")
    if payload["n_features"] < 0:
        raise ModelFormatError("negative n_features")
    if len(payload["classes"]) < 2:
        raise ModelFormatError("fewer than 2 classes")
    if len(set(payload["classes"])) != len(payload["classes"]):
        raise ModelFormatError("duplicate class labels")
    params = check_params(payload.get("params"), ModelFormatError)
    if expected_vocab_hash is not None and payload["vocab_hash"] != expected_vocab_hash:
        raise VocabMismatchError(
            "model was trained against a different vocabulary "
            f"({payload['vocab_hash'][:12]}... != {expected_vocab_hash[:12]}...)"
        )
    model = SoftmaxClassifier(**params)
    model.classes_ = tuple(payload["classes"])
    model.n_features_ = payload["n_features"]
    model.feature_kind_ = payload["feature_kind"]
    model.vocab_hash_ = payload["vocab_hash"]
    shape = (len(model.classes_), model.n_features_ + 1)
    try:
        if version == 1:
            weights = np.array([[float.fromhex(w) for w in row] for row in payload["weights"]])
        else:
            raw = base64.b64decode(payload["weights"], validate=True)
            weights = np.frombuffer(raw, "<f8").reshape(shape).astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad weight encoding: {exc}") from None
    if weights.shape != shape:
        raise ModelFormatError(f"weight shape {weights.shape} inconsistent with header")
    if not np.isfinite(weights).all():
        raise ModelFormatError("non-finite weights")
    model.weights_ = weights
    return model


# The header fields of a model file; a string ``classes`` would otherwise
# split into characters.
_HEADER_FIELDS = {
    "classes": [str],
    "n_features": int,
    "feature_kind": str,
    "vocab_hash": str,
}
# The JSON kind of ``weights`` in each model version read: v1 rows of
# ``float.hex`` strings (a string row would split into characters), v2 one
# base64 string.
_WEIGHTS_KIND = {1: [list], MODEL_VERSION: str}
_PARAM_TYPES = {
    "l2": (int, float),
    "max_iters": int,
    "grad_tol": (int, float),
}
# Params that older v1 files record: still type-checked, then ignored. The
# gradient-descent step size learning_rate has no use in Newton-CG training.
_LEGACY_PARAM_TYPES = {"learning_rate": (int, float)}


def check_params(params, error, kinds=_PARAM_TYPES) -> dict:
    """``params`` without the legacy ``learning_rate``, which is type-checked
    and dropped. A non-object, a key outside ``kinds`` or a value not of its
    kind (see :func:`~rfekit.ioutil.is_a`) raises ``error(message)``."""
    if not isinstance(params, dict):
        raise error("'params' must be an object")
    for key, value in params.items():
        kind = kinds.get(key) or _LEGACY_PARAM_TYPES.get(key)
        if kind is None:
            raise error(f"unknown training param {key!r}")
        if not is_a(value, kind):
            raise error(f"param {key!r} has a bad value {value!r}")
    return {k: v for k, v in params.items() if k not in _LEGACY_PARAM_TYPES}


def _payload_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()

"""Multinomial logistic regression trained by truncated Newton (Newton-CG).

One implementation serves both heads of the document ensemble: the image head
(dense grid features) and the text head (TF-IDF vectors). Training is
deterministic: zero initialization, fixed iteration order, no randomness, so
identical data always yields identical weights.
"""

from __future__ import annotations

import base64
import hashlib
import json
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
    ce, delta = _cross_entropy(design @ weights.T, y_index)
    penalty = 0.5 * l2 * float(np.sum(weights[:, :-1] ** 2))
    delta[np.arange(n), y_index] -= 1.0
    grad = delta.T @ design / n
    grad[:, :-1] += l2 * weights[:, :-1]
    return ce + penalty, grad


class SoftmaxClassifier(ParamsMixin):
    """sklearn-style estimator: ``fit(X, y)``, ``predict_proba``, ``predict``.

    X is a 2-D numeric array (rows are samples); y is a sequence of class
    labels. :meth:`fit_gram` trains from X's Gram matrix and right product
    instead, for a design too large to hold densely. Class order is frozen
    at fit time (pass ``classes`` to pin it explicitly; defaults to sorted
    unique labels) and argmax ties resolve to the earliest class in that
    order.
    """

    def __init__(self, l2=1e-3, max_iters=2000, grad_tol=1e-6):
        self.l2 = l2
        self.max_iters = max_iters
        self.grad_tol = grad_tol

    def fit(self, X, y, classes: Sequence[str] | None = None,
            feature_kind: str = "dense", vocab_hash: str = ""):
        """Fit on the 2-D design X: :meth:`fit_gram` with ``K = X @ X.T``."""
        X = _as_design_input(X)
        return self.fit_gram(
            X @ X.T, lambda G: G @ X, y, classes, feature_kind, vocab_hash
        )

    def fit_gram(self, K, project, y, classes: Sequence[str] | None = None,
                 feature_kind: str = "dense", vocab_hash: str = ""):
        """Fit on a design X given only through its Gram matrix ``K = X @ X.T``
        (n x n) and its right product ``project(G) = G @ X`` for
        (n_classes, n) arrays G. ``n_features_`` is the width of that
        product, so X itself is never needed (see :func:`coo_gram` and
        :func:`coo_matmul` for a design held as its nonzeros)."""
        labels = list(y)
        if K.shape != (len(labels), len(labels)):
            raise ValueError(f"{K.shape[0]} rows but {len(labels)} labels")
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

        coef, bias, self.n_iter_, self.converged_, self.grad_max_ = _newton_cg_gram(
            K, project, y_index, len(self.classes_), self.l2, self.max_iters,
            self.grad_tol,
        )
        self.weights_ = np.hstack([project(coef), bias[:, None]])
        self.n_features_ = self.weights_.shape[1] - 1
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


# Floats in coo_gram's scatter buffer: 1 MiB, whatever the design's width.
_GRAM_BUFFER_FLOATS = 2**17


def coo_gram(row, col, value, n_rows: int) -> np.ndarray:
    """``X @ X.T`` of the n_rows-row design X whose nonzeros are
    ``(row, col, value)`` (at most one entry per (row, col)).

    X is never formed: the entries are taken in blocks of
    ``2**17 // n_rows`` consecutive columns, each block is scattered into a
    zeroed n_rows x block buffer, and ``buf @ buf.T`` is added to K. Time
    grows with n_rows**2 times the number of columns spanned, memory with
    n_rows**2 plus the nonzeros.
    """
    width = max(1, _GRAM_BUFFER_FLOATS // max(n_rows, 1))
    K = np.zeros((n_rows, n_rows))
    buf = np.zeros((n_rows, width))
    order = np.argsort(col, kind="stable")
    row, value = row[order], value[order]
    block, offset = np.divmod(col[order], width)
    starts = np.flatnonzero(np.diff(block, prepend=-1)).tolist()
    for a, b in zip(starts, starts[1:] + [row.size]):
        r, c = row[a:b], offset[a:b]
        buf[r, c] = value[a:b]
        K += buf @ buf.T
        buf[r, c] = 0.0
    return K


def coo_matmul(G, row, col, value, n_cols: int) -> np.ndarray:
    """``G @ X`` for (k, n) ``G`` and the n x n_cols design X whose nonzeros
    are ``(row, col, value)``: one ``np.bincount`` over the nonzeros per row
    of G, so X is never formed."""
    out = np.empty((len(G), n_cols))
    for k, g in enumerate(G):
        out[k] = np.bincount(col, weights=g[row] * value, minlength=n_cols)
    return out


_ARMIJO_C = 1e-4  # sufficient-decrease constant of the backtracking search
_MAX_HALVINGS = 60


def _newton_cg_gram(K, project, y_index, n_classes, l2, max_iters, grad_tol):
    """Truncated-Newton (Newton-CG) minimization of the loss of
    :func:`loss_and_gradient`, run in Gram (representer) form.

    Weights start at zero and only the weights (not the bias) are penalized,
    so every gradient and Newton step lies in the row span of X and every
    iterate is ``W = A @ X`` for (n_classes, n) coefficients A. X enters only
    through ``project(G) = G @ X`` and the Gram matrix ``K = X @ X.T``,
    which is eigendecomposed once,
    ``K = Q @ diag(lam) @ Q.T``, and the loop runs on ``V = A @ Q @
    diag(sqrt(lam))`` over the n x r features ``F = Q @ diag(sqrt(lam))``:
    the scores are ``F @ V.T + b`` and the penalty is ``l2/2 * ||V||^2``. So
    the Euclidean inner product of V is the K inner product
    ``tr(S @ K @ T.T)`` of A, the primal one of ``S @ X`` and ``T @ X``.
    Eigenvalues at round-off level (``lam <= lam_max * n * eps``) are dropped:
    in A they span directions that leave W unchanged, and there round-off in
    CG would grow A without bound.

    Each outer step checks the exact primal stop rule
    ``max(|grad_bias|, |project(g)|) < grad_tol`` with
    ``g = delta.T / n + l2 * A``,
    takes a Newton step from :func:`_newton_direction`, and backtracks from
    t = 1 by halving until the Armijo condition holds (Lin, Weng & Keerthi,
    JMLR 2008; Nocedal & Wright, *Numerical Optimization*, ch. 7).

    Returns ``(A, bias, n_iter, converged, grad_max)``: n_iter counts the
    Newton steps taken, converged says whether the stop rule fired, and
    grad_max is the primal max|grad| at the returned point. A step that finds
    no decrease ends the loop unconverged.
    """
    n = K.shape[0]
    rows = np.arange(n)
    lam, basis = np.linalg.eigh(K)
    keep = lam > lam[-1] * n * np.finfo(float).eps
    root, basis = np.sqrt(lam[keep]), basis[:, keep]
    features = basis * root
    coords = np.zeros((n_classes, root.size))
    bias = np.zeros(n_classes)
    loss, probs = _objective(features, coords, bias, y_index, l2)
    for n_iter in range(max_iters + 1):
        coef = (coords / root) @ basis.T
        delta = probs.copy()
        delta[rows, y_index] -= 1.0
        grad_bias = delta.sum(axis=0) / n
        grad_max = float(np.maximum(  # NaN-propagating, unlike builtin max
            np.abs(grad_bias).max(),
            np.abs(project(delta.T / n + l2 * coef)).max(initial=0.0),
        ))
        if not np.isfinite(grad_max):
            raise FloatingPointError("training diverged: non-finite gradient")
        if grad_max < grad_tol:
            return coef, bias, n_iter, True, grad_max
        if n_iter == max_iters:
            break
        grad = delta.T @ features / n + l2 * coords
        step, step_bias = _newton_direction(grad, grad_bias, probs, features, l2)
        slope = float(np.sum(grad * step) + grad_bias @ step_bias)
        if not slope < 0.0:
            break
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = (coords + t * step, bias + t * step_bias)
            trial_loss, trial_probs = _objective(features, *trial, y_index, l2)
            if trial_loss <= loss + _ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            break
        (coords, bias), loss, probs = trial, trial_loss, trial_probs
    return coef, bias, n_iter, False, grad_max


def _objective(features, coords, bias, y_index, l2):
    """``(loss, probs)`` of :func:`loss_and_gradient` at the point ``(V, b)``
    of :func:`_newton_cg_gram`."""
    ce, probs = _cross_entropy(features @ coords.T + bias, y_index)
    return ce + 0.5 * l2 * float(np.sum(coords * coords)), probs


def _cross_entropy(scores, y_index):
    """``(mean cross-entropy, softmax probabilities)`` of the rows of
    ``scores``, the cross-entropy taken by log-sum-exp: it stays finite when
    a true-class probability underflows to zero."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    ce = np.mean(np.log(total) - shifted[np.arange(len(y_index)), y_index])
    return float(ce), exp / total[:, None]


def _newton_direction(grad, grad_bias, probs, features, l2):
    """Approximate solution ``(S, s_b)`` of ``H(S, s_b) = -(grad, grad_bias)``
    by conjugate gradients, H being the Hessian of :func:`_objective`.

    The Hessian-vector product is ``dZ = F @ S.T + s_b``,
    ``R = P*dZ - P*rowsum(P*dZ)``, ``H(S, s_b) = (R.T @ F / n + l2*S,
    colsum(R) / n)``. CG stops at a residual norm of at most
    ``min(0.5, sqrt(|g|)) * |g|``, after ``C * (r + 1)`` iterations (the
    number of unknowns), or on non-positive curvature (where a first
    iteration returns the steepest descent direction).
    """
    n = probs.shape[0]
    step, step_bias = np.zeros_like(grad), np.zeros_like(grad_bias)
    res, res_bias = -grad, -grad_bias
    dir_, dir_bias = res, res_bias
    res_sq = float(np.sum(res * res) + res_bias @ res_bias)
    grad_norm = np.sqrt(res_sq)
    tol_sq = (min(0.5, np.sqrt(grad_norm)) * grad_norm) ** 2
    for it in range(res.size + res_bias.size):
        if res_sq <= tol_sq:
            break
        p_dz = probs * (features @ dir_.T + dir_bias)
        r = p_dz - probs * p_dz.sum(axis=1, keepdims=True)
        h, h_bias = r.T @ features / n + l2 * dir_, r.sum(axis=0) / n
        curvature = float(np.sum(h * dir_) + h_bias @ dir_bias)
        if not curvature > 0.0:
            if it == 0:
                return dir_, dir_bias
            break
        alpha = res_sq / curvature
        step += alpha * dir_
        step_bias += alpha * dir_bias
        res = res - alpha * h
        res_bias = res_bias - alpha * h_bias
        new_sq = float(np.sum(res * res) + res_bias @ res_bias)
        beta = new_sq / res_sq
        res_sq = new_sq
        dir_ = res + beta * dir_
        dir_bias = res_bias + beta * dir_bias
    return step, step_bias


def _as_design_input(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (samples x features), got shape {X.shape}")
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
    payload = read_json(data, ModelFormatError, "model payload")
    version = payload.get("version")
    known = is_a(version, int) and version in (1, MODEL_VERSION)
    if payload.get("format") != MODEL_MAGIC or not known:
        raise ModelFormatError(f"model payload is not a version-1/2 {MODEL_MAGIC} file")
    recorded = payload.get("sha256", "")
    if recorded != _payload_digest({**payload, "sha256": ""}):
        raise ModelFormatError("model checksum mismatch (corrupt payload)")
    fields = {**_HEADER_FIELDS, "weights": _WEIGHTS_KIND[version]}
    check_fields(payload, fields, ModelFormatError, "model payload")
    if payload["n_features"] < 0:
        raise ModelFormatError("negative n_features")
    if len(payload["classes"]) < 2:
        raise ModelFormatError("fewer than 2 classes")
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

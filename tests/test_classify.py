import base64
import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from rfekit import classify
from rfekit.classify import (
    CooMatrix,
    ModelFormatError,
    SoftmaxClassifier,
    VocabMismatchError,
    _payload_digest,
    load_model,
    save_model,
    softmax,
)
from rfekit.vectorize import fit_vocab, save_vocab, stack_dense, tfidf_vector

from conftest import V1_FIXTURE, V1_FIXTURE_WEIGHTS, encode_model_v1, loss_and_gradient


def finite_difference_gradient(weights, X, y_index, l2, h=1e-5):
    """Central-difference oracle for the analytic gradient."""
    grad = np.zeros_like(weights)
    for r in range(weights.shape[0]):
        for c in range(weights.shape[1]):
            plus = weights.copy()
            plus[r, c] += h
            minus = weights.copy()
            minus[r, c] -= h
            loss_plus, _ = loss_and_gradient(plus, X, y_index, l2)
            loss_minus, _ = loss_and_gradient(minus, X, y_index, l2)
            grad[r, c] = (loss_plus - loss_minus) / (2 * h)
    return grad


def reference_gradient_descent(X, y_index, n_classes, l2, n_steps=5000):
    """Weights after ``n_steps`` of plain primal gradient descent (step 0.5)
    built from loss_and_gradient: the objective the Newton-CG fit must match
    or beat."""
    weights = np.zeros((n_classes, X.shape[1] + 1))
    for _ in range(n_steps):
        weights -= 0.5 * loss_and_gradient(weights, X, y_index, l2)[1]
    return weights


def test_softmax_rows_sum_to_one():
    probs = softmax(np.array([[1.0, 2.0, 3.0], [100.0, 100.0, 100.0]]))
    assert probs.sum(axis=1) == pytest.approx([1.0, 1.0])


def test_predict_proba_zero_weights_uniform():
    clf = SoftmaxClassifier(max_iters=0).fit(
        np.array([[1.0, 2.0], [3.0, 4.0]]), ["a", "b"]
    )
    probs = clf.predict_proba(np.array([[5.0, -1.0]]))
    assert probs[0] == pytest.approx([0.5, 0.5])


def test_softmax_ln9_gap():
    # softmax identity: score gap ln 9 gives (0.9, 0.1)
    probs = softmax(np.array([math.log(9.0), 0.0]))
    assert probs == pytest.approx([0.9, 0.1], abs=1e-9)


def test_equal_scores_split_evenly():
    probs = softmax(np.array([2.5, 2.5]))
    assert probs == pytest.approx([0.5, 0.5])


def test_loss_at_zero_weights_is_ln2():
    X = np.array([[0.3, -1.2], [2.0, 0.1], [0.0, 0.0]])
    loss, _ = loss_and_gradient(np.zeros((2, 3)), X, np.array([0, 1, 0]), l2=0.0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_stays_finite_when_true_class_probability_underflows():
    # scores (800, -800): p(true class 1) = exp(-1600) underflows to 0, but
    # the log-sum-exp cross-entropy is exactly 1600 (pytest makes warnings errors)
    weights = np.array([[800.0, 0.0], [-800.0, 0.0]])
    loss, grad = loss_and_gradient(weights, np.array([[1.0]]), np.array([1]), l2=0.0)
    assert loss == 1600.0
    assert grad.tolist() == [[1.0, 1.0], [-1.0, -1.0]]


def test_gradient_at_zero_weights_single_example():
    # p = (0.5, 0.5), so row 0 gets -0.5*[x, 1] and row 1 gets +0.5*[x, 1]
    x = np.array([[2.0, -3.0]])
    _, grad = loss_and_gradient(np.zeros((2, 3)), x, np.array([0]), l2=0.0)
    assert grad[0] == pytest.approx([-1.0, 1.5, -0.5])
    assert grad[1] == pytest.approx([1.0, -1.5, 0.5])


def test_duplicated_batch_same_loss_and_gradient():
    X = np.array([[1.0, 0.5], [-0.5, 2.0]])
    y = np.array([0, 1])
    weights = np.array([[0.1, -0.2, 0.3], [0.0, 0.4, -0.1]])
    once = loss_and_gradient(weights, X, y, l2=0.0)
    twice = loss_and_gradient(
        weights, np.vstack([X, X]), np.concatenate([y, y]), l2=0.0
    )
    assert twice[0] == pytest.approx(once[0], abs=1e-12)
    assert twice[1] == pytest.approx(once[1], abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(100):
        n_classes = rng.randint(2, 3)
        n_features = rng.randint(1, 5)
        n_examples = rng.randint(1, 6)
        X = np.array(
            [
                [rng.uniform(-2, 2) for _ in range(n_features)]
                for _ in range(n_examples)
            ]
        )
        y = np.array([rng.randrange(n_classes) for _ in range(n_examples)])
        weights = np.array(
            [
                [rng.uniform(-1, 1) for _ in range(n_features + 1)]
                for _ in range(n_classes)
            ]
        )
        l2 = rng.choice([0.0, 1e-3, 0.1])
        _, analytic = loss_and_gradient(weights, X, y, l2)
        numeric = finite_difference_gradient(weights, X, y, l2)
        scale = max(np.abs(numeric).max(), 1e-8)
        worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
    assert worst < 1e-4


def test_train_separates_toy_set():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = ["lo", "lo", "hi", "hi"]
    clf = SoftmaxClassifier().fit(X, y)
    assert clf.predict(X) == y


def test_train_orthogonal_features_high_confidence():
    X = np.eye(3)
    y = ["a", "b", "c"]
    clf = SoftmaxClassifier().fit(X, y)
    probs = clf.predict_proba(X)
    for i in range(3):
        assert probs[i, i] > 0.9


def test_loss_nonincreasing_on_toy_set():
    X = np.array([[0.0, 0.2], [0.1, 1.0], [1.0, 0.1], [0.9, 1.1]])
    y_index = np.array([0, 0, 1, 1])
    weights = np.zeros((2, 3))
    losses = []
    for _ in range(50):
        loss, grad = loss_and_gradient(weights, X, y_index, l2=1e-3)
        losses.append(loss)
        weights -= 0.5 * grad
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_max_iters_zero_returns_zero_weights():
    clf = SoftmaxClassifier(max_iters=0).fit(np.eye(2), ["a", "b"])
    assert np.all(clf.weights_ == 0.0)


def test_fit_rejects_unknown_label():
    with pytest.raises(ValueError, match="outside the class set"):
        SoftmaxClassifier().fit(np.eye(2), ["a", "x"], classes=("a", "b"))


def test_fit_rejects_empty_class():
    with pytest.raises(ValueError, match="zero training examples"):
        SoftmaxClassifier().fit(np.eye(2), ["a", "a"], classes=("a", "b"))


def test_predict_dimension_mismatch():
    clf = SoftmaxClassifier(max_iters=1).fit(np.eye(3), ["a", "b", "c"])
    with pytest.raises(ValueError, match="features"):
        clf.predict_proba(np.ones((1, 5)))


def test_fit_accepts_sparse_vectors():
    vocab = fit_vocab([["spam", "spam"], ["ham", "eggs"]], {1})
    X = stack_dense(
        [tfidf_vector(["spam", "spam"], vocab), tfidf_vector(["ham", "eggs"], vocab)],
        vocab.size,
    )
    clf = SoftmaxClassifier().fit(X, ["s", "h"])
    assert clf.predict(X) == ["s", "h"]


@pytest.mark.parametrize(
    "X, shape",
    [
        ([((0, 1.0),), ((1, 0.5),)], r"\(2, 1, 2\)"),
        (np.zeros((2, 3, 2)), r"\(2, 3, 2\)"),
        (np.zeros(2), r"\(2,\)"),
    ],
    ids=["pair-tuples", "3-d", "1-d"],
)
def test_fit_and_predict_reject_non_2d_input(X, shape):
    with pytest.raises(ValueError, match=shape):
        SoftmaxClassifier(max_iters=1).fit(X, ["a", "b"])
    clf = SoftmaxClassifier(max_iters=1).fit(np.eye(2), ["a", "b"])
    with pytest.raises(ValueError, match=shape):
        clf.predict_proba(X)


def test_model_roundtrip_bit_identical():
    clf = SoftmaxClassifier(max_iters=50).fit(
        np.array([[0.0, 1.0], [1.0, 0.0]]), ["a", "b"], vocab_hash="abc123"
    )
    restored = load_model(save_model(clf))
    assert restored.classes_ == clf.classes_
    assert np.array_equal(restored.weights_, clf.weights_)
    assert restored.vocab_hash_ == "abc123"
    assert restored.get_params() == clf.get_params()


def test_model_version_tamper_rejected():
    clf = SoftmaxClassifier(max_iters=1).fit(np.eye(2), ["a", "b"])
    data = save_model(clf).replace(b'"version": 2', b'"version": 3')
    assert data != save_model(clf)
    with pytest.raises(ModelFormatError):
        load_model(data)


def test_model_corruption_rejected():
    clf = SoftmaxClassifier(max_iters=1).fit(np.eye(2), ["a", "b"])
    data = save_model(clf).replace(b'"a"', b'"z"')
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(data)


def test_model_vocab_hash_mismatch():
    vocab_a = fit_vocab([["x", "y"]], {1})
    vocab_b = fit_vocab([["x", "z"]], {1})
    X = stack_dense([tfidf_vector(["x"], vocab_a), tfidf_vector(["y"], vocab_a)],
                    vocab_a.size)
    hash_a, hash_b = (
        hashlib.sha256(save_vocab(v)).hexdigest() for v in (vocab_a, vocab_b)
    )
    clf = SoftmaxClassifier(max_iters=1).fit(
        X, ["a", "b"], feature_kind="sparse", vocab_hash=hash_a
    )
    data = save_model(clf)
    assert load_model(data, expected_vocab_hash=hash_a).classes_ == ("a", "b")
    with pytest.raises(VocabMismatchError):
        load_model(data, expected_vocab_hash=hash_b)


def test_estimator_params_api():
    clf = SoftmaxClassifier(l2=0.5)
    assert clf.get_params()["l2"] == 0.5
    clf.set_params(max_iters=7)
    assert clf.max_iters == 7
    for gone in ("bogus", "learning_rate"):
        with pytest.raises(ValueError):
            clf.set_params(**{gone: 1})


def _tfidf_with_zero_row():
    docs = [["visa", "fee"], ["passport", "photo", "photo"], ["visa", "photo"],
            ["fee", "receipt"]]
    vocab = fit_vocab(docs, {1})
    vectors = [tfidf_vector(tokens, vocab) for tokens in docs]
    vectors.append(tfidf_vector(["unseen"], vocab))
    assert vectors[-1] == ()
    return stack_dense(vectors, vocab.size), ["a", "b", "a", "c", "b"]


def _dense_case(n, d, n_classes, seed):
    rng = np.random.default_rng(seed)
    y = [f"c{i % n_classes}" for i in range(n)]
    return rng.normal(size=(n, d)), y


@pytest.mark.parametrize(
    "data, l2",
    [
        (_dense_case(6, 20, 3, 0), 1e-3),
        (_dense_case(30, 4, 3, 1), 1e-3),
        (_tfidf_with_zero_row(), 1e-3),
        (_dense_case(8, 12, 2, 2), 0.0),
    ],
    ids=["dense-n<d", "dense-n>d", "tfidf-zero-row", "l2=0"],
)
def test_newton_fit_reaches_the_optimum(data, l2):
    X, y = data
    clf = SoftmaxClassifier(l2=l2).fit(X, y)
    index = {c: i for i, c in enumerate(clf.classes_)}
    y_index = np.array([index[lab] for lab in y])
    assert clf.converged_ and 0 < clf.n_iter_ < clf.max_iters
    assert np.isfinite(clf.weights_).all()
    loss, grad = loss_and_gradient(clf.weights_, X, y_index, l2)
    assert np.abs(grad).max() == pytest.approx(clf.grad_max_, rel=1e-6)
    assert clf.grad_max_ < clf.grad_tol
    reference = reference_gradient_descent(X, y_index, len(clf.classes_), l2)
    # no higher than 5,000 gradient-descent steps reach, up to round-off
    assert loss <= loss_and_gradient(reference, X, y_index, l2)[0] + 1e-12
    scores = X @ clf.weights_[:, :-1].T + clf.weights_[:, -1]
    assert clf.predict(X) == [clf.classes_[i] for i in scores.argmax(axis=1)]


def test_max_iters_caps_newton_steps():
    X, y = _dense_case(6, 20, 3, 0)
    steps = SoftmaxClassifier().fit(X, y).n_iter_
    capped = SoftmaxClassifier(max_iters=steps - 1).fit(X, y)
    assert (capped.n_iter_, capped.converged_) == (steps - 1, False)
    assert capped.grad_max_ >= capped.grad_tol


def test_rank_deficient_gram_loss_decreases_every_step():
    """n > d gives a singular Gram matrix; with l2=0 nothing bounds the
    coefficients in its null space, so each Newton step must still lower
    the primal loss and the fit must converge."""
    X = np.random.default_rng(9).normal(size=(9, 1)) * 10
    y = [f"c{i % 3}" for i in range(9)]
    final = SoftmaxClassifier(l2=0.0).fit(X, y)
    assert final.converged_
    losses = [
        loss_and_gradient(
            SoftmaxClassifier(l2=0.0, max_iters=k).fit(X, y).weights_,
            X, np.arange(9) % 3, 0.0,
        )[0]
        for k in range(final.n_iter_ + 1)
    ]
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_legacy_learning_rate_param_loads_and_is_ignored():
    X, y = _dense_case(6, 20, 3, 0)
    clf = SoftmaxClassifier().fit(X, y)
    payload = json.loads(save_model(clf))
    payload["params"]["learning_rate"] = 0.5
    payload["sha256"] = ""
    payload["sha256"] = _payload_digest(payload)
    restored = load_model(json.dumps(payload).encode("utf-8"))
    assert restored.get_params() == clf.get_params()
    assert np.array_equal(restored.weights_, clf.weights_)
    assert restored.predict(X) == clf.predict(X)


def _special_model():
    """A fitted 3-class model whose weights are V1_FIXTURE_WEIGHTS."""
    clf = SoftmaxClassifier(max_iters=1).fit(np.eye(3), ["a", "b", "c"])
    clf.weights_ = np.array(V1_FIXTURE_WEIGHTS)
    return clf


def test_committed_v1_model_loads_bit_exact():
    data = V1_FIXTURE.read_bytes()
    model = load_model(data)
    assert json.loads(data)["version"] == 1
    assert model.weights_.tobytes() == np.array(V1_FIXTURE_WEIGHTS).tobytes()
    assert model.classes_ == ("a", "b", "c") and model.vocab_hash_ == "v1-fixture"
    assert encode_model_v1(model) == data


def test_v1_and_v2_weight_encodings_load_bit_exact():
    X, y = _tfidf_with_zero_row()
    three_classes = SoftmaxClassifier().fit(X, y)
    one_column = SoftmaxClassifier().fit(np.zeros((2, 0)), ["a", "b"])
    assert one_column.weights_.shape == (2, 1)
    for clf in (three_classes, one_column, _special_model()):
        for data in (encode_model_v1(clf), save_model(clf)):
            restored = load_model(data)
            assert restored.weights_.tobytes() == clf.weights_.tobytes()
            assert restored.weights_.dtype == np.float64
            assert restored.weights_.flags.writeable
            assert restored.weights_.flags.c_contiguous
        payload = json.loads(save_model(clf))
        assert payload["version"] == 2
        assert base64.b64decode(payload["weights"]) == clf.weights_.astype("<f8").tobytes()


def test_model_file_is_the_shared_json_text():
    """Sorted keys, 2-space indent and a trailing newline, like every other
    document; the checksum is taken with ``sha256`` empty."""
    data = save_model(_special_model())
    payload = json.loads(data)
    assert data == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
    assert payload["sha256"] == _payload_digest({**payload, "sha256": ""})


DROP = object()


@pytest.mark.parametrize(
    "changes",
    [
        {"vocab_hash": DROP},
        {"classes": DROP},
        {"n_features": DROP},
        {"feature_kind": DROP},
        {"weights": DROP},
        {"classes": "ab"},
        {"classes": ["a", 1]},
        {"n_features": "2"},
        {"n_features": -1, "weights": ""},
        {"vocab_hash": None},
        {"params": DROP},
        {"params": {"bogus": 1}},
        {"version": 1, "weights": ["abc", "def"]},
        {"params": {"max_iters": "x"}},
        {"params": {"max_iters": 2.0}},
        {"params": {"max_iters": True}},
        {"params": {"l2": True}},
        {"params": {"l2": "0.001"}},
        {"params": {"learning_rate": None}},
        {"params": {"grad_tol": False}},
        {"weights": "A" * 32 + "!" + "A" * 32},
        {"weights": base64.b64encode(bytes(40)).decode()},
        {"weights": base64.b64encode(bytes(45)).decode()},
        {"weights": base64.b64encode(bytes(56)).decode()},
        {"weights": [["0x0.0p+0"] * 3] * 2},
        {"weights": base64.b64encode(np.full(6, np.nan).tobytes()).decode()},
        {"version": 1, "weights": base64.b64encode(bytes(48)).decode()},
        {"classes": [], "weights": ""},
        {"classes": ["a"], "weights": base64.b64encode(bytes(24)).decode()},
        {"version": 1, "n_features": -1, "weights": [[], []]},
        {"version": True, "weights": [["0x0.0p+0"] * 3] * 2},
        {"version": 1.0, "weights": [["0x0.0p+0"] * 3] * 2},
        {"version": 2.0},
        {"classes": ["a", "a"]},
    ],
    ids=["no-vocab_hash", "no-classes", "no-n_features", "no-feature_kind",
         "no-weights", "string-classes", "non-string-class", "string-n_features",
         "negative-n_features", "null-vocab_hash", "no-params", "unknown-param",
         "string-weight-rows", "string-max_iters", "float-max_iters",
         "bool-max_iters", "bool-l2", "string-l2", "null-learning_rate",
         "bool-grad_tol", "v2-non-base64", "v2-short-weights", "v2-partial-float",
         "v2-long-weights", "v2-weight-rows", "v2-nan-weights", "v1-string-weights",
         "no-classes-empty-weights", "one-class", "v1-negative-n_features",
         "bool-version", "float-version-1", "float-version-2", "duplicate-classes"],
)
def test_resigned_malformed_header_rejected(changes):
    clf = SoftmaxClassifier(max_iters=1).fit(np.eye(2), ["a", "b"])
    payload = json.loads(save_model(clf))
    for key, value in changes.items():
        if value is DROP:
            del payload[key]
        else:
            payload[key] = value
    payload["sha256"] = ""
    payload["sha256"] = _payload_digest(payload)
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(payload).encode("utf-8"), expected_vocab_hash="")


def _sparse_design(n, d, per_row, seed, n_classes=3, full_column=False):
    """A random n x d design as ``(X, (row, col, value))``, rows sorted by
    (row, col), ``per_row`` nonzeros in each row except an all-zero row 0.
    With ``full_column``, column 0 is then made nonzero in every row."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, d))
    for r in range(1, n):
        X[r, rng.choice(d, size=per_row, replace=False)] = rng.normal(size=per_row)
    if full_column:
        X[:, 0] = rng.normal(size=n)
    row, col = np.nonzero(X)
    y = [f"c{i % n_classes}" for i in range(n)]
    return X, (row, col, X[row, col]), y


_SPARSE_CASES = [(5, 7, 3), (40, 10_000, 1), (300, 2_000, 40), (1, 3, 2), (2_000, 150, 5)]


# The cases of _SPARSE_CASES, then three more: all 20 columns of (64, 20, 20)
# hold 63 nonzeros, and column 0 of the other two is in every row.
_PRODUCT_CASES = [
    pytest.param(*case, False, id="-".join(map(str, case))) for case in _SPARSE_CASES
] + [
    pytest.param(64, 20, 20, False, id="64-20-20-full-columns"),
    pytest.param(300, 2_000, 40, True, id="300-2000-40-full-column"),
    pytest.param(5, 7, 3, True, id="5-7-3-full-column"),
]


@pytest.mark.parametrize("n, d, per_row, full_column", _PRODUCT_CASES)
def test_coo_products_match_the_dense_products(n, d, per_row, full_column):
    """``X @ B`` and ``A @ X`` of a CooMatrix against the dense products, and
    both zero for the same shape with no nonzeros."""
    X, (row, col, value), _ = _sparse_design(n, d, per_row, n + d, full_column=full_column)
    rng = np.random.default_rng(d)
    B, A = rng.normal(size=(d, 3)), rng.normal(size=(3, n))
    coo = CooMatrix(row, col, value, X.shape)
    for product, dense in ((coo @ B, X @ B), (A @ coo, A @ X)):
        assert product.shape == dense.shape
        assert np.abs(product - dense).max() <= 1e-13 * np.abs(dense).max()
    empty = CooMatrix(row[:0], col[:0], value[:0], X.shape)
    for product, shape in ((empty @ B, (n, 3)), (A @ empty, (3, d))):
        assert product.shape == shape and not product.any()


@pytest.mark.parametrize(
    "n, d, per_row, l2",
    [
        (12, 50, 4, 1e-3),
        (12, 50, 4, 0.0),
        (40, 10_000, 3, 1e-3),
        (40, 10_000, 3, 0.0),
        # Unpenalized, this separable design has its optimum at infinity, and
        # where the stop rule halts depends on round-off: l2 > 0 only.
        (300, 2_000, 40, 1e-3),
        (200, 30, 3, 1e-3),
        (200, 30, 3, 0.0),  # n > d: a finite unpenalized optimum
    ],
)
def test_sparse_fit_matches_dense_fit(n, d, per_row, l2):
    """``fit(CooMatrix)`` against ``fit(X)``: the same steps, stop and
    labels, and with l2 > 0 the same max|grad| and weights. Unpenalized, a
    fit amplifies the round-off between the bincount and the BLAS products
    (on one case here, weights 2.5e-2 apart and max|grad| 0.2% apart at
    equal steps), so there only the stop is compared;
    test_coo_products_match_the_dense_products holds the products themselves
    equal."""
    X, (row, col, value), y = _sparse_design(n, d, per_row, seed=7 * n + d)
    dense = SoftmaxClassifier(l2=l2).fit(X, y, feature_kind="sparse")
    sparse = SoftmaxClassifier(l2=l2).fit(
        CooMatrix(row, col, value, X.shape), y, feature_kind="sparse"
    )
    assert dense.converged_
    assert (sparse.n_iter_, sparse.converged_) == (dense.n_iter_, dense.converged_)
    assert sparse.weights_.shape == dense.weights_.shape == (3, d + 1)
    assert sparse.n_features_ == d
    if l2:
        assert sparse.grad_max_ == pytest.approx(dense.grad_max_, rel=1e-6)
        assert np.abs(sparse.weights_ - dense.weights_).max() <= 1e-12
    assert sparse.predict(X) == dense.predict(X)


# Columns 0-3 are shared by two or more rows, 4-7 are each in one row only
# (row 4 has two of them), and 8-9 are in none.
_FOLD_BASE = np.array([
    [0.9, 0.4, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.3, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.6, 0.5, 0.0, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0],
    [0.2, 0.0, 0.0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.1, 0.0, 0.9, 0.0, 0.0, 0.3, 0.6, 0.0, 0.0],
    [0.5, 0.0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])


def _fold_case(case):
    X = _FOLD_BASE.copy()
    if case == "zero-row":
        X[3] = 0.0
    elif case == "empty":
        X[:] = 0.0
    elif case == "all-single-row":
        X[1] = 0.0
        X[1, 8:] = [0.7, 0.05]
    elif case == "negative-single":
        X[4, 7] = X[2, 5] = -0.6
    elif case == "tiny-singles":  # their squares underflow to 0
        X[4, 6:8] = [3e-170, 6e-170]
    return X


@pytest.mark.parametrize(
    "case",
    ["zero-row", "empty", "all-single-row", "negative-single", "tiny-singles", "stored-zero"],
)
def test_folded_single_columns_fit_as_the_dense_design(case):
    """The columns with one nonzero fold into one column per row that has
    any, and the COO fit still equals the dense fit: steps, stop, max|grad|,
    weights and labels. At l2=1e-3 this six-row design is so weakly bound
    that its dense fit alone moves 3.4e-12 when its columns are permuted, so
    the cases use l2=1e-2."""
    X = _fold_case(case)
    y = ["a", "b", "a", "c", "b", "a"]
    row, col = np.nonzero(X)
    value = X[row, col]
    if case == "stored-zero":  # alone in its column, and row 3's only such entry
        row, col, value = np.append(row, 3), np.append(col, 9), np.append(value, 0.0)
    coo = CooMatrix(row, col, value, X.shape)
    present = X != 0
    single = present & (present.sum(axis=0) == 1)
    width = (present.sum(axis=0) > 1).sum() + single.any(axis=1).sum() + 1
    assert classify._features(coo)[0].shape == (6, width)
    dense = SoftmaxClassifier(l2=1e-2).fit(X, y)
    sparse = SoftmaxClassifier(l2=1e-2).fit(coo, y)
    assert dense.converged_
    assert (sparse.n_iter_, sparse.converged_) == (dense.n_iter_, dense.converged_)
    assert sparse.grad_max_ == pytest.approx(dense.grad_max_, rel=1e-6)
    assert np.abs(sparse.weights_ - dense.weights_).max() <= 1e-12
    assert sparse.predict(X) == dense.predict(X)


def _coo_eye(n) -> CooMatrix:
    return CooMatrix(np.arange(n), np.arange(n), np.ones(n), (n, n))


def _short_v1_model() -> bytes:
    """The committed v1 model file re-signed with its last weight row cut."""
    model = load_model(V1_FIXTURE.read_bytes())
    model.weights_ = model.weights_[:-1]
    return encode_model_v1(model)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SoftmaxClassifier().fit(np.zeros((0, 2)), []), "empty training set"),
        (lambda: SoftmaxClassifier().fit(CooMatrix([], [], [], (0, 2)), []),
         "empty training set"),
        (lambda: SoftmaxClassifier().fit(np.eye(2), ["a", "a"]), "at least 2 classes"),
        (lambda: SoftmaxClassifier().fit(_coo_eye(2), ["a", "a"]), "at least 2 classes"),
        (lambda: SoftmaxClassifier().fit(np.eye(2), ["a", "b"], classes=["a", "b", "a"]),
         "duplicate class labels"),
        (lambda: SoftmaxClassifier().fit(_coo_eye(2), ["a", "b"], classes=["a", "b", "a"]),
         "duplicate class labels"),
        (lambda: load_model(_short_v1_model()), r"weight shape \(2, 4\) inconsistent"),
    ],
    ids=["fit-empty", "fit_coo-empty", "fit-one-class", "fit_coo-one-class",
         "fit-duplicate-classes", "fit_coo-duplicate-classes", "load_model-v1-short"],
)
def test_invalid_training_set_or_model_file_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "entry", ["fit", "CooMatrix", "decision_function", "predict_proba", "predict"]
)
def test_a_non_finite_design_is_refused_by_name(entry, bad):
    """A NaN or an infinity fails with a ValueError naming X, not as a
    diverged fit or a NaN row that ``predict`` turns into the first class."""
    X, y = np.array([[0.0, 1.0], [1.0, 0.0]]), ["a", "b"]
    fitted = SoftmaxClassifier().fit(X, y)
    X[1, 0] = bad
    with pytest.raises(ValueError, match="X holds a NaN"):
        if entry == "fit":
            SoftmaxClassifier().fit(X, y)
        elif entry == "CooMatrix":
            row, col = np.nonzero(X)
            SoftmaxClassifier().fit(CooMatrix(row, col, X[row, col], X.shape), y)
        else:
            getattr(fitted, entry)(X)


@pytest.mark.parametrize(
    "row, col", [([0, 2], [0, 1]), ([0, 1], [0, 2]), ([-1, 1], [0, 1])],
    ids=["row", "col", "negative"],
)
def test_a_coo_index_outside_the_shape_is_refused_by_name(row, col):
    with pytest.raises(ValueError, match=r"X has an index outside its shape \(2, 2\)"):
        SoftmaxClassifier().fit(CooMatrix(row, col, [1.0, 1.0], (2, 2)), ["a", "b"])


@pytest.mark.parametrize(
    "param, value",
    [("l2", -1.0), ("l2", math.nan), ("l2", math.inf), ("max_iters", -1),
     ("grad_tol", math.nan), ("grad_tol", -1.0)],
    ids=["negative-l2", "nan-l2", "inf-l2", "negative-max_iters", "nan-grad_tol",
         "negative-grad_tol"],
)
def test_out_of_range_training_params_are_refused_by_name(param, value):
    """Checked before the training set, which here is empty."""
    with pytest.raises(ValueError, match=f"^{param} "):
        SoftmaxClassifier(**{param: value}).fit(np.zeros((0, 2)), [])


def test_line_search_backtracks_and_every_step_lowers_the_loss(monkeypatch):
    """Features of scale 100 make full Newton steps overshoot: the Armijo
    search rejects trial points, and the loss after ``max_iters=k`` steps
    never rises with k."""
    X = np.random.default_rng(3).normal(size=(12, 3)) * 100
    y = [f"c{i % 3}" for i in range(12)]
    evaluations = []
    objective = classify._objective
    monkeypatch.setattr(
        classify, "_objective", lambda *args: evaluations.append(1) or objective(*args)
    )
    final = SoftmaxClassifier().fit(X, y)
    monkeypatch.undo()
    assert final.converged_
    # one evaluation at the start, then one per trial point; each step accepts one
    assert len(evaluations) - 1 - final.n_iter_ > 0
    losses = [
        loss_and_gradient(
            SoftmaxClassifier(max_iters=k).fit(X, y).weights_, X, np.arange(12) % 3, 1e-3
        )[0]
        for k in range(final.n_iter_ + 1)
    ]
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_a_step_that_finds_no_decrease_ends_the_fit_unconverged():
    """Separable data with no penalty has no optimum: the loss falls toward 0
    until a Newton step finds no decrease, which ends the fit unconverged
    before ``max_iters``."""
    clf = SoftmaxClassifier(l2=0.0, grad_tol=0.0, max_iters=500).fit(np.eye(2), ["a", "b"])
    assert not clf.converged_ and clf.n_iter_ < 500
    assert clf.predict(np.eye(2)) == ["a", "b"]


def test_newton_direction_on_flat_curvature_is_steepest_descent():
    grad = np.array([[0.5, -1.0], [-0.5, 1.0]])
    probs = np.full((3, 2), 0.5)
    step = classify._newton_direction(grad, probs, np.zeros((3, 2)), np.zeros(2))
    assert np.array_equal(step, -grad)


@pytest.mark.parametrize("X", [np.eye(3), _coo_eye(3)], ids=["dense", "coo"])
def test_fit_rejects_a_design_whose_rows_differ_from_the_labels(X):
    with pytest.raises(ValueError, match="3 rows but 2 labels"):
        SoftmaxClassifier().fit(X, ["a", "b"])


def test_sparse_fit_never_allocates_the_dense_design():
    """A 50 x 200,000 design with 20 nonzeros a row trains with a traced peak
    below a quarter of its dense size (80 MB)."""
    n, d, per_row = 50, 200_000, 20
    rng = np.random.default_rng(5)
    row = np.repeat(np.arange(n), per_row)
    col = np.concatenate([np.sort(rng.choice(d, per_row, replace=False)) for _ in range(n)])
    value = rng.random(n * per_row) + 0.5
    y = [f"c{i % 3}" for i in range(n)]
    tracemalloc.start()
    try:
        clf = SoftmaxClassifier().fit(CooMatrix(row, col, value, (n, d)), y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clf.converged_ and clf.weights_.shape == (3, d + 1)
    assert peak < n * d * 8 / 4

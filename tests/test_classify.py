import json
import math
import random

import numpy as np
import pytest

from rfekit.classify import (
    ModelFormatError,
    SoftmaxClassifier,
    VocabMismatchError,
    _payload_digest,
    load_model,
    loss_and_gradient,
    save_model,
    softmax,
)
from rfekit.vectorize import fit_vocab, stack_dense, tfidf_vector, vocab_sha256


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


def reference_gradient_descent(X, y_index, n_classes, l2, learning_rate,
                               max_iters, grad_tol):
    """Plain primal gradient descent built from loss_and_gradient: the loop
    SoftmaxClassifier.fit must reproduce. Returns (weights, n_iter, converged)."""
    weights = np.zeros((n_classes, X.shape[1] + 1))
    for n_iter in range(max_iters):
        _, grad = loss_and_gradient(weights, X, y_index, l2)
        if np.abs(grad).max() < grad_tol:
            return weights, n_iter, True
        weights -= learning_rate * grad
    return weights, max_iters, False


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
    data = save_model(clf).replace(b'"version": 1', b'"version": 2')
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
    clf = SoftmaxClassifier(max_iters=1).fit(
        X, ["a", "b"], feature_kind="sparse", vocab_hash=vocab_sha256(vocab_a)
    )
    data = save_model(clf)
    assert load_model(data, expected_vocab_hash=vocab_sha256(vocab_a)).classes_ == ("a", "b")
    with pytest.raises(VocabMismatchError):
        load_model(data, expected_vocab_hash=vocab_sha256(vocab_b))


def test_estimator_params_api():
    clf = SoftmaxClassifier(l2=0.5)
    assert clf.get_params()["l2"] == 0.5
    clf.set_params(learning_rate=0.1)
    assert clf.learning_rate == 0.1
    with pytest.raises(ValueError):
        clf.set_params(bogus=1)


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
def test_gram_fit_matches_primal_gradient_descent(data, l2):
    X, y = data
    clf = SoftmaxClassifier(l2=l2, max_iters=300).fit(X, y)
    index = {c: i for i, c in enumerate(clf.classes_)}
    weights, n_iter, converged = reference_gradient_descent(
        X, np.array([index[lab] for lab in y]), len(clf.classes_), l2,
        clf.learning_rate, clf.max_iters, clf.grad_tol,
    )
    assert np.abs(clf.weights_ - weights).max() <= 1e-10
    assert (clf.n_iter_, clf.converged_) == (n_iter, converged)
    scores = X @ weights[:, :-1].T + weights[:, -1]
    assert clf.predict(X) == [clf.classes_[i] for i in scores.argmax(axis=1)]


def test_fit_records_convergence_like_plain_loop():
    X, y = np.eye(3), ["a", "b", "c"]
    clf = SoftmaxClassifier(grad_tol=1e-3).fit(X, y)
    _, n_iter, converged = reference_gradient_descent(
        X, np.arange(3), 3, clf.l2, clf.learning_rate, clf.max_iters, 1e-3
    )
    assert converged and clf.converged_
    assert 0 < clf.n_iter_ == n_iter < clf.max_iters
    capped = SoftmaxClassifier(grad_tol=1e-3, max_iters=n_iter).fit(X, y)
    assert (capped.n_iter_, capped.converged_) == (n_iter, False)


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
        {"n_features": -1, "weights": [[], []]},
        {"vocab_hash": None},
        {"params": DROP},
        {"params": {"bogus": 1}},
        {"weights": ["abc", "def"]},
        {"params": {"max_iters": "x"}},
        {"params": {"max_iters": 2.0}},
        {"params": {"max_iters": True}},
        {"params": {"l2": True}},
        {"params": {"l2": "0.001"}},
        {"params": {"learning_rate": None}},
        {"params": {"grad_tol": False}},
    ],
    ids=["no-vocab_hash", "no-classes", "no-n_features", "no-feature_kind",
         "no-weights", "string-classes", "non-string-class", "string-n_features",
         "negative-n_features", "null-vocab_hash", "no-params", "unknown-param",
         "string-weight-rows", "string-max_iters", "float-max_iters",
         "bool-max_iters", "bool-l2", "string-l2", "null-learning_rate",
         "bool-grad_tol"],
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

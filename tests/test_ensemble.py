import json
import math
import random
import re

import numpy as np
import pytest

from rfekit.classify import SoftmaxClassifier
from rfekit.ensemble import (
    ClassDistribution,
    Document,
    EnsembleDocumentClassifier,
    classify_document,
    confidence,
    entropy,
    fuse,
)
from rfekit.image import PageImage, image_features
from rfekit.vectorize import fit_vocab, save_vocab


def dist(*probs, classes=None):
    classes = classes or tuple(f"c{i}" for i in range(len(probs)))
    return ClassDistribution(classes, np.array(probs, dtype=float))


def scalar_fusion_oracle(p_image, p_text, epsilon=0.001):
    """Independent recomputation of the confidence-weighted average."""

    def h(ps):
        return -sum(p * math.log2(p) for p in ps if p > 0)

    w_img = 1.0 / max(h(p_image), epsilon)
    w_txt = 1.0 / max(h(p_text), epsilon)
    return [
        (w_img * pi + w_txt * pt) / (w_img + w_txt)
        for pi, pt in zip(p_image, p_text)
    ]


def random_distribution(rng, k):
    raw = [rng.uniform(0.0, 1.0) for _ in range(k)]
    total = sum(raw) or 1.0
    return [x / total for x in raw]


def test_entropy_fifty_fifty():
    assert entropy(dist(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_one_hot():
    assert entropy(dist(1.0, 0.0)) == 0.0


def test_entropy_derived_example():
    # -0.9*lg(0.9) - 0.1*lg(0.1) = 0.4690
    assert entropy(dist(0.9, 0.1)) == pytest.approx(0.4690, abs=1e-4)


def test_entropy_bounds():
    rng = random.Random(99)
    for _ in range(300):
        k = rng.randint(2, 6)
        d = dist(*random_distribution(rng, k))
        h = entropy(d)
        assert 0.0 <= h <= math.log2(k) + 1e-12


def test_confidence_reciprocal():
    assert confidence(1.0) == 1.0
    assert confidence(2.0) == 0.5


def test_confidence_zero_entropy_clamps_to_1000():
    assert confidence(0.0) == 1000.0


def test_confidence_clamp_below_epsilon():
    assert confidence(0.0005) == 1000.0


def test_confidence_rejects_negative():
    with pytest.raises(ValueError):
        confidence(-0.1)


def test_fuse_identical_inputs_fixed_point():
    p = dist(0.3, 0.7)
    trace = fuse(p, dist(0.3, 0.7))
    assert trace.fused.probs == pytest.approx(p.probs, abs=1e-12)


def test_fuse_derived_example():
    # independent scalar oracle gives w_img=2.1322, fused=(0.7723, 0.2277)
    trace = fuse(dist(0.9, 0.1), dist(0.5, 0.5))
    assert trace.w_image == pytest.approx(2.1322, abs=1e-4)
    assert trace.w_text == pytest.approx(1.0, abs=1e-12)
    assert trace.fused.probs == pytest.approx([0.7723, 0.2277], abs=1e-4)
    oracle = scalar_fusion_oracle([0.9, 0.1], [0.5, 0.5])
    assert trace.fused.probs == pytest.approx(oracle, abs=1e-12)


def test_fuse_one_hot_dominates():
    trace = fuse(dist(1.0, 0.0), dist(0.5, 0.5))
    # (1000*1 + 1*0.5) / 1001
    assert trace.fused.probs[0] == pytest.approx(1000.5 / 1001, abs=1e-9)
    assert trace.w_image == 1000.0


def test_fuse_matches_oracle_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        k = rng.randint(2, 5)
        p_img = random_distribution(rng, k)
        p_txt = random_distribution(rng, k)
        trace = fuse(dist(*p_img), dist(*p_txt))
        assert trace.fused.probs == pytest.approx(
            scalar_fusion_oracle(p_img, p_txt), abs=1e-9
        )
        assert trace.fused.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(trace.fused.probs >= 0.0)


def test_fuse_agreement_preserved():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(2, 5)
        p_img = random_distribution(rng, k)
        p_txt = random_distribution(rng, k)
        a = max(range(k), key=lambda i: p_img[i])
        if a != max(range(k), key=lambda i: p_txt[i]):
            continue
        trace = fuse(dist(*p_img), dist(*p_txt))
        assert int(np.argmax(trace.fused.probs)) == a


def test_fuse_equal_entropies_unweighted_mean():
    p = dist(0.8, 0.2)
    q = dist(0.2, 0.8)
    trace = fuse(p, q)
    assert trace.fused.probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_fuse_class_set_mismatch():
    with pytest.raises(ValueError):
        fuse(dist(0.5, 0.5, classes=("a", "b")), dist(0.5, 0.5, classes=("a", "c")))


def test_argmax_ties_break_to_first_class():
    assert dist(0.5, 0.5, classes=("b", "a")).argmax_label() == "b"


def test_distribution_validates():
    with pytest.raises(ValueError):
        ClassDistribution(("a", "b"), np.array([0.9, 0.3]))
    with pytest.raises(ValueError):
        ClassDistribution(("a",), np.array([0.5, 0.5]))


def page(fill):
    return PageImage(width=8, height=8, pixels=np.full((8, 8), fill, dtype=np.int64))


def tiny_heads():
    """Image head keyed on brightness, text head on one word."""
    image_model = SoftmaxClassifier(max_iters=300).fit(
        np.array([image_features(page(fill)) for fill in (250, 240, 20, 5)]),
        ["light", "light", "dark", "dark"],
    )
    vocab = fit_vocab([["bright", "page"], ["dim", "page"]], {1})
    from rfekit.vectorize import stack_dense, tfidf_vector

    text_model = SoftmaxClassifier(max_iters=300).fit(
        stack_dense(
            [tfidf_vector(["bright", "page"], vocab), tfidf_vector(["dim", "page"], vocab)],
            vocab.size,
        ),
        ["light", "dark"],
    )
    return image_model, text_model, vocab


def test_classify_document_single_page_matches_page_distribution():
    image_model, text_model, vocab = tiny_heads()
    doc = Document(doc_id="d", pages=(page(245),), text="bright page")
    trace = classify_document(doc, image_model, text_model, vocab)
    page_probs = image_model.predict_proba([image_features(page(245))])[0]
    assert trace.p_image.probs == pytest.approx(page_probs, abs=1e-12)
    assert trace.predicted == "light"


def test_classify_document_empty_text_falls_back_to_image():
    image_model, text_model, vocab = tiny_heads()
    doc = Document(doc_id="d", pages=(page(10),), text="1234 !!")
    trace = classify_document(doc, image_model, text_model, vocab)
    assert trace.p_text is None
    assert trace.w_image is None
    assert trace.fused.probs == pytest.approx(trace.p_image.probs)
    assert trace.predicted == "dark"


def test_classify_document_no_pages_falls_back_to_text():
    image_model, text_model, vocab = tiny_heads()
    doc = Document(doc_id="d", pages=(), text="dim page")
    trace = classify_document(doc, image_model, text_model, vocab)
    assert trace.p_image is None
    assert trace.predicted == "dark"


def test_classify_document_rejects_empty_document():
    image_model, text_model, vocab = tiny_heads()
    with pytest.raises(ValueError, match="neither pages nor text"):
        classify_document(
            Document(doc_id="d", pages=(), text="\n\n"),
            image_model,
            text_model,
            vocab,
        )


def test_page_pooling_is_order_invariant():
    image_model, text_model, vocab = tiny_heads()
    pages = (page(250), page(30), page(128))
    doc_a = Document(doc_id="a", pages=pages, text="bright page")
    doc_b = Document(doc_id="b", pages=pages[::-1], text="bright page")
    trace_a = classify_document(doc_a, image_model, text_model, vocab)
    trace_b = classify_document(doc_b, image_model, text_model, vocab)
    assert trace_a.p_image.probs == pytest.approx(trace_b.p_image.probs, abs=1e-12)


def make_training_docs():
    docs, labels = [], []
    for i in range(6):
        docs.append(
            Document(
                doc_id=f"bright-{i}",
                pages=(page(240 + i),),
                text="bright shiny page here\nvery bright words",
            )
        )
        labels.append("light")
        docs.append(
            Document(
                doc_id=f"dark-{i}",
                pages=(page(10 + i),),
                text="dim gloomy page here\nvery dim words",
            )
        )
        labels.append("dark")
    return docs, labels


def test_ensemble_estimator_fit_predict_save_load(tmp_path):
    docs, labels = make_training_docs()
    model = EnsembleDocumentClassifier(n_range=(1, 2), max_iters=300).fit(docs, labels)
    assert model.predict(docs) == labels
    probs = model.predict_proba(docs[:2])
    assert probs.shape == (2, 2)
    assert probs.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)

    model.save(tmp_path / "bundle")
    restored = EnsembleDocumentClassifier.load(tmp_path / "bundle")
    assert restored.classes_ == model.classes_
    assert restored.predict(docs) == labels
    assert np.array_equal(restored.text_model_.weights_, model.text_model_.weights_)
    trace = restored.classify(docs[0])
    assert trace.predicted == "light"


def test_ensemble_classify_before_fit_raises():
    from rfekit import NotFittedError

    with pytest.raises(NotFittedError):
        EnsembleDocumentClassifier().classify(
            Document(doc_id="x", pages=(), text="words")
        )


@pytest.fixture()
def saved_bundle(tmp_path):
    docs, labels = make_training_docs()
    EnsembleDocumentClassifier(n_range=(1, 2), max_iters=50).fit(docs, labels).save(
        tmp_path / "bundle"
    )
    return tmp_path / "bundle"


def _edit_manifest(bundle, edit):
    path = bundle / "bundle.json"
    manifest = json.loads(path.read_text("utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), "utf-8")


@pytest.mark.parametrize("key", ["files", "classes"])
def test_bundle_missing_key_names_bundle(saved_bundle, key):
    _edit_manifest(saved_bundle, lambda m: m.pop(key))
    with pytest.raises(ValueError, match=f"bundle {re.escape(str(saved_bundle))}.*{key}"):
        EnsembleDocumentClassifier.load(saved_bundle)


def test_bundle_files_missing_entry_names_bundle(saved_bundle):
    _edit_manifest(saved_bundle, lambda m: m["files"].pop("text_model"))
    with pytest.raises(ValueError, match=f"bundle {re.escape(str(saved_bundle))}.*files"):
        EnsembleDocumentClassifier.load(saved_bundle)


@pytest.mark.parametrize("key", ["vocab_sha256", "stopwords_sha256"])
def test_bundle_hash_mismatch_rejected(saved_bundle, key):
    _edit_manifest(saved_bundle, lambda m: m.__setitem__(key, "0" * 64))
    with pytest.raises(ValueError, match=f"bundle {re.escape(str(saved_bundle))}: recorded {key}"):
        EnsembleDocumentClassifier.load(saved_bundle)


def test_bundle_swapped_vocab_rejected(saved_bundle):
    """A vocabulary file replaced by another valid one no longer matches."""
    other = fit_vocab([["some", "other", "words"]], (1, 2))
    (saved_bundle / "vocab.txt").write_bytes(save_vocab(other))
    with pytest.raises(ValueError, match="recorded vocab_sha256"):
        EnsembleDocumentClassifier.load(saved_bundle)

import hashlib
import json
import math
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest

from rfekit import ioutil
from rfekit.classify import SoftmaxClassifier, _payload_digest, load_model, save_model
from rfekit.corpus import load_document, load_manifest
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

from conftest import encode_model_v1

# The bundle.json that the version-1 save wrote for the seed-42 training
# split, and the SHA-256 of that split's vocab.txt.
BUNDLE_V1 = Path(__file__).parent / "data" / "bundle-v1.json"
VOCAB_SHA256_42 = "febaf4a33c285f236275fcd04e7aea85030f09710767fa0494519c6ffcc6fd14"


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


@pytest.mark.parametrize(
    "probs", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0], [0.5, -np.inf]],
    ids=["nan", "all-nan", "inf", "minus-inf"],
)
def test_distribution_refuses_non_finite_probabilities(probs):
    """NaN passes every range and sum comparison; it would then carry zero
    entropy and so the largest fusion weight."""
    with pytest.raises(ValueError, match="not finite"):
        ClassDistribution(("a", "b"), np.array(probs))


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dist(1.5, -0.5), r"outside \[0, 1\]"),
        (lambda: classify_document(
            Document(doc_id="d", pages=(page(245),), text="bright page"),
            tiny_heads()[0],
            SoftmaxClassifier(max_iters=1).fit(np.eye(2), ["light", "other"]),
            tiny_heads()[2],
        ), "disagree on the class set"),
        (lambda: EnsembleDocumentClassifier().fit(
            [Document(doc_id="d", pages=(page(245),), text="bright page")], ["light", "dark"]
        ), "^1 documents but 2 labels$"),
        (lambda: EnsembleDocumentClassifier(n_range=(1,)).fit(
            [Document(doc_id="a", pages=(), text="bright page"),
             Document(doc_id="b", pages=(), text="dim page")], ["light", "dark"]
        ), "no page images"),
    ],
    ids=["probabilities-outside-0-1", "heads-classes-differ", "fit-labels-length",
         "fit-no-page-images"],
)
def test_invalid_distribution_heads_or_training_set_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# FusionTrace.as_record() of the tiny heads' three document kinds, as written
# before one-head traces were built by fuse.
TINY_TRACES = {
    "both": {
        "fused": {"dark": 0.00013856494204203925, "light": 0.9998614350579579},
        "h_image": 0.00039347856065352084, "h_text": 0.06289147547247897,
        "p_image": {"dark": 2.338404820834223e-05, "light": 0.9999766159517917},
        "p_text": {"dark": 0.007382461301482202, "light": 0.9926175386985178},
        "predicted": "light", "w_image": 1000.0, "w_text": 15.900406096174281,
    },
    "image-only": {
        "fused": {"dark": 0.9999831556592116, "light": 1.684434078849471e-05},
        "h_image": 0.000291408096121324, "h_text": None,
        "p_image": {"dark": 0.9999831556592116, "light": 1.684434078849471e-05},
        "p_text": None, "predicted": "dark", "w_image": None, "w_text": None,
    },
    "text-only": {
        "fused": {"dark": 0.9926175386985047, "light": 0.007382461301495218},
        "h_image": None, "h_text": 0.06289147547257112,
        "p_image": None,
        "p_text": {"dark": 0.9926175386985047, "light": 0.007382461301495218},
        "predicted": "dark", "w_image": None, "w_text": None,
    },
}


def _approx_floats(value):
    """``value`` with each float replaced by a near-equality to it: the heads'
    weights may differ in the last bits between BLAS builds."""
    if isinstance(value, dict):
        return {k: _approx_floats(v) for k, v in value.items()}
    if isinstance(value, float):
        return pytest.approx(value, rel=1e-9, abs=1e-15)
    return value


@pytest.mark.parametrize(
    "kind, pages, text",
    [("both", (245,), "bright page"), ("image-only", (10,), "1234 !!"),
     ("text-only", (), "dim page")],
)
def test_fusion_trace_records_are_pinned(kind, pages, text):
    image_model, text_model, vocab = tiny_heads()
    doc = Document(doc_id="d", pages=tuple(page(fill) for fill in pages), text=text)
    trace = classify_document(doc, image_model, text_model, vocab)
    assert trace.as_record() == _approx_floats(TINY_TRACES[kind])
    if kind != "both":
        assert trace.fused is (trace.p_image or trace.p_text)


def test_fuse_needs_a_head():
    with pytest.raises(ValueError, match="both heads are missing"):
        fuse(None, None)


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


@pytest.mark.parametrize("key", ["vocab_sha256"])
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


def test_bundle_vocab_with_crlf_line_endings_rejected(saved_bundle):
    """The recorded hash pins the bytes read, not the parsed vocabulary."""
    path = saved_bundle / "vocab.txt"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(ValueError, match="recorded vocab_sha256 does not match vocab.txt"):
        EnsembleDocumentClassifier.load(saved_bundle)


def test_bundle_with_v1_model_files_loads_and_predicts_the_same(saved_bundle):
    docs, _ = make_training_docs()
    before = EnsembleDocumentClassifier.load(saved_bundle)
    for name, head in (("text-model.json", before.text_model_),
                       ("image-model.json", before.image_model_)):
        (saved_bundle / name).write_bytes(encode_model_v1(head))
    restored = EnsembleDocumentClassifier.load(saved_bundle)
    assert json.loads((saved_bundle / "text-model.json").read_bytes())["version"] == 1
    for old, new in ((before.text_model_, restored.text_model_),
                     (before.image_model_, restored.image_model_)):
        assert new.weights_.tobytes() == old.weights_.tobytes()
    assert np.array_equal(restored.predict_proba(docs), before.predict_proba(docs))


def test_bundle_recording_legacy_learning_rate_loads(saved_bundle):
    """A v1 bundle from gradient-descent training records learning_rate in
    its manifest and both model files; it loads and predicts as before."""
    docs, _ = make_training_docs()
    before = EnsembleDocumentClassifier.load(saved_bundle).predict_proba(docs)
    _edit_manifest(saved_bundle, lambda m: m["params"].update(learning_rate=0.5))
    for name in ("text-model.json", "image-model.json"):
        path = saved_bundle / name
        payload = json.loads(path.read_bytes())
        payload["params"]["learning_rate"] = 0.5
        payload["sha256"] = ""
        payload["sha256"] = _payload_digest(payload)
        path.write_text(json.dumps(payload, sort_keys=True, indent=1), "utf-8")
    restored = EnsembleDocumentClassifier.load(saved_bundle)
    assert "learning_rate" not in restored.get_params()
    assert np.array_equal(restored.predict_proba(docs), before)


def _resign(name, **fields):
    """Set ``fields`` in the bundle's model file ``name`` and re-sign it."""

    def edit(bundle):
        path = bundle / name
        payload = {**json.loads(path.read_bytes()), **fields, "sha256": ""}
        payload["sha256"] = _payload_digest(payload)
        path.write_text(json.dumps(payload), "utf-8")

    return edit


def _resize(name, extra):
    """Give the bundle's head ``name`` ``extra`` more features (fewer when
    negative), the added weights zero, and re-sign it."""

    def edit(bundle):
        path = bundle / name
        head = load_model(path.read_bytes())
        coef = head.weights_[:, :-1]
        coef = np.hstack([coef, np.zeros((len(coef), extra))]) if extra > 0 else coef[:, :extra]
        head.weights_ = np.hstack([coef, head.weights_[:, -1:]])
        head.n_features_ += extra
        path.write_bytes(save_model(head))

    return edit


def _add_class(bundle):
    path = bundle / "text-model.json"
    head = load_model(path.read_bytes())
    head.classes_ += ("x",)
    head.weights_ = np.vstack([head.weights_, head.weights_[:1]])
    path.write_bytes(save_model(head))


def _swap_heads(bundle):
    text, image = bundle / "text-model.json", bundle / "image-model.json"
    data = text.read_bytes()
    text.write_bytes(image.read_bytes())
    image.write_bytes(data)


def _manifest(edit):
    return lambda bundle: _edit_manifest(bundle, edit)


@pytest.mark.parametrize(
    "edit",
    [
        _manifest(lambda m: m["params"].update(bogus=1)),
        _manifest(lambda m: m.__setitem__("params", [1])),
        _manifest(lambda m: m["params"].update(max_iters="x")),
        _manifest(lambda m: m["params"].update(l2=True)),
        _manifest(lambda m: m["params"].update(n_range=[1, "2"])),
        _manifest(lambda m: m["params"].update(n_range=[])),
        _manifest(lambda m: m["params"].update(n_range=[0, 1])),
        _resign("text-model.json", classes="dl"),
        _add_class,
        _resign("text-model.json", classes=["light", "dark"]),
        _resign("image-model.json", classes=["dark", 1]),
        _manifest(lambda m: m.__setitem__("version", "2")),
        _manifest(lambda m: m.__setitem__("version", 3)),
        _manifest(lambda m: m.__setitem__("version", True)),
        _manifest(lambda m: m.__setitem__("version", 2.0)),
        _manifest(lambda m: m.__setitem__("format", "other")),
        lambda bundle: (bundle / "vocab.txt").unlink(),
        lambda bundle: (bundle / "vocab.txt").write_bytes(
            (bundle / "text-model.json").read_bytes()
        ),
        _swap_heads,
    ],
    ids=[
        "unknown-param", "params-not-object", "mistyped-param", "bool-param",
        "n_range-item", "n_range-empty", "n_range-zero", "classes-string",
        "classes-three", "classes-order", "classes-not-strings", "version",
        "version-3", "version-true", "version-float", "format", "files-missing",
        "files-wrong-kind", "files-swapped-heads",
    ],
)
def test_bundle_bad_manifest_raises_value_error_naming_bundle(saved_bundle, edit):
    """A bad bundle.json, or a part that is missing, of the wrong kind, in
    the other head's place, or whose classes differ from the other head's."""
    edit(saved_bundle)
    with pytest.raises(ValueError, match=f"^bundle {re.escape(str(saved_bundle))}: "):
        EnsembleDocumentClassifier.load(saved_bundle)


@pytest.mark.parametrize("extra", [5, -5])
@pytest.mark.parametrize("head, width", [("text-model.json", 18), ("image-model.json", 1024)])
def test_bundle_head_width_not_its_feature_space_rejected(saved_bundle, head, width, extra):
    """A re-signed head with 5 more (zero) or 5 fewer weight columns fails at
    load, naming the bundle, not at the first classify."""
    _resize(head, extra)(saved_bundle)
    match = (f"^bundle {re.escape(str(saved_bundle))}: "
             f"{head}: {width + extra} features, expected {width}$")
    with pytest.raises(ValueError, match=match):
        EnsembleDocumentClassifier.load(saved_bundle)


def _as_v1(manifest, **changes):
    """``manifest`` as the version-1 ``save`` wrote it (part names, featurizer
    tag and stopword hash as in ``BUNDLE_V1``), with ``changes``."""
    v1 = json.loads(BUNDLE_V1.read_bytes())
    manifest.update(
        {key: v1[key] for key in ("version", "files", "featurizer", "stopwords_sha256")},
        classes=["dark", "light"],
    )
    manifest.update(changes)


@pytest.mark.parametrize(
    "changes",
    [
        {"stopwords_sha256": "0" * 64},
        {"classes": ["x"], "featurizer": "other"},
        {"files": {"vocabulary": "../vocab.txt", "text_model": "image-model.json",
                   "image_model": "../text-model.json"}},
    ],
    ids=["other-stopwords", "other-classes-and-featurizer", "files-outside"],
)
def test_v1_bundle_loads_ignoring_its_extra_keys(saved_bundle, changes):
    """Version 1 recorded classes, part names, a featurizer tag and the
    stopword list's hash; load ignores all four. So a stopword edit no longer
    makes a trained bundle unloadable, and a ``files`` map naming a readable
    vocabulary outside the bundle, or swapping the heads, is not followed."""
    outside = saved_bundle.parent / "vocab.txt"
    outside.write_bytes(save_vocab(fit_vocab([["some", "other", "words"]], (1, 2))))
    docs, _ = make_training_docs()
    before = EnsembleDocumentClassifier.load(saved_bundle).predict_proba(docs)
    _edit_manifest(saved_bundle, lambda m: _as_v1(m, **changes))
    assert np.array_equal(EnsembleDocumentClassifier.load(saved_bundle).predict_proba(docs), before)


@pytest.mark.parametrize(
    "name", ["../vocab.txt", "absolute", "sub/vocab.txt", "./vocab.txt", "..", ".", "", 7]
)
def test_bundle_files_must_be_bare_names(saved_bundle, name):
    """A v1 ``files`` map pointing at another readable vocabulary outside the
    bundle, in a subdirectory or behind a relative path is not followed: the
    part is read from its bare name in the bundle."""
    other = save_vocab(fit_vocab([["some", "other", "words"]], (1, 2)))
    outside = saved_bundle.parent / "vocab.txt"
    outside.write_bytes(other)
    (saved_bundle / "sub").mkdir()
    (saved_bundle / "sub" / "vocab.txt").write_bytes(other)
    docs, _ = make_training_docs()
    before = EnsembleDocumentClassifier.load(saved_bundle).predict_proba(docs)
    files = {"vocabulary": str(outside) if name == "absolute" else name,
             "text_model": "text-model.json", "image_model": "image-model.json"}
    _edit_manifest(saved_bundle, lambda m: _as_v1(m, files=files))
    assert np.array_equal(EnsembleDocumentClassifier.load(saved_bundle).predict_proba(docs), before)


def test_bundle_files_missing_entry_names_bundle(saved_bundle):
    """A bundle lacking one of its fixed parts fails naming the bundle and
    the part."""
    (saved_bundle / "text-model.json").unlink()
    path = re.escape(str(saved_bundle / "text-model.json"))
    match = f"^bundle {re.escape(str(saved_bundle))}: cannot read bundle part {path}: "
    with pytest.raises(ValueError, match=match):
        EnsembleDocumentClassifier.load(saved_bundle)


def test_bundle_json_records_each_fact_once(saved_bundle):
    manifest = json.loads((saved_bundle / "bundle.json").read_bytes())
    assert sorted(manifest) == ["format", "params", "version", "vocab_sha256"]
    assert manifest["version"] == 2
    assert manifest["vocab_sha256"] == hashlib.sha256(
        (saved_bundle / "vocab.txt").read_bytes()
    ).hexdigest()


def test_v1_bundle_json_loads_beside_fresh_seed_42_parts(corpus_42, tmp_path):
    """``data/bundle-v1.json`` is the bundle.json that the version-1 ``save``
    wrote for the seed-42 training split; beside parts trained now it loads
    and predicts exactly as the fresh bundle does."""
    root, manifest = corpus_42
    train = [r for r in manifest["documents"] if r["split"] == "train"]
    test = [load_document(root, r) for r in manifest["documents"] if r["split"] == "test"]
    model = EnsembleDocumentClassifier().fit(
        [load_document(root, r) for r in train], [r["label"] for r in train]
    )
    model.save(tmp_path / "bundle")
    v1 = BUNDLE_V1.read_bytes()
    assert json.loads(v1)["vocab_sha256"] == VOCAB_SHA256_42
    assert model.text_model_.vocab_hash_ == VOCAB_SHA256_42
    (tmp_path / "bundle" / "bundle.json").write_bytes(v1)
    restored = EnsembleDocumentClassifier.load(tmp_path / "bundle")
    assert restored.get_params() == model.get_params()
    assert np.array_equal(restored.predict_proba(test), model.predict_proba(test))


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", b"{not json", b"", b"[" * 100_000],
    ids=["not-utf-8", "not-json", "empty", "deep"],
)
def test_bundle_unreadable_manifest_names_bundle(saved_bundle, data):
    (saved_bundle / "bundle.json").write_bytes(data)
    match = f"^bundle {re.escape(str(saved_bundle))}: unreadable bundle.json"
    with pytest.raises(ValueError, match=match):
        EnsembleDocumentClassifier.load(saved_bundle)


def test_bundle_loads_then_saves_byte_identical(saved_bundle, tmp_path):
    """The loaded bundle keeps the vocabulary bytes it read and hashed."""
    copy = tmp_path / "copy"
    EnsembleDocumentClassifier.load(saved_bundle).save(copy)
    names = sorted(p.name for p in saved_bundle.iterdir())
    assert names == ["bundle.json", "image-model.json", "text-model.json", "vocab.txt"]
    assert sorted(p.name for p in copy.iterdir()) == names
    for name in names:
        assert (copy / name).read_bytes() == (saved_bundle / name).read_bytes()


@pytest.mark.parametrize("failing", range(4))
def test_bundle_save_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, failing):
    """Each file is written through a temp file and renamed, bundle.json
    last; a failed rename removes its temp file and earlier files stay whole."""
    docs, labels = make_training_docs()
    model = EnsembleDocumentClassifier(n_range=(1, 2), max_iters=50).fit(docs, labels)
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        if len(renamed) == failing:
            raise OSError("disk full")
        renamed.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(ioutil.os, "replace", replace)
    bundle = tmp_path / "bundle"
    with pytest.raises(OSError, match="disk full"):
        model.save(bundle)
    order = ["vocab.txt", "text-model.json", "image-model.json", "bundle.json"]
    assert renamed == order[:failing]
    assert not list(bundle.glob("*.tmp"))
    assert sorted(p.name for p in bundle.iterdir()) == sorted(order[:failing])


# data/three-class-corpus.json adds a denial-notice class that shares the
# approval layout, so the page images alone cannot tell the two apart.
THREE_CLASS_CONFIG = Path(__file__).parent / "data" / "three-class-corpus.json"
# Test-split documents (10 per class) that each head gets right, trained at
# --seed 42 --noise 0.5. Every head's top two probabilities are at least
# 3.8e-4 apart on every document, far above round-off.
THREE_CLASS_CORRECT = {
    "fused": {"approval-notice": 8, "receipt-notice": 10, "denial-notice": 8},
    "p_image": {"approval-notice": 8, "receipt-notice": 10, "denial-notice": 7},
    "p_text": {"approval-notice": 7, "receipt-notice": 3, "denial-notice": 7},
}


def test_three_class_corpus_pins_each_heads_correct_counts(tmp_path):
    """On the default corpus each head alone is perfect and the image head
    holds over 0.99 of the fusion weight, so a broken text head cannot show.
    Here the heads differ, and fusion beats either one."""
    from rfekit.cli import run

    corpus, bundle = tmp_path / "corpus", tmp_path / "bundle"
    assert run(["gen-corpus", "--config", str(THREE_CLASS_CONFIG), "--seed", "42",
                "--noise", "0.5", "--out", str(corpus)]) == 0
    assert run(["train-docs", "--corpus", str(corpus), "--out", str(bundle)]) == 0
    model = EnsembleDocumentClassifier.load(bundle)
    correct = {head: dict.fromkeys(counts, 0) for head, counts in THREE_CLASS_CORRECT.items()}
    for record in load_manifest(corpus)["documents"]:
        if record["split"] != "test":
            continue
        trace = model.classify(load_document(corpus, record))
        for head in correct:
            correct[head][record["label"]] += (
                getattr(trace, head).argmax_label() == record["label"]
            )
    assert correct == THREE_CLASS_CORRECT

"""Entropy-weighted fusion of the image and text document classifiers.

Each head emits a probability distribution over the document classes; a head's
confidence is the reciprocal of that distribution's Shannon entropy in bits
(clamped at 0.001 to avoid division by zero, so a one-hot head gets weight
1000). The fused distribution is the confidence-weighted average, and the
whole computation is returned as an auditable trace.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._base import ParamsMixin, check_is_fitted
from .classify import (
    _PARAM_TYPES,
    CooMatrix,
    SoftmaxClassifier,
    check_params,
    load_model,
    save_model,
)
from .image import FEATURE_DIM, PageImage, featurizer_sha256, image_features
from .ioutil import atomic_write_bytes, atomic_write_json, read_bytes, read_json
from .text import normalize, tokenize
from .vectorize import (
    Vocabulary,
    fit_tfidf,
    load_vocab,
    save_vocab,
    stack_dense,
    tfidf_vector,
)

ENTROPY_EPSILON = 0.001

BUNDLE_MAGIC = "doc-ensemble-bundle"
BUNDLE_VERSION = 2
# The part files of every bundle. A version-1 bundle.json also names them in
# a "files" map, which load ignores.
_BUNDLE_FILES = {
    "vocabulary": "vocab.txt",
    "text_model": "text-model.json",
    "image_model": "image-model.json",
}
_BUNDLE_PARAM_TYPES = {"n_range": [int], **_PARAM_TYPES}


@dataclass(frozen=True)
class ClassDistribution:
    """Probabilities over a fixed, ordered class set; sums to 1."""

    classes: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        if len(self.classes) != len(self.probs):
            raise ValueError("classes and probabilities differ in length")
        if not np.all(np.isfinite(self.probs)):  # NaN passes every comparison
            raise ValueError(f"probabilities not finite: {self.probs}")
        if np.any(self.probs < -1e-12) or np.any(self.probs > 1 + 1e-12):
            raise ValueError("probabilities outside [0, 1]")
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")

    def argmax_label(self) -> str:
        """Highest-probability class; ties resolve to the earliest class."""
        return self.classes[int(np.argmax(self.probs))]

    def as_dict(self) -> dict[str, float]:
        return {c: float(p) for c, p in zip(self.classes, self.probs)}


@dataclass(frozen=True)
class Document:
    """Classification subject: page images plus extracted text."""

    doc_id: str
    pages: tuple[PageImage, ...]
    text: str


@dataclass(frozen=True)
class FusionTrace:
    """Full record of one fused prediction, kept for auditability.

    When a document lacks one branch (no pages, or text with no tokens) the
    missing side's fields are None and ``fused`` is the surviving branch.
    """

    p_image: ClassDistribution | None
    p_text: ClassDistribution | None
    h_image: float | None
    h_text: float | None
    w_image: float | None
    w_text: float | None
    fused: ClassDistribution
    predicted: str

    def as_record(self) -> dict:
        return {
            "predicted": self.predicted,
            "fused": self.fused.as_dict(),
            "p_image": self.p_image.as_dict() if self.p_image else None,
            "p_text": self.p_text.as_dict() if self.p_text else None,
            "h_image": self.h_image,
            "h_text": self.h_text,
            "w_image": self.w_image,
            "w_text": self.w_text,
        }


def entropy(dist: ClassDistribution) -> float:
    """Shannon entropy in bits, with 0*lg(0) = 0; lies in [0, lg|C|]."""
    return float(-sum(p * math.log2(p) for p in dist.probs if p > 0.0))


def confidence(h: float) -> float:
    """Reciprocal entropy, clamped: ``1 / max(h, 0.001)``."""
    if h < 0:
        raise ValueError(f"entropy cannot be negative, got {h}")
    return 1.0 / max(h, ENTROPY_EPSILON)


def fuse(p_image: ClassDistribution | None, p_text: ClassDistribution | None) -> FusionTrace:
    """Confidence-weighted average of the two head distributions.

    A missing head (``None``) leaves the other as the fused distribution, as
    is, with both weights ``None``; both missing is an error.
    """
    h_image = None if p_image is None else entropy(p_image)
    h_text = None if p_text is None else entropy(p_text)
    if p_image is None or p_text is None:
        fused = p_text if p_image is None else p_image
        if fused is None:
            raise ValueError("nothing to fuse: both heads are missing")
        w_image = w_text = None
    else:
        if p_image.classes != p_text.classes:
            raise ValueError(
                f"class sets differ: {p_image.classes} vs {p_text.classes}"
            )
        w_image, w_text = confidence(h_image), confidence(h_text)
        fused_probs = (w_image * p_image.probs + w_text * p_text.probs) / (
            w_image + w_text
        )
        fused = ClassDistribution(p_image.classes, fused_probs / fused_probs.sum())
    return FusionTrace(
        p_image=p_image,
        p_text=p_text,
        h_image=h_image,
        h_text=h_text,
        w_image=w_image,
        w_text=w_text,
        fused=fused,
        predicted=fused.argmax_label(),
    )


def document_tokens(text: str) -> list[str]:
    """Tokenization used by the document text head: normalize + whitespace split.

    Stopwords are kept here on purpose; only attack detection removes them.
    """
    return tokenize(normalize(text))


def classify_document(
    doc: Document,
    image_model: SoftmaxClassifier,
    text_model: SoftmaxClassifier,
    vocab: Vocabulary,
) -> FusionTrace:
    """Fuse per-page image predictions with the whole-document text prediction.

    The image branch averages the per-page distributions (renormalized); the
    text branch vectorizes the full document. A document missing one branch
    falls back to the other alone; a document with neither is an error.
    """
    classes = tuple(text_model.classes_)
    if classes != tuple(image_model.classes_):
        raise ValueError("image and text models disagree on the class set")

    p_image = None
    if doc.pages:
        page_probs = image_model.predict_proba(
            np.array([image_features(page) for page in doc.pages])
        )
        pooled = page_probs.mean(axis=0)
        p_image = ClassDistribution(classes, pooled / pooled.sum())

    p_text = None
    tokens = document_tokens(doc.text)
    if tokens:
        X = stack_dense([tfidf_vector(tokens, vocab)], vocab.size)
        p_text = ClassDistribution(classes, text_model.predict_proba(X)[0])

    if p_image is None and p_text is None:
        raise ValueError(f"document {doc.doc_id!r} has neither pages nor text")
    return fuse(p_image, p_text)


class EnsembleDocumentClassifier(ParamsMixin):
    """End-to-end document classifier: grid-image head + TF-IDF text head.

    fit() trains both heads from labeled documents (the image head sees every
    page, labeled with its document's class; the text head sees one TF-IDF
    vector per document over 2- and 3-grams by default). predict() fuses the
    heads per document with entropy weighting.
    """

    def __init__(self, n_range=(2, 3), l2=1e-3, max_iters=2000, grad_tol=1e-6):
        self.n_range = n_range
        self.l2 = l2
        self.max_iters = max_iters
        self.grad_tol = grad_tol

    def _head(self) -> SoftmaxClassifier:
        return SoftmaxClassifier(
            l2=self.l2, max_iters=self.max_iters, grad_tol=self.grad_tol
        )

    def fit(self, docs, labels):
        docs, labels = list(docs), list(labels)
        if len(docs) != len(labels):
            raise ValueError(f"{len(docs)} documents but {len(labels)} labels")
        self.classes_ = tuple(sorted(set(labels)))

        token_docs = [document_tokens(d.text) for d in docs]
        self.vocabulary_, (row, col, value) = fit_tfidf(token_docs, self.n_range)
        self.vocab_bytes_ = save_vocab(self.vocabulary_)
        self.text_model_ = self._head().fit(
            CooMatrix(row, col, value, (len(docs), self.vocabulary_.size)),
            labels,
            classes=self.classes_,
            feature_kind="sparse",
            vocab_hash=hashlib.sha256(self.vocab_bytes_).hexdigest(),
        )

        pages, page_labels = [], []
        for doc, label in zip(docs, labels):
            pages.extend(doc.pages)
            page_labels.extend([label] * len(doc.pages))
        if not pages:
            raise ValueError("no page images in the training documents")
        self.image_model_ = self._head().fit(
            np.array([image_features(page) for page in pages]),
            page_labels,
            classes=self.classes_,
            feature_kind="dense",
            vocab_hash=featurizer_sha256(),
        )
        return self

    def classify(self, doc: Document) -> FusionTrace:
        check_is_fitted(self, "text_model_")
        return classify_document(
            doc, self.image_model_, self.text_model_, self.vocabulary_
        )

    def predict(self, docs) -> list[str]:
        return [self.classify(d).predicted for d in docs]

    def predict_proba(self, docs) -> np.ndarray:
        return np.array([self.classify(d).fused.probs for d in docs])

    def save(self, bundle_dir) -> None:
        """Write vocab + both heads, then the bundle manifest, into ``bundle_dir``.

        Each file is written atomically and ``bundle.json`` last. The bundle as
        a whole is not crash-consistent: a crash between two files can leave
        new parts beside the old manifest.
        """
        check_is_fitted(self, "text_model_")
        bundle_dir = Path(bundle_dir)
        parts = {
            "vocabulary": self.vocab_bytes_,
            "text_model": save_model(self.text_model_),
            "image_model": save_model(self.image_model_),
        }
        for part, data in parts.items():
            atomic_write_bytes(bundle_dir / _BUNDLE_FILES[part], data)
        manifest = {
            "format": BUNDLE_MAGIC,
            "version": BUNDLE_VERSION,
            "params": self.get_params(),
            "vocab_sha256": self.text_model_.vocab_hash_,
        }
        atomic_write_json(bundle_dir / "bundle.json", manifest)

    @classmethod
    def load(cls, bundle_dir) -> "EnsembleDocumentClassifier":
        """Read a :meth:`save` bundle; a malformed or inconsistent one raises
        ``ValueError`` naming the bundle.

        ``bundle.json`` must be UTF-8 JSON of version 1 or 2, and its
        ``params`` an object of known params of the right types. The parts
        are always read from the names in ``_BUNDLE_FILES``; the other keys a
        version-1 file records (``classes``, ``files``, ``featurizer``,
        ``stopwords_sha256``) are ignored. The recorded ``vocab_sha256`` must
        match the bytes of the vocabulary file, each head's ``vocab_hash``
        and width its feature space, and the two heads' classes each other.
        """
        bundle_dir = Path(bundle_dir)

        def invalid(reason: str) -> ValueError:
            return ValueError(f"bundle {bundle_dir}: {reason}")

        data = read_bytes(bundle_dir / "bundle.json", invalid, "bundle.json")
        manifest = read_json(data, invalid, "bundle.json", BUNDLE_MAGIC, (1, BUNDLE_VERSION))
        params = check_params(manifest.get("params", {}), invalid, _BUNDLE_PARAM_TYPES)
        if "n_range" in params:
            n_range = params["n_range"]
            if not (n_range and min(n_range) >= 1):
                raise invalid(f"param 'n_range' has a bad value {n_range!r}")
            params["n_range"] = tuple(n_range)

        def read(part, load, **kwargs):
            name = _BUNDLE_FILES[part]
            data = read_bytes(bundle_dir / name, invalid, "bundle part")
            try:
                return load(data, **kwargs)
            except ValueError as exc:
                raise invalid(f"{name}: {exc}") from exc

        def read_head(part, vocab_hash, width):
            head = read(part, load_model, expected_vocab_hash=vocab_hash)
            if head.n_features_ != width:
                raise invalid(
                    f"{_BUNDLE_FILES[part]}: {head.n_features_} features, expected {width}"
                )
            return head

        est = cls(**params)
        est.vocab_bytes_, est.vocabulary_ = read("vocabulary", lambda b: (b, load_vocab(b)))
        vocab_hash = hashlib.sha256(est.vocab_bytes_).hexdigest()
        if manifest.get("vocab_sha256") != vocab_hash:
            raise invalid(f"recorded vocab_sha256 does not match {_BUNDLE_FILES['vocabulary']}")
        est.text_model_ = read_head("text_model", vocab_hash, est.vocabulary_.size)
        est.image_model_ = read_head("image_model", featurizer_sha256(), FEATURE_DIM)
        if est.text_model_.classes_ != est.image_model_.classes_:
            raise invalid("the two heads' classes differ")
        est.classes_ = est.text_model_.classes_
        return est

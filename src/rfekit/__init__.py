"""rfekit: supporting-document classification, RFE attack detection, and
response drafting for immigration casework, with a seeded synthetic corpus
for end-to-end evaluation."""

from ._base import NotFittedError
from .attacks import (
    AttackReport,
    AttackType,
    ExampleBank,
    detect_attacks,
    detect_rfe,
    detect_rfes,
    load_bank,
    similarity_matrix,
)
from .classify import SoftmaxClassifier, load_model, save_model
from .corpus import CorpusConfig, SeededRng, generate_corpus, paraphrase_sentence
from .drafting import (
    BeneficiaryRecord,
    BeneficiaryStore,
    ResponseDraft,
    RfeFields,
    Template,
    draft_response,
    extract_fields,
    load_template_library,
    select_templates,
)
from .ensemble import (
    ClassDistribution,
    Document,
    EnsembleDocumentClassifier,
    FusionTrace,
    classify_document,
    confidence,
    entropy,
    fuse,
)
from .evaluation import ConfusionCounts, Metrics, evaluate_attacks, evaluate_documents, metrics
from .image import PageImage, decode_pgm, image_features
from .text import clean_tokens, load_stopwords, normalize, split_sentences, tokenize
from .vectorize import (
    Vocabulary,
    cosine,
    fit_tfidf,
    fit_vocab,
    ngrams,
    stack_dense,
    tfidf_vector,
)

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "AttackType",
    "BeneficiaryRecord",
    "BeneficiaryStore",
    "ClassDistribution",
    "ConfusionCounts",
    "CorpusConfig",
    "Document",
    "EnsembleDocumentClassifier",
    "ExampleBank",
    "FusionTrace",
    "Metrics",
    "NotFittedError",
    "PageImage",
    "ResponseDraft",
    "RfeFields",
    "SeededRng",
    "SoftmaxClassifier",
    "Template",
    "Vocabulary",
    "classify_document",
    "clean_tokens",
    "confidence",
    "cosine",
    "decode_pgm",
    "detect_attacks",
    "detect_rfe",
    "detect_rfes",
    "draft_response",
    "entropy",
    "evaluate_attacks",
    "evaluate_documents",
    "extract_fields",
    "fit_tfidf",
    "fit_vocab",
    "fuse",
    "generate_corpus",
    "image_features",
    "load_bank",
    "load_model",
    "load_stopwords",
    "load_template_library",
    "metrics",
    "ngrams",
    "normalize",
    "paraphrase_sentence",
    "save_model",
    "select_templates",
    "similarity_matrix",
    "split_sentences",
    "stack_dense",
    "tfidf_vector",
    "tokenize",
]

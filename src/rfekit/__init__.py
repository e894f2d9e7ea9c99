"""rfekit: supporting-document classification, RFE attack detection, and
response drafting for immigration casework, with a seeded synthetic corpus
for end-to-end evaluation."""

import importlib

__version__ = "0.1.0"

# The module that defines each public name. Names resolve on first use
# (PEP 562), so ``import rfekit`` loads no submodule, and a detect or a draft
# never imports numpy or the training modules.
_EXPORTS = {
    "_base": ("NotFittedError",),
    "attacks": (
        "AttackReport", "AttackType", "ExampleBank", "detect_attacks",
        "detect_rfe", "detect_rfes", "load_bank", "similarity_matrix",
    ),
    "classify": ("SoftmaxClassifier", "load_model", "save_model"),
    "corpus": ("CorpusConfig", "SeededRng", "generate_corpus", "paraphrase_sentence"),
    "drafting": (
        "BeneficiaryRecord", "BeneficiaryStore", "ResponseDraft", "RfeFields",
        "Template", "draft_response", "extract_fields", "load_template_library",
        "select_templates",
    ),
    "ensemble": (
        "ClassDistribution", "Document", "EnsembleDocumentClassifier",
        "FusionTrace", "classify_document", "confidence", "entropy", "fuse",
    ),
    "evaluation": (
        "ConfusionCounts", "Metrics", "evaluate_attacks", "evaluate_documents",
        "metrics",
    ),
    "image": ("PageImage", "decode_pgm", "image_features"),
    "text": (
        "clean_tokens", "load_stopwords", "normalize", "split_sentences",
        "tokenize",
    ),
    "vectorize": (
        "Vocabulary", "cosine", "fit_tfidf", "fit_vocab", "ngrams",
        "stack_dense", "tfidf_vector",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Looked up afresh on every access, never cached here, so the name always
    # reads what its module holds now.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

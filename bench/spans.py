"""In-memory span tracer that wraps rfekit's public functions from outside.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install` replaces
each listed function with a timing wrapper under every name a caller looks it
up by (``rfekit.cli`` imports ``load_bank`` by name, ``_cmd_detect`` imports
``similarity_matrix`` at call time from ``rfekit.attacks``, and so on), and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent index, request id, error type]``. Span
names are ``<layer>.<step>`` with the layer being the rfekit module the step
belongs to. Self time is a span's duration minus the time its child spans
cover; the program is single-threaded, so children of one span never overlap
and that covered time is the sum of their durations.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import re
import time
from collections import Counter, defaultdict
from pathlib import Path

_CASE_NUMBER = re.compile(r"^Case Number:[ \t]*(\S+)", re.MULTILINE)


class Tracer:
    def __init__(self, rfe_ids_by_case: dict[str, str] | None = None):
        self.spans: list[list] = []
        self.request: str | None = None
        self.counts: Counter = Counter()
        self.vocab_size = 0  # largest vocabulary fitted or loaded
        self.store_records = 0  # largest beneficiary store loaded
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._modules: list = []
        self.rfe_ids_by_case = rfe_ids_by_case or {}
        # Request id of each sentence list and similarity matrix in flight, so
        # a batch detect's scoring spans carry the RFE their input came from.
        self.owners: dict[int, str | None] = {}

    # --- recording -------------------------------------------------------

    def _wrap(self, name, fn, on_call=None, on_result=None):
        """Span-recording wrapper around ``fn``.

        ``on_call(tracer, args, kwargs)`` may return the request id of the
        work the call is for; it holds for the span and its children.
        ``on_result(tracer, result, request)`` counts work at the boundary.
        """
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            outer = self.request
            if on_call is not None:
                self.request = on_call(self, args, kwargs) or outer
            label = name(args, kwargs) if callable(name) else name
            span = [label, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
                self.request = outer
            if on_result is not None:
                on_result(self, result, span[4])
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _function(self, module, attr, name, on_call=None, on_result=None):
        """Wrap ``module.attr`` under every rfekit module name bound to it."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, on_call, on_result)
        for mod in self._modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def _method(self, cls, attr, name, on_call=None, on_result=None):
        descriptor = vars(cls)[attr]
        if isinstance(descriptor, classmethod):
            traced = classmethod(
                self._wrap(name, descriptor.__func__, on_call, on_result)
            )
        else:
            traced = self._wrap(name, descriptor, on_call, on_result)
        self._patch(cls, attr, traced)

    def install(self) -> None:
        import rfekit

        self._modules = [rfekit] + [
            importlib.import_module(f"rfekit.{m.name}")
            for m in pkgutil.iter_modules(rfekit.__path__)
            if m.name != "__main__"
        ]
        from rfekit import attacks, classify, cli, corpus, drafting, ensemble
        from rfekit import image, ioutil, text, vectorize

        f, m = self._function, self._method
        f(cli, "run", "cli.run", on_call=_op_request)
        f(cli, "build_parser", "cli.parse", on_result=_trace_parse_args)
        f(corpus, "load_manifest", "corpus.load_manifest")
        f(corpus, "load_document", "corpus.load_document", on_call=_doc_request)
        f(image, "read_pgm", "image.decode")
        f(image, "decode_pgm", "image.decode")
        f(image, "image_features", "image.featurize")
        f(ensemble, "document_tokens", "text.doc_tokens")
        f(text, "split_sentences", "text.split", on_call=_rfe_request,
          on_result=_count_sentences)
        f(vectorize, "fit_vocab", "vectorize.fit_vocab", on_result=_vocab_size)
        f(vectorize, "tfidf_vector", "vectorize.tfidf")
        f(vectorize, "stack_dense", "vectorize.densify")
        m(classify.SoftmaxClassifier, "fit", _fit_name)
        f(classify, "save_model", "classify.save_model")
        m(ensemble.EnsembleDocumentClassifier, "save", "ensemble.bundle_save")
        f(attacks, "load_bank", "attacks.load_bank")
        f(attacks, "similarity_matrix", "attacks.similarity", on_call=_owner_request,
          on_result=_count_pairs)
        f(attacks, "detect_attacks", "attacks.detect", on_call=_owner_request,
          on_result=_count_evidence)
        m(drafting.BeneficiaryStore, "load", "drafting.store_load",
          on_result=_store_records)
        f(drafting, "load_template_library", "drafting.templates_load")
        f(drafting, "draft_response", "drafting.draft", on_result=_draft_status)
        f(drafting, "extract_fields", "drafting.extract")
        f(drafting, "render_with_markers", "drafting.fill")
        f(ioutil, "atomic_write_bytes", "ioutil.write", on_call=_count_write)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- reporting -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
            calls[name] += 1
        return totals, calls

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, keyed by the names BENCHMARK.json lists."""
        own, calls = self.self_times()
        counts = self.counts
        refused = sum(1 for s in self.spans
                      if s[0] == "drafting.draft" and s[5] == "DraftingError")
        pages = calls["image.featurize"]
        pairs = counts["attacks.pairs"]
        return {
            "corpus.load_docs_s": own["corpus.load_document"] + own["corpus.load_manifest"],
            "corpus.docs": calls["corpus.load_document"],
            "image.decode_s": own["image.decode"],
            "image.pages": pages,
            "image.featurize_s": own["image.featurize"],
            "image.featurize_ms_per_page": _ratio(1e3 * own["image.featurize"], pages),
            "text.doc_tokens_s": own["text.doc_tokens"],
            "text.split_s": own["text.split"],
            "text.sentences": counts["text.sentences"],
            "vectorize.fit_vocab_s": own["vectorize.fit_vocab"],
            "vectorize.vocab_size": self.vocab_size,
            "vectorize.tfidf_s": own["vectorize.tfidf"],
            "vectorize.tfidf_calls": calls["vectorize.tfidf"],
            "vectorize.densify_s": own["vectorize.densify"],
            "classify.fit_text_s": own["classify.fit_text"],
            "classify.fit_image_s": own["classify.fit_image"],
            "classify.save_model_s": own["classify.save_model"],
            "ensemble.bundle_save_s": own["ensemble.bundle_save"],
            "attacks.load_bank_s": own["attacks.load_bank"],
            "attacks.load_bank_calls": calls["attacks.load_bank"],
            "attacks.similarity_s": own["attacks.similarity"],
            "attacks.pairs": pairs,
            "attacks.similarity_us_per_pair": _ratio(1e6 * own["attacks.similarity"], pairs),
            "attacks.detect_s": own["attacks.detect"],
            "attacks.evidence_ratio": _ratio(counts["attacks.evidence"], pairs),
            "drafting.store_load_s": own["drafting.store_load"],
            "drafting.store_records": self.store_records,
            "drafting.templates_load_s": own["drafting.templates_load"],
            "drafting.extract_s": own["drafting.extract"],
            "drafting.fill_s": own["drafting.fill"],
            "drafting.drafts_complete": counts["drafting.complete"],
            "drafting.drafts_incomplete": counts["drafting.incomplete"],
            "drafting.drafts_refused": refused,
            "cli.parse_s": own["cli.parse"],
            "cli.run_self_s": own["cli.run"],
            "ioutil.write_s": own["ioutil.write"],
            "ioutil.files_written": counts["ioutil.files"],
            "ioutil.bytes_written": counts["ioutil.bytes"],
            "trace.spans": len(self.spans),
        }

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_s": start - origin,
                    "end_s": end - origin, "parent": parent,
                    "request": request, "error": error,
                }) + "\n")


def _ratio(numerator: float, base: float) -> float:
    """numerator / base, reported as 0 when the layer saw no work (base 0)."""
    return numerator / base if base else 0.0


# --- hooks: request ids and counters at the layer boundaries --------------

def _op_request(tracer, args, kwargs):
    """A draft call is one RFE's request; a batch command is its own."""
    argv = list(args[0] if args else kwargs["argv"])
    if argv[:1] == ["draft"] and "--input" in argv:
        return Path(argv[argv.index("--input") + 1]).stem
    return argv[0] if argv else None


def _doc_request(tracer, args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["doc_record"])["id"]


def _rfe_request(tracer, args, kwargs):
    match = _CASE_NUMBER.search(args[0] if args else kwargs["text"])
    return tracer.rfe_ids_by_case.get(match.group(1)) if match else None


def _owner_request(tracer, args, kwargs):
    first = args[0] if args else next(iter(kwargs.values()))
    return tracer.owners.pop(id(first), None)


def _trace_parse_args(tracer, parser, request):
    parser.parse_args = tracer._wrap("cli.parse", parser.parse_args)


def _count_sentences(tracer, sentences, request):
    tracer.counts["text.sentences"] += len(sentences)
    tracer.owners[id(sentences)] = request


def _vocab_size(tracer, vocab, request):
    tracer.vocab_size = max(tracer.vocab_size, vocab.size)


def _fit_name(args, kwargs):
    return "classify.fit_text" if kwargs.get("feature_kind") == "sparse" else "classify.fit_image"


def _count_pairs(tracer, matrix, request):
    tracer.counts["attacks.pairs"] += matrix.size
    tracer.owners[id(matrix)] = request


def _count_evidence(tracer, report, request):
    tracer.counts["attacks.evidence"] += len(report.evidence)


def _store_records(tracer, store, request):
    tracer.store_records = max(tracer.store_records, len(store))


def _draft_status(tracer, draft, request):
    tracer.counts[f"drafting.{draft.manifest.status}"] += 1


def _count_write(tracer, args, kwargs):
    tracer.counts["ioutil.files"] += 1
    tracer.counts["ioutil.bytes"] += len(args[1] if len(args) > 1 else kwargs["data"])

"""Command-line entry point wiring the library into end-to-end workflows.

Subcommands: gen-corpus, train-docs, classify, detect, draft, eval-docs,
eval-attacks. Exit codes: 0 success, 1 runtime failure (diagnostic on
stderr), 2 usage error. Option precedence is flags > --config file >
built-in defaults, and every run echoes its effective configuration (with a
content hash) to stderr before doing anything else.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict
from datetime import date
from pathlib import Path

from .attacks import DEFAULT_TAU, detect_rfes, load_bank
from .drafting import (
    BeneficiaryStore,
    StoreFormatError,
    draft_response,
    extract_fields,
    load_field_patterns,
    load_template_library,
)
from .ioutil import (atomic_write_json, atomic_write_text, is_bare_file_name, read_bytes,
                     read_json, read_text)

# A handler imports what only it uses (rfekit.corpus, .ensemble, .evaluation,
# shutil) when it runs, so detect and draft never import numpy or the
# training code.


class UsageError(Exception):
    """Bad invocation detected after argparse (e.g. config file contents)."""


def _number_value(name: str, convert, rule: str, valid):
    """The converter of a number option whose value must pass ``valid``, so an
    out-of-range value is a usage error before any work."""

    def value(text: str):
        try:
            if valid(number := convert(text)):
                return number
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {text!r}")

    value.number = convert  # a JSON number is accepted from --config
    return value


def _date_value(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid date {text!r} (want YYYY-MM-DD)"
        ) from None


def _ngrams_value(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid n-gram list {text!r}") from None
    if not values or any(n < 1 for n in values):
        raise argparse.ArgumentTypeError("n-gram sizes must be >= 1")
    return values


def _choice_value(*choices: str):
    def convert(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(f"{text!r} is not one of {', '.join(choices)}")
        return text

    convert.choices = choices  # listed in --help
    return convert


# The converter of each option's text: argparse applies it to the flag, and
# _config_value to the --config value.
_OPTION_TYPES = {
    "seed": int, "docs_per_class": int, "n_rfes": int,
    "ocr_noise_rate": float, "train_fraction": float,
    "channel": _choice_value("ocr", "clean"), "split": _choice_value("train", "test", "all"),
    "ngrams": _ngrams_value,
    "l2": _number_value("l2", float, "a finite number >= 0", lambda v: 0.0 <= v < math.inf),
    "max_iters": _number_value("max_iters", int, "an integer >= 0", lambda v: v >= 0),
    "grad_tol": _number_value("grad_tol", float, "a number >= 0", lambda v: v >= 0.0),
    "tau": _number_value("tau", float, "a number in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "today": _date_value,
}


def _config_value(key: str, value):
    """A --config value under its flag's rule: the flag's text, a JSON number
    for a number option (not ``true``/``false``) or a list of integers for
    ``ngrams``, put through the flag's converter."""
    convert = _OPTION_TYPES.get(key)
    if convert is None:
        return value
    if convert is _ngrams_value and isinstance(value, list):
        value = ",".join(map(str, value))
    elif getattr(convert, "number", convert) in (int, float) and isinstance(value, (int, float)):
        value = str(value)
    try:
        if not isinstance(value, str):
            raise ValueError(f"{value!r} is not a valid value")
        return convert(value)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"config key {key!r}: {exc}") from None


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    data = read_bytes(path, UsageError, "config file")
    return read_json(data, UsageError, f"config file {path}")


def _resolve(args, defaults: dict) -> dict:
    """flags > --config file > defaults, keyed by the defaults dict; the result
    is echoed to stderr with its content hash. A config key outside the
    defaults dict is a usage error, so a misspelt key cannot fall back to the
    default unnoticed."""
    file_config = _load_config_file(getattr(args, "config", None))
    unknown = sorted(set(file_config) - set(defaults))
    if unknown:
        raise UsageError(
            f"unknown config key(s) {', '.join(map(repr, unknown))} for {args.command};"
            f" it reads {', '.join(map(repr, sorted(defaults)))}"
        )
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_config:
            resolved[key] = _config_value(key, file_config[key])
        else:
            resolved[key] = default
    payload = json.dumps(resolved, sort_keys=True, default=str)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    print(f"[rfekit] {args.command} config sha256={digest[:16]} {payload}",
          file=sys.stderr)
    return resolved


def _emit_records(records, out_path) -> None:
    text = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        atomic_write_text(out_path, text)


def _load_split(corpus, split: str, channel: str) -> tuple[list[dict], list]:
    """Manifest records of ``split`` ("all" for every one) and their documents."""
    from .corpus import load_document, load_manifest

    records = [
        rec
        for rec in load_manifest(corpus)["documents"]
        if split == "all" or rec["split"] == split
    ]
    if not records:
        raise UsageError(f"no documents with split {split!r} in {corpus}")
    return records, [load_document(corpus, rec, channel) for rec in records]


# --- subcommand handlers -----------------------------------------------------

def _cmd_gen_corpus(args) -> int:
    from .corpus import CorpusConfig, generate_corpus

    merged = _resolve(args, CorpusConfig().as_dict())
    try:
        config = CorpusConfig.from_dict(merged)
        config.validate()
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"invalid corpus configuration: {exc}") from None
    manifest = generate_corpus(config, args.out)
    print(
        f"wrote {len(manifest['documents'])} documents and "
        f"{len(manifest['rfes'])} RFEs to {args.out}"
    )
    return 0


def _cmd_train_docs(args) -> int:
    from .ensemble import EnsembleDocumentClassifier

    params = EnsembleDocumentClassifier().get_params()
    n_range = params.pop("n_range")
    opts = _resolve(args, {"channel": "ocr", "split": "train", "ngrams": n_range, **params})
    doc_records, docs = _load_split(args.corpus, opts["split"], opts["channel"])
    labels = [rec["label"] for rec in doc_records]
    model = EnsembleDocumentClassifier(
        n_range=opts["ngrams"], **{key: opts[key] for key in params}
    ).fit(docs, labels)
    model.save(args.out)
    print(
        f"trained on {len(docs)} documents "
        f"({len(model.classes_)} classes, vocabulary {model.vocabulary_.size}); "
        f"bundle written to {args.out}"
    )
    for name, head in (("text", model.text_model_), ("image", model.image_model_)):
        print(
            f"{name} head: {head.n_iter_} Newton steps, converged "
            f"{str(head.converged_).lower()}, max|grad| {head.grad_max_:.2e}"
        )
    return 0


def _find_doc_dirs(input_dir: Path) -> list[Path]:
    hits = sorted(
        {p.parent for p in input_dir.glob("*/doc.json")}
        | {p.parent for p in input_dir.glob("*/*/doc.json")}
    )
    if (input_dir / "doc.json").exists():
        hits.insert(0, input_dir)
    return hits


def _cmd_classify(args) -> int:
    import shutil

    from .corpus import load_document_dir, load_manifest
    from .ensemble import EnsembleDocumentClassifier

    opts = _resolve(args, {"channel": "ocr", "move": None, "out": None})
    model = EnsembleDocumentClassifier.load(args.bundle)
    for label in model.classes_ if args.move else ():
        if not is_bare_file_name(label):  # the class folder must stay inside DEST
            raise RuntimeError(f"cannot move into class {label!r}: not a file name")
    input_dir = Path(args.input)
    if (input_dir / "manifest.json").exists():
        manifest = load_manifest(input_dir)
        jobs = [(rec["id"], input_dir / rec["dir"]) for rec in manifest["documents"]]
    else:
        jobs = [(d.name, d) for d in _find_doc_dirs(input_dir)]
    if not jobs:
        raise UsageError(f"no documents found under {args.input}")

    records = []
    moves: list[tuple[Path, Path]] = []
    for doc_id, doc_dir in jobs:
        trace = model.classify(load_document_dir(doc_dir, opts["channel"]))
        records.append({"id": doc_id, **trace.as_record()})
        if args.move:
            target = Path(args.move) / trace.predicted / doc_dir.name
            if doc_dir.resolve() != target.resolve():
                moves.append((doc_dir, target))
    # Check every target before the first move, so a clash moves nothing.
    taken = Counter(target.resolve() for _, target in moves)
    for _, target in moves:
        if target.exists() or taken[target.resolve()] > 1:
            raise RuntimeError(f"move target exists or is taken twice: {target}")
        folder = next(p for p in target.parents if p.exists())
        if not folder.is_dir():
            raise RuntimeError(f"cannot move {target}: {folder} is not a directory")
    _emit_records(records, args.out)
    for src, target in moves:
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(src), str(target))
    return 0


def _rfe_inputs(input_path: Path) -> list[tuple[str, Path]]:
    if input_path.is_file():
        return [(input_path.stem, input_path)]
    if (input_path / "manifest.json").exists():
        from .corpus import load_manifest

        manifest = load_manifest(input_path)
        return [(rec["id"], input_path / rec["file"]) for rec in manifest["rfes"]]
    # The entries sorted(input_path.glob("*.txt")) lists, directories and
    # dot-files included, sorted by name with no Path built to compare.
    try:
        with os.scandir(input_path) as entries:
            names = sorted(entry.name for entry in entries if entry.name.endswith(".txt"))
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []  # a glob lists nothing here either
    return [(Path(name).stem, input_path / name) for name in names]


def _cmd_detect(args) -> int:
    tau = _resolve(args, {"tau": DEFAULT_TAU})["tau"]
    bank = load_bank(args.bank)
    jobs = _rfe_inputs(Path(args.input))
    if not jobs:
        raise UsageError(f"no RFE text files under {args.input}")
    texts = (read_text(path, RuntimeError, "RFE") for _, path in jobs)
    reports = detect_rfes(texts, bank, tau)
    records = [
        {"id": rfe_id, **report.as_record()} for (rfe_id, _), report in zip(jobs, reports)
    ]
    _emit_records(records, args.out)
    return 0


def _cmd_draft(args) -> int:
    opts = _resolve(args, {"tau": DEFAULT_TAU, "today": None})
    rfe_text = read_text(args.input, RuntimeError, "RFE")
    fields = extract_fields(rfe_text, load_field_patterns(args.patterns))
    bank = load_bank(args.bank)
    # A draft needs one record: only the store lines that can hold its case
    # number are decoded, and none without one (the store is still read).
    if fields.case_number is None:
        read_text(args.store, StoreFormatError, "store")
        store = BeneficiaryStore(())
    else:
        store = BeneficiaryStore.load(args.store, fields.case_number)
    library = load_template_library(args.templates)
    draft = draft_response(
        rfe_text,
        bank,
        store,
        library,
        tau=opts["tau"],
        fields=fields,
        today=opts["today"],
    )
    atomic_write_text(args.out, draft.render())
    atomic_write_json(str(args.out) + ".manifest.json", asdict(draft.manifest))
    print(
        f"draft {draft.manifest.status}"
        + (
            f" (missing: {', '.join(draft.manifest.missing_fields)})"
            if draft.manifest.missing_fields
            else ""
        )
        + f"; wrote {args.out}"
    )
    return 0


def _cmd_eval_docs(args) -> int:
    from .ensemble import EnsembleDocumentClassifier
    from .evaluation import evaluate_documents

    opts = _resolve(args, {"channel": "ocr", "split": "test"})
    model = EnsembleDocumentClassifier.load(args.bundle)
    doc_records, docs = _load_split(args.corpus, opts["split"], opts["channel"])
    labels = [rec["label"] for rec in doc_records]
    report = evaluate_documents(model, docs, labels, [r["id"] for r in doc_records])
    print(report.table())
    if args.json:
        _emit_records(report.as_records(), args.json)
    return 0


def _cmd_eval_attacks(args) -> int:
    from .corpus import load_manifest
    from .evaluation import evaluate_attacks

    opts = _resolve(args, {"tau": DEFAULT_TAU, "attack": "specialty-occupation"})
    tau = opts["tau"]
    corpus_dir = Path(args.corpus)
    manifest = load_manifest(corpus_dir)
    bank_path = args.bank or corpus_dir / manifest["paths"]["bank"]
    bank = load_bank(bank_path)
    pairs = [
        (read_text(corpus_dir / rec["file"], RuntimeError, "RFE"), rec["attacks"])
        for rec in manifest["rfes"]
    ]
    if not pairs:
        raise UsageError(f"corpus {args.corpus} has no RFEs")
    counts, scores = evaluate_attacks(bank, pairs, opts["attack"], tau)
    print(
        f"attack={opts['attack']} tau={tau}\n"
        f"tp={counts.tp} fp={counts.fp} fn={counts.fn} tn={counts.tn}\n"
        f"accuracy={scores.accuracy:.4f} precision={scores.precision:.4f} "
        f"recall={scores.recall:.4f} f1={scores.f1:.4f}"
    )
    if args.json:
        record = {
            "attack": opts["attack"],
            "tau": tau,
            "counts": asdict(counts),
            "metrics": asdict(scores),
        }
        _emit_records([record], args.json)
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfekit",
        description="Document classification, RFE attack detection, and "
        "response drafting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def option(p, flag, dest=None):
        """A flag whose text goes through the option's converter."""
        dest = dest or flag[2:]
        kind = _OPTION_TYPES[dest]
        p.add_argument(flag, dest=dest, type=kind, choices=getattr(kind, "choices", None))

    p = sub.add_parser("gen-corpus", help="generate a seeded synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    option(p, "--seed")
    option(p, "--docs-per-class", dest="docs_per_class")
    option(p, "--rfes", dest="n_rfes")
    option(p, "--noise", dest="ocr_noise_rate")
    option(p, "--train-fraction", dest="train_fraction")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(handler=_cmd_gen_corpus)

    p = sub.add_parser("train-docs", help="train the document ensemble")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="bundle output directory")
    option(p, "--channel")
    option(p, "--split")
    option(p, "--ngrams")
    option(p, "--l2")
    option(p, "--max-iters", dest="max_iters")
    option(p, "--grad-tol", dest="grad_tol")
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_train_docs)

    p = sub.add_parser("classify", help="classify documents with a trained bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", required=True, help="corpus dir or directory of docs")
    option(p, "--channel")
    p.add_argument("--out", default=None, help="JSONL output (default stdout)")
    p.add_argument(
        "--move",
        default=None,
        metavar="DEST",
        help="move each document directory into DEST/<predicted-class>/",
    )
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("detect", help="detect attack types in RFE text")
    p.add_argument("--bank", required=True)
    p.add_argument("--input", required=True, help="RFE .txt, directory, or corpus")
    option(p, "--tau")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("draft", help="assemble a response draft for one RFE")
    p.add_argument("--bank", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--templates", required=True)
    p.add_argument("--patterns", default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    option(p, "--tau")
    option(p, "--today")
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_draft)

    p = sub.add_parser("eval-docs", help="per-class accuracy on a corpus")
    p.add_argument("--bundle", required=True)
    p.add_argument("--corpus", required=True)
    option(p, "--split")
    option(p, "--channel")
    p.add_argument("--json", default=None, help="write records to file ('-' stdout)")
    p.set_defaults(handler=_cmd_eval_docs)

    p = sub.add_parser("eval-attacks", help="confusion metrics for one attack")
    p.add_argument("--corpus", required=True)
    p.add_argument("--bank", default=None, help="bank override (default: corpus bank)")
    p.add_argument("--attack", default=None)
    option(p, "--tau")
    p.add_argument("--json", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_eval_attacks)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` leaves a parser as it
    found it, so every ``run`` can share it. ``build_parser`` stays uncached,
    so a caller that alters the parser it gets (wraps its ``parse_args``,
    say) alters only its own."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

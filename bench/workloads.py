"""The benchmark's two workloads: set-up, timed passes and output checks.

Every timed op is one in-process call of ``rfekit.cli.run`` with the argv a
user would type, made only after the previous call returned (closed loop,
one client). A pass is the op sequence a workload repeats; each pass writes
its outputs to a directory of its own, and every pass's outputs are checked.

Ops are grouped in timing blocks of consecutive calls short enough to share
one speed phase of a shared host, whose speed changes by up to 2x for seconds
to minutes at a time; the tail compares each op to its block's median
(``Workload.op_tail_ms``).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TODAY = "2021-12-01"  # pins draft --today; the shipped templates ignore it
REFUSAL = "no attack types detected"  # the documented draft refusal
FLOAT_DIGITS = 9  # similarities are hashed at this precision (see _canonical)

# Acceptance floors from tests/test_acceptance.py, checked on every seed.
MIN_DOC_ACCURACY = 0.95
MIN_SPECIALTY_RECALL = 0.85
MIN_SPECIALTY_PRECISION = 0.70
TARGET_ATTACK = "specialty-occupation"


def run_cli(argv: list[str]) -> tuple[int | None, float, float, str]:
    """One CLI call with stdout/stderr captured: (exit code, start, end, stderr).

    The exit code is None when an exception escaped ``run``.
    """
    from rfekit import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stderr(err), redirect_stdout(out):
            code = cli.run(argv)
    except Exception as exc:  # counted as a failed op, never hidden
        err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        code = None
    return code, start, time.perf_counter(), err.getvalue()


class Samples:
    """Outcome and times of every timed op, in call order."""

    def __init__(self):
        self.ops: list[tuple] = []  # (kind, block, seconds, outcome)
        self.failures: list[str] = []

    def record(self, kind: str, block, code, start: float, end: float,
               stderr: str) -> None:
        """``block`` groups consecutive ops of one kind; None: a block of its own."""
        if block is None:
            block = ("op", len(self.ops))
        if code == 0:
            outcome = "ok"
        elif kind == "draft" and code == 1 and REFUSAL in stderr:
            outcome = "refused"
        else:
            outcome = "failed"
            self.failures.append(f"{kind} exited {code}: {stderr.strip()[-300:]}")
        self.ops.append((kind, block, end - start, outcome))

    def seconds(self, kind: str) -> list[float]:
        return [op[2] for op in self.ops if op[0] == kind]

    def blocks(self, kind: str) -> list[list[float]]:
        """The times of ``kind`` ops, grouped by block."""
        groups: dict = {}
        for op in self.ops:
            if op[0] == kind:
                groups.setdefault(op[1], []).append(op[2])
        return list(groups.values())

    def count(self, outcome: str) -> int:
        return sum(1 for op in self.ops if op[3] == outcome)


def tail(values: list[float]) -> float:
    """The highest nearest-rank percentile, up to p99, with at least ten samples
    beyond it; the median when there are fewer than 20 samples."""
    ordered = sorted(values)
    if len(ordered) < 20:
        return statistics.median(ordered)
    q = min(0.99, 1 - 10 / len(ordered))
    return ordered[math.ceil(q * len(ordered)) - 1]


def _canonical(value):
    """JSON value with floats rounded to FLOAT_DIGITS decimals.

    Cosines summed in another order differ in the last bits; rounding keeps
    such a change from reading as drift while any change in which pairs
    qualify, or in their similarity beyond round-off, still changes the hash.
    """
    if isinstance(value, float):
        return round(value, FLOAT_DIGITS)
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def _sha256_lines(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def _accuracy_floor(report, problems: list[str], what: str) -> None:
    overall = report.overall
    if overall.correct < MIN_DOC_ACCURACY * overall.count:
        problems.append(
            f"{what}: accuracy {overall.correct}/{overall.count} "
            f"below {MIN_DOC_ACCURACY}"
        )


def _manifest(corpus: Path) -> dict:
    return json.loads((corpus / "manifest.json").read_text("utf-8"))


def _jsonl(paths) -> list[dict]:
    return [json.loads(line) for path in paths
            for line in path.read_text("utf-8").splitlines()]


class Workload:
    name = ""
    main_op = ""  # the op behind op_p50_ms / op_tail_ms
    batch_op = ""  # the op behind items_per_s

    def __init__(self, inputs: Path, work: Path):
        self.inputs = inputs
        self.work = work

    def setup(self) -> None:
        """Program work before the first timed op (the runner times it)."""
        raise NotImplementedError

    def ops(self, index: int):
        """The ops of pass ``index`` in call order: (kind, block, argv)."""
        raise NotImplementedError

    def check_pass(self, index: int, floors: bool) -> tuple[dict, list[str]]:
        """(fingerprint, problems) of one pass's outputs."""
        raise NotImplementedError

    def items_per_call(self) -> float:
        """Items (documents, RFEs) one ``batch_op`` call handles."""
        raise NotImplementedError

    def op_p50_ms(self, samples: Samples) -> float:
        """Median time of one ``main_op`` call, in ms."""
        return 1e3 * statistics.median(samples.seconds(self.main_op))

    def op_tail_ms(self, samples: Samples) -> float:
        """``op_p50_ms`` times the tail of each call's time over its block's median.

        The ratio is the program's own spread (refusals, GC passes, longer
        inputs); dividing by the block median takes out the host's speed phase,
        which sets a raw p99 over a whole run. With one call per block the
        ratio is 1 and this equals ``op_p50_ms``.
        """
        ratios = [t / statistics.median(b) for b in samples.blocks(self.main_op)
                  for t in b]
        return self.op_p50_ms(samples) * tail(ratios)

    def items_per_s(self, samples: Samples) -> float:
        """Items one ``batch_op`` call handles over the median time of a call."""
        return self.items_per_call() / statistics.median(samples.seconds(self.batch_op))

    def sizes(self) -> dict:
        raise NotImplementedError

    def details(self, samples: Samples) -> dict:
        """The run's numbers under per-workload names (train_s, draft_p50_ms, ...)."""
        raise NotImplementedError

    def extra_checks(self, root: Path) -> list[str]:
        return []

    def rfe_ids_by_case(self) -> dict[str, str]:
        return {}


class Train(Workload):
    """One ``train-docs`` call on the default-size corpus per pass."""

    name = "train"
    main_op = batch_op = "train-docs"

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.corpus = inputs / "corpus"
        docs = _manifest(self.corpus)["documents"]
        self.train = [r for r in docs if r["split"] == "train"]
        self.test = [r for r in docs if r["split"] == "test"]
        self.vocab_size = None

    def setup(self):
        from rfekit.corpus import load_document, load_manifest

        manifest = load_manifest(self.corpus)
        for rec in manifest["documents"]:
            if rec["split"] == "train":
                load_document(self.corpus, rec, "ocr")

    def ops(self, index):
        bundle = self.work / f"bundle-{index}"
        yield "train-docs", None, ["train-docs", "--corpus", str(self.corpus),
                                   "--out", str(bundle)]

    def check_pass(self, index, floors):
        from rfekit.corpus import load_document
        from rfekit.ensemble import EnsembleDocumentClassifier
        from rfekit.evaluation import evaluate_documents

        bundle = self.work / f"bundle-{index}"
        problems: list[str] = []
        try:
            model = EnsembleDocumentClassifier.load(bundle)
            recorded = json.loads((bundle / "bundle.json").read_text("utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            return {}, [f"train pass {index}: unreadable bundle ({exc})"]
        self.vocab_size = model.vocabulary_.size
        report = evaluate_documents(
            model,
            [load_document(self.corpus, r, "ocr") for r in self.test],
            [r["label"] for r in self.test],
            [r["id"] for r in self.test],
        )
        if floors:
            _accuracy_floor(report, problems, f"train pass {index} test split")
        return {
            "vocab_sha256": recorded.get("vocab_sha256"),
            "test_table": report.table(),
        }, problems

    def items_per_call(self):
        return len(self.train)

    def sizes(self):
        return {
            "train_docs": len(self.train),
            "train_pages": sum(len(r["pages"]) for r in self.train),
            "test_docs": len(self.test),
            "vocab_size": self.vocab_size,
        }

    def details(self, samples):
        return {
            "train_s": self.op_p50_ms(samples) / 1e3,
            "train_calls": len(samples.seconds("train-docs")),
        }


class Casework(Workload):
    """Per pass, for each block of RFEs: one ``detect`` over the block, then
    one ``draft`` per RFE of the block. Every DRAFTS_PER_TIMING_BLOCK
    consecutive drafts (0.3-0.5 s) form one timing block."""

    name = "casework"
    main_op = "draft"
    batch_op = "detect"
    DRAFTS_PER_TIMING_BLOCK = 25

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.corpus = inputs / "corpus"
        manifest = _manifest(self.corpus)
        self.rfes = manifest["rfes"]
        paths = manifest["paths"]
        self.bank = self.corpus / paths["bank"]
        self.store = self.corpus / paths["store"]
        self.templates = self.corpus / paths["templates"]
        self.patterns = self.corpus / paths["patterns"]
        self.blocks = [
            (block, sorted(p.stem for p in block.glob("*.txt")))
            for block in sorted((inputs / "blocks").iterdir())
        ]

    def setup(self):
        from rfekit.attacks import load_bank
        from rfekit.drafting import (
            BeneficiaryStore,
            load_field_patterns,
            load_template_library,
        )
        from rfekit.text import load_stopwords

        load_bank(self.bank)
        BeneficiaryStore.load(self.store)
        load_template_library(self.templates)
        load_field_patterns(self.patterns)
        load_stopwords()

    def ops(self, index):
        out = self.work / f"pass-{index}"
        for k, (block, rfe_ids) in enumerate(self.blocks):
            yield "detect", None, ["detect", "--bank", str(self.bank), "--input",
                                   str(block), "--out", str(out / f"detect-{k}.jsonl")]
            for j, rfe_id in enumerate(rfe_ids):
                yield "draft", (index, k, j // self.DRAFTS_PER_TIMING_BLOCK), [
                    "draft", "--bank", str(self.bank), "--store", str(self.store),
                    "--templates", str(self.templates), "--patterns", str(self.patterns),
                    "--input", str(block / f"{rfe_id}.txt"),
                    "--out", str(out / "drafts" / f"{rfe_id}.txt"), "--today", TODAY,
                ]

    def check_pass(self, index, floors):
        out = self.work / f"pass-{index}"
        try:
            detect = _jsonl(out / f"detect-{k}.jsonl" for k in range(len(self.blocks)))
        except (OSError, ValueError) as exc:
            return {}, [f"casework pass {index}: unreadable detect output ({exc})"]
        if [r.get("id") for r in detect] != [r["id"] for r in self.rfes]:
            return {}, [f"casework pass {index}: detect records do not cover the RFEs in order"]

        problems: list[str] = []
        draft_lines = []
        tp = fp = fn = 0
        for rfe, record in zip(self.rfes, detect):
            flagged = TARGET_ATTACK in record["detected"]
            present = TARGET_ATTACK in rfe["attacks"]
            tp += flagged and present
            fp += flagged and not present
            fn += present and not flagged
            draft = out / "drafts" / f"{rfe['id']}.txt"
            if not draft.exists():
                draft_lines.append(f"{rfe['id']} refused")
                if record["detected"]:
                    problems.append(f"{rfe['id']}: no draft although detect found "
                                    f"{record['detected']}")
                continue
            try:
                text = draft.read_text("utf-8")
                sidecar = json.loads(
                    Path(str(draft) + ".manifest.json").read_text("utf-8")
                )
            except (OSError, ValueError) as exc:
                problems.append(f"{rfe['id']}: unreadable draft ({exc})")
                continue
            if "{{" in text:
                problems.append(f"{rfe['id']}: draft contains an unfilled placeholder")
            if sidecar["detected"] != record["detected"]:
                problems.append(f"{rfe['id']}: draft and detect disagree on the attacks")
            draft_lines.append(f"{rfe['id']} {json.dumps(text)} "
                               + json.dumps(_canonical(sidecar), sort_keys=True))
        if floors:
            recall = tp / (tp + fn) if tp + fn else 1.0
            precision = tp / (tp + fp) if tp + fp else 1.0
            if recall < MIN_SPECIALTY_RECALL or precision < MIN_SPECIALTY_PRECISION:
                problems.append(
                    f"casework pass {index}: {TARGET_ATTACK} recall {recall:.3f} / "
                    f"precision {precision:.3f} below the acceptance floors"
                )
        fingerprint = {
            "detect_sha256": _sha256_lines(
                json.dumps(_canonical(r), sort_keys=True) for r in detect
            ),
            "drafts_sha256": _sha256_lines(draft_lines),
        }
        return fingerprint, problems

    def extra_checks(self, root):
        """Seed 42 only: RFE #3 of the 49-RFE corpus drafts to the golden file."""
        golden_corpus = self.inputs / "golden"
        if not golden_corpus.is_dir():
            return []
        manifest = _manifest(golden_corpus)
        paths = manifest["paths"]
        out = self.work / "golden-rfe3-draft.txt"
        code, _, _, stderr = run_cli([
            "draft", "--bank", str(golden_corpus / paths["bank"]),
            "--store", str(golden_corpus / paths["store"]),
            "--templates", str(golden_corpus / paths["templates"]),
            "--input", str(golden_corpus / manifest["rfes"][3]["file"]),
            "--out", str(out), "--today", TODAY,
        ])
        golden = root / "tests" / "data" / "golden-rfe3-draft.txt"
        if code != 0:
            return [f"golden draft exited {code}: {stderr.strip()}"]
        if out.read_bytes() != golden.read_bytes():
            return ["RFE #3 draft is not byte-identical to the golden draft"]
        return []

    def items_per_call(self):
        return len(self.rfes) / len(self.blocks)

    def sizes(self):
        def lines(path):
            return sum(1 for line in path.read_text("utf-8").splitlines() if line.strip())

        return {
            "rfes": len(self.rfes),
            "rfe_blocks": len(self.blocks),
            "store_records": lines(self.store),
            "bank_sentences": lines(self.bank),
        }

    def details(self, samples):
        drafts = samples.seconds("draft")
        return {
            "detect_rfes_per_s": self.items_per_s(samples),
            "draft_p50_ms": self.op_p50_ms(samples),
            "draft_p99_ms": self.op_tail_ms(samples),
            "draft_samples": len(drafts),
            "drafts_refused": samples.count("refused"),
        }

    def rfe_ids_by_case(self):
        return {r["case_number"]: r["id"] for r in self.rfes}


WORKLOADS = {w.name: w for w in (Train, Casework)}

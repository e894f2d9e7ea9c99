"""Seeded synthetic corpus: notice documents, RFEs, and their ground truth.

Everything an end-to-end run needs comes out of one call: labeled documents
(page images plus clean and noise-degraded text channels), RFEs with planted
attack sentences, a beneficiary store covering their case numbers, the example
bank, a template library, the field-pattern file, and a manifest recording the
ground truth for every artifact.

Determinism is a hard contract: the generator runs on its own splitmix64
stream with explicit seed threading (no global randomness, no dependence on
the Python version's random module), so one seed always produces a
byte-identical output tree.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .drafting import BeneficiaryRecord, RfeFields
from .ioutil import (
    PATH,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    check_fields,
    read_bytes,
    read_json,
    read_text,
)

if TYPE_CHECKING:  # imported by _page_modules: a manifest needs no numpy
    from .ensemble import Document

MANIFEST_MAGIC = "rfe-corpus-manifest"
MANIFEST_VERSION = 1

_MASK64 = (1 << 64) - 1


class CorpusFormatError(ValueError):
    """Malformed manifest or ``doc.json``, or a file one names is unreadable."""


class SeededRng:
    """splitmix64 generator with labeled child streams.

    Child streams are derived by hashing ``origin/label`` strings, so any
    artifact's stream depends only on the seed and its label, never on
    generation order.
    """

    def __init__(self, seed):
        self._origin = str(seed)
        digest = hashlib.sha256(self._origin.encode("utf-8")).digest()
        self._state = int.from_bytes(digest[:8], "big")

    def child(self, label: str) -> "SeededRng":
        return SeededRng(f"{self._origin}/{label}")

    def _next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self._next() >> 11) * (1.0 / (1 << 53))

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"randbelow needs n >= 1, got {n}")
        bits = n.bit_length()
        while True:
            value = self._next() >> (64 - bits)
            if value < n:
                return value

    def randint(self, low: int, high: int) -> int:
        return low + self.randbelow(high - low + 1)

    def choice(self, seq):
        return seq[self.randbelow(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        if k > len(seq):
            raise ValueError(f"cannot sample {k} from {len(seq)} items")
        items = list(seq)
        self.shuffle(items)
        return items[:k]


# --- fixed content pools -----------------------------------------------------

ATTACK_DESCRIPTIONS = {
    "specialty-occupation": "Position must qualify as a specialty occupation",
    "beneficiary-qualification": "Beneficiary must be qualified for the position",
    "employer-employee-relationship": "Valid employer-employee relationship required",
}

BANK_SENTENCES = {
    "specialty-occupation": (
        "the record does not establish that the proffered position qualifies as a specialty occupation",
        "provide evidence that the position requires a baccalaureate degree in a specific specialty",
        "demonstrate that the degree requirement is common for the industry in parallel positions",
        "show that the employer normally requires a degree or its equivalent for the position",
        "establish that the specific duties are so specialized that a degree is required",
        "the labor condition application must correspond to the proffered specialty occupation position",
    ),
    "beneficiary-qualification": (
        "provide evidence that the beneficiary is qualified to perform services in the specialty occupation",
        "submit a copy of the beneficiary degree certificate and academic transcripts",
        "establish that the beneficiary foreign degree is equivalent to a united states baccalaureate",
        "document the beneficiary progressive work experience in the claimed specialty",
        "provide an evaluation of the beneficiary credentials by a qualified evaluator",
    ),
    "employer-employee-relationship": (
        "establish that a valid employer employee relationship will exist for the requested period",
        "demonstrate the right to control the manner and means of the beneficiary work",
        "submit contracts and work orders covering the entire requested validity period",
        "provide an itinerary of services or engagements for offsite placements",
        "show who will supervise the beneficiary and where the work will be performed",
    ),
}

DISTRACTOR_SENTENCES = (
    "this office reviewed the initial submission in its entirety",
    "you may submit additional documentation in support of the petition",
    "failure to respond by the due date may result in denial",
    "submit copies unless original documents are specifically requested",
    "include the case number on every page of the response",
    "translations must be certified as complete and accurate",
    "the response must be received at the address shown above",
    "supporting statements should be signed and dated",
    "organize exhibits with a cover letter and an index",
    "retain copies of all materials for your records",
)

SYNONYMS = {
    "evidence": "proof",
    "provide": "furnish",
    "demonstrate": "show",
    "establish": "confirm",
    "position": "role",
    "degree": "credential",
    "employer": "company",
    "occupation": "profession",
    "specific": "particular",
    "requested": "proposed",
    "period": "term",
    "services": "duties",
    "qualified": "eligible",
    "copy": "duplicate",
    "submit": "send",
}

SHARED_PHRASES = (
    "department of homeland security",
    "citizenship and immigration services",
    "petition for a nonimmigrant worker",
    "please retain this notice for your records",
    "this notice refers to the petition filed by the employer",
    "the beneficiary named on this notice should keep a copy",
    "additional information is available on the agency website",
    "do not send payment with this notice",
    "this courtesy copy was mailed to the attorney of record",
    "keep this page with the original submission",
)

APPROVAL_PHRASES = (
    "notice of approval for the petition listed above",
    "the petition has been approved for the requested period",
    "approval of this petition confirms the classification sought",
    "the validity period begins on the start date shown above",
    "approval does not convey immigration status by itself",
    "the approved petition remains valid until the end date",
    "work authorization under this approval follows the petition terms",
    "this approval was granted after a full review of the record",
)

RECEIPT_PHRASES = (
    "notice of receipt for the petition listed above",
    "we received the petition and supporting documents listed on this notice",
    "the receipt number identifies this case in all future inquiries",
    "processing times vary by service center and current workload",
    "a decision notice will be mailed once the review is finished",
    "filing fees were received and deposited for this case",
    "this receipt confirms the filing date of record for the petition",
    "use the receipt number when checking the case status online",
)

FIRST_NAMES = (
    "Asha", "Diego", "Mei", "Priya", "Tomas", "Lena",
    "Kwame", "Sofia", "Ravi", "Elena", "Omar", "Yuki",
)
LAST_NAMES = (
    "Rao", "Marsh", "Tanaka", "Okafor", "Petrov", "Santos",
    "Lindgren", "Haddad", "Novak", "Fischer", "Adeyemi", "Kaur",
)
ATTORNEY_NAMES = ("J. Marsh", "R. Chen", "L. Ortiz", "D. Kim", "S. Patel", "M. Weiss")
EMPLOYER_NAMES = (
    "Initech Analytics LLC",
    "Bluepeak Systems Inc",
    "Northgate Software Corp",
    "Helio Data Partners",
    "Crestline Robotics Ltd",
    "Vantage Cloudworks Inc",
)
SOC_CODES = ("15-1211", "15-1252", "15-2051", "17-2071")
SOC_FIELDS_OF_STUDY = {
    "15-1211": ("Information Systems", "Computer Science"),
    "15-1252": ("Computer Science", "Software Engineering"),
    "15-2051": ("Data Science", "Computer Science"),
    "17-2071": ("Electrical Engineering",),
}
DEGREES = ("Bachelor of Science", "Master of Science", "Bachelor of Engineering")
INSTITUTIONS = (
    "University of Pune",
    "National Taiwan University",
    "University of Sao Paulo",
    "Warsaw University of Technology",
    "University of Lagos",
    "Osaka Institute of Technology",
)

CORRUPTION_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 .,;:#*"


# --- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class ClassSpec:
    """One document class: layout style, type line, and phrase pool."""

    name: str
    layout: str
    type_line: str
    phrases: tuple[str, ...]


@dataclass(frozen=True)
class AttackMix:
    """One RFE profile (set of planted attacks, possibly empty) and its share."""

    attacks: tuple[str, ...]
    proportion: float


DEFAULT_CLASSES = (
    ClassSpec("approval-notice", "approval-layout", "Notice Type: Approval",
              APPROVAL_PHRASES),
    ClassSpec("receipt-notice", "receipt-layout", "Notice Type: Receipt",
              RECEIPT_PHRASES),
)

DEFAULT_ATTACK_MIX = (
    AttackMix(("specialty-occupation",), 0.30),
    AttackMix(("specialty-occupation", "beneficiary-qualification"), 0.14),
    AttackMix(("specialty-occupation", "employer-employee-relationship"), 0.08),
    AttackMix(("beneficiary-qualification",), 0.18),
    AttackMix(("employer-employee-relationship",), 0.14),
    AttackMix((), 0.16),
)


@dataclass(frozen=True)
class CorpusConfig:
    seed: int = 42
    docs_per_class: int = 52
    classes: tuple[ClassSpec, ...] = DEFAULT_CLASSES
    n_rfes: int = 49
    attack_mix: tuple[AttackMix, ...] = DEFAULT_ATTACK_MIX
    ocr_noise_rate: float = 0.15
    train_fraction: float = 0.8

    def validate(self) -> None:
        if self.docs_per_class < 0 or self.n_rfes < 0:
            raise ValueError("docs_per_class and n_rfes must be >= 0")
        if not 0.0 <= self.ocr_noise_rate < 1.0:
            raise ValueError(f"ocr_noise_rate must be in [0, 1), got {self.ocr_noise_rate}")
        if not 0.0 <= self.train_fraction <= 1.0:
            raise ValueError("train_fraction must be in [0, 1]")
        if self.docs_per_class and not self.classes:
            raise ValueError("documents requested but no classes configured")
        for spec in self.classes:
            if spec.layout not in _LAYOUTS:
                raise ValueError(f"unknown layout style {spec.layout!r}")
        if self.n_rfes:
            total = sum(m.proportion for m in self.attack_mix)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"attack mix proportions sum to {total}, not 1")
            known = set(ATTACK_DESCRIPTIONS)
            for m in self.attack_mix:
                unknown = set(m.attacks) - known
                if unknown:
                    raise ValueError(f"attack mix references unknown attacks {sorted(unknown)}")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusConfig":
        kwargs = dict(data)
        if "classes" in kwargs:
            kwargs["classes"] = tuple(
                ClassSpec(
                    name=c["name"],
                    layout=c["layout"],
                    type_line=c.get("type_line", f"Notice Type: {c['name']}"),
                    phrases=tuple(c.get("phrases", ())),
                )
                for c in kwargs["classes"]
            )
        if "attack_mix" in kwargs:
            kwargs["attack_mix"] = tuple(
                AttackMix(tuple(m["attacks"]), float(m["proportion"]))
                for m in kwargs["attack_mix"]
            )
        return cls(**kwargs)


def config_sha256(config: CorpusConfig) -> str:
    canonical = json.dumps(config.as_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


# --- page rendering ----------------------------------------------------------

PAGE_WIDTH = 96
PAGE_HEIGHT = 128


def _render_approval(page, rng: SeededRng) -> None:
    off = rng.randint(-2, 2)
    ink = rng.randint(-8, 8)
    page[8 + off : 26 + off, 8:88] = 45 + ink
    page[44:72, 10:34] = 95 + ink
    for row in (84, 92, 100, 108):
        page[row : row + 2, 8:88] = 150
    page[118:124, 8:88] = 60 + ink


def _render_receipt(page, rng: SeededRng) -> None:
    off = rng.randint(-2, 2)
    ink = rng.randint(-8, 8)
    page[8 + off : 26 + off, 8:88] = 130 + ink
    page[40:60, 58:90] = 55 + ink
    for row in (70, 78, 86, 94, 102, 110):
        page[row : row + 2, 8:88] = 150
    page[8:120, 2:7] = 70 + ink


# Each layout's renderer draws on a blank page of 240s.
_LAYOUTS = {
    "approval-layout": _render_approval,
    "receipt-layout": _render_receipt,
}


# --- text channels -----------------------------------------------------------

def corrupt_text(text: str, rate: float, rng: SeededRng) -> str:
    """Character-substitution noise; newlines are never touched."""
    if rate == 0.0:
        return text
    out = []
    for ch in text:
        if ch != "\n" and rng.random() < rate:
            out.append(CORRUPTION_ALPHABET[rng.randbelow(len(CORRUPTION_ALPHABET))])
        else:
            out.append(ch)
    return "".join(out)


def token_overlap(original, candidate) -> float:
    """Fraction of the original's tokens retained (multiset intersection)."""
    kept = Counter(original) & Counter(candidate)
    return kept.total() / len(original)


# The least token overlap a paraphrase keeps with its original sentence.
MIN_PARAPHRASE_OVERLAP = 0.6


def paraphrase_sentence(tokens, rng: SeededRng) -> list[str]:
    """Bounded paraphrase: at most one drop, one adjacent swap, one synonym.

    Each edit is drawn independently and applied only if the token overlap
    with the original stays at or above ``MIN_PARAPHRASE_OVERLAP``, so the
    guarantee holds by construction (short sentences simply take fewer edits).
    """
    if len(tokens) < 3:
        raise ValueError("need at least 3 tokens to paraphrase")
    original = list(tokens)
    result = list(tokens)

    if rng.random() < 0.4 and len(result) > 2:
        candidate = list(result)
        del candidate[rng.randbelow(len(candidate))]
        if token_overlap(original, candidate) >= MIN_PARAPHRASE_OVERLAP:
            result = candidate

    if rng.random() < 0.5 and len(result) >= 2:
        i = rng.randbelow(len(result) - 1)
        result[i], result[i + 1] = result[i + 1], result[i]

    if rng.random() < 0.5:
        eligible = [i for i, tok in enumerate(result) if tok in SYNONYMS]
        if eligible:
            i = eligible[rng.randbelow(len(eligible))]
            candidate = list(result)
            candidate[i] = SYNONYMS[candidate[i]]
            if token_overlap(original, candidate) >= MIN_PARAPHRASE_OVERLAP:
                result = candidate

    return result


# --- template library content ------------------------------------------------

_SOC_TITLES = {
    "15-1211": "computer systems analyst",
    "15-1252": "software developer",
    "15-2051": "data scientist",
    "17-2071": "electrical engineer",
}

_SPECIALTY_BODY = """\
SPECIALTY OCCUPATION - SOC {{soc_code}}

The position offered to {{employee_name}} by {{employer_name}} is a
__TITLE__ role classified under SOC code {{soc_code}}. The attached
position description details duties that require the theoretical and
practical application of a body of highly specialized knowledge, and the
industry documentation shows that a baccalaureate or higher degree in
{{field_of_study}} or a closely related field is the normal minimum
requirement for entry into this occupation."""

_SPECIALTY_WILDCARD_BODY = """\
SPECIALTY OCCUPATION

The position offered to {{employee_name}} by {{employer_name}} qualifies as
a specialty occupation. The beneficiary holds a {{degree}} in
{{field_of_study}} from {{institution}}, and the enclosed expert opinion
explains why the degree field is directly related to the proffered duties."""

_QUALIFICATION_BODY = """\
BENEFICIARY QUALIFICATION

{{employee_name}} earned a {{degree}} in {{field_of_study}} from
{{institution}}. The enclosed credentials evaluation confirms that this
degree is equivalent to a United States baccalaureate in the specialty,
qualifying the beneficiary to perform the duties described in the petition
filed by {{employer_name}}."""

_RELATIONSHIP_BODY = """\
EMPLOYER-EMPLOYEE RELATIONSHIP

{{employer_name}} retains the right to control the work of
{{employee_name}}, including assignment, supervision, and review. The
enclosed organizational chart, employment agreement, and work orders for
case {{case_number}} document that a valid employer-employee relationship
will exist throughout the requested validity period."""


def template_library_entries() -> list[tuple[str, str, object, str]]:
    """(id, attack_id, soc_codes-or-None, body) rows for the generated library."""
    rows = []
    for soc in SOC_CODES:
        rows.append(
            (
                f"specialty-occupation/{soc}",
                "specialty-occupation",
                [soc],
                _SPECIALTY_BODY.replace("__TITLE__", _SOC_TITLES[soc]),
            )
        )
    rows.append(
        ("specialty-occupation/any", "specialty-occupation", None,
         _SPECIALTY_WILDCARD_BODY)
    )
    rows.append(
        ("beneficiary-qualification/any", "beneficiary-qualification", None,
         _QUALIFICATION_BODY)
    )
    rows.append(
        ("employer-employee-relationship/any", "employer-employee-relationship",
         None, _RELATIONSHIP_BODY)
    )
    return rows


# --- generation --------------------------------------------------------------

def generate_corpus(config: CorpusConfig, out_dir) -> dict:
    """Write the full corpus tree under ``out_dir`` and return the manifest.

    Deterministic for a given config: the same seed yields byte-identical
    trees. Ground truth (labels, planted attacks, field values) is recorded
    in ``manifest.json`` for every artifact.
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = SeededRng(f"rfe-corpus/{config.seed}")

    documents = _generate_documents(config, out_dir, root)
    rfes, store_lines = _generate_rfes(config, out_dir, root)

    bank_lines = [
        json.dumps(
            {
                "attack_id": attack_id,
                "description": ATTACK_DESCRIPTIONS[attack_id],
                "sentence": sentence,
            },
            sort_keys=True,
        )
        for attack_id in BANK_SENTENCES
        for sentence in BANK_SENTENCES[attack_id]
    ]
    atomic_write_text(out_dir / "bank.jsonl", "\n".join(bank_lines) + "\n")
    atomic_write_text(
        out_dir / "beneficiaries.jsonl", "\n".join(store_lines) + "\n"
    )
    _write_template_library(out_dir / "templates")
    atomic_write_bytes(
        out_dir / "patterns.json",
        resources.files("rfekit.data").joinpath("field_patterns.json").read_bytes(),
    )

    manifest = {
        "format": MANIFEST_MAGIC,
        "version": MANIFEST_VERSION,
        "seed": config.seed,
        "config": config.as_dict(),
        "config_sha256": config_sha256(config),
        "paths": {
            "bank": "bank.jsonl",
            "store": "beneficiaries.jsonl",
            "templates": "templates",
            "patterns": "patterns.json",
        },
        "documents": documents,
        "rfes": rfes,
    }
    atomic_write_json(out_dir / "manifest.json", manifest)
    return manifest


def _generate_documents(config: CorpusConfig, out_dir: Path, root: SeededRng) -> list[dict]:
    np, image, _ = _page_modules()
    records = []
    doc_index = 0
    for spec in config.classes:
        n = config.docs_per_class
        split_rng = root.child(f"split/{spec.name}")
        order = list(range(n))
        split_rng.shuffle(order)
        n_train = int(n * config.train_fraction + 0.5)
        train_positions = set(order[:n_train])

        for i in range(n):
            doc_id = f"doc-{doc_index:04d}"
            doc_index += 1
            rng = root.child(f"doc/{spec.name}/{i}")
            doc_dir = out_dir / "docs" / doc_id

            n_pages = 1 + (1 if rng.random() < 0.35 else 0)
            page_files = []
            for page_no in range(n_pages):
                pixels = np.full((PAGE_HEIGHT, PAGE_WIDTH), 240, dtype=np.int64)
                _LAYOUTS[spec.layout](pixels, rng.child(f"page/{page_no}"))
                page = image.PageImage(width=PAGE_WIDTH, height=PAGE_HEIGHT, pixels=pixels)
                name = f"page-{page_no}.pgm"
                atomic_write_bytes(doc_dir / name, image.encode_pgm(page))
                page_files.append(name)

            text_rng = rng.child("text")
            lines = ["NOTICE OF ACTION", spec.type_line]
            lines += text_rng.sample(spec.phrases, min(6, len(spec.phrases)))
            lines += text_rng.sample(SHARED_PHRASES, 4)
            clean = "\n".join(lines) + "\n"
            degraded = corrupt_text(clean, config.ocr_noise_rate, rng.child("noise"))
            atomic_write_text(doc_dir / "clean.txt", clean)
            atomic_write_text(doc_dir / "ocr.txt", degraded)
            atomic_write_json(
                doc_dir / "doc.json",
                {"id": doc_id, "pages": page_files, "text": "ocr.txt", "clean_text": "clean.txt"},
            )
            records.append(
                {
                    "id": doc_id,
                    "label": spec.name,
                    "split": "train" if i in train_positions else "test",
                    "dir": f"docs/{doc_id}",
                    "pages": page_files,
                    "clean_text": "clean.txt",
                    "ocr_text": "ocr.txt",
                }
            )
    return records


def _profile_counts(mix, n: int) -> list[int]:
    """Largest-remainder apportionment so counts match proportions exactly."""
    raw = [m.proportion * n for m in mix]
    counts = [int(x) for x in raw]
    remainders = sorted(
        range(len(mix)), key=lambda i: (-(raw[i] - counts[i]), i)
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _generate_rfes(config: CorpusConfig, out_dir: Path, root: SeededRng):
    counts = _profile_counts(config.attack_mix, config.n_rfes)
    profiles: list[tuple[str, ...]] = []
    for m, count in zip(config.attack_mix, counts):
        profiles.extend([m.attacks] * count)
    root.child("rfe-profiles").shuffle(profiles)

    records, store_lines = [], []
    for j, attacks in enumerate(profiles):
        rfe_id = f"rfe-{j:04d}"
        rng = root.child(f"rfe/{j}")

        case_number = f"SRC-21-{900 + j}-{10000 + rng.randbelow(90000)}"
        employee = f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
        employer = rng.choice(EMPLOYER_NAMES)
        attorney = rng.choice(ATTORNEY_NAMES)
        rfe_date = date(2021, rng.randint(1, 12), rng.randint(1, 28))
        due_date = rfe_date + timedelta(days=84)

        body: list[str] = []
        for attack_id in attacks:
            pool = BANK_SENTENCES[attack_id]
            for sentence in rng.sample(pool, 1 + rng.randbelow(2)):
                paraphrased = paraphrase_sentence(sentence.split(), rng.child(f"para/{len(body)}"))
                body.append(" ".join(paraphrased))
        body.extend(rng.sample(DISTRACTOR_SENTENCES, 3 + rng.randbelow(3)))
        rng.child("order").shuffle(body)

        header = [
            "REQUEST FOR EVIDENCE",
            f"Case Number: {case_number}",
            f"Employee Name: {employee}",
            f"Employer Name: {employer}",
            f"Attorney Name: {attorney}",
            f"RFE Date: {rfe_date.strftime('%B %d, %Y')}",
            f"Response Due: {due_date.strftime('%B %d, %Y')}",
        ]
        text = "\n".join(header) + "\n\n" + "\n".join(body) + "\n"
        atomic_write_text(out_dir / "rfes" / f"{rfe_id}.txt", text)

        soc_code = rng.choice(SOC_CODES)
        beneficiary = BeneficiaryRecord(
            case_number, soc_code, rng.choice(SOC_FIELDS_OF_STUDY[soc_code]),
            rng.choice(DEGREES), rng.choice(INSTITUTIONS),
        )
        store_lines.append(json.dumps(beneficiary._asdict(), sort_keys=True))
        fields = RfeFields(case_number, employee, employer, attorney, rfe_date, due_date)
        records.append(
            {
                "id": rfe_id,
                "file": f"rfes/{rfe_id}.txt",
                "attacks": sorted(attacks),
                "case_number": case_number,
                "fields": fields.as_values(),
            }
        )
    return records, store_lines


def _write_template_library(template_dir: Path) -> None:
    entries = []
    for template_id, attack_id, soc_codes, body in template_library_entries():
        filename = template_id.replace("/", "-") + ".txt"
        atomic_write_text(template_dir / filename, body)
        entries.append(
            {
                "id": template_id,
                "attack_id": attack_id,
                "soc_codes": "*" if soc_codes is None else soc_codes,
                "file": filename,
            }
        )
    manifest = {"format": "template-library", "version": 1, "templates": entries}
    atomic_write_json(template_dir / "templates.json", manifest)


# --- manifest consumers ------------------------------------------------------

# The keys that the readers use, each with the kind of its value.
_PATHS_FIELDS = dict.fromkeys(("bank", "store", "templates", "patterns"), PATH)
_DOCUMENT_FIELDS = {"id": str, "label": str, "split": str, "dir": PATH, "pages": [PATH],
                    "clean_text": PATH, "ocr_text": PATH}
_RFE_FIELDS = {"id": str, "file": PATH, "attacks": [str]}
_DOC_JSON_FIELDS = {"id": str, "pages": [PATH], "text": PATH, "clean_text": PATH}
_MANIFEST_FIELDS = {"paths": dict, "documents": list, "rfes": list}


def load_manifest(corpus_dir) -> dict:
    """Read ``manifest.json``; a malformed one raises :class:`CorpusFormatError`.
    Every path it names must be relative with no ``..`` part."""
    path = Path(corpus_dir) / "manifest.json"
    data = read_bytes(path, CorpusFormatError, "corpus manifest")
    manifest = read_json(data, CorpusFormatError, str(path), MANIFEST_MAGIC, (MANIFEST_VERSION,))
    check_fields(manifest, _MANIFEST_FIELDS, CorpusFormatError, str(path))
    check_fields(manifest["paths"], _PATHS_FIELDS, CorpusFormatError, f"{path}: 'paths'")
    for key, fields in (("documents", _DOCUMENT_FIELDS), ("rfes", _RFE_FIELDS)):
        for i, record in enumerate(manifest[key]):
            check_fields(record, fields, CorpusFormatError, f"{path}: {key}[{i}]")
    return manifest


def load_document(corpus_dir, doc_record: dict, channel: str = "ocr") -> Document:
    """Materialize one manifest document; ``channel`` is ``ocr`` or ``clean``."""
    return _read_document(
        Path(corpus_dir) / doc_record["dir"], doc_record, channel, "ocr_text"
    )


def load_document_dir(doc_dir, channel: str = "ocr") -> Document:
    """Materialize a standalone document directory written by the generator;
    its ``doc.json`` follows the manifest's rules."""
    path = Path(doc_dir) / "doc.json"
    data = read_bytes(path, CorpusFormatError, "doc.json")
    meta = read_json(data, CorpusFormatError, str(path))
    check_fields(meta, _DOC_JSON_FIELDS, CorpusFormatError, str(path))
    return _read_document(path.parent, meta, channel, "text")


@functools.cache
def _page_modules():
    """``(numpy, rfekit.image, rfekit.ensemble)``, imported once, at the first
    page made or read: a manifest read imports none of them, and a document
    read no import (two cost 3 us, 8% of loading the seed-42 train split).
    Callers read attributes per call, so a function replaced in its module runs."""
    import numpy

    from . import ensemble, image

    return numpy, image, ensemble


def _read_document(doc_dir: Path, meta: dict, channel: str, ocr_key: str) -> Document:
    """Pages and one text channel of a document; ``meta`` names its files (the
    OCR text under ``ocr_key``, which differs between manifest and doc.json).
    A named file that cannot be read raises :class:`CorpusFormatError`."""
    _, image, ensemble = _page_modules()
    if channel not in ("ocr", "clean"):
        raise ValueError(f"unknown text channel {channel!r}")
    pages = []
    for name in meta["pages"]:
        try:
            pages.append(image.read_pgm(doc_dir / name))
        except (OSError, UnicodeError) as exc:
            raise CorpusFormatError(f"cannot read page {doc_dir / name}: {exc}") from None
    text_path = doc_dir / meta[ocr_key if channel == "ocr" else "clean_text"]
    text = read_text(text_path, CorpusFormatError, "document text")
    return ensemble.Document(doc_id=meta["id"], pages=tuple(pages), text=text)

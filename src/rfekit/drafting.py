"""Field extraction, beneficiary lookup, template selection, and draft assembly.

Runs on the *raw* RFE text (no preprocessing; punctuation and digits carry the
field values). Field extraction is data-driven: a pattern file maps each field
name to a regex with one capture group, so a new RFE layout is a config
change, not a code change. Detected attacks plus the beneficiary's occupation
code pick response templates, whose ``{{placeholder}}`` slots are filled from
the extracted fields and the beneficiary record.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields as dataclass_fields
from datetime import date, datetime
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .attacks import DEFAULT_TAU, AttackReport, ExampleBank, detect_rfe
from .ioutil import NAME, check_fields, read_bytes, read_json, read_records, read_text

_DATE_FIELDS = ("rfe_date", "response_due_date")
PLACEHOLDER_RE = re.compile(r"\{\{([a-z_]+)\}\}")
SOC_CODE_RE = re.compile(r"^\d{2}-\d{4}$")

SECTION_DELIMITER = "\n\n"
PREAMBLE_TEMPLATE = """\
RESPONSE TO REQUEST FOR EVIDENCE

Case Number: {{case_number}}
Beneficiary: {{employee_name}}
Petitioner: {{employer_name}}
RFE Date: {{rfe_date}}
Response Due: {{response_due_date}}
Prepared by: {{attorney_name}}"""


class PatternFormatError(ValueError):
    """Malformed field-pattern file."""


class StoreFormatError(ValueError):
    """Malformed beneficiary store."""


class BeneficiaryNotFoundError(KeyError):
    """Case number missing from the beneficiary store."""


class TemplateFormatError(ValueError):
    """Malformed template library."""


class TemplateSelectionError(ValueError):
    """A detected attack has no applicable template."""


class DraftingError(RuntimeError):
    """The drafting pipeline cannot produce a draft (e.g. nothing detected)."""


@dataclass(frozen=True)
class RfeFields:
    """Values extracted from one RFE; absent fields are None, never errors."""

    case_number: str | None = None
    employee_name: str | None = None
    employer_name: str | None = None
    attorney_name: str | None = None
    rfe_date: date | None = None
    response_due_date: date | None = None

    def as_values(self) -> dict[str, str]:
        """Present fields as placeholder values; dates render as ISO."""
        out = {}
        for name in RFE_FIELD_NAMES:
            value = getattr(self, name)
            if value is not None:
                out[name] = value.isoformat() if isinstance(value, date) else value
        return out


class BeneficiaryRecord(NamedTuple):
    """One beneficiary: an immutable named tuple of the store's string fields."""

    case_number: str
    soc_code: str
    field_of_study: str
    degree: str
    institution: str

    def as_values(self) -> dict[str, str]:
        return self._asdict()


RFE_FIELD_NAMES = tuple(f.name for f in dataclass_fields(RfeFields))
BENEFICIARY_FIELD_NAMES = BeneficiaryRecord._fields
PLACEHOLDER_NAMESPACE = frozenset(
    RFE_FIELD_NAMES + BENEFICIARY_FIELD_NAMES + ("today",)
)


@dataclass(frozen=True)
class Template:
    """Response fragment keyed on an attack type and optional SOC codes.

    ``soc_codes`` is a frozenset of occupation codes, or None for the
    wildcard template that backstops any code.
    """

    template_id: str
    attack_id: str
    soc_codes: frozenset[str] | None
    body: str


def load_field_patterns(source=None) -> dict[str, re.Pattern]:
    """Compile the field-pattern file at path ``source`` (defaults to the one
    shipped in-package).

    Each pattern must contain exactly one capture group; matching is
    line-anchored (MULTILINE). An error about a file at a path names it.
    """
    if source is None:
        data = resources.files("rfekit.data").joinpath("field_patterns.json").read_bytes()
        what = "pattern file"
    else:
        data = read_bytes(source, PatternFormatError, "pattern file")
        what = f"pattern file {source}"
    payload = read_json(data, PatternFormatError, what, "field-patterns", (1,))
    check_fields(payload, {"patterns": dict}, PatternFormatError, what)
    patterns = {}
    for name, pattern in payload["patterns"].items():
        if name not in RFE_FIELD_NAMES:
            raise PatternFormatError(f"unknown field {name!r} in {what}")
        if not isinstance(pattern, str):
            raise PatternFormatError(f"field {name!r}: pattern is not a string")
        try:
            compiled = re.compile(pattern, re.MULTILINE)
        except re.error as exc:
            raise PatternFormatError(f"field {name!r}: bad regex ({exc})") from None
        if compiled.groups != 1:
            raise PatternFormatError(
                f"field {name!r}: pattern needs exactly one capture group"
            )
        patterns[name] = compiled
    return patterns


def extract_fields(rfe_text: str, patterns: dict[str, re.Pattern] | None = None) -> RfeFields:
    """Regex field extraction over the raw text; absence is data, not an error.
    A field is absent when its pattern does not match or its group took no part."""
    patterns = patterns if patterns is not None else load_field_patterns()
    found: dict[str, object] = {}
    for name, pattern in patterns.items():
        match = pattern.search(rfe_text)
        value = match and match.group(1)
        if value is None:
            continue
        if name in _DATE_FIELDS:
            parsed = parse_date(value)
            if parsed is not None:
                found[name] = parsed
        else:
            found[name] = value
    return RfeFields(**found)


def parse_date(text: str) -> date | None:
    """Accepts ``Month DD, YYYY`` and ``MM/DD/YYYY``; None when neither fits."""
    cleaned = " ".join(text.split())
    for fmt in ("%B %d, %Y", "%m/%d/%Y"):
        try:
            return datetime.strptime(cleaned, fmt).date()
        except ValueError:
            continue
    return None


class BeneficiaryStore:
    """Immutable case-number keyed lookup of beneficiary data."""

    def __init__(self, records):
        self._records: dict[str, BeneficiaryRecord] = {}
        for rec in records:
            if rec.case_number in self._records:
                raise StoreFormatError(f"duplicate case number {rec.case_number!r}")
            if not SOC_CODE_RE.match(rec.soc_code):
                raise StoreFormatError(
                    f"case {rec.case_number!r}: soc_code {rec.soc_code!r} "
                    f"does not match NN-NNNN"
                )
            self._records[rec.case_number] = rec

    def __len__(self) -> int:
        return len(self._records)

    @classmethod
    def load(cls, source, case_number: str | None = None) -> "BeneficiaryStore":
        """Read JSON-lines records keyed by case_number.

        Every line is decoded on its own, so an error names its line; a file
        that cannot be read or is not UTF-8, a line that is not JSON (or nests
        or digits past the decoder's limits) and a record without the five
        fields, or with one that is not a string, all raise
        :class:`StoreFormatError`, as do a duplicate case number and a
        ``soc_code`` that is not ``NN-NNNN``.

        With no ``case_number`` every line is checked. With one, the whole
        file is still read, but only the lines whose raw text contains the
        case number or a backslash (a JSON escape could spell it) are decoded
        and checked, and the store holds their records: the cost of a lookup
        is one record, and a malformed line elsewhere goes unseen.
        """
        rows = read_records(source, BENEFICIARY_FIELD_NAMES, StoreFormatError, "store",
                            holding=case_number)
        return cls(map(BeneficiaryRecord._make, rows))

    def lookup(self, case_number: str) -> BeneficiaryRecord:
        try:
            return self._records[case_number]
        except KeyError:
            raise BeneficiaryNotFoundError(case_number) from None


_TEMPLATE_FIELDS = {"id": str, "attack_id": str, "file": NAME}


def load_template_library(directory) -> tuple[Template, ...]:
    """Load and validate a template directory (templates.json + body files).

    Validation: unique template ids, SOC codes shaped NN-NNNN (or ``"*"`` for
    the wildcard), every placeholder drawn from the documented namespace, and
    every ``file`` a bare file name, so a body is always read from inside the
    library directory.
    """
    directory = Path(directory)
    path = directory / "templates.json"
    data = read_bytes(path, TemplateFormatError, "template library")
    manifest = read_json(data, TemplateFormatError, str(path), "template-library", (1,))
    check_fields(manifest, {"templates": list}, TemplateFormatError, str(path))
    templates = []
    seen = set()
    for i, entry in enumerate(manifest["templates"]):
        check_fields(entry, _TEMPLATE_FIELDS, TemplateFormatError, f"{path}: template entry {i}")
        template_id, soc_codes = entry["id"], entry.get("soc_codes")
        body = read_text(directory / entry["file"], TemplateFormatError, "template body")
        if template_id in seen:
            raise TemplateFormatError(f"duplicate template id {template_id!r}")
        seen.add(template_id)
        if soc_codes == "*":
            selector = None
        elif not isinstance(soc_codes, list):
            raise TemplateFormatError(
                f"template {template_id!r}: soc_codes must be a list or '*'"
            )
        else:
            bad = [c for c in soc_codes
                   if not isinstance(c, str) or not SOC_CODE_RE.match(c)]
            if bad:
                raise TemplateFormatError(
                    f"template {template_id!r}: bad soc codes {bad}"
                )
            selector = frozenset(soc_codes)
        unknown = set(PLACEHOLDER_RE.findall(body)) - PLACEHOLDER_NAMESPACE
        if unknown:
            raise TemplateFormatError(
                f"template {template_id!r}: placeholders outside the field "
                f"namespace: {sorted(unknown)}"
            )
        templates.append(Template(template_id, entry["attack_id"], selector, body))
    return tuple(templates)


def select_templates(
    report: AttackReport,
    record: BeneficiaryRecord | None,
    library,
) -> list[Template]:
    """Pick templates for each detected attack, in detection (bank) order.

    SOC-specific templates win when one matches the beneficiary's code; the
    attack's wildcard template is the fallback (and the only option when no
    beneficiary record is available). An attack with neither is an error.
    """
    selected = []
    for attack_id in report.detected:
        candidates = [t for t in library if t.attack_id == attack_id]
        specific = [
            t
            for t in candidates
            if t.soc_codes is not None
            and record is not None
            and record.soc_code in t.soc_codes
        ]
        chosen = specific or [t for t in candidates if t.soc_codes is None]
        if not chosen:
            raise TemplateSelectionError(
                f"no applicable template for attack {attack_id!r}"
            )
        selected.extend(chosen)
    return selected


def render_with_markers(body: str, values) -> tuple[str, tuple[str, ...]]:
    """Single-pass fill; unresolved placeholders become ``[MISSING name]``.

    Inserted values are never re-scanned, so a value containing ``{{x}}``
    stays literal. Returns the text and the sorted missing-name tuple.
    """
    missing = []

    def _sub(match):
        name = match.group(1)
        if name in values:
            return values[name]
        missing.append(name)
        return f"[MISSING {name}]"

    return PLACEHOLDER_RE.sub(_sub, body), tuple(sorted(set(missing)))


@dataclass(frozen=True)
class DraftManifest:
    """Sidecar record of what fired and why."""

    status: str
    missing_fields: tuple[str, ...]
    template_ids: tuple[str, ...]
    detected: tuple[str, ...]
    threshold: float | None
    evidence: tuple
    case_number: str | None


@dataclass(frozen=True)
class ResponseDraft:
    preamble: str
    sections: tuple[str, ...]
    manifest: DraftManifest

    def render(self) -> str:
        """Preamble and sections joined by the documented delimiter."""
        return SECTION_DELIMITER.join((self.preamble, *self.sections)) + "\n"


def draft_response(
    rfe_text: str,
    bank: ExampleBank,
    store: BeneficiaryStore,
    library,
    *,
    tau: float = DEFAULT_TAU,
    fields: RfeFields | None = None,
    today: date | None = None,
) -> ResponseDraft:
    """End-to-end drafting: detect, extract, look up, select, fill, assemble.

    ``fields`` are the RFE's extracted fields; when None, they are extracted
    from ``rfe_text`` with the packaged patterns. The case-header preamble
    and each selected template, in selection order, are filled from one
    values map: the extracted fields, the beneficiary record and ``today``.
    Status is ``complete`` only when no placeholder anywhere (preamble
    included) went unresolved. A missing beneficiary record is not fatal:
    selection falls back to wildcard templates and the draft comes out
    ``incomplete`` with the unresolved names listed.
    Detecting no attacks at all is fatal; there is nothing to draft.
    """
    report = detect_rfe(rfe_text, bank, tau)
    if not report.detected:
        raise DraftingError("no attack types detected; nothing to draft")

    if fields is None:
        fields = extract_fields(rfe_text)
    record = None
    if fields.case_number is not None:
        try:
            record = store.lookup(fields.case_number)
        except BeneficiaryNotFoundError:
            record = None

    values = fields.as_values()
    if record is not None:
        values.update(record.as_values())
    values["today"] = (today or date.today()).isoformat()

    selected = select_templates(report, record, library)
    texts, missing = [], set()
    for body in (PREAMBLE_TEMPLATE, *(t.body for t in selected)):
        text, body_missing = render_with_markers(body, values)
        texts.append(text)
        missing.update(body_missing)
    manifest = DraftManifest(
        status="incomplete" if missing else "complete",
        missing_fields=tuple(sorted(missing)),
        template_ids=tuple(t.template_id for t in selected),
        detected=report.detected,
        threshold=report.threshold,
        evidence=report.evidence,
        case_number=fields.case_number,
    )
    return ResponseDraft(preamble=texts[0], sections=tuple(texts[1:]), manifest=manifest)

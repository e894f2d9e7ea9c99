"""Seeded mutation fuzz of the line-based loaders over the seed-42 corpus files.

Each mutant is a valid file with one to three byte-level edits. Only the
format's own error may escape a loader; the beneficiary store must also give
exactly the records, or exactly the error, of the loader it replaced.
"""

import json
import random
import warnings
from dataclasses import dataclass

import pytest

from rfekit.attacks import BankFormatError, ExampleBank, load_bank
from rfekit.drafting import (
    BENEFICIARY_FIELD_NAMES,
    BeneficiaryRecord,
    BeneficiaryStore,
    StoreFormatError,
)

MUTANTS = 400
FRAGMENTS = [
    b"{", b"}", b"[", b"]", b'"', b":", b",", b"\\", b" ", b"\n", b"\r", b"0",
    b"9", b"-", b"x", b"null", b"true", b"1e999", b"\xc3\xa9", b"\xff", b"\xe2\x82",
    b'"case_number": "A"', b'"soc_code": "1-2"', b'"sentence": ""',
]


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        lines = data.split(b"\n")
        op = rng.randrange(7)
        pos = rng.randrange(len(data) + 1)
        if op == 0:
            data = data[:pos] + rng.choice(FRAGMENTS) + data[pos:]
        elif op == 1:
            data = data[:pos] + data[pos + rng.randint(1, 8):]
        elif op == 2 and data:
            data = data[:pos] + bytes([rng.randrange(256)]) + data[pos + 1:]
        elif op == 3:
            data = data[:pos]
        elif op == 4:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            data = b"\n".join(lines)
        elif op == 5:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
        else:
            data = data.replace(b"\n", b"", 1)
    return data


@dataclass(frozen=True)
class _FrozenRecord:
    case_number: str
    soc_code: str
    field_of_study: str
    degree: str
    institution: str


def reference_store_load(path):
    """``BeneficiaryStore.load`` as it was with frozen-dataclass records."""
    lines = path.read_text("utf-8").splitlines()
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            records.append(
                _FrozenRecord(**{k: str(obj[k]) for k in BENEFICIARY_FIELD_NAMES})
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise StoreFormatError(f"store line {lineno}: {exc}") from None
    return BeneficiaryStore(records)


def store_outcome(load, path):
    """("ok", every record's fields in store order) or ("error", the message)."""
    try:
        store = load(path)
    except StoreFormatError as exc:
        return "error", str(exc)
    return "ok", [tuple(getattr(r, k) for k in BENEFICIARY_FIELD_NAMES)
                  for r in store._records.values()]


def test_store_load_mutants_match_reference(rfe_corpus_42, tmp_path):
    root, manifest = rfe_corpus_42
    original = (root / manifest["paths"]["store"]).read_bytes()
    rng = random.Random(4242)
    path = tmp_path / "store.jsonl"
    outcomes = set()
    for _ in range(MUTANTS):
        path.write_bytes(mutate(original, rng))
        try:
            expected = store_outcome(reference_store_load, path)
        except UnicodeDecodeError:
            with pytest.raises(StoreFormatError, match="not UTF-8"):
                BeneficiaryStore.load(path)
            outcomes.add("utf-8")
            continue
        assert store_outcome(BeneficiaryStore.load, path) == expected
        outcomes.add(expected[0])
    assert outcomes == {"ok", "error", "utf-8"}


def test_bank_load_mutants_raise_only_bank_format_error(rfe_corpus_42, tmp_path):
    root, manifest = rfe_corpus_42
    original = (root / manifest["paths"]["bank"]).read_bytes()
    rng = random.Random(2424)
    path = tmp_path / "bank.jsonl"
    outcomes = set()
    for _ in range(MUTANTS):
        path.write_bytes(mutate(original, rng))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                bank = load_bank(path)
            except BankFormatError:
                outcomes.add("error")
                continue
        assert isinstance(bank, ExampleBank) and bank.vectors
        outcomes.add("ok")
    assert outcomes == {"ok", "error"}


def test_store_records_are_immutable_named_tuples(rfe_corpus_42):
    root, manifest = rfe_corpus_42
    store = BeneficiaryStore.load(root / manifest["paths"]["store"])
    record = store.lookup(manifest["rfes"][0]["case_number"])
    assert isinstance(record, BeneficiaryRecord)
    assert record._fields == BENEFICIARY_FIELD_NAMES
    assert record.as_values() == {k: getattr(record, k) for k in BENEFICIARY_FIELD_NAMES}
    with pytest.raises(AttributeError):
        record.soc_code = "00-0000"


@pytest.mark.parametrize(
    "line",
    ['{"case_number": 1' + "0" * 5000 + "}", "[" * 100_000],
    ids=["5000-digit-int", "deep-nesting"],
)
def test_decoder_limits_raise_format_errors(line):
    with pytest.raises(StoreFormatError, match="store line 2"):
        BeneficiaryStore.load(["", line])
    with pytest.raises(BankFormatError, match="bank line 1"):
        load_bank([line])

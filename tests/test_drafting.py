import json
import re
from datetime import date

import pytest

from rfekit.attacks import AttackReport, Evidence, load_bank
from rfekit.drafting import (
    BENEFICIARY_FIELD_NAMES,
    BeneficiaryNotFoundError,
    BeneficiaryRecord,
    BeneficiaryStore,
    PatternFormatError,
    StoreFormatError,
    Template,
    TemplateFormatError,
    TemplateSelectionError,
    draft_response,
    extract_fields,
    load_field_patterns,
    load_template_library,
    parse_date,
    render_with_markers,
    select_templates,
)

RFE_TEXT = """REQUEST FOR EVIDENCE
Case Number: ABC-21-900-11111
Employee Name: Asha Rao
Employer Name: Initech Analytics LLC
Attorney Name: J. Marsh
RFE Date: March 3, 2021
Response Due: June 1, 2021

Provide evidence of the degree requirement.
"""


def record(case="ABC-21-900-11111", soc="15-1211"):
    return BeneficiaryRecord(
        case_number=case,
        soc_code=soc,
        field_of_study="Computer Science",
        degree="Bachelor of Science",
        institution="University of Pune",
    )


def report(*attacks):
    return AttackReport(
        detected=tuple(attacks), evidence=(Evidence(0, 0, 0.9),), threshold=0.6
    )


def test_extract_all_fields():
    fields = extract_fields(RFE_TEXT)
    assert fields.case_number == "ABC-21-900-11111"
    assert fields.employee_name == "Asha Rao"
    assert fields.employer_name == "Initech Analytics LLC"
    assert fields.attorney_name == "J. Marsh"
    assert fields.rfe_date == date(2021, 3, 3)
    assert fields.response_due_date == date(2021, 6, 1)


def test_extract_missing_field_is_absent():
    text = RFE_TEXT.replace("Response Due: June 1, 2021\n", "")
    fields = extract_fields(text)
    assert fields.response_due_date is None
    assert fields.case_number == "ABC-21-900-11111"


def test_extract_runs_on_raw_text():
    # punctuation and digits must survive extraction; the preprocessed
    # channel would have destroyed the case number
    fields = extract_fields("Case Number: ZZZ-99-123-00042\n")
    assert fields.case_number == "ZZZ-99-123-00042"


def test_parse_date_formats():
    assert parse_date("March 3, 2021") == date(2021, 3, 3)
    assert parse_date("03/03/2021") == date(2021, 3, 3)
    assert parse_date("3/4/2021") == date(2021, 3, 4)
    assert parse_date("not a date") is None


def test_date_invariant_on_generated_layout():
    fields = extract_fields(RFE_TEXT)
    assert fields.response_due_date >= fields.rfe_date


def write_patterns(tmp_path, data):
    path = tmp_path / "patterns.json"
    path.write_bytes(data)
    return path


def test_load_patterns_rejects_multi_group(tmp_path):
    bad = json.dumps(
        {
            "format": "field-patterns",
            "version": 1,
            "patterns": {"case_number": "(a)(b)"},
        }
    )
    with pytest.raises(Exception, match="capture group"):
        load_field_patterns(write_patterns(tmp_path, bad.encode()))


def pattern_file(patterns):
    return json.dumps({"format": "field-patterns", "version": 1, "patterns": patterns})


@pytest.mark.parametrize(
    "field, label, value, parsed",
    [("rfe_date", "RFE Date:", "March 3, 2021", date(2021, 3, 3)),
     ("employee_name", "Employee Name:", "Asha Rao", "Asha Rao")],
)
def test_extract_unmatched_group_is_an_absent_field(tmp_path, field, label, value, parsed):
    """A pattern whose one group is optional can match without it; the field
    is then absent, as when the pattern does not match at all."""
    pattern = f"^{label}(?:[ \\t]+(.+))?$"
    patterns = load_field_patterns(write_patterns(tmp_path, pattern_file({field: pattern}).encode()))
    assert getattr(extract_fields(f"{label}\n", patterns), field) is None
    assert getattr(extract_fields(f"{label} {value}\n", patterns), field) == parsed


@pytest.mark.parametrize(
    "data",
    [
        b"[]",
        pattern_file([]).encode(),
        pattern_file({"case_number": 5}).encode(),
        b"\xff" + pattern_file({}).encode(),
        b"[" * 100_000,
    ],
    ids=["top-level-list", "patterns-list", "non-string-pattern", "not-utf-8", "deep-nesting"],
)
def test_load_patterns_raises_pattern_format_error(tmp_path, data):
    with pytest.raises(PatternFormatError):
        load_field_patterns(write_patterns(tmp_path, data))


def test_load_patterns_requires_the_patterns_key(tmp_path):
    """A misspelt key is an error, not an empty pattern set."""
    data = json.dumps({"format": "field-patterns", "version": 1, "pattern": {}}).encode()
    path = re.escape(str(tmp_path / "patterns.json"))
    with pytest.raises(PatternFormatError,
                       match=f"^pattern file {path}: 'patterns' is missing or not an object$"):
        load_field_patterns(write_patterns(tmp_path, data))


def test_store_lookup_known_and_unknown():
    store = BeneficiaryStore([record()])
    assert store.lookup("ABC-21-900-11111").soc_code == "15-1211"
    with pytest.raises(BeneficiaryNotFoundError):
        store.lookup("nope")


def test_store_duplicate_case_numbers_rejected():
    with pytest.raises(StoreFormatError, match="duplicate"):
        BeneficiaryStore([record(), record()])


def test_store_validates_soc_format():
    with pytest.raises(StoreFormatError, match="NN-NNNN"):
        BeneficiaryStore([record(soc="151211")])


def test_store_load_jsonl():
    line = json.dumps(
        {
            "case_number": "X-1",
            "soc_code": "15-1252",
            "field_of_study": "CS",
            "degree": "BS",
            "institution": "U",
        }
    )
    store = BeneficiaryStore.load([line])
    assert store.lookup("X-1").institution == "U"


STORE_RECORD = {"case_number": "X-1", "soc_code": "15-1252", "field_of_study": "CS",
                "degree": "BS", "institution": "U"}


@pytest.mark.parametrize("value", [None, 7, 2.5, True, ["CS"], {"x": 1}],
                         ids=["null", "int", "float", "bool", "list", "object"])
@pytest.mark.parametrize("key", BENEFICIARY_FIELD_NAMES)
def test_store_load_rejects_a_value_that_is_not_a_string(key, value):
    """A store value of another JSON type is never coerced with ``str`` (a
    null field of study would be drafted as ``None``)."""
    lines = [json.dumps({**STORE_RECORD, "case_number": "X-0"}),
             json.dumps({**STORE_RECORD, key: value})]
    with pytest.raises(StoreFormatError, match="^store line 2: every field must be a string$"):
        BeneficiaryStore.load(lines)


def store_line(case="X-1", **fields):
    return json.dumps({**STORE_RECORD, "case_number": case, **fields})


def test_store_load_for_a_case_skips_a_malformed_line_that_cannot_hold_it():
    lines = [store_line("X-0"), "{not json", store_line("X-1"), store_line("X-2", soc_code="?")]
    store = BeneficiaryStore.load(lines, case_number="X-1")
    assert store.lookup("X-1") == BeneficiaryRecord(**{**STORE_RECORD, "case_number": "X-1"})
    assert len(store) == 1
    with pytest.raises(StoreFormatError, match="^store line 2: "):
        BeneficiaryStore.load(lines)


def test_store_load_for_a_case_names_the_true_line_of_a_malformed_target(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text("\n".join([store_line("X-0"), "", "{oops", store_line("X-2"),
                               store_line("X-1", soc_code=15)]) + "\n", "utf-8")
    with pytest.raises(StoreFormatError, match="^store line 5: every field must be a string$"):
        BeneficiaryStore.load(path, case_number="X-1")


@pytest.mark.parametrize("lines, message", [
    ([store_line("X-0"), store_line("X-1"), store_line("X-1")], "duplicate case number 'X-1'"),
    ([store_line("X-1", soc_code="151252")], "case 'X-1': soc_code '151252' does not match NN-NNNN"),
], ids=["duplicate", "bad-soc-code"])
def test_store_load_for_a_case_applies_every_record_rule_to_the_target(lines, message):
    with pytest.raises(StoreFormatError, match=f"^{re.escape(message)}$"):
        BeneficiaryStore.load(lines, case_number="X-1")


def test_store_load_for_a_case_finds_a_case_number_spelt_with_escapes():
    escaped = store_line("X-1").replace('"X-1"', '"\\u0058\\u002d\\u0031"')
    assert "X-1" not in escaped
    store = BeneficiaryStore.load([store_line("X-0"), escaped], case_number="X-1")
    assert store.lookup("X-1").institution == "U"


def test_store_load_for_a_case_chooses_the_exact_record():
    lines = [store_line("X-10", institution="ten"), store_line("X-1", institution="one"),
             store_line("X-100", institution="hundred")]
    for case, institution in [("X-1", "one"), ("X-10", "ten"), ("X-100", "hundred")]:
        assert BeneficiaryStore.load(lines, case_number=case).lookup(case).institution == institution
    with pytest.raises(BeneficiaryNotFoundError):
        BeneficiaryStore.load(lines, case_number="X-1000").lookup("X-1000")


def test_store_load_for_a_case_still_reads_the_file(tmp_path):
    path = tmp_path / "absent.jsonl"
    with pytest.raises(StoreFormatError, match=f"^cannot read store {re.escape(str(path))}: "):
        BeneficiaryStore.load(path, case_number="X-1")


def make_library():
    return (
        Template("so/15-1211", "specialty-occupation", frozenset({"15-1211"}),
                 "Specific for {{soc_code}}: {{employee_name}}"),
        Template("so/any", "specialty-occupation", None,
                 "Wildcard: {{degree}} in {{field_of_study}}"),
        Template("bq/any", "beneficiary-qualification", None,
                 "Qualification: {{institution}}"),
    )


def test_select_soc_specific_template():
    chosen = select_templates(report("specialty-occupation"), record(), make_library())
    assert [t.template_id for t in chosen] == ["so/15-1211"]


def test_select_falls_back_to_wildcard():
    chosen = select_templates(
        report("specialty-occupation"), record(soc="99-9999"), make_library()
    )
    assert [t.template_id for t in chosen] == ["so/any"]


def test_select_without_record_uses_wildcard():
    chosen = select_templates(report("specialty-occupation"), None, make_library())
    assert [t.template_id for t in chosen] == ["so/any"]


def test_select_no_template_is_error():
    with pytest.raises(TemplateSelectionError, match="employer-employee"):
        select_templates(report("employer-employee-relationship"), record(), make_library())


def test_select_keeps_detection_order():
    chosen = select_templates(
        report("specialty-occupation", "beneficiary-qualification"),
        record(),
        make_library(),
    )
    assert [t.template_id for t in chosen] == ["so/15-1211", "bq/any"]


def test_render_fills_placeholder_values():
    text, missing = render_with_markers("Dear {{attorney_name}},", {"attorney_name": "J. Doe"})
    assert (text, missing) == ("Dear J. Doe,", ())


def test_fill_is_single_pass():
    text, missing = render_with_markers(
        "value: {{employee_name}}", {"employee_name": "{{soc_code}}"}
    )
    assert text == "value: {{soc_code}}"  # inserted literally, never re-expanded
    assert missing == ()


def test_render_with_markers():
    text, missing = render_with_markers("{{degree}} from {{institution}}", {})
    assert text == "[MISSING degree] from [MISSING institution]"
    assert missing == ("degree", "institution")
    _, missing = render_with_markers("{{soc_code}} and {{degree}} and {{soc_code}}", {})
    assert missing == ("degree", "soc_code")


def test_template_library_roundtrip(tmp_path):
    lib_dir = tmp_path / "templates"
    lib_dir.mkdir()
    (lib_dir / "a.txt").write_text("Body {{employee_name}}", "utf-8")
    (lib_dir / "templates.json").write_text(
        json.dumps(
            {
                "format": "template-library",
                "version": 1,
                "templates": [
                    {"id": "a", "attack_id": "x", "soc_codes": "*", "file": "a.txt"}
                ],
            }
        ),
        "utf-8",
    )
    lib = load_template_library(lib_dir)
    assert lib[0].soc_codes is None
    assert lib[0].body == "Body {{employee_name}}"


def write_library(lib_dir, manifest, body=b"Body {{employee_name}}"):
    lib_dir.mkdir()
    (lib_dir / "a.txt").write_bytes(body)
    data = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    (lib_dir / "templates.json").write_bytes(data)


def library_manifest(**entry):
    entry = {"id": "a", "attack_id": "x", "soc_codes": "*", "file": "a.txt", **entry}
    return {"format": "template-library", "version": 1, "templates": [entry]}


@pytest.mark.parametrize(
    "manifest, body",
    [
        ([], b"Body"),
        ({"format": "template-library", "version": 1, "templates": 5}, b"Body"),
        (library_manifest(soc_codes=5), b"Body"),
        (library_manifest(soc_codes=[15]), b"Body"),
        (library_manifest(id=["a"]), b"Body"),
        (library_manifest(file="."), b"Body"),
        (library_manifest(file="a\u0000.txt"), b"Body"),
        (b"\xff" + json.dumps(library_manifest()).encode(), b"Body"),
        (library_manifest(), b"Body \xff"),
        ({**library_manifest(), "templates": library_manifest()["templates"] * 2}, b"Body"),
    ],
    ids=["top-level-list", "templates-int", "soc-codes-int", "soc-code-int", "id-list",
         "file-is-dir", "file-nul", "manifest-not-utf-8", "body-not-utf-8", "duplicate-id"],
)
def test_template_library_raises_template_format_error(tmp_path, manifest, body):
    write_library(tmp_path / "templates", manifest, body)
    with pytest.raises(TemplateFormatError):
        load_template_library(tmp_path / "templates")


def test_template_library_requires_the_templates_key(tmp_path):
    """A misspelt key is an error, not an empty library."""
    manifest = library_manifest()
    manifest["template"] = manifest.pop("templates")
    write_library(tmp_path / "templates", manifest)
    path = re.escape(str(tmp_path / "templates" / "templates.json"))
    with pytest.raises(TemplateFormatError,
                       match=f"^{path}: 'templates' is missing or not a list$"):
        load_template_library(tmp_path / "templates")


def test_template_library_invalid_json_names_the_file(tmp_path):
    write_library(tmp_path / "templates", b"{not json")
    path = re.escape(str(tmp_path / "templates" / "templates.json"))
    with pytest.raises(TemplateFormatError, match=f"^unreadable {path} \\(Expecting property name"):
        load_template_library(tmp_path / "templates")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"{not json", r"^unreadable pattern file {path} \(Expecting property name"),
        (json.dumps({"format": "field-patterns", "version": 1}).encode(),
         r"^pattern file {path}: 'patterns' is missing or not an object$"),
    ],
    ids=["invalid-json", "missing-key"],
)
def test_pattern_file_errors_name_the_file(tmp_path, data, message):
    (tmp_path / "patterns.json").write_bytes(data)
    path = re.escape(str(tmp_path / "patterns.json"))
    with pytest.raises(PatternFormatError, match=message.format(path=path)):
        load_field_patterns(tmp_path / "patterns.json")


@pytest.mark.parametrize(
    "name",
    ["../x.txt", "/etc/hostname", "sub/x.txt", "..", "ABSOLUTE", "./a.txt"],
    ids=["parent", "etc-hostname", "subdir", "dot-dot", "absolute-existing",
         "dot-slash"],
)
def test_template_file_must_be_a_bare_name(tmp_path, name):
    """Every target below is a readable file (or directory), so only the
    name rule rejects it."""
    lib_dir = tmp_path / "templates"
    (tmp_path / "x.txt").write_text("Body", "utf-8")
    if name == "ABSOLUTE":
        name = str(tmp_path / "x.txt")
    write_library(lib_dir, library_manifest(file=name))
    (lib_dir / "sub").mkdir()
    (lib_dir / "sub" / "x.txt").write_text("Body", "utf-8")
    with pytest.raises(TemplateFormatError, match="not a file name"):
        load_template_library(lib_dir)


def test_template_library_rejects_unknown_placeholder(tmp_path):
    lib_dir = tmp_path / "templates"
    lib_dir.mkdir()
    (lib_dir / "a.txt").write_text("Body {{nonsense_name}}", "utf-8")
    (lib_dir / "templates.json").write_text(
        json.dumps(
            {
                "format": "template-library",
                "version": 1,
                "templates": [
                    {"id": "a", "attack_id": "x", "soc_codes": "*", "file": "a.txt"}
                ],
            }
        ),
        "utf-8",
    )
    with pytest.raises(TemplateFormatError, match="nonsense_name"):
        load_template_library(lib_dir)


DEGREE_BANK = [json.dumps({"attack_id": "degree", "description": "degree",
                          "sentence": "Provide evidence of the degree requirement."})]


def draft(bodies, rfe_text=RFE_TEXT, beneficiary=None):
    """``draft_response`` on a one-attack bank whose sentence ``rfe_text``
    repeats, with one wildcard template per body, in order."""
    library = [Template(f"degree/{i}", "degree", None, body) for i, body in enumerate(bodies)]
    store = BeneficiaryStore([beneficiary or record()])
    return draft_response(rfe_text, load_bank(DEGREE_BANK), store, library,
                          today=date(2021, 1, 1))


def test_draft_single_section():
    result = draft(["SECTION ONE"])
    text = result.render()
    assert text.startswith("RESPONSE TO REQUEST FOR EVIDENCE")
    assert "Case Number: ABC-21-900-11111" in text
    assert text.rstrip("\n").endswith("SECTION ONE")
    assert result.manifest.status == "complete"
    assert result.manifest.template_ids == ("degree/0",)


def test_draft_preserves_section_order():
    sections = ["SECTION-ALPHA", "SECTION-BETA", "SECTION-GAMMA"]
    result = draft(sections)
    body = result.render()
    assert (
        body.index("SECTION-ALPHA")
        < body.index("SECTION-BETA")
        < body.index("SECTION-GAMMA")
    )
    assert result.sections == tuple(sections)
    assert result.manifest.template_ids == ("degree/0", "degree/1", "degree/2")


def test_draft_incomplete_when_preamble_missing_fields():
    result = draft(["S"], rfe_text="Case Number: X-1\nProvide evidence of the degree requirement.\n")
    assert result.manifest.status == "incomplete"
    assert "employee_name" in result.manifest.missing_fields
    assert "[MISSING employee_name]" in result.preamble
    assert result.sections == ("S",)
    assert "{{" not in result.render()


def test_inserted_values_appear_verbatim():
    weird = record()._replace(field_of_study="{{literal}} & <tags>")
    result = draft(["Weird value: {{field_of_study}} kept"], beneficiary=weird)
    assert "Weird value: {{literal}} & <tags> kept" in result.render()
    assert result.manifest.status == "complete"

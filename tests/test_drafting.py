import json
from datetime import date

import pytest

from rfekit.attacks import AttackReport, Evidence
from rfekit.drafting import (
    BeneficiaryNotFoundError,
    BeneficiaryRecord,
    BeneficiaryStore,
    PatternFormatError,
    StoreFormatError,
    Template,
    TemplateFormatError,
    TemplateSelectionError,
    assemble_response,
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


def test_load_patterns_rejects_multi_group():
    bad = json.dumps(
        {
            "format": "field-patterns",
            "version": 1,
            "patterns": {"case_number": "(a)(b)"},
        }
    )
    with pytest.raises(Exception, match="capture group"):
        load_field_patterns(bad.encode())


def pattern_file(patterns):
    return json.dumps({"format": "field-patterns", "version": 1, "patterns": patterns})


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
def test_load_patterns_raises_pattern_format_error(data):
    with pytest.raises(PatternFormatError):
        load_field_patterns(data)


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
    ],
    ids=["top-level-list", "templates-int", "soc-codes-int", "soc-code-int", "id-list",
         "file-is-dir", "file-nul", "manifest-not-utf-8", "body-not-utf-8"],
)
def test_template_library_raises_template_format_error(tmp_path, manifest, body):
    write_library(tmp_path / "templates", manifest, body)
    with pytest.raises(TemplateFormatError):
        load_template_library(tmp_path / "templates")


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


def test_assemble_single_section():
    draft = assemble_response(["SECTION ONE"], extract_fields(RFE_TEXT))
    text = draft.render()
    assert text.startswith("RESPONSE TO REQUEST FOR EVIDENCE")
    assert "Case Number: ABC-21-900-11111" in text
    assert text.rstrip("\n").endswith("SECTION ONE")
    assert draft.manifest.status == "complete"


def test_assemble_preserves_section_order():
    sections = ["SECTION-ALPHA", "SECTION-BETA", "SECTION-GAMMA"]
    draft = assemble_response(sections, extract_fields(RFE_TEXT))
    body = draft.render()
    assert (
        body.index("SECTION-ALPHA")
        < body.index("SECTION-BETA")
        < body.index("SECTION-GAMMA")
    )
    assert draft.sections == tuple(sections)


def test_assemble_empty_sections_error():
    with pytest.raises(ValueError, match="no sections"):
        assemble_response([], extract_fields(RFE_TEXT))


def test_assemble_incomplete_when_preamble_missing_fields():
    fields = extract_fields("Case Number: X-1\n")
    draft = assemble_response(["S"], fields)
    assert draft.manifest.status == "incomplete"
    assert "employee_name" in draft.manifest.missing_fields
    assert "[MISSING employee_name]" in draft.preamble
    assert "{{" not in draft.render()


def test_inserted_values_appear_verbatim():
    fields = extract_fields(RFE_TEXT)
    draft = assemble_response(
        ["Weird value: {{literal}} & <tags> kept"], fields
    )
    assert "Weird value: {{literal}} & <tags> kept" in draft.render()

import json
import random

import numpy as np
import pytest

from rfekit.attacks import (
    BankFormatError,
    Evidence,
    detect_attacks,
    detect_rfe,
    load_bank,
    similarity_matrix,
)
from rfekit.text import load_stopwords, split_sentences
from rfekit.vectorize import cosine, tfidf_vector


def bank_line(attack_id, sentence, description=None):
    return json.dumps(
        {
            "attack_id": attack_id,
            "description": description or attack_id,
            "sentence": sentence,
        }
    )


SMALL_BANK = [
    bank_line("specialty-occupation", "position requires specialized degree knowledge"),
    bank_line("specialty-occupation", "occupation demands a baccalaureate in the specialty"),
    bank_line("qualification", "beneficiary degree transcripts must be submitted"),
    bank_line("qualification", "credentials evaluation from qualified evaluator"),
]


def exhaustive_oracle(matrix, bank, tau):
    """Dense loop over all pairs, straight from the decision rule."""
    detected = set()
    for i in range(len(matrix)):
        for j in range(len(matrix[i])):
            if matrix[i][j] > tau:
                detected.add(bank.attack_of(j))
    return detected


def test_load_bank_counts():
    bank = load_bank(SMALL_BANK)
    assert len(bank.examples) == len(bank.norms) == 4
    assert bank.attack_ids == ("specialty-occupation", "qualification")
    assert bank.vocab.n_range == (1, 2, 3)


def test_load_bank_empty_file():
    with pytest.raises(BankFormatError, match="empty"):
        load_bank([])


def test_load_bank_drops_empty_sentence_with_warning():
    lines = SMALL_BANK + [bank_line("qualification", "the 123 !!")]
    with pytest.warns(UserWarning, match="zero tokens"):
        bank = load_bank(lines)
    assert len(bank.examples) == 4


def test_load_bank_attack_with_no_survivors():
    lines = [
        bank_line("specialty-occupation", "position requires specialized degree"),
        bank_line("orphan", "the of 9"),
    ]
    with pytest.warns(UserWarning):
        with pytest.raises(BankFormatError, match="orphan"):
            load_bank(lines)


def test_load_bank_conflicting_descriptions():
    lines = [
        bank_line("a", "first sentence words here", description="one"),
        bank_line("a", "second sentence words here", description="two"),
    ]
    with pytest.raises(BankFormatError, match="different descriptions"):
        load_bank(lines)


def test_load_bank_bad_json():
    with pytest.raises(BankFormatError, match="^bank line 1: Expecting property name"):
        load_bank(["{not json"])


@pytest.mark.parametrize("value", [None, 7, 2.5, True, ["a"], {"x": 1}],
                         ids=["null", "int", "float", "bool", "list", "object"])
@pytest.mark.parametrize("key", ["attack_id", "description", "sentence"])
def test_load_bank_rejects_a_value_that_is_not_a_string(key, value):
    """A bank value of another JSON type is never coerced with ``str`` (an
    ``attack_id`` of 7 would become the attack ``'7'``)."""
    line = {"attack_id": "a", "description": "a", "sentence": "degree in the specialty",
            key: value}
    with pytest.raises(BankFormatError,
                       match="^bank line 3: every field must be a string$"):
        load_bank(SMALL_BANK[:1] + [""] + [json.dumps(line)])


def test_identical_sentence_scores_one():
    bank = load_bank(SMALL_BANK)
    sentence = ["position", "requires", "specialized", "degree", "knowledge"]
    matrix = similarity_matrix([sentence], bank)
    assert matrix[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_unrelated_sentence_scores_zero_row():
    bank = load_bank(SMALL_BANK)
    matrix = similarity_matrix([["zebra", "quantum", "lattice"]], bank)
    assert matrix[0] == pytest.approx(np.zeros(4))


def test_matrix_shape_and_range():
    bank = load_bank(SMALL_BANK)
    sentences = [
        ["position", "requires", "degree"],
        ["credentials", "evaluation"],
        ["nothing", "related"],
    ]
    matrix = similarity_matrix(sentences, bank)
    assert matrix.shape == (3, 4)
    assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0 + 1e-12)


def test_empty_sentence_list_gives_empty_matrix():
    bank = load_bank(SMALL_BANK)
    matrix = similarity_matrix([], bank)
    assert matrix.shape == (0, 4)
    report = detect_attacks(matrix, bank, 0.6)
    assert report.detected == ()


def test_detect_strict_inequality_at_boundary():
    bank = load_bank(SMALL_BANK)
    matrix = np.full((1, 4), 0.6)
    assert detect_attacks(matrix, bank, 0.6).detected == ()
    matrix[0, 0] = 0.6000001
    assert detect_attacks(matrix, bank, 0.6).detected == ("specialty-occupation",)


def test_detect_collects_all_evidence_pairs():
    bank = load_bank(SMALL_BANK)
    matrix = np.zeros((3, 4))
    matrix[0, 0] = 0.9
    matrix[2, 1] = 0.7
    report = detect_attacks(matrix, bank, 0.6)
    assert report.detected == ("specialty-occupation",)
    assert [tuple(e) for e in report.evidence] == [(0, 0, 0.9), (2, 1, 0.7)]


def test_detect_tau_out_of_range():
    bank = load_bank(SMALL_BANK)
    with pytest.raises(ValueError, match="tau"):
        detect_attacks(np.zeros((1, 4)), bank, 1.5)


def test_detect_matrix_width_mismatch():
    bank = load_bank(SMALL_BANK)
    with pytest.raises(ValueError, match="columns"):
        detect_attacks(np.zeros((1, 3)), bank, 0.5)


def test_detected_order_follows_bank_declaration():
    bank = load_bank(SMALL_BANK)
    matrix = np.zeros((1, 4))
    matrix[0, 3] = 0.9  # qualification
    matrix[0, 0] = 0.8  # specialty-occupation
    report = detect_attacks(matrix, bank, 0.6)
    assert report.detected == ("specialty-occupation", "qualification")


def test_monotone_in_tau():
    bank = load_bank(SMALL_BANK)
    rng = random.Random(31)
    for _ in range(100):
        matrix = np.array(
            [[rng.random() for _ in range(4)] for _ in range(rng.randint(1, 5))]
        )
        lo, hi = sorted((rng.random(), rng.random()))
        detected_hi = set(detect_attacks(matrix, bank, hi).detected)
        detected_lo = set(detect_attacks(matrix, bank, lo).detected)
        assert detected_hi <= detected_lo


def test_sentence_permutation_keeps_detected_set():
    bank = load_bank(SMALL_BANK)
    sentences = [
        ["position", "requires", "specialized", "degree", "knowledge"],
        ["credentials", "evaluation", "from", "qualified", "evaluator"],
        ["unrelated", "words"],
    ]
    report = detect_attacks(similarity_matrix(sentences, bank), bank, 0.6)
    shuffled = detect_attacks(
        similarity_matrix(sentences[::-1], bank), bank, 0.6
    )
    assert set(report.detected) == set(shuffled.detected)


def test_adding_examples_fixed_vocab_never_removes_detection():
    # grow the evidence pool while the vectors of existing examples stay put
    bank = load_bank(SMALL_BANK)
    bigger = load_bank(
        SMALL_BANK
        + [bank_line("qualification", "progressive experience in the specialty")]
    )
    sentences = [["position", "requires", "specialized", "degree", "knowledge"]]
    before = detect_attacks(similarity_matrix(sentences, bank), bank, 0.6)
    # same vocabulary here because the bank refits; emulate fixed vocab by
    # checking against the original bank's matrix plus extra columns
    matrix = similarity_matrix(sentences, bank)
    extra = np.hstack([matrix, np.zeros((1, 1))])

    class FixedBank:
        examples = bank.examples + (bank.examples[0],)
        attack_ids = bank.attack_ids

        @staticmethod
        def attack_of(j):
            if j < len(bank.examples):
                return bank.attack_of(j)
            return "qualification"

    after = detect_attacks(extra, FixedBank, 0.6)
    assert set(before.detected) <= set(after.detected)
    assert bigger.attack_ids == bank.attack_ids


def test_matches_exhaustive_oracle_randomized():
    bank = load_bank(SMALL_BANK)
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(0, 5)
        matrix = np.array(
            [[rng.choice([0.0, 0.3, 0.6, 0.61, 0.9, 1.0]) for _ in range(4)] for _ in range(n)]
        ).reshape(n, 4)
        tau = rng.choice([0.0, 0.3, 0.6, 0.9, 1.0])
        report = detect_attacks(matrix, bank, tau)
        assert set(report.detected) == exhaustive_oracle(matrix.tolist(), bank, tau)
        for e in report.evidence:
            assert matrix[e.sentence_index, e.example_index] > tau


def evidence_loop_reference(matrix, tau):
    """The evidence list as the per-element double loop built it."""
    hits = []
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            sim = float(matrix[i, j])
            if sim > tau:
                hits.append(Evidence(i, j, sim))
    hits.sort(key=lambda e: (-e.similarity, e.sentence_index, e.example_index))
    return tuple(hits)


def test_evidence_equals_double_loop_on_random_matrices():
    bank = load_bank(SMALL_BANK)
    rng = random.Random(9090)
    for _ in range(300):
        tau = rng.choice([0.0, 0.25, 0.6, 1.0, rng.random()])
        levels = [0.0, tau, 1.0, rng.random(), rng.random()]
        n = rng.randint(0, 8)
        matrix = np.array(
            [[rng.choice(levels) for _ in range(4)] for _ in range(n)]
        ).reshape(n, 4)
        report = detect_attacks(matrix, bank, tau)
        expected = evidence_loop_reference(matrix, tau)
        assert report.evidence == expected
        assert all(type(e.similarity) is float and type(e.sentence_index) is int
                   and type(e.example_index) is int for e in report.evidence)
        assert set(report.detected) == {bank.attack_of(e.example_index) for e in expected}


def test_detect_rfe_roundtrip():
    bank = load_bank(SMALL_BANK)
    text = (
        "Case Number: ABC-1\n"
        "The position requires specialized degree knowledge!\n"
        "Unrelated filler line.\n"
    )
    report = detect_rfe(text, bank)
    assert "specialty-occupation" in report.detected
    assert report.threshold == 0.6
    stopwords = load_stopwords()
    sentences = split_sentences(text, stopwords)
    assert report == detect_attacks(similarity_matrix(sentences, bank), bank, 0.6)
    assert detect_rfe(text, bank, 0.6, stopwords) == report
    with pytest.raises(ValueError):
        detect_rfe(text, bank, tau=1.5)


def cosine_reference(sentences, bank):
    """``similarity_matrix`` by its definition: one ``cosine`` call per pair,
    each example vector rebuilt from its tokens as ``load_bank`` builds it."""
    examples = [tfidf_vector(list(tokens), bank.vocab) for tokens, _ in bank.examples]
    ref = np.zeros((len(sentences), len(examples)))
    for i, tokens in enumerate(sentences):
        vec = tfidf_vector(list(tokens), bank.vocab)
        for j, example in enumerate(examples):
            ref[i, j] = cosine(vec, example)
    return ref


WORDS = (
    "position specialty degree occupation employer beneficiary evidence "
    "transcript wage level duties complex unique theoretical practical field "
    "bachelor master equivalent experience itinerary client contract site"
).split()


def random_bank_case(rng):
    """A random bank and RFE sentences: copies of bank sentences (exact 1.0
    ties, also across duplicated examples), random word sentences, and
    sentences of words outside the bank (all-zero vectors)."""
    attacks = [f"attack-{k}" for k in range(rng.randint(1, 4))]
    sentences = [
        " ".join(rng.choices(WORDS, k=rng.randint(1, 10)))
        for _ in range(rng.randint(len(attacks), 10))
    ]
    sentences += rng.choices(sentences, k=rng.randint(0, 3))
    lines = [
        bank_line(attacks[k] if k < len(attacks) else rng.choice(attacks), sentence)
        for k, sentence in enumerate(sentences)
    ]
    bank = load_bank(lines)
    rfe = [list(tokens) for tokens, _ in rng.choices(bank.examples, k=rng.randint(0, 4))]
    rfe += [rng.choices(WORDS, k=rng.randint(1, 12)) for _ in range(rng.randint(0, 6))]
    rfe += [["zebra", "quantum"][: rng.randint(1, 2)] for _ in range(rng.randint(0, 2))]
    rng.shuffle(rfe)
    return bank, rfe


def test_similarity_matrix_bit_identical_to_cosine_on_random_banks():
    rng = random.Random(20260418)
    ones = zero_rows = 0
    for _ in range(240):
        bank, rfe = random_bank_case(rng)
        matrix = similarity_matrix(rfe, bank)
        assert np.array_equal(matrix, cosine_reference(rfe, bank))
        ones += int((matrix == 1.0).sum())
        zero_rows += int((~matrix.any(axis=1)).sum()) if matrix.size else 0
    assert ones > 100 and zero_rows > 100


def test_similarity_matrix_bit_identical_to_cosine_on_seed42_rfes(rfe_corpus_42):
    root, manifest = rfe_corpus_42
    bank = load_bank(root / manifest["paths"]["bank"])
    stopwords = load_stopwords()
    ones = 0
    for rec in manifest["rfes"]:
        sentences = split_sentences((root / rec["file"]).read_text("utf-8"), stopwords)
        matrix = similarity_matrix(sentences, bank)
        assert np.array_equal(matrix, cosine_reference(sentences, bank)), rec["id"]
        ones += int((matrix == 1.0).sum())
    assert len(manifest["rfes"]) == 49 and ones > 0


import hashlib
import json
import random
import re

import numpy as np
import pytest

from rfekit import attacks
from rfekit.attacks import (
    DEFAULT_TAU,
    AttackReport,
    BankFormatError,
    Evidence,
    SimilarityMatrix,
    detect_attacks,
    detect_rfe,
    detect_rfes,
    load_bank,
    similarity_matrix,
)
from rfekit.text import load_stopwords, split_sentences
from rfekit.vectorize import cosine, fit_tfidf, fit_vocab, norm, tfidf_vector


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
    matrix = np.asarray(matrix)
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


@pytest.mark.parametrize("shape", [(16,), (0, 5), (2, 16, 1)],
                         ids=["1-d", "empty-wrong-width", "3-d"])
def test_detect_rejects_a_matrix_that_is_not_sentences_by_examples(shape, rfe_corpus_42):
    root, manifest = rfe_corpus_42
    bank = load_bank(root / manifest["paths"]["bank"])
    assert len(bank.examples) == 16
    with pytest.raises(ValueError, match=rf"^matrix of shape {re.escape(str(shape))} .* columns"):
        detect_attacks(np.zeros(shape), bank, 0.6)


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


def oracle_cases():
    """200 random (n x 4 matrix, tau) pairs with exact threshold ties."""
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(0, 5)
        matrix = np.array(
            [[rng.choice([0.0, 0.3, 0.6, 0.61, 0.9, 1.0]) for _ in range(4)] for _ in range(n)]
        ).reshape(n, 4)
        yield matrix, rng.choice([0.0, 0.3, 0.6, 0.9, 1.0])


def test_matches_exhaustive_oracle_randomized():
    bank = load_bank(SMALL_BANK)
    for matrix, tau in oracle_cases():
        report = detect_attacks(matrix, bank, tau)
        assert set(report.detected) == exhaustive_oracle(matrix.tolist(), bank, tau)
        for e in report.evidence:
            assert matrix[e.sentence_index, e.example_index] > tau


def test_detect_reports_equal_for_every_matrix_form():
    """An ndarray, a SimilarityMatrix and nested lists of the same entries
    give equal reports."""
    bank = load_bank(SMALL_BANK)
    hits = 0
    for matrix, tau in oracle_cases():
        rows = tuple(map(tuple, matrix.tolist()))
        report = detect_attacks(matrix, bank, tau)
        assert detect_attacks(SimilarityMatrix(rows, 4), bank, tau) == report
        assert detect_attacks([list(row) for row in rows], bank, tau) == report
        hits += len(report.evidence)
    assert hits > 100


@pytest.mark.parametrize(
    "matrix, message",
    [([[0.0] * 4, [0.0] * 3], "row 1 has 3 entries"),
     ([[0.0] * 5], "row 0 has 5 entries"),
     ([[0.0, 0.0, "high", 0.0]], "not a 2-D array of numbers"),
     ([[0.0, None, 0.0, 0.0]], "not a 2-D array of numbers"),
     ([0.0, 0.0, 0.0, 0.0], "not a 2-D array of numbers"),
     ([[[0.0]] * 4], "not a 2-D array of numbers")],
    ids=["ragged", "too-wide", "string", "none", "1-d-list", "3-d-list"],
)
def test_detect_rejects_a_ragged_or_non_numeric_matrix(matrix, message):
    with pytest.raises(ValueError, match=message):
        detect_attacks(matrix, load_bank(SMALL_BANK), 0.6)


def test_similarity_matrix_reads_like_an_array():
    bank = load_bank(SMALL_BANK)
    sentences = [
        ["position", "requires", "specialized", "degree", "knowledge"],
        ["credentials", "evaluation"],
        ["zebra"],
    ]
    matrix = similarity_matrix(sentences, bank)
    reference = cosine_reference(sentences, bank)
    assert (matrix.shape, matrix.size) == ((3, 4), 12)
    assert [list(row) for row in matrix] == reference.tolist()
    assert all(type(row) is tuple and all(type(v) is float for v in row) for row in matrix)
    assert matrix[1] == tuple(reference[1].tolist()) and matrix[0, 0] == reference[0, 0] == 1.0
    assert matrix[-1] == (0.0,) * 4 and matrix[1:] == (matrix[1], matrix[2])
    array = np.asarray(matrix)
    assert array.dtype == np.float64 and np.array_equal(array, reference)
    assert np.array(matrix, dtype=np.float32).dtype == np.float32
    assert np.array(matrix, copy=True).tolist() == reference.tolist()
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        with pytest.raises(ValueError, match="copying"):
            np.asarray(matrix, copy=False)
    with pytest.raises(AttributeError):
        matrix.shape = (1, 12)
    with pytest.raises(TypeError):
        matrix[0] = (1.0,) * 4
    empty = similarity_matrix([], bank)
    assert (empty.shape, empty.size, list(empty)) == ((0, 4), 0, [])
    assert np.asarray(empty).shape == (0, 4)


def test_detect_rfes_hands_each_rfe_its_own_rows(monkeypatch):
    """Each RFE's report is built from the above-tau hits of its own
    sentences only, in order; an RFE with none gets no hits."""
    bank = load_bank(SMALL_BANK)
    handed = []
    report = attacks._report

    def spy(sentence_hits, bank, tau):
        handed.append(list(sentence_hits))
        return report(sentence_hits, bank, tau)

    monkeypatch.setattr(attacks, "_report", spy)
    texts = ["position requires degree\ncredentials evaluation", "", "zebra\nzebra\nquantum"]
    for tau in (0.0, DEFAULT_TAU):
        handed.clear()
        reports = detect_rfes(texts, bank, tau)
        assert [len(hits) for hits in handed] == [2, 0, 3]
        assert handed == [
            [[(j, v) for j, v in enumerate(row) if v > tau]
             for row in similarity_matrix(split_sentences(text, bank.stopwords), bank)]
            for text in texts
        ]
        assert any(handed[0]) == (tau == 0.0) and not any(handed[2])
        assert reports == per_text_reference(texts, bank, tau)


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
    assert bank.stopwords == load_stopwords()
    sentences = split_sentences(text, bank.stopwords)
    assert report == detect_attacks(similarity_matrix(sentences, bank), bank, 0.6)
    with pytest.raises(ValueError):
        detect_rfe(text, bank, tau=1.5)


def test_detect_rfe_cleans_the_rfe_with_the_bank_stopwords():
    """A bank loaded with no stopword list finds an exact copy of its own
    sentence, because the RFE is cleaned with the bank's list."""
    sentence = "The position requires a degree in the specialty"
    bank = load_bank([bank_line("specialty-occupation", sentence)], stopwords=frozenset())
    assert bank.stopwords == frozenset()
    report = detect_rfe(sentence, bank)
    assert report.detected == ("specialty-occupation",)
    assert report.evidence == (Evidence(0, 0, 1.0),)


def test_load_bank_cleans_its_examples_with_the_list_it_is_given():
    """A given list replaces the shipped one, and leaves the shipped list,
    which is read once per process, as it was."""
    sentence = "The position requires a degree in the specialty"
    custom = load_bank([bank_line("a", sentence)], stopwords=["position", "degree"])
    assert custom.examples == ((("the", "requires", "a", "in", "the", "specialty"), "a"),)
    assert custom.stopwords == frozenset({"position", "degree"})
    default = load_bank([bank_line("a", sentence)])
    assert default.examples == ((("position", "requires", "degree", "specialty"), "a"),)
    assert default.stopwords is load_stopwords()


def per_text_reference(texts, bank, tau):
    """``detect_rfes`` by its definition: one matrix and one report per text."""
    return [
        detect_attacks(similarity_matrix(split_sentences(t, bank.stopwords), bank), bank, tau)
        for t in texts
    ]


def test_detect_rfes_equals_per_text_detection_on_seed42_rfes(rfe_corpus_42):
    root, manifest = rfe_corpus_42
    bank = load_bank(root / manifest["paths"]["bank"])
    texts = [(root / rec["file"]).read_text("utf-8") for rec in manifest["rfes"]]
    sentences = [tuple(s) for t in texts for s in split_sentences(t, bank.stopwords)]
    assert len(texts) == 49 and len(set(sentences)) < len(sentences) / 2
    for tau in (0.0, DEFAULT_TAU, 0.9):
        reports = detect_rfes(iter(texts), bank, tau)
        assert reports == per_text_reference(texts, bank, tau)
        assert len(reports) == 49 and any(r.evidence for r in reports)


def test_detect_rfes_equals_per_text_detection_with_repeated_sentences():
    """Sentences repeat within one RFE and across RFEs, also as raw lines
    that differ but clean to the same tokens; some RFEs clean to nothing."""
    rng = random.Random(4242)
    scored = distinct = empty = 0
    for _ in range(120):
        bank, pool = random_bank_case(rng)
        pool = [" ".join(tokens) for tokens in pool] or ["zebra"]
        variants = [line.upper() + " 2021!" for line in pool]
        texts = []
        for _ in range(rng.randint(0, 6)):
            lines = rng.choices(pool + variants, k=rng.randint(0, 8))
            lines += lines[: rng.randint(0, len(lines))]  # repeats within the RFE
            rng.shuffle(lines)
            texts.append("\n".join(lines) if rng.random() < 0.9 else "the 123 !!\n\nof")
        tau = rng.choice([0.0, 0.3, DEFAULT_TAU, 0.999, 1.0])
        assert detect_rfes(texts, bank, tau) == per_text_reference(texts, bank, tau)
        split = [split_sentences(t, bank.stopwords) for t in texts]
        scored += sum(map(len, split))
        distinct += len({tuple(s) for sentences in split for s in sentences})
        empty += split.count([])
    assert distinct < scored / 3 and empty > 20


def test_detect_rfes_cleans_each_distinct_line_once_and_keeps_per_text_reports():
    """Lines that normalize alike share one cleaning, and lines that clean
    alike one row; the reports still equal the per-text ones. Blank-line
    runs, a line that cleans to nothing, whitespace that is not a newline
    inside a line, and characters whose lowercase is not one a-z letter
    (dotted capital I, final sigma) are all in the batch."""
    bank = load_bank(SMALL_BANK)
    texts = [
        "Position requires DEGREE knowledge\nposition requires degree knowledge 2021",
        "position, requires; degree knowledge!\n\n\nthe of 123 !!\n\ncredentials evaluation",
        "credentials evaluation\ncredentials evaluation\n\n",
        "credentials\revaluation\x0bfrom\u2028qualified evaluator\r\nthe 9",
        "İnstitution credentialsΣ evaluationΣ\nΣ\nİ\n",
        "\n\n",
        "the of 123 !!",
        "",
    ]
    cleaned = [tuple(s) for text in texts for s in split_sentences(text, bank.stopwords)]
    assert len(set(cleaned)) < len(cleaned)
    matrix = similarity_matrix(sorted(set(cleaned)), bank)
    present = sorted({v for row in matrix for v in row if 0.0 < v < 1.0})
    assert present
    for tau in (0.0, present[len(present) // 2], DEFAULT_TAU, 1.0):
        reports = detect_rfes(texts, bank, tau)
        assert reports == per_text_reference(texts, bank, tau)
        assert [detect_rfe(text, bank, tau) for text in texts] == reports
    assert detect_rfes(texts, bank, 0.0)[4].evidence


def test_detect_rfes_on_an_empty_rfe_and_an_empty_batch():
    bank = load_bank(SMALL_BANK)
    hit = "The position requires specialized degree knowledge"
    texts = ["The 123 of !!\n\n", hit, "", hit]
    reports = detect_rfes(texts, bank)
    assert reports == per_text_reference(texts, bank, DEFAULT_TAU)
    assert reports[0] == reports[2] == AttackReport((), (), DEFAULT_TAU)
    assert reports[1] == reports[3] and reports[1].detected == ("specialty-occupation",)
    assert detect_rfes([], bank) == []
    with pytest.raises(ValueError, match="tau"):
        detect_rfes([], bank, tau=1.5)


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
        matrix = np.asarray(similarity_matrix(rfe, bank))
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
        matrix = np.asarray(similarity_matrix(sentences, bank))
        assert np.array_equal(matrix, cosine_reference(sentences, bank)), rec["id"]
        ones += int((matrix == 1.0).sum())
    assert len(manifest["rfes"]) == 49 and ones > 0



def test_load_bank_norms_and_postings_are_the_example_vectors(rfe_corpus_42):
    """The bank side of every similarity, built in ``load_bank``'s one pass,
    is what one ``tfidf_vector`` per example builds, down to the order of
    the postings' keys."""
    root, manifest = rfe_corpus_42
    rng = random.Random(4)
    banks = [load_bank(SMALL_BANK), load_bank(root / manifest["paths"]["bank"])]
    banks += [random_bank_case(rng)[0] for _ in range(40)]
    for bank in banks:
        tokens = [list(t) for t, _ in bank.examples]
        assert bank.vocab == fit_vocab(tokens, (1, 2, 3))
        norms, postings = [], {}
        for j, example in enumerate(tokens):
            vec = tfidf_vector(example, bank.vocab)
            norms.append(norm(vec))
            for index, weight in vec:
                postings.setdefault(index, []).append((j, weight))
        assert [n.hex() for n in bank.norms] == [n.hex() for n in norms]
        assert list(bank.postings) == list(postings)
        for index, pairs in postings.items():
            got = bank.postings[index]
            assert [j for j, _ in got] == [j for j, _ in pairs]
            assert [(type(w), w.hex()) for _, w in got] == [(float, w.hex()) for _, w in pairs]


# sha256 over the seed-42 bank's norms, postings (in key order) and
# vocabulary, every float as its hex: the bank fit must keep each bit.
SEED_42_BANK_DIGEST = "6b6d2f66946c31bb21910f5bb3df0552aaf431025f6c599cea1ff60eb0449630"


def test_seed42_bank_matches_its_pinned_digest(rfe_corpus_42):
    root, manifest = rfe_corpus_42
    bank = load_bank(root / manifest["paths"]["bank"])
    parts = (
        [w.hex() for w in bank.norms],
        [(i, [(j, w.hex()) for j, w in pairs]) for i, pairs in bank.postings.items()],
        list(bank.vocab.ngram_to_index.items()), bank.vocab.doc_freq,
        bank.vocab.corpus_size, bank.vocab.n_range,
    )
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == SEED_42_BANK_DIGEST


def bank_side_from_fit_tfidf(examples):
    """The vocabulary, norms and postings as ``load_bank`` built them from
    ``fit_tfidf``'s rows, before it fitted the bank without numpy."""
    vocab, (row, col, value) = fit_tfidf([list(t) for t, _ in examples], (1, 2, 3))
    cols, weights = col.tolist(), value.tolist()
    bounds = np.searchsorted(row, np.arange(len(examples) + 1)).tolist()
    norms, postings = [], {}
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        vec = tuple(zip(cols[a:b], weights[a:b]))
        norms.append(norm(vec))
        for index, weight in vec:
            postings.setdefault(index, []).append((j, weight))
    return vocab, norms, postings


def test_load_bank_equals_the_bank_fitted_with_fit_tfidf(rfe_corpus_42):
    root, manifest = rfe_corpus_42
    rng = random.Random(24)
    seed42 = load_bank(root / manifest["paths"]["bank"])
    banks = [seed42, load_bank(SMALL_BANK)] + [random_bank_case(rng)[0] for _ in range(60)]
    for bank in banks:
        vocab, norms, postings = bank_side_from_fit_tfidf(bank.examples)
        assert bank.vocab.ngram_to_index == vocab.ngram_to_index
        assert list(bank.vocab.ngram_to_index) == list(vocab.ngram_to_index)
        assert bank.vocab.doc_freq == vocab.doc_freq
        assert bank.vocab == vocab
        assert [n.hex() for n in bank.norms] == [n.hex() for n in norms]
        assert list(bank.postings) == list(postings)
        assert {i: [(j, w.hex()) for j, w in p] for i, p in bank.postings.items()} == {
            i: [(j, w.hex()) for j, w in p] for i, p in postings.items()}
    assert seed42.vocab.size == 249 and sum(map(len, seed42.postings.values())) == 297

import math
import random

import pytest

from rfekit.vectorize import (
    SparseVector,
    VocabularyFormatError,
    cosine,
    fit_vocab,
    load_vocab,
    ngrams,
    save_vocab,
    stack_dense,
    tfidf_vector,
    vocab_sha256,
)


def dense_tfidf_reference(token_docs, doc_tokens, n_range):
    """Independent dense oracle: dict-based tf-idf with explicit loops."""

    def grams(tokens):
        out = []
        for n in sorted(set(n_range)):
            for i in range(len(tokens) - n + 1):
                out.append(" ".join(tokens[i : i + n]))
        return out

    df = {}
    for doc in token_docs:
        for g in set(grams(doc)):
            df[g] = df.get(g, 0) + 1
    vocab = sorted(df)
    n_docs = len(token_docs)
    tf = {}
    for g in grams(doc_tokens):
        if g in df:
            tf[g] = tf.get(g, 0) + 1
    weights = {
        g: tf[g] * (math.log((1 + n_docs) / (1 + df[g])) + 1.0) for g in tf
    }
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return [weights.get(g, 0.0) / norm if norm else 0.0 for g in vocab]


def test_ngrams_pairs_and_triples():
    assert ngrams(["a", "b", "c"], {2, 3}) == ["a b", "b c", "a b c"]


def test_ngrams_too_short():
    assert ngrams(["a"], {2, 3}) == []


def test_ngrams_mixed_sizes():
    assert ngrams(["a", "b"], {1, 2, 3}) == ["a", "b", "a b"]


def test_ngrams_rejects_zero():
    with pytest.raises(ValueError):
        ngrams(["a"], {0, 1})


def test_fit_vocab_counts_documents():
    vocab = fit_vocab([["a", "b"], ["a", "c"]], {1})
    assert set(vocab.ngram_to_index) == {"a", "b", "c"}
    assert vocab.doc_freq[vocab.ngram_to_index["a"]] == 2
    assert vocab.doc_freq[vocab.ngram_to_index["b"]] == 1
    assert vocab.corpus_size == 2


def test_fit_vocab_df_is_per_document():
    vocab = fit_vocab([["a", "a"]], {1})
    assert vocab.doc_freq == (1,)


def test_fit_vocab_degenerate_empty_doc():
    vocab = fit_vocab([[]], {1})
    assert vocab.size == 0
    assert vocab.corpus_size == 1


def test_fit_vocab_rejects_empty_corpus():
    with pytest.raises(ValueError):
        fit_vocab([], {1})


def test_fit_vocab_indices_lexicographic():
    vocab = fit_vocab([["b", "a"], ["c"]], {1})
    assert [g for g, _ in sorted(vocab.ngram_to_index.items(), key=lambda kv: kv[1])] == [
        "a",
        "b",
        "c",
    ]


def test_idf_table_is_the_smoothed_formula_as_plain_floats():
    docs = [["a", "b", "b"], ["b", "c"], ["c", "d", "a"], ["e"]]
    for vocab in (fit_vocab(docs, (1, 2)), load_vocab(save_vocab(fit_vocab(docs, (1, 2))))):
        n = vocab.corpus_size
        assert len(vocab.idf_table) == vocab.size
        for i, df in enumerate(vocab.doc_freq):
            assert type(vocab.idf_table[i]) is float
            assert vocab.idf_table[i] == math.log((1 + n) / (1 + df)) + 1.0


def test_tfidf_no_known_ngrams_gives_zero_vector():
    vocab = fit_vocab([["a", "b"]], {1})
    vec = tfidf_vector(["z", "q"], vocab)
    assert vec.is_zero()
    assert vec.dim == vocab.size


def test_tfidf_single_known_ngram_is_unit():
    vocab = fit_vocab([["a", "b"], ["a", "c"]], {1})
    vec = tfidf_vector(["b", "b", "b"], vocab)
    assert len(vec.entries) == 1
    assert vec.entries[0][1] == pytest.approx(1.0, abs=1e-12)


def test_tfidf_derived_example():
    # hand-derived: a: 1*(ln(3/3)+1)=1.0, b: 2*(ln(3/2)+1)=2.8109302,
    # norm=2.9835095 -> (0.3352, 0.9421)
    vocab = fit_vocab([["a", "b"], ["a", "c"]], {1})
    vec = tfidf_vector(["a", "b", "b"], vocab)
    weights = dict(vec.entries)
    assert weights[vocab.ngram_to_index["a"]] == pytest.approx(0.3352, abs=1e-4)
    assert weights[vocab.ngram_to_index["b"]] == pytest.approx(0.9421, abs=1e-4)


def test_tfidf_l2_norm_is_one_or_zero():
    rng = random.Random(7)
    alphabet = "abcdef"
    for _ in range(200):
        corpus = [
            [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
            for _ in range(rng.randint(1, 10))
        ]
        doc = [rng.choice(alphabet + "xyz") for _ in range(rng.randint(0, 6))]
        vec = tfidf_vector(doc, fit_vocab(corpus, {1, 2}))
        if vec.is_zero():
            continue
        assert vec.norm() == pytest.approx(1.0, abs=1e-9)


def test_tfidf_and_cosine_match_dense_reference():
    rng = random.Random(42)
    alphabet = "abcde"
    for _ in range(100):
        corpus = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(1, 10))
        ]
        doc_a = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
        doc_b = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
        n_range = {1, 2, 3}
        vocab = fit_vocab(corpus, n_range)
        vec_a = tfidf_vector(doc_a, vocab)
        vec_b = tfidf_vector(doc_b, vocab)
        ref_a = dense_tfidf_reference(corpus, doc_a, n_range)
        ref_b = dense_tfidf_reference(corpus, doc_b, n_range)
        assert stack_dense([vec_a])[0] == pytest.approx(ref_a, abs=1e-9)
        dense_dot = sum(x * y for x, y in zip(ref_a, ref_b))
        na = math.sqrt(sum(x * x for x in ref_a))
        nb = math.sqrt(sum(x * x for x in ref_b))
        expected = dense_dot / (na * nb) if na and nb else 0.0
        assert cosine(vec_a, vec_b) == pytest.approx(expected, abs=1e-9)


def test_cosine_self_is_one():
    vocab = fit_vocab([["a", "b", "c"]], {1, 2})
    vec = tfidf_vector(["a", "b"], vocab)
    assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-12)


def test_cosine_disjoint_supports():
    u = SparseVector(entries=((0, 1.0),), dim=3)
    v = SparseVector(entries=((2, 1.0),), dim=3)
    assert cosine(u, v) == 0.0


def test_cosine_zero_vector_convention():
    zero = SparseVector(entries=(), dim=3)
    v = SparseVector(entries=((1, 1.0),), dim=3)
    assert cosine(zero, v) == 0.0
    assert cosine(zero, zero) == 0.0


def test_cosine_dimension_mismatch():
    u = SparseVector(entries=((0, 1.0),), dim=2)
    v = SparseVector(entries=((0, 1.0),), dim=3)
    with pytest.raises(ValueError):
        cosine(u, v)


def test_cosine_scale_invariant_and_symmetric():
    u = SparseVector(entries=((0, 0.5), (3, 1.5)), dim=5)
    v = SparseVector(entries=((0, 2.0), (2, 1.0)), dim=5)
    scaled = SparseVector(entries=tuple((i, 7.3 * w) for i, w in u.entries), dim=5)
    assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
    assert cosine(scaled, v) == pytest.approx(cosine(u, v), abs=1e-12)


def test_vocab_roundtrip():
    vocab = fit_vocab([["a", "b"], ["b", "c", "d"]], {1, 2})
    restored = load_vocab(save_vocab(vocab))
    assert restored == vocab
    assert vocab_sha256(restored) == vocab_sha256(vocab)


def test_vocab_bad_magic():
    with pytest.raises(VocabularyFormatError):
        load_vocab(b"something-else 1\ncorpus_size=1\nn_range=1\nsize=0\n")


def test_vocab_bad_version():
    data = save_vocab(fit_vocab([["a"]], {1})).replace(b"ngram-vocab 1", b"ngram-vocab 9")
    with pytest.raises(VocabularyFormatError):
        load_vocab(data)


def test_vocab_row_count_mismatch():
    data = save_vocab(fit_vocab([["a", "b"]], {1}))
    truncated = b"\n".join(data.splitlines()[:-1]) + b"\n"
    with pytest.raises(VocabularyFormatError):
        load_vocab(truncated)


import math
import random

import numpy as np
import pytest

from rfekit.corpus import load_document
from rfekit.ensemble import document_tokens
from rfekit.vectorize import (
    Vocabulary,
    VocabularyFormatError,
    cosine,
    fit_tfidf,
    fit_vectors,
    fit_vocab,
    load_vocab,
    ngrams,
    norm,
    save_vocab,
    stack_dense,
    tfidf_vector,
)


def join_ngrams(tokens, n_range):
    """Reference n-grams: each one a ``" ".join`` of its slice of tokens."""
    out = []
    for n in sorted(set(n_range)):
        for i in range(len(tokens) - n + 1):
            out.append(" ".join(tokens[i : i + n]))
    return out


def dense_tfidf_reference(token_docs, doc_tokens, n_range):
    """Independent dense oracle: dict-based tf-idf with explicit loops."""
    df = {}
    for doc in token_docs:
        for g in set(join_ngrams(doc, n_range)):
            df[g] = df.get(g, 0) + 1
    vocab = sorted(df)
    n_docs = len(token_docs)
    tf = {}
    for g in join_ngrams(doc_tokens, n_range):
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
    with pytest.raises(ValueError, match=r"^n-gram size must be >= 1, got 0$"):
        ngrams(["a"], {0, 1})
    with pytest.raises(ValueError, match=r"^n-gram size must be >= 1, got -2$"):
        ngrams([], {3, -2, 0})


@pytest.mark.parametrize("n_range", [{1}, {2, 3}, {1, 2, 3}, {3}, {2, 5}])
def test_ngrams_by_extension_match_joined_slices(n_range):
    """Each n-gram extends its (n-1)-gram; the list is the joined slices,
    also for sizes that skip one (2 and 5 build 3 and 4 without output)."""
    rng = random.Random(sum(n_range) * 100 + len(n_range))
    for length in range(9):
        for _ in range(25):
            tokens = [rng.choice(["a", "b", "cd", "e f", ""]) for _ in range(length)]
            assert ngrams(tokens, n_range) == join_ngrams(tokens, n_range)
    assert ngrams(("x", "y", "z"), n_range) == join_ngrams(("x", "y", "z"), n_range)


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
    many_dfs = tuple(random.Random(3).randint(1, 500) for _ in range(2000))
    for vocab in (
        fit_vocab(docs, (1, 2)),
        load_vocab(save_vocab(fit_vocab(docs, (1, 2)))),
        Vocabulary({f"g{i}": i for i in range(2000)}, many_dfs, 500, (1,)),
    ):
        n = vocab.corpus_size
        assert len(vocab.idf_table) == vocab.size
        for i, df in enumerate(vocab.doc_freq):
            assert type(vocab.idf_table[i]) is float
            assert vocab.idf_table[i] == math.log((1 + n) / (1 + df)) + 1.0


def set_loop_fit(token_docs, n_range):
    """Reference vocabulary: each document's set of joined n-grams adds one to
    the document frequency of each of its n-grams; indices are lexicographic."""
    df = {}
    for tokens in token_docs:
        for gram in set(join_ngrams(tokens, n_range)):
            df[gram] = df.get(gram, 0) + 1
    ordered = sorted(df)
    return Vocabulary(
        {g: i for i, g in enumerate(ordered)},
        tuple(df[g] for g in ordered),
        len(token_docs),
        tuple(sorted(set(n_range))),
    )


def assert_fit_tfidf_is_stacked_vectors(token_docs, n_range):
    """``fit_tfidf`` fits the set-loop vocabulary, and its nonzeros, sorted by
    row and then by column, are each document's ``tfidf_vector`` bit for bit;
    ``fit_vectors`` fits the same vocabulary, and its vectors are those rows."""
    vocab, (row, col, value) = fit_tfidf(token_docs, n_range)
    plain_vocab, vectors = fit_vectors(token_docs, n_range)
    assert vocab == set_loop_fit(token_docs, n_range) == plain_vocab
    assert list(plain_vocab.ngram_to_index) == list(vocab.ngram_to_index)
    assert len(vectors) == len(token_docs)
    assert list(vocab.ngram_to_index.values()) == list(range(vocab.size))
    assert all(type(df) is int for df in vocab.doc_freq)
    assert row.dtype == col.dtype == np.int64 and value.dtype == np.float64
    keys = row * vocab.size + col
    assert (np.diff(keys) > 0).all()  # sorted, one entry per (row, col)
    assert (value > 0).all()
    bounds = np.searchsorted(row, np.arange(len(token_docs) + 1)).tolist()
    for r, tokens in enumerate(token_docs):
        a, b = bounds[r], bounds[r + 1]
        got = tuple(zip(col[a:b].tolist(), value[a:b].tolist()))
        expected = tfidf_vector(tokens, vocab)
        for vec in (expected, vectors[r]):
            assert [i for i, _ in got] == [i for i, _ in vec]
            assert [w.hex() for _, w in got] == [w.hex() for _, w in vec]
    return vocab, (row, col, value)


def test_fit_tfidf_is_stacked_vectors_on_seed42_training_docs(corpus_42):
    root, manifest = corpus_42
    token_docs = [
        document_tokens(load_document(root, rec, "ocr").text)
        for rec in manifest["documents"]
        if rec["split"] == "train"
    ]
    for n_range in ((2, 3), (1,)):
        vocab, _ = assert_fit_tfidf_is_stacked_vectors(token_docs, n_range)
        assert fit_vocab(token_docs, n_range) == vocab
    assert vocab.corpus_size == 84


@pytest.mark.parametrize("n_range", [(1,), (2, 3)])
def test_fit_tfidf_edge_rows_are_stacked_vectors(n_range):
    token_docs = [
        [],  # empty token list: no n-grams, an empty row
        ["a", "b", "c", "a", "b"],
        ["x"],  # shorter than 2: no n-grams under (2, 3)
        ["a", "b", "a", "b", "a", "b", "c"],  # repeated n-grams
        ["a", "a", "a", "a"],
        ["b", "c", "d"],
    ]
    _, (row, _, _) = assert_fit_tfidf_is_stacked_vectors(token_docs, n_range)
    assert 0 not in row.tolist()
    assert (2 in row.tolist()) == (n_range == (1,))


def test_fit_tfidf_randomized_and_degenerate_shapes():
    rng = random.Random(17)
    for _ in range(100):
        corpus = [
            [rng.choice("abcdef") for _ in range(rng.randint(0, 8))]
            for _ in range(rng.randint(1, 8))
        ]
        assert_fit_tfidf_is_stacked_vectors(corpus, rng.choice([{1}, {1, 2, 3}, {2, 4}]))
    for corpus, n_range in (
        ([[]], {1}),  # one document, no n-grams: shape (1, 0)
        ([["a"], []], {2, 3}),  # no document has an n-gram
        ([["a"], []], {1}),  # (2, 1) with an empty row
        ([["a", "a"]], {1}),  # doc_freq counts a document once
    ):
        vocab, (row, col, value) = assert_fit_tfidf_is_stacked_vectors(corpus, n_range)
    assert vocab.doc_freq == (1,) and value.tolist() == [1.0]
    for fit in (fit_tfidf, fit_vectors, fit_vocab):
        with pytest.raises(ValueError, match="empty corpus"):
            fit([], {1})


def test_tfidf_no_known_ngrams_gives_zero_vector():
    vocab = fit_vocab([["a", "b"]], {1})
    assert tfidf_vector(["z", "q"], vocab) == ()


def test_tfidf_single_known_ngram_is_unit():
    vocab = fit_vocab([["a", "b"], ["a", "c"]], {1})
    vec = tfidf_vector(["b", "b", "b"], vocab)
    assert len(vec) == 1
    assert vec[0][1] == pytest.approx(1.0, abs=1e-12)


def test_tfidf_derived_example():
    # hand-derived: a: 1*(ln(3/3)+1)=1.0, b: 2*(ln(3/2)+1)=2.8109302,
    # norm=2.9835095 -> (0.3352, 0.9421)
    vocab = fit_vocab([["a", "b"], ["a", "c"]], {1})
    vec = tfidf_vector(["a", "b", "b"], vocab)
    weights = dict(vec)
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
        if vec == ():
            continue
        assert norm(vec) == pytest.approx(1.0, abs=1e-9)
        indices = [i for i, _ in vec]
        assert indices == sorted(set(indices))
        assert all(type(w) is float and w > 0.0 for _, w in vec)


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
        assert stack_dense([vec_a], vocab.size)[0] == pytest.approx(ref_a, abs=1e-9)
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
    assert cosine(((0, 1.0),), ((2, 1.0),)) == 0.0


def test_cosine_zero_vector_convention():
    v = ((1, 1.0),)
    assert cosine((), v) == 0.0
    assert cosine((), ()) == 0.0


def test_cosine_scale_invariant_and_symmetric():
    u = ((0, 0.5), (3, 1.5))
    v = ((0, 2.0), (2, 1.0))
    scaled = tuple((i, 7.3 * w) for i, w in u)
    assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
    assert cosine(scaled, v) == pytest.approx(cosine(u, v), abs=1e-12)


def test_vocab_roundtrip():
    vocab = fit_vocab([["a", "b"], ["b", "c", "d"]], {1, 2})
    restored = load_vocab(save_vocab(vocab))
    assert restored == vocab
    assert save_vocab(restored) == save_vocab(vocab)


def test_vocab_bad_magic():
    with pytest.raises(VocabularyFormatError):
        load_vocab(b"something-else 1\ncorpus_size=1\nn_range=1\nsize=0\n")


def test_vocab_bad_version():
    data = save_vocab(fit_vocab([["a"]], {1})).replace(b"ngram-vocab 1", b"ngram-vocab 9")
    with pytest.raises(VocabularyFormatError):
        load_vocab(data)


def test_vocab_with_no_documents_is_refused():
    """``corpus_size=0``: with no rows, no document frequency can catch it."""
    with pytest.raises(VocabularyFormatError, match="^corpus_size must be >= 1$"):
        load_vocab(b"ngram-vocab 1\ncorpus_size=0\nn_range=1\nsize=0\n")


def test_vocab_row_count_mismatch():
    data = save_vocab(fit_vocab([["a", "b"]], {1}))
    truncated = b"\n".join(data.splitlines()[:-1]) + b"\n"
    with pytest.raises(VocabularyFormatError):
        load_vocab(truncated)



@pytest.mark.parametrize(
    "old, new",
    [
        (b"ngram-vocab 1", b"ngram-vocab 1\xff"),
        (b"n_range=1,2", b"n_range=0"),
        (b"n_range=1,2", b"n_range="),
        (b"n_range=1,2", b"n_range=1,,2"),
        (b"n_range=1,2", b"n_range=-1,2"),
        (b"corpus_size=1", b"corpus_size=1" + b"0" * 400),
        (b"0\t1\ta", b"0\t2\ta"),
        (b"0\t1\ta", b"0_0\t+1\ta"),
        (b"1\t1\ta b", b" 1\t1 \ta b"),
        (b"0\t1\ta", b"0" * 5000 + b"\t1\ta"),
        (b"corpus_size=1", b"corpus_size=+1"),
        (b"corpus_size=1", "corpus_size=\u0661".encode()),
        (b"n_range=1,2", b"n_range=0_1, 2"),
        (b"n_range=1,2", b"n_range=2,1"),
        (b"n_range=1,2", b"n_range=1,1,2"),
    ],
    ids=["not-utf-8", "zero", "empty", "empty-item", "negative", "idf-overflow",
         "doc-freq-above-corpus-size", "underscore-and-sign-row", "spaces-row",
         "5000-digit-index", "signed-header", "arabic-indic-digit", "underscore-and-space-n-range",
         "descending-n-range", "repeated-n-range"],
)
def test_vocab_malformed_raises_format_error(old, new):
    data = save_vocab(fit_vocab([["a", "b"]], {1, 2}))
    assert old in data
    with pytest.raises(VocabularyFormatError):
        load_vocab(data.replace(old, new))

import string
from pathlib import Path

from rfekit import text
from rfekit.text import (
    clean_tokens,
    load_stopwords,
    normalize,
    split_sentences,
    tokenize,
)


def test_normalize_replaces_digits_and_punctuation():
    # one space per replaced character: '-', '7', '9', '7', then the original
    # space, then '!'
    assert normalize("I-797 Approval!") == "i     approval "


def normalize_per_character(text):
    """The original character-by-character normalize, kept as the reference."""
    lower = frozenset("abcdefghijklmnopqrstuvwxyz")
    return "".join(c if c in lower or c.isspace() else " " for c in text.lower())


def test_normalize_matches_per_character_reference_on_every_code_point():
    # Lone surrogates included: they are valid in a str and must map to " ".
    every = "".join(map(chr, range(0x110000)))
    assert normalize(every) == normalize_per_character(every)
    # Context-dependent lowercasing (a final sigma) and expanding ones.
    for text in ("ΟΔΟΣ ΟΔΟΣ.", "İstanbul\u0130", "ẞtraße\tﬁ\r\n\x85\u2028x"):
        assert normalize(text) == normalize_per_character(text)


def test_normalize_empty():
    assert normalize("") == ""


def test_normalize_non_ascii_letters():
    assert normalize("Ünïcode Ltd.") == " n code ltd "


def test_normalize_preserves_newline_runs():
    assert normalize("A1\n\nB2") == "a \n\nb "


def test_normalize_idempotent():
    rng_texts = [
        "Mixed CASE 123!",
        "tabs\tand\nnewlines\r\n",
        "",
        "already lowercase words",
        "Üñïçödé ÅÄÖ",
        string.printable,
    ]
    for text in rng_texts:
        once = normalize(text)
        assert normalize(once) == once


def test_normalize_output_charset():
    out = normalize(string.printable + "Ünïcode")
    assert all(c.islower() or c.isspace() for c in out if c != " ")
    assert set(out) <= set(string.ascii_lowercase + " \t\n\r\x0b\x0c")


def test_tokenize_basic():
    assert tokenize("the cat sat") == ["the", "cat", "sat"]


def test_tokenize_collapses_whitespace():
    assert tokenize("  a  b ") == ["a", "b"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_never_emits_whitespace():
    for text in ("a\tb\nc", "  x  ", "one two  three\n"):
        for token in tokenize(normalize(text)):
            assert token and not any(c.isspace() for c in token)


def test_clean_tokens_removes_stopwords():
    stop = {"the", "was"}
    assert clean_tokens(["the", "petition", "was", "filed"], stop) == [
        "petition",
        "filed",
    ]


def test_clean_tokens_empty_and_passthrough():
    assert clean_tokens([], {"the"}) == []
    assert clean_tokens(["specialty", "occupation"], {"the"}) == [
        "specialty",
        "occupation",
    ]


def test_clean_tokens_is_subsequence():
    stop = load_stopwords()
    tokens = tokenize(normalize("The petition for the worker was filed on time"))
    cleaned = clean_tokens(tokens, stop)
    it = iter(tokens)
    assert all(tok in it for tok in cleaned)


def test_split_sentences_double_newline_is_one_separator():
    assert split_sentences("Line one\n\nLine two", set()) == [
        ["line", "one"],
        ["line", "two"],
    ]


def test_split_sentences_only_newlines():
    assert split_sentences("\n\n\n", set()) == []


def test_split_sentences_drops_emptied_blocks():
    stop = {"the", "of"}
    assert split_sentences("The 9 of us\nok", stop) == [["us"], ["ok"]]


def test_split_sentences_count_matches_nonempty_blocks():
    stop = load_stopwords()
    text = "First block here\n\n\nThe\n123 456\nsecond real sentence\n"
    blocks = [b for b in text.split("\n") if b]
    expected = 0
    for block in blocks:
        if clean_tokens(tokenize(normalize(block)), stop):
            expected += 1
    assert len(split_sentences(text, stop)) == expected


def test_stopword_list_shape():
    words = sorted(load_stopwords())
    assert len(words) == 127
    assert words == sorted(words)
    assert all(w.isalpha() and w.islower() for w in words)


def test_load_stopwords_reads_the_shipped_list_once():
    shipped = Path(text.__file__).parent / "data" / "stopwords.txt"
    assert load_stopwords() is load_stopwords()
    assert load_stopwords() == frozenset(shipped.read_text("ascii").split())

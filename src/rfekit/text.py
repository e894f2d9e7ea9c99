"""Deterministic text normalization, tokenization, and sentence splitting.

This is the shared preprocessing front end: lowercase text, keep only a-z and
whitespace, split tokens on whitespace, drop stopwords, and split sentences on
newline runs. All functions are pure and safe to call from any number of
workers.
"""

from __future__ import annotations

import re
from importlib import resources

_NOT_LOWER_OR_SPACE = re.compile(r"[^a-z\s]")
_NEWLINE_RUN = re.compile(r"\n+")


def normalize(text: str) -> str:
    """Lowercase and reduce to the a-z/whitespace character class.

    Every character that is not a-z (after lowercasing) and not whitespace is
    replaced by a single space, so digits and punctuation vanish while token
    boundaries survive. Newlines pass through untouched; sentence splitting
    depends on them.
    """
    return _NOT_LOWER_OR_SPACE.sub(" ", text.lower())


def tokenize(text: str) -> list[str]:
    """Maximal whitespace-free runs, in order. Expects normalized text."""
    return text.split()


def clean_tokens(tokens: list[str], stopwords) -> list[str]:
    """Drop tokens that appear in ``stopwords``, preserving order."""
    return [t for t in tokens if t not in stopwords]


def normalized_blocks(text: str) -> list[str]:
    """The blocks of ``normalize(text)`` between newline runs, in order."""
    return _NEWLINE_RUN.split(normalize(text))


def split_sentences(text: str, stopwords) -> list[list[str]]:
    """One cleaned token list per block of :func:`normalized_blocks`.

    Applies :func:`tokenize` and :func:`clean_tokens` to each block; blocks
    that clean down to zero tokens are dropped.
    """
    sentences = []
    for block in normalized_blocks(text):
        tokens = clean_tokens(tokenize(block), stopwords)
        if tokens:
            sentences.append(tokens)
    return sentences


def load_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package."""
    text = resources.files("rfekit.data").joinpath("stopwords.txt").read_text("ascii")
    return frozenset(text.split())

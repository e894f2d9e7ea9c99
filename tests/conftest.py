import pytest

from rfekit.corpus import CorpusConfig, generate_corpus


@pytest.fixture(scope="session")
def rfe_corpus_42(tmp_path_factory):
    """The seed-42 RFE corpus (49 RFEs, bank, store, templates) and its manifest."""
    root = tmp_path_factory.mktemp("rfe-corpus-42")
    manifest = generate_corpus(CorpusConfig(seed=42, docs_per_class=0, n_rfes=49), root)
    return root, manifest


@pytest.fixture(scope="session")
def corpus_42(tmp_path_factory):
    """The default seed-42 corpus, as ``rfekit gen-corpus --seed 42`` writes it."""
    root = tmp_path_factory.mktemp("corpus-42")
    return root, generate_corpus(CorpusConfig(seed=42), root)

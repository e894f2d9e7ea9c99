"""The package's lazy exports, and the modules a detect or a draft imports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rfekit
from rfekit import attacks

SRC = str(Path(rfekit.__file__).parents[1])
GOLDEN_DRAFT = Path(__file__).parent / "data" / "golden-rfe3-draft.txt"
TRAINING_MODULES = {"rfekit.corpus", "rfekit.classify", "rfekit.ensemble", "rfekit.image"}


def python(*args):
    """Run a fresh interpreter on ``src``; its completed process."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          encoding="utf-8", check=True)


def imported_modules(stderr: str) -> set[str]:
    """The modules a ``python -X importtime`` run imported."""
    return {line.rsplit("|", 1)[1].strip()
            for line in stderr.splitlines() if line.startswith("import time:")} - {
        "imported package"}


def test_every_export_is_the_object_its_module_defines():
    assert len(rfekit.__all__) == len(set(rfekit.__all__)) == 53
    for name in rfekit.__all__:
        value = getattr(rfekit, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("rfekit.") and getattr(module, name) is value, name
    assert set(rfekit.__all__) <= set(dir(rfekit))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from rfekit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(rfekit.__all__)
    assert namespace["detect_rfes"] is attacks.detect_rfes


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(rfekit, "no_such_name")
    with pytest.raises(ImportError):
        exec("from rfekit import no_such_name", {})


def test_an_export_reads_its_module_afresh(monkeypatch):
    """Nothing is cached on the package: a function replaced in its module
    (as a tracer wraps one) is what the package name gives, and the
    original again once it is put back."""
    original = attacks.load_bank

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(attacks, "load_bank", wrapped)
    assert rfekit.load_bank is wrapped
    monkeypatch.undo()
    assert rfekit.load_bank is original
    assert "load_bank" not in vars(rfekit)


def test_import_rfekit_loads_no_submodule():
    done = python("-c", "import sys, rfekit; print(' '.join(sorted(sys.modules)))")
    loaded = set(done.stdout.split())
    assert not loaded & TRAINING_MODULES
    assert {m for m in loaded if m.startswith("rfekit")} == {"rfekit"}
    assert "numpy" not in loaded


def test_fit_vocab_never_imports_numpy():
    done = python("-c", "import sys\nfrom rfekit.vectorize import fit_vocab\n"
                  "fit_vocab([['a', 'b'], ['b', 'c']], (1, 2))\nprint(' '.join(sys.modules))")
    assert not {m for m in done.stdout.split() if m == "numpy" or m.startswith("numpy.")}


def test_detect_and_draft_processes_never_import_numpy(rfe_corpus_42, tmp_path):
    """``python -m rfekit detect`` and ``draft`` on the golden RFE (#3 of the
    seed-42 corpus) import neither numpy nor a training module, and the
    draft is still the golden one. A detect over the corpus directory reads
    its manifest with :mod:`rfekit.corpus`, and imports no more than that."""
    root, manifest = rfe_corpus_42
    paths = {key: str(root / value) for key, value in manifest["paths"].items()}
    rfe = str(root / manifest["rfes"][3]["file"])
    out = tmp_path / "draft.txt"
    runs = {
        "detect": ["detect", "--bank", paths["bank"], "--input", rfe,
                   "--out", str(tmp_path / "detect.jsonl")],
        "draft": ["draft", "--bank", paths["bank"], "--store", paths["store"],
                  "--templates", paths["templates"], "--input", rfe, "--out", str(out)],
        "detect corpus": ["detect", "--bank", paths["bank"], "--input", str(root),
                          "--out", str(tmp_path / "detect-corpus.jsonl")],
    }
    for command, argv in runs.items():
        modules = imported_modules(python("-X", "importtime", "-m", "rfekit", *argv).stderr)
        assert "rfekit.attacks" in modules and "rfekit.cli" in modules, command
        assert not {m for m in modules if m == "numpy" or m.startswith("numpy.")}, command
        assert modules & TRAINING_MODULES == ({"rfekit.corpus"} if "corpus" in command
                                              else set()), command
    assert out.read_bytes() == GOLDEN_DRAFT.read_bytes()
    assert (tmp_path / "detect.jsonl").read_text("utf-8").count("\n") == 1
    assert (tmp_path / "detect-corpus.jsonl").read_text("utf-8").count("\n") == 49

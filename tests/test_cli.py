import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfekit
from rfekit.cli import run


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def gen_small_corpus(tmp_path, name="corpus", rfes=6, docs=3):
    out = tmp_path / name
    code = run(
        [
            "gen-corpus",
            "--out",
            str(out),
            "--seed",
            "11",
            "--docs-per-class",
            str(docs),
            "--rfes",
            str(rfes),
        ]
    )
    assert code == 0
    return out


@pytest.fixture()
def trained_bundle(tmp_path):
    corpus = gen_small_corpus(tmp_path, docs=4)
    bundle = tmp_path / "bundle"
    code = run(
        [
            "train-docs",
            "--corpus",
            str(corpus),
            "--out",
            str(bundle),
            "--max-iters",
            "200",
        ]
    )
    assert code == 0
    return corpus, bundle


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_no_subcommand_exits_2():
    assert run([]) == 2


def test_detect_tau_out_of_range_exits_2(tmp_path):
    assert run(["detect", "--bank", "x", "--input", "y", "--tau", "1.5"]) == 2


def test_draft_bad_today_exits_2():
    code = run(
        [
            "draft",
            "--bank", "b", "--store", "s", "--templates", "t",
            "--input", "i", "--out", "o", "--today", "not-a-date",
        ]
    )
    assert code == 2


def test_gen_corpus_deterministic(tmp_path, capsys):
    a = gen_small_corpus(tmp_path, "one")
    b = gen_small_corpus(tmp_path, "two")
    assert tree_digest(a) == tree_digest(b)
    out = capsys.readouterr()
    assert "wrote" in out.out
    assert "config sha256=" in out.err  # effective config echoed


def test_gen_corpus_invalid_noise_exits_2(tmp_path, capsys):
    code = run(
        ["gen-corpus", "--out", str(tmp_path / "x"), "--noise", "1.5"]
    )
    assert code == 2
    assert not (tmp_path / "x" / "manifest.json").exists()  # nothing written


@pytest.mark.parametrize(
    "command, message",
    [
        (["train-docs", "--corpus", "{rfes_only}", "--out", "{tmp}/out"],
         "no documents with split 'train' in {rfes_only}"),
        (["classify", "--bundle", "{bundle}", "--input", "{tmp}/empty"],
         "no documents found under {tmp}/empty"),
        (["detect", "--bank", "{rfes_only}/bank.jsonl", "--input", "{tmp}/empty"],
         "no RFE text files under {tmp}/empty"),
        (["eval-attacks", "--corpus", "{docs_only}"], "corpus {docs_only} has no RFEs"),
    ],
    ids=["split-without-documents", "input-without-documents", "input-without-rfes",
         "corpus-without-rfes"],
)
def test_an_input_with_nothing_to_do_is_a_usage_error(tmp_path, capsys, request, command,
                                                       message):
    paths = {
        "tmp": tmp_path,
        "rfes_only": gen_small_corpus(tmp_path, "rfes-only", rfes=2, docs=0),
        "docs_only": gen_small_corpus(tmp_path, "docs-only", rfes=0, docs=1),
        "bundle": request.getfixturevalue("trained_bundle")[1] if "{bundle}" in command else "",
    }
    (tmp_path / "empty").mkdir()
    capsys.readouterr()
    assert run([part.format(**paths) for part in command]) == 2
    assert f"\nusage error: {message.format(**paths)}\n" in "\n" + capsys.readouterr().err


def test_gen_corpus_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "docs_per_class": 2, "n_rfes": 3}), "utf-8")
    out = tmp_path / "from-file"
    assert run(["gen-corpus", "--out", str(out), "--config", str(config)]) == 0
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["seed"] == 5
    assert len(manifest["documents"]) == 4

    out2 = tmp_path / "flag-wins"
    assert (
        run(
            [
                "gen-corpus", "--out", str(out2),
                "--config", str(config), "--seed", "9",
            ]
        )
        == 0
    )
    assert json.loads((out2 / "manifest.json").read_text("utf-8"))["seed"] == 9


def test_missing_corpus_exits_1(tmp_path):
    code = run(
        ["train-docs", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "b")]
    )
    assert code == 1


def test_train_docs_seed42_heads_converge_and_print_fit_record(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(["gen-corpus", "--out", str(corpus), "--seed", "42"]) == 0
    capsys.readouterr()
    bundle = tmp_path / "bundle"
    assert run(["train-docs", "--corpus", str(corpus), "--out", str(bundle)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(":")[0] for line in lines] == ["text head", "image head"]
    # The README's seed-42 step counts: the model digests that would also
    # catch a solver change are pinned for one (machine, Python, numpy) only.
    for line, pinned in zip(lines, (4, 10)):
        steps, converged, grad = re.fullmatch(
            r"\w+ head: (\d+) Newton steps, converged (\w+), max\|grad\| (\S+)", line
        ).groups()
        assert int(steps) == pinned and converged == "true" and float(grad) < 1e-6


@pytest.mark.parametrize(
    "flag, value",
    [("--max-iters", "-1"), ("--l2", "-1"), ("--l2", "nan"), ("--grad-tol", "nan"),
     ("--grad-tol", "-1")],
)
def test_train_docs_refuses_an_out_of_range_training_param(tmp_path, capsys, flag, value):
    """A usage error from the flag or from --config, before the corpus is
    read: the corpus here does not exist, which alone would exit 1."""
    param = flag[2:].replace("-", "_")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({param: value}), "utf-8")
    for option in ([flag, value], ["--config", str(config)]):
        argv = ["train-docs", "--corpus", str(tmp_path / "no-corpus"),
                "--out", str(tmp_path / "bundle"), *option]
        assert run(argv) == 2
        assert re.search(f"\\b{param} must be .*, got '{value}'$", capsys.readouterr().err, re.M)
    assert not (tmp_path / "bundle").exists()


def test_train_docs_defaults_are_the_estimator_defaults(tmp_path, corpus_42, capsys):
    """The echoed default config is pinned byte for byte."""
    root, _ = corpus_42
    assert run(["train-docs", "--corpus", str(root), "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == (
        '[rfekit] train-docs config sha256=ef651257033b0bc9 {"channel": "ocr", '
        '"grad_tol": 1e-06, "l2": 0.001, "max_iters": 2000, "ngrams": [2, 3], '
        '"split": "train"}\n'
    )


def test_train_docs_bundle_is_independent_of_hash_seed(tmp_path, corpus_42):
    """String hashing order differs between the two processes; the dict and
    set iteration in training must not reach any bundle byte."""
    root, _ = corpus_42
    bundles = []
    for seed in ("0", "1"):
        bundle = tmp_path / f"bundle-{seed}"
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": str(Path(rfekit.__file__).parents[1]),
        }
        subprocess.run(
            [sys.executable, "-m", "rfekit", "train-docs", "--corpus", str(root),
             "--out", str(bundle)],
            env=env, check=True, capture_output=True,
        )
        bundles.append(bundle)
    names = ["bundle.json", "image-model.json", "text-model.json", "vocab.txt"]
    assert sorted(p.name for p in bundles[0].iterdir()) == names
    for name in names:
        assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes()


# sha256 of each seed-42 bundle file. bundle.json and vocab.txt are text
# written by Python alone, the same on every platform. The two model files
# hold trained weights, whose last bits depend on the BLAS kernels and on the
# Python version (builtin float sum is compensated from 3.12): they are pinned
# for the platform they were recorded on, where training runs on one thread
# of OpenBLAS's Haswell kernels.
SEED42_BUNDLE_SHA256 = {
    "bundle.json": "8f296dab325fc56b0382d65d2d521723f40cfaf1b9e6db3aedf36c9dd63f19b3",
    "vocab.txt": "febaf4a33c285f236275fcd04e7aea85030f09710767fa0494519c6ffcc6fd14",
}
SEED42_MODEL_SHA256 = {
    ("x86_64", (3, 11), "2.4.6"): {
        "image-model.json": "1969855148478578dba536eb57218070226a659828e43c559918e7159b0c9131",
        "text-model.json": "53f60062f599807089d746bd85d0b5bfd6be71e2ea4fcbf330e59859e78f239a",
    },
}


def test_seed42_bundle_bytes_are_pinned(tmp_path, corpus_42):
    """A change to the train path must leave every seed-42 bundle byte as it
    was, unless it means to change the output."""
    root, _ = corpus_42
    models = SEED42_MODEL_SHA256.get(
        (platform.machine(), sys.version_info[:2], np.__version__), {}
    )
    env = {
        **os.environ,
        **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
        "PYTHONPATH": str(Path(rfekit.__file__).parents[1]),
    }
    if models:
        env["OPENBLAS_CORETYPE"] = "Haswell"
    bundle = tmp_path / "bundle"
    subprocess.run(
        [sys.executable, "-m", "rfekit", "train-docs", "--corpus", str(root),
         "--out", str(bundle)],
        env=env, check=True, capture_output=True,
    )
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bundle.iterdir()}
    assert sorted(digests) == ["bundle.json", "image-model.json", "text-model.json", "vocab.txt"]
    expected = {**SEED42_BUNDLE_SHA256, **models}
    assert {name: digests[name] for name in expected} == expected


# Seed-42 weights trained at one and at two BLAS threads differed by at most
# 9.8e-10 (image head) while training ran in Gram form, a 1,000th of this
# bound; trained on the design itself, they were identical.
BLAS_THREAD_WEIGHT_TOL = 1e-6


def test_train_and_classify_agree_across_blas_thread_counts(tmp_path, corpus_42):
    """A BLAS matrix product sums in an order set by its thread count, so the
    weights may differ in the last bits; the predictions may not."""
    from rfekit.ensemble import EnsembleDocumentClassifier

    root, _ = corpus_42
    script = (
        "import sys; from rfekit.cli import run; "
        "sys.exit(run(['train-docs', '--corpus', sys.argv[1], '--out', sys.argv[2]])"
        " or run(['classify', '--bundle', sys.argv[2], '--input', sys.argv[1],"
        " '--out', sys.argv[3]]))"
    )
    models, predictions = [], []
    for threads in ("1", "2"):
        bundle, traces = tmp_path / f"bundle-{threads}", tmp_path / f"traces-{threads}.jsonl"
        env = {
            **os.environ,
            **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                            threads),
            "PYTHONPATH": str(Path(rfekit.__file__).parents[1]),
        }
        subprocess.run([sys.executable, "-c", script, str(root), str(bundle), str(traces)],
                       env=env, check=True, capture_output=True)
        models.append(EnsembleDocumentClassifier.load(bundle))
        predictions.append([(r["id"], r["predicted"]) for r in
                            map(json.loads, traces.read_text("utf-8").splitlines())])
    assert predictions[0] == predictions[1] and len(predictions[0]) == 104
    for head in ("image_model_", "text_model_"):
        one, two = (getattr(m, head).weights_ for m in models)
        assert one.shape == two.shape
        assert np.abs(one - two).max() <= BLAS_THREAD_WEIGHT_TOL, head


def test_train_classify_eval_pipeline(tmp_path, capsys):
    corpus, bundle = (None, None)
    corpus = gen_small_corpus(tmp_path, docs=4)
    bundle = tmp_path / "bundle"
    assert (
        run(
            [
                "train-docs", "--corpus", str(corpus),
                "--out", str(bundle), "--max-iters", "200",
            ]
        )
        == 0
    )
    assert (bundle / "bundle.json").exists()
    assert (bundle / "vocab.txt").exists()

    out_file = tmp_path / "traces.jsonl"
    assert (
        run(
            [
                "classify", "--bundle", str(bundle),
                "--input", str(corpus), "--out", str(out_file),
            ]
        )
        == 0
    )
    records = [json.loads(line) for line in out_file.read_text("utf-8").splitlines()]
    assert len(records) == 8
    for rec in records:
        assert set(rec) >= {"id", "predicted", "fused", "h_image", "h_text",
                            "w_image", "w_text"}
        assert sum(rec["fused"].values()) == pytest.approx(1.0, abs=1e-9)

    assert (
        run(
            [
                "eval-docs", "--bundle", str(bundle), "--corpus", str(corpus),
                "--split", "all", "--json", str(tmp_path / "eval.jsonl"),
            ]
        )
        == 0
    )
    table = capsys.readouterr().out
    assert "Document type" in table
    assert "all" in table


def test_classify_move_is_idempotent(tmp_path, trained_bundle):
    corpus, bundle = trained_bundle
    # loose copies of two document dirs
    loose = tmp_path / "inbox"
    loose.mkdir()
    import shutil

    manifest = json.loads((corpus / "manifest.json").read_text("utf-8"))
    for rec in manifest["documents"][:2]:
        shutil.copytree(corpus / rec["dir"], loose / rec["id"])

    dest = tmp_path / "sorted"
    assert (
        run(
            [
                "classify", "--bundle", str(bundle), "--input", str(loose),
                "--move", str(dest), "--out", str(tmp_path / "t1.jsonl"),
            ]
        )
        == 0
    )
    moved = sorted(p.relative_to(dest).as_posix() for p in dest.glob("*/*"))
    assert len(moved) == 2
    assert all("/" in m for m in moved)  # class folder / doc id
    digest_before = tree_digest(dest)

    # second application over the sorted tree: everything already in place
    assert (
        run(
            [
                "classify", "--bundle", str(bundle), "--input", str(dest),
                "--move", str(dest), "--out", str(tmp_path / "t2.jsonl"),
            ]
        )
        == 0
    )
    assert tree_digest(dest) == digest_before


def test_detect_on_corpus_and_single_file(tmp_path):
    corpus = gen_small_corpus(tmp_path)
    out_file = tmp_path / "reports.jsonl"
    assert (
        run(
            [
                "detect", "--bank", str(corpus / "bank.jsonl"),
                "--input", str(corpus), "--out", str(out_file),
            ]
        )
        == 0
    )
    manifest = json.loads((corpus / "manifest.json").read_text("utf-8"))
    records = {r["id"]: r for r in map(json.loads, out_file.read_text("utf-8").splitlines())}
    assert len(records) == len(manifest["rfes"])
    for rec in manifest["rfes"]:
        report = records[rec["id"]]
        assert report["threshold"] == 0.6
        assert set(report["detected"]) == set(rec["attacks"])

    some_rfe = corpus / manifest["rfes"][0]["file"]
    assert run(["detect", "--bank", str(corpus / "bank.jsonl"), "--input", str(some_rfe)]) == 0


def test_detect_on_a_directory_writes_the_single_file_runs_concatenated(tmp_path, rfe_corpus_42):
    """One call scores the whole directory's sentences together, yet its
    output is byte for byte the per-file runs in the same order."""
    root, manifest = rfe_corpus_42
    bank = str(root / manifest["paths"]["bank"])
    batch = tmp_path / "batch.jsonl"
    assert run(["detect", "--bank", bank, "--input", str(root), "--out", str(batch)]) == 0
    singles = []
    for rec in manifest["rfes"]:
        out = tmp_path / f"{rec['id']}.jsonl"
        assert run(["detect", "--bank", bank, "--input", str(root / rec["file"]),
                    "--out", str(out)]) == 0
        singles.append(out.read_bytes())
    assert len(singles) == 49
    assert batch.read_bytes() == b"".join(singles)


def test_detect_on_a_directory_reads_the_files_a_txt_glob_lists(tmp_path):
    """The inputs are the entries of sorted(DIR.glob("*.txt")), dot-files
    included and case kept, with Path.stem ids; a directory among them is
    read, and fails, like a file."""
    corpus = gen_small_corpus(tmp_path, rfes=2, docs=0)
    rfes = json.loads((corpus / "manifest.json").read_text("utf-8"))["rfes"]
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    for k, name in enumerate(("b.txt", ".h.txt", ".txt", "a.b.txt", "x.TXT", "notes.md")):
        (inbox / name).write_bytes((corpus / rfes[k % 2]["file"]).read_bytes())
    argv = ["detect", "--bank", str(corpus / "bank.jsonl"), "--input", str(inbox),
            "--out", str(tmp_path / "out.jsonl")]
    assert run(argv) == 0
    lines = (tmp_path / "out.jsonl").read_text("utf-8").splitlines()
    ids = [json.loads(line)["id"] for line in lines]
    assert ids == [p.stem for p in sorted(inbox.glob("*.txt"))] == [".h", ".txt", "a.b", "b"]
    (inbox / "d.txt").mkdir()
    assert run(argv) == 1


def test_draft_writes_output_and_sidecar(tmp_path):
    corpus = gen_small_corpus(tmp_path)
    manifest = json.loads((corpus / "manifest.json").read_text("utf-8"))
    rfe = next(r for r in manifest["rfes"] if r["attacks"])
    out = tmp_path / "draft.txt"
    code = run(
        [
            "draft",
            "--bank", str(corpus / "bank.jsonl"),
            "--store", str(corpus / "beneficiaries.jsonl"),
            "--templates", str(corpus / "templates"),
            "--input", str(corpus / rfe["file"]),
            "--out", str(out),
            "--today", "2021-06-01",
        ]
    )
    assert code == 0
    text = out.read_text("utf-8")
    assert text.startswith("RESPONSE TO REQUEST FOR EVIDENCE")
    assert "{{" not in text
    sidecar = json.loads((tmp_path / "draft.txt.manifest.json").read_text("utf-8"))
    assert sidecar["status"] == "complete"
    assert sidecar["detected"] == rfe["attacks"] or set(sidecar["detected"]) >= set(rfe["attacks"])


def test_draft_on_attackless_rfe_exits_1(tmp_path, capsys):
    corpus = gen_small_corpus(tmp_path, rfes=12)
    manifest = json.loads((corpus / "manifest.json").read_text("utf-8"))
    quiet = next((r for r in manifest["rfes"] if not r["attacks"]), None)
    assert quiet is not None
    code = run(
        [
            "draft",
            "--bank", str(corpus / "bank.jsonl"),
            "--store", str(corpus / "beneficiaries.jsonl"),
            "--templates", str(corpus / "templates"),
            "--input", str(corpus / quiet["file"]),
            "--out", str(tmp_path / "never.txt"),
        ]
    )
    assert code == 1
    assert not (tmp_path / "never.txt").exists()
    assert "no attack" in capsys.readouterr().err


def test_eval_attacks_command(tmp_path, capsys):
    corpus = gen_small_corpus(tmp_path, rfes=10)
    code = run(["eval-attacks", "--corpus", str(corpus), "--json", "-"])
    assert code == 0
    out = capsys.readouterr().out
    assert "attack=specialty-occupation" in out
    assert "recall=" in out


@pytest.mark.parametrize("tau", ["abc", 1.5, True])
@pytest.mark.parametrize("command", ["detect", "draft", "eval-attacks"])
def test_bad_config_tau_exits_2(tmp_path, capsys, command, tau):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tau": tau}), "utf-8")
    args = {
        "detect": ["--bank", "b", "--input", "i"],
        "draft": ["--bank", "b", "--store", "s", "--templates", "t",
                  "--input", "i", "--out", str(tmp_path / "o")],
        "eval-attacks": ["--corpus", str(tmp_path / "c")],
    }[command]
    assert run([command, *args, "--config", str(config)]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("train-docs", {"max_iters": True}, "max_iters"),
        ("train-docs", {"max_iters": 2.9}, "max_iters"),
        ("train-docs", {"max_iters": "2.9"}, "max_iters"),
        ("train-docs", {"l2": "abc"}, "l2"),
        ("train-docs", {"l2": False}, "l2"),
        ("train-docs", {"grad_tol": [1]}, "grad_tol"),
        ("train-docs", {"ngrams": 5}, "ngrams"),
        ("train-docs", {"ngrams": [2, True]}, "ngrams"),
        ("train-docs", {"ngrams": [0, 1]}, "ngrams"),
        ("train-docs", {"channel": "bogus"}, "channel"),
        ("train-docs", {"split": 1}, "split"),
        ("draft", {"today": 5}, "today"),
        ("draft", {"today": "2021-13-01"}, "today"),
        ("gen-corpus", {"docs_per_class": 2.5}, "docs_per_class"),
        ("gen-corpus", {"seed": True}, "seed"),
    ],
)
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, command, config, key):
    """A config value obeys its flag's rule: no bool or fraction for an
    integer, no text that the flag would refuse."""
    (tmp_path / "config.json").write_text(json.dumps(config), "utf-8")
    out = tmp_path / "out"
    args = {
        "train-docs": ["--corpus", str(tmp_path / "c"), "--out", str(out)],
        "draft": ["--bank", "b", "--store", "s", "--templates", "t",
                  "--input", "i", "--out", str(out)],
        "gen-corpus": ["--out", str(out)],
    }[command]
    assert run([command, *args, "--config", str(tmp_path / "config.json")]) == 2
    assert f"usage error: config key {key!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize(
    "command, config, unknown",
    [
        ("detect", {"tua": 0.9, "max_iter": 5}, ["max_iter", "tua"]),
        ("detect", {"tau": 0.5, "ngrams": [1]}, ["ngrams"]),
        ("draft", {"channel": "ocr"}, ["channel"]),
        ("eval-attacks", {"l2": 0.1}, ["l2"]),
        ("train-docs", {"tau": 0.5}, ["tau"]),
        ("gen-corpus", {"seed": 3, "split": "train"}, ["split"]),
    ],
)
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, command, config, unknown):
    """A key the command does not read is a usage error, not a silent
    fallback to the default, raised before anything is read or written."""
    (tmp_path / "config.json").write_text(json.dumps(config), "utf-8")
    out = tmp_path / "out"
    args = {
        "detect": ["--bank", "b", "--input", "i", "--out", str(out)],
        "draft": ["--bank", "b", "--store", "s", "--templates", "t",
                  "--input", "i", "--out", str(out)],
        "eval-attacks": ["--corpus", str(tmp_path / "c"), "--json", str(out)],
        "train-docs": ["--corpus", str(tmp_path / "c"), "--out", str(out)],
        "gen-corpus": ["--out", str(out)],
    }[command]
    assert run([command, *args, "--config", str(tmp_path / "config.json")]) == 2
    named = ", ".join(map(repr, unknown))
    assert f"usage error: unknown config key(s) {named} for {command};" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_gen_corpus_config_reads_the_keys_without_a_flag(tmp_path, capsys):
    from rfekit.corpus import CorpusConfig

    defaults = CorpusConfig().as_dict()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "classes": defaults["classes"][:1], "attack_mix": defaults["attack_mix"],
        "docs_per_class": 2, "n_rfes": 2,
    }), "utf-8")
    assert run(["gen-corpus", "--out", str(tmp_path / "c"), "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text("utf-8"))
    assert len(manifest["documents"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "data", [b"\xff\xfe{}", b"[" * 100_000, b"[]"], ids=["not-utf-8", "deep", "list"]
)
def test_unreadable_config_file_exits_2(tmp_path, capsys, data):
    (tmp_path / "config.json").write_bytes(data)
    argv = ["detect", "--bank", "b", "--input", "i", "--config", str(tmp_path / "config.json")]
    assert run(argv) == 2
    assert "usage error: " in capsys.readouterr().err


def test_config_values_in_flag_text_list_and_number_forms(tmp_path, capsys):
    corpus = gen_small_corpus(tmp_path, docs=2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ngrams": [1, 2], "l2": "0.01", "max_iters": 30}), "utf-8")
    bundle = tmp_path / "bundle"
    argv = ["train-docs", "--corpus", str(corpus), "--out", str(bundle)]
    assert run([*argv, "--config", str(config)]) == 0
    params = json.loads((bundle / "bundle.json").read_text("utf-8"))["params"]
    assert params == {"n_range": [1, 2], "l2": 0.01, "max_iters": 30, "grad_tol": 1e-6}
    config.write_text(json.dumps({"ngrams": "1,2", "l2": 0.01, "max_iters": "30"}), "utf-8")
    assert run([*argv, "--config", str(config)]) == 0
    assert json.loads((bundle / "bundle.json").read_text("utf-8"))["params"] == params
    capsys.readouterr()


@pytest.mark.parametrize(
    "clash", ["existing-target", "duplicate-target", "class-path-is-a-file", "dest-is-a-file"]
)
def test_classify_move_clash_moves_nothing(tmp_path, trained_bundle, clash):
    import shutil

    corpus, bundle = trained_bundle
    docs = json.loads((corpus / "manifest.json").read_text("utf-8"))["documents"]
    inbox, dest = tmp_path / "inbox", tmp_path / "sorted"
    if clash != "duplicate-target":
        other = next(rec for rec in docs if rec["label"] != docs[0]["label"])
        for rec in docs[:2] if clash == "existing-target" else [docs[0], other]:
            shutil.copytree(corpus / rec["dir"], inbox / rec["id"])
        traces = tmp_path / "traces.jsonl"
        argv = ["classify", "--bundle", str(bundle), "--input", str(inbox)]
        assert run([*argv, "--out", str(traces)]) == 0
        first, second = [json.loads(line) for line in traces.read_text("utf-8").splitlines()]
        if clash == "existing-target":
            (dest / second["predicted"] / second["id"]).mkdir(parents=True)
        elif clash == "class-path-is-a-file":
            # the first document's class folder can be made, the second's is a file
            assert first["predicted"] != second["predicted"]
            dest.mkdir()
            (dest / second["predicted"]).write_text("x", "utf-8")
        else:
            dest.write_text("x", "utf-8")
    else:
        # one document twice under the same name: both copies map to one target
        for folder in ("a", "b"):
            shutil.copytree(corpus / docs[0]["dir"], inbox / folder / docs[0]["id"])
        dest.mkdir()
    inbox_before, dest_before = tree_digest(inbox), sorted(dest.rglob("*"))
    out = tmp_path / "moved.jsonl"
    code = run(
        [
            "classify", "--bundle", str(bundle), "--input", str(inbox),
            "--move", str(dest), "--out", str(out),
        ]
    )
    assert code == 1
    assert tree_digest(inbox) == inbox_before
    assert sorted(dest.rglob("*")) == dest_before
    assert not out.exists()


def test_classify_move_refuses_a_class_that_is_not_a_file_name(tmp_path, capsys):
    """A bundle trained with the class ``../escaped`` cannot move documents
    out of DEST: classify exits 1 naming the class, before any move or output."""
    import shutil

    corpus = gen_small_corpus(tmp_path, docs=4)
    path = corpus / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    first = manifest["documents"][0]["label"]
    for rec in manifest["documents"]:
        if rec["label"] != first:
            rec["label"] = "../escaped"
    path.write_text(json.dumps(manifest), "utf-8")
    bundle = tmp_path / "bundle"
    assert run(["train-docs", "--corpus", str(corpus), "--out", str(bundle),
                "--max-iters", "50"]) == 0
    work, out = tmp_path / "work", tmp_path / "t.jsonl"
    inbox, dest = work / "inbox", work / "sorted"
    for rec in manifest["documents"]:
        shutil.copytree(corpus / rec["dir"], inbox / rec["id"])
    inbox_before = tree_digest(inbox)
    capsys.readouterr()
    code = run(["classify", "--bundle", str(bundle), "--input", str(inbox),
                "--move", str(dest), "--out", str(out)])
    assert code == 1
    assert "cannot move into class '../escaped'" in capsys.readouterr().err
    assert tree_digest(inbox) == inbox_before
    assert sorted(p.name for p in work.iterdir()) == ["inbox"]
    assert not out.exists()


def test_detect_draft_and_evaluate_agree_on_every_rfe(tmp_path, capsys):
    """Each seed-42 RFE gets the same detected set from all three consumers."""
    from rfekit.attacks import load_bank
    from rfekit.evaluation import evaluate_attacks

    corpus = tmp_path / "rfes"
    assert run(["gen-corpus", "--out", str(corpus), "--seed", "42",
                "--docs-per-class", "0", "--rfes", "49"]) == 0
    rfes = json.loads((corpus / "manifest.json").read_text("utf-8"))["rfes"]
    assert len(rfes) == 49
    reports = tmp_path / "detect.jsonl"
    assert run(["detect", "--bank", str(corpus / "bank.jsonl"),
                "--input", str(corpus), "--out", str(reports)]) == 0
    detected = {
        r["id"]: r["detected"] for r in map(json.loads, reports.read_text("utf-8").splitlines())
    }
    assert sorted(detected) == sorted(r["id"] for r in rfes)
    assert any(detected.values()) and not all(detected.values())

    for rfe in rfes:
        out = tmp_path / f"{rfe['id']}.txt"
        code = run(
            [
                "draft",
                "--bank", str(corpus / "bank.jsonl"),
                "--store", str(corpus / "beneficiaries.jsonl"),
                "--templates", str(corpus / "templates"),
                "--input", str(corpus / rfe["file"]),
                "--out", str(out), "--today", "2021-06-01",
            ]
        )
        if detected[rfe["id"]]:
            assert code == 0
            sidecar = json.loads(Path(f"{out}.manifest.json").read_text("utf-8"))
            assert sidecar["detected"] == detected[rfe["id"]]
        else:
            assert code == 1 and not out.exists()
    capsys.readouterr()

    # With the detect output as ground truth, a disagreement on any RFE is an
    # fp or an fn for some attack type.
    bank = load_bank(corpus / "bank.jsonl")
    pairs = [((corpus / r["file"]).read_text("utf-8"), detected[r["id"]]) for r in rfes]
    for attack in bank.attack_ids:
        counts, _ = evaluate_attacks(bank, pairs, attack)
        assert (counts.fp, counts.fn) == (0, 0), attack


def test_classify_move_rerun_after_interrupted_move_finishes(
    tmp_path, trained_bundle, corpus_42, capsys
):
    """A run stopped after moving two of an inbox's documents is finished by
    a rerun; against a corpus the rerun fails, because its manifest still
    names the moved directories."""
    import shutil

    corpus, bundle = trained_bundle
    root, manifest = corpus_42
    inbox, dest = tmp_path / "inbox", tmp_path / "sorted"
    for rec in manifest["documents"][::13]:
        shutil.copytree(root / rec["dir"], inbox / rec["id"])
    traces = tmp_path / "traces.jsonl"
    argv = ["classify", "--bundle", str(bundle), "--input", str(inbox)]
    assert run([*argv, "--out", str(traces)]) == 0
    predicted = {
        r["id"]: r["predicted"] for r in map(json.loads, traces.read_text("utf-8").splitlines())
    }
    assert len(predicted) == 8 and len(set(predicted.values())) == 2
    for doc_id in sorted(predicted)[:2]:
        (dest / predicted[doc_id]).mkdir(parents=True, exist_ok=True)
        shutil.move(str(inbox / doc_id), str(dest / predicted[doc_id] / doc_id))

    assert run([*argv, "--move", str(dest)]) == 0
    assert list(inbox.iterdir()) == []
    assert sorted(p.relative_to(dest) for p in dest.glob("*/*")) == sorted(
        Path(label, doc_id) for doc_id, label in predicted.items()
    )

    records = json.loads((corpus / "manifest.json").read_text("utf-8"))["documents"]
    for rec in records[:2]:
        shutil.move(str(corpus / rec["dir"]), str(tmp_path / rec["id"]))
    argv = ["classify", "--bundle", str(bundle), "--input", str(corpus)]
    assert run([*argv, "--move", str(tmp_path / "sorted-corpus")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, edit",
    [
        ("eval-attacks", lambda m: m.pop("paths")),
        ("eval-attacks", lambda m: m["rfes"][0].update(file="/etc/hostname")),
        ("detect", lambda m: m["rfes"][0].update(file="../corpus/rfes/rfe-0000.txt")),
        ("train-docs", lambda m: m["documents"][0].pop("dir")),
        ("train-docs", lambda m: m["documents"][0].update(dir="../corpus/docs/doc-0001")),
        ("eval-docs", lambda m: m["documents"][-1].pop("label")),
    ],
    ids=["no-paths", "rfe-absolute", "rfe-dotdot", "no-dir", "dir-dotdot", "no-label"],
)
def test_malformed_manifest_exits_1_naming_it(tmp_path, trained_bundle, capsys, command, edit):
    corpus, bundle = trained_bundle
    path = corpus / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), "utf-8")
    args = {
        "eval-attacks": ["--corpus", str(corpus)],
        "detect": ["--bank", str(corpus / "bank.jsonl"), "--input", str(corpus)],
        "train-docs": ["--corpus", str(corpus), "--out", str(tmp_path / "b2")],
        "eval-docs": ["--bundle", str(bundle), "--corpus", str(corpus)],
    }[command]
    assert run([command, *args]) == 1
    assert f"error: {path}" in capsys.readouterr().err


def test_classify_doc_json_without_pages_exits_1_naming_it(tmp_path, trained_bundle, capsys):
    corpus, bundle = trained_bundle
    doc_dir = corpus / json.loads((corpus / "manifest.json").read_text("utf-8"))["documents"][0]["dir"]
    meta = json.loads((doc_dir / "doc.json").read_text("utf-8"))
    del meta["pages"]
    (doc_dir / "doc.json").write_text(json.dumps(meta), "utf-8")
    assert run(["classify", "--bundle", str(bundle), "--input", str(corpus)]) == 1
    assert f"error: {doc_dir / 'doc.json'}: 'pages'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "draft", "eval-attacks"])
@pytest.mark.parametrize("fault", ["not-utf-8", "directory"])
def test_unreadable_rfe_exits_1_naming_the_file(tmp_path, capsys, command, fault):
    corpus = gen_small_corpus(tmp_path, docs=0)
    rfe = corpus / json.loads((corpus / "manifest.json").read_text("utf-8"))["rfes"][0]["file"]
    rfe.unlink()
    if fault == "not-utf-8":
        rfe.write_bytes(b"Dear sir \xff\xfe")
    else:
        rfe.mkdir()
    args = {
        "detect": ["--bank", str(corpus / "bank.jsonl"), "--input", str(corpus)],
        "draft": [
            "--bank", str(corpus / "bank.jsonl"),
            "--store", str(corpus / "beneficiaries.jsonl"),
            "--templates", str(corpus / "templates"),
            "--input", str(rfe), "--out", str(tmp_path / "draft.txt"),
        ],
        "eval-attacks": ["--corpus", str(corpus)],
    }[command]
    assert run([command, *args]) == 1
    assert f"error: cannot read RFE {rfe}: " in capsys.readouterr().err
    assert not (tmp_path / "draft.txt").exists()


def draft_args(corpus, rfe_file, out, store=None):
    return [
        "draft",
        "--bank", str(corpus / "bank.jsonl"),
        "--store", str(store or corpus / "beneficiaries.jsonl"),
        "--templates", str(corpus / "templates"),
        "--input", str(rfe_file), "--out", str(out), "--today", "2021-06-01",
    ]


@pytest.fixture()
def drafting_corpus(tmp_path):
    """A small corpus, one RFE with attacks, its case number and its clean draft."""
    corpus = gen_small_corpus(tmp_path, docs=0)
    rfe = next(r for r in json.loads((corpus / "manifest.json").read_text("utf-8"))["rfes"]
               if r["attacks"])
    clean = tmp_path / "clean.txt"
    assert run(draft_args(corpus, corpus / rfe["file"], clean)) == 0
    return corpus, corpus / rfe["file"], rfe["case_number"], clean


def test_draft_ignores_a_malformed_store_line_without_its_case_number(tmp_path, drafting_corpus):
    corpus, rfe_file, case_number, clean = drafting_corpus
    lines = (corpus / "beneficiaries.jsonl").read_text("utf-8").splitlines()
    assert all(case_number not in line for line in lines[1:])
    lines[1] = '{"case_number": "SRC-00-000-00000", "soc_code": 15'
    store = tmp_path / "store.jsonl"
    store.write_text("\n".join(lines) + "\n", "utf-8")
    out = tmp_path / "draft.txt"
    assert run(draft_args(corpus, rfe_file, out, store)) == 0
    assert out.read_bytes() == clean.read_bytes()
    assert (Path(f"{out}.manifest.json").read_bytes()
            == Path(f"{clean}.manifest.json").read_bytes())


@pytest.mark.parametrize("fault, message", [
    ("malformed", "error: store line {n}: "),
    ("duplicate", "error: duplicate case number '{case}'"),
    ("bad-soc-code", "error: case '{case}': soc_code '151211' does not match NN-NNNN"),
    ("missing", "error: cannot read store {store}: "),
])
def test_draft_refuses_a_store_whose_target_breaks_a_rule(
        tmp_path, drafting_corpus, capsys, fault, message):
    corpus, rfe_file, case_number, _ = drafting_corpus
    lines = (corpus / "beneficiaries.jsonl").read_text("utf-8").splitlines()
    n = next(i for i, line in enumerate(lines, start=1) if case_number in line)
    target = lines[n - 1]
    lines[n - 1] = {
        "malformed": target[:-5], "duplicate": target + "\n" + target,
        "bad-soc-code": re.sub(r'"soc_code": "\d\d-\d{4}"', '"soc_code": "151211"', target),
        "missing": target,
    }[fault]
    store = tmp_path / "store.jsonl"
    if fault != "missing":
        store.write_text("\n".join(lines) + "\n", "utf-8")
    out = tmp_path / "draft.txt"
    capsys.readouterr()
    assert run(draft_args(corpus, rfe_file, out, store)) == 1
    assert message.format(n=n, case=case_number, store=store) in capsys.readouterr().err
    assert not out.exists()


def test_draft_extracts_the_fields_once(tmp_path, drafting_corpus, monkeypatch):
    import rfekit.cli
    import rfekit.drafting

    corpus, rfe_file, _, clean = drafting_corpus
    calls = []
    extract = rfekit.drafting.extract_fields

    def counted(*args, **kwargs):
        calls.append(args[0])
        return extract(*args, **kwargs)

    for module in (rfekit.cli, rfekit.drafting):
        monkeypatch.setattr(module, "extract_fields", counted)
    out = tmp_path / "draft.txt"
    assert run(draft_args(corpus, rfe_file, out)) == 0
    assert calls == [rfe_file.read_text("utf-8")]
    assert out.read_bytes() == clean.read_bytes()


def test_draft_without_a_case_number_decodes_no_store_line(tmp_path, drafting_corpus):
    corpus, rfe_file, case_number, _ = drafting_corpus
    rfe = tmp_path / "rfe.txt"
    rfe.write_text(re.sub(r"(?m)^Case Number:.*\n", "", rfe_file.read_text("utf-8")), "utf-8")
    store = tmp_path / "store.jsonl"
    store.write_text("{not json\n", "utf-8")
    out = tmp_path / "draft.txt"
    assert run(draft_args(corpus, rfe, out, store)) == 0
    sidecar = json.loads(Path(f"{out}.manifest.json").read_text("utf-8"))
    assert sidecar["status"] == "incomplete" and sidecar["case_number"] is None
    assert "case_number" in sidecar["missing_fields"]
    store.unlink()
    assert run(draft_args(corpus, rfe, tmp_path / "never.txt", store)) == 1


def fresh_parser_output(argv):
    """What a newly built parser prints for ``argv``, and its exit code."""
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    from rfekit.cli import build_parser

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    return out.getvalue(), err.getvalue(), exit_info.value.code


@pytest.mark.parametrize("command", [
    [], ["gen-corpus"], ["train-docs"], ["classify"], ["detect"], ["draft"],
    ["eval-docs"], ["eval-attacks"],
])
def test_help_of_the_shared_parser_equals_a_fresh_parser(capsys, command):
    for _ in range(2):
        assert run([*command, "--help"]) == 0
        out, err = capsys.readouterr()
        assert (out, err, 0) == fresh_parser_output([*command, "--help"])
        assert out.startswith("usage: rfekit")


def test_run_calls_share_no_parsed_state(tmp_path, capsys):
    """A flag given to one call never reaches the next one."""
    from rfekit.attacks import DEFAULT_TAU
    from rfekit.cli import _parser, build_parser

    assert _parser() is _parser() and build_parser() is not build_parser()
    missing = ["--bank", str(tmp_path / "no-bank"), "--input", str(tmp_path / "no-rfe")]
    echoed = []
    for extra in (["--tau", "0.9"], []):
        assert run(["detect", *missing, *extra]) == 1
        echoed.append(json.loads(capsys.readouterr().err.splitlines()[0].split(" ", 4)[4]))
    assert echoed == [{"tau": 0.9}, {"tau": DEFAULT_TAU}]


def test_usage_errors_exit_2_on_every_call(capsys):
    argv = ["detect", "--bank", "b", "--input", "i", "--tau", "1.5"]
    for _ in range(3):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "tau must be a number in [0, 1]" in err
        assert (err, 2) == fresh_parser_output(argv)[1:]

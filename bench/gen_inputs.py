"""Generate one workload's inputs, in a process of its own.

    python3 bench/gen_inputs.py --workload W --seed N --out DIR [--smoke]

``bench/run.py`` starts this with ``src`` on ``PYTHONPATH`` and the BLAS
thread count pinned, so none of its time or memory counts toward a metric.
Everything comes from the program itself: ``generate_corpus`` makes the
corpora.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from rfekit.corpus import CorpusConfig, generate_corpus

# Corpus sizes per workload. Full size is what the benchmark measures; smoke
# size only exercises the harness. The RFEs arrive in blocks, one detect call
# each.
SIZES = {
    "full": {"train_docs": 52, "rfes": 1000, "rfe_blocks": 10},
    "smoke": {"train_docs": 6, "rfes": 24, "rfe_blocks": 4},
}
GOLDEN_SEED = 42
GOLDEN_RFES = 49  # the corpus tests/data/golden-rfe3-draft.txt was drafted from


def generate(workload: str, seed: int, out: Path, smoke: bool) -> None:
    size = SIZES["smoke" if smoke else "full"]
    if workload == "train":
        generate_corpus(
            CorpusConfig(seed=seed, docs_per_class=size["train_docs"], n_rfes=0),
            out / "corpus",
        )
    elif workload == "casework":
        manifest = generate_corpus(
            CorpusConfig(seed=seed, docs_per_class=0, n_rfes=size["rfes"]),
            out / "corpus",
        )
        per_block = -(-size["rfes"] // size["rfe_blocks"])
        for i, rec in enumerate(manifest["rfes"]):
            block = out / "blocks" / f"block-{i // per_block:02d}"
            block.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / "corpus" / rec["file"], block / f"{rec['id']}.txt")
        if seed == GOLDEN_SEED:
            generate_corpus(
                CorpusConfig(seed=seed, docs_per_class=0, n_rfes=GOLDEN_RFES),
                out / "golden",
            )
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.smoke)


if __name__ == "__main__":
    sys.exit(main())

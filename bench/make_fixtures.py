"""Train the two micro checkpoints the benchmark loads, through the simtkit CLI.

Run from the repository root:

    python3 bench/make_fixtures.py

It generates a local-swap training corpus on a seed that no benchmark input
uses, trains a multipath (UNIDIRECTIONAL) and a p2f (BIDIRECTIONAL) model
with the CLI's default model shape (d=32, max_len=64), and writes the checkpoints plus
their sha256 sums to bench/fixtures/. The benchmark checks those sums at
set-up, so sweep and divergence outputs do not depend on training arithmetic.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
FIXTURES = os.path.join(BENCH, "fixtures")
sys.path.insert(0, os.path.join(ROOT, "src"))

from simtkit import cli  # noqa: E402

TRAIN_CORPUS_SEED = 1000
# The CLI default of 10 epochs at lr 0.05 leaves the loss near ln(7): the
# model writes the same tokens at every lambda, which exercises no policy path.
TRAIN_FLAGS = ["--epochs", "40", "--lr", "0.2"]
CHECKPOINTS = {
    "multipath_uni.json": ["--regime", "multipath"],
    "p2f_bi.json": ["--regime", "p2f"],
}


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    os.makedirs(FIXTURES, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH) as work:
        src, tgt = os.path.join(work, "train.src"), os.path.join(work, "train.tgt")
        if cli.main(["gen-corpus", "--kind", "local-swap", "--len-min", "6",
                     "--len-max", "12", "--n-pairs", "1000",
                     "--seed", str(TRAIN_CORPUS_SEED),
                     "--out-src", src, "--out-tgt", tgt]) != 0:
            return 1
        for name, regime in CHECKPOINTS.items():
            out = os.path.join(FIXTURES, name)
            if cli.main(["train", *regime, *TRAIN_FLAGS, "--src", src, "--tgt", tgt,
                         "--checkpoint", out]) != 0:
                return 1
    with open(os.path.join(FIXTURES, "SHA256SUMS"), "w", encoding="utf-8") as fh:
        for name in sorted(CHECKPOINTS):
            fh.write(f"{sha256_of(os.path.join(FIXTURES, name))}  {name}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

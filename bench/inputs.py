"""Seeded inputs for the benchmark, and the cached decode checkpoint.

Every corpus is a set of cipher languages over one latent vocabulary: a
latent sentence is a list of token ids, and language L writes token t as the
symbol ALPHABET[perm_L[t]]. Latent sentences, permutations and the
references derived from them are made here with numpy alone, so the
references the checks use do not come from the program under test.

The decode checkpoint (a joint X-Y model) is built once per source tree by
the program's own `joint_train`, in a child process, and cached under
`.bench_build/` at the root of the checkout.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from modnmt import corpus as mcorpus
from modnmt import model as mmodel
from modnmt import tokenizer as mtok
from modnmt import trainer as mtrainer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_DIR = ROOT / ".bench_build"

# 64 lowercase, NFC-stable, punctuation-free symbols, so the program's
# normalization is the identity on cipher text.
ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789αβγδεζηθικλμνξοπρστυφχψωабвг"
BASE_VOCAB = 64
LEN_RANGE = (3, 12)  # words per sentence, both ends included
BPE_SIZE = 96
PAIRS = 2000
BATCH_TOKENS = 1024
ARCH = dict(dim=64, n_blocks=2, n_heads=4, ff_dim=256)
TRAIN_SEED = 7  # TrainingConfig.seed of every training run

# The decode checkpoint: a fixed X-Y corpus, not the workload seed.
CKPT_KEY = 20190701
CKPT_STEPS = 300


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _tag(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def permutation(key: int, lang: str) -> np.ndarray:
    return _rng(key, _tag(lang)).permutation(BASE_VOCAB)


def latent_sentences(key: int, purpose: str, n: int) -> list[np.ndarray]:
    rng = _rng(key, _tag(purpose))
    lo, hi = LEN_RANGE
    return [rng.integers(0, BASE_VOCAB, size=int(rng.integers(lo, hi + 1))) for _ in range(n)]


def surface(perm: np.ndarray, latent: np.ndarray) -> str:
    return " ".join(ALPHABET[perm[t]] for t in latent)


def config(steps: int) -> mtrainer.TrainingConfig:
    return mtrainer.TrainingConfig(steps=steps, batch_tokens=BATCH_TOKENS, seed=TRAIN_SEED, **ARCH)


def leave_out_lone_pair(lines_a: list[str], lines_b: list[str], vocab_a,
                        vocab_b) -> tuple[list[str], list[str]]:
    """Drop the one pair that `make_batches` would put alone in a batch.

    About one seeded corpus in sixty ends in a 1-row batch, and the joint
    objective's correlation distance cannot be taken over one row (see the
    FOUND line in CHANGES.md). Group sizes do not depend on the shuffle seed,
    so one look at the batch plan decides it for every epoch.
    """
    corp = mcorpus.preprocess(lines_a, lines_b, vocab_a, vocab_b)
    if len(corp.pairs) != len(lines_a):
        raise RuntimeError("preprocess dropped pairs; corpus indices no longer line up")
    lone = [b for b in mcorpus.make_batches(corp, BATCH_TOKENS, TRAIN_SEED) if b.size == 1]
    if not lone:
        return lines_a, lines_b
    ids = lone[0].src_ids[0].tolist()
    drop = next(i for i, (src, _) in enumerate(corp.pairs) if src.ids == ids)
    return lines_a[:drop] + lines_a[drop + 1:], lines_b[:drop] + lines_b[drop + 1:]


@dataclass
class JointInputs:
    lines_x: list[str]
    lines_y: list[str]
    vocab_x: mtok.Vocabulary
    vocab_y: mtok.Vocabulary


def joint_inputs(key: int) -> JointInputs:
    """A seeded X-Y corpus with both ciphers drawn from `key`."""
    px, py = permutation(key, "X"), permutation(key, "Y")
    latent = latent_sentences(key, "joint", PAIRS)
    lines_x = [surface(px, s) for s in latent]
    lines_y = [surface(py, s) for s in latent]
    vx = mtok.learn_bpe(lines_x, "X", BPE_SIZE)
    vy = mtok.learn_bpe(lines_y, "Y", BPE_SIZE)
    lines_x, lines_y = leave_out_lone_pair(lines_x, lines_y, vx, vy)
    return JointInputs(lines_x, lines_y, vx, vy)


def add_inputs(key: int) -> tuple[list[str], list[str], mtok.Vocabulary]:
    """A seeded Z-X corpus: Z's cipher comes from `key`, X's is the checkpoint's."""
    pz, px = permutation(key, "Z"), permutation(CKPT_KEY, "X")
    latent = latent_sentences(key, "add", PAIRS)
    lines_z = [surface(pz, s) for s in latent]
    lines_x = [surface(px, s) for s in latent]
    return lines_z, lines_x, mtok.learn_bpe(lines_z, "Z", BPE_SIZE)


def heldout(key: int, n: int) -> tuple[list[str], list[str]]:
    """X source sentences and their Y references, both from the checkpoint's ciphers."""
    px, py = permutation(CKPT_KEY, "X"), permutation(CKPT_KEY, "Y")
    latent = latent_sentences(key, "heldout", n)
    return [surface(px, s) for s in latent], [surface(py, s) for s in latent]


# -- the decode checkpoint ------------------------------------------------------


def _source_key() -> str:
    """Hash of the program's sources and of this file, naming the cache entry."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modnmt").glob("*.py")) + [Path(__file__)]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def decode_checkpoint_dir() -> Path:
    """Directory holding checkpoint.bin and vocab_X/Y.txt; built if missing."""
    out = CACHE_DIR / f"decode-ckpt-{_source_key()}"
    if not (out / "checkpoint.bin").exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        # A child process keeps the build's memory out of the workload's peak RSS.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, str(Path(__file__)), str(out)], check=True,
                       stdout=sys.stderr, env=env)
    return out


def build_decode_checkpoint(out: Path) -> None:
    inp = joint_inputs(CKPT_KEY)
    corp = mcorpus.preprocess(inp.lines_x, inp.lines_y, inp.vocab_x, inp.vocab_y)
    registry, _, rows = mtrainer.joint_train(corp, inp.vocab_x, inp.vocab_y, config(CKPT_STEPS))
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    tmp.mkdir(parents=True)
    mmodel.save_checkpoint(registry, tmp / "checkpoint.bin")
    inp.vocab_x.save(tmp / "vocab_X.txt")
    inp.vocab_y.save(tmp / "vocab_Y.txt")
    (tmp / "loss.csv").write_text(mtrainer.loss_rows_to_csv(rows), encoding="utf-8")
    tmp.rename(out)


if __name__ == "__main__":
    build_decode_checkpoint(Path(sys.argv[1]))

"""Parallel corpora: ingestion, batching, and synthetic cipher languages.

Cipher languages are token-substitution ciphers over a shared latent
vocabulary. Sentences are i.i.d. uniform latent tokens, so translation is
exactly solvable and every experiment can be graded against a closed-form
oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .tokenizer import PAD, TokenizedSentence, Vocabulary, normalize

log = logging.getLogger(__name__)

# Single-character surface alphabet. Every symbol is lowercase and
# NFC-stable, so corpus normalization is the identity on cipher text.
ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz"
    "0123456789"
    "αβγδεζηθικλμνξοπρστυφχψω"
    "абвгдежзийклмнопрстуфхцчшщъыьэюя"
)
_SYMBOL_INDEX = {c: i for i, c in enumerate(ALPHABET)}


class CorpusError(ValueError):
    pass


@dataclass
class ParallelCorpus:
    src_lang: str
    tgt_lang: str
    pairs: list  # [(TokenizedSentence, TokenizedSentence)]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class Batch:
    src_ids: np.ndarray  # [B, S] int64
    tgt_ids: np.ndarray  # [B, T] int64
    src_pad_mask: np.ndarray  # [B, S] bool, True at padding
    tgt_pad_mask: np.ndarray  # [B, T] bool

    @property
    def size(self) -> int:
        return self.src_ids.shape[0]


@dataclass
class SyntheticLanguageSpec:
    language: str
    base_vocab_size: int
    permutation: np.ndarray  # bijection over range(base_vocab_size)
    rng_seed: int

    def __post_init__(self):
        self.permutation = np.asarray(self.permutation, dtype=np.int64)
        if sorted(self.permutation.tolist()) != list(range(self.base_vocab_size)):
            raise CorpusError(f"permutation for {self.language!r} is not a bijection")
        if self.base_vocab_size > len(ALPHABET):
            raise CorpusError(
                f"base vocabulary {self.base_vocab_size} exceeds surface alphabet size {len(ALPHABET)}"
            )

    @property
    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.permutation)
        inv[self.permutation] = np.arange(self.base_vocab_size)
        return inv

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"language {self.language}\n")
            f.write(f"base_vocab_size {self.base_vocab_size}\n")
            f.write(f"seed {self.rng_seed}\n")
            f.write("permutation " + " ".join(map(str, self.permutation.tolist())) + "\n")

    @classmethod
    def load(cls, path) -> "SyntheticLanguageSpec":
        fields = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                key, _, value = line.strip().partition(" ")
                fields[key] = value
        return cls(
            language=fields["language"],
            base_vocab_size=int(fields["base_vocab_size"]),
            permutation=[int(x) for x in fields["permutation"].split()],
            rng_seed=int(fields["seed"]),
        )


def make_cipher_spec(language: str, base_vocab_size: int, seed: int) -> SyntheticLanguageSpec:
    rng = np.random.default_rng(seed)
    return SyntheticLanguageSpec(
        language=language,
        base_vocab_size=base_vocab_size,
        permutation=rng.permutation(base_vocab_size),
        rng_seed=seed,
    )


def _surface(spec: SyntheticLanguageSpec, latent: np.ndarray) -> str:
    return " ".join(ALPHABET[spec.permutation[t]] for t in latent)


def generate_cipher_lines(
    spec_a: SyntheticLanguageSpec,
    spec_b: SyntheticLanguageSpec,
    n_sentences: int,
    len_range: tuple[int, int] = (3, 12),
    seed: int | None = None,
) -> tuple[list[str], list[str]]:
    """Aligned surface text for two ciphers of the same latent sentences.

    The latent draw is seeded (default: spec_a's seed), so a fixed seed
    reproduces the corpus exactly.
    """
    if spec_a.base_vocab_size != spec_b.base_vocab_size:
        raise CorpusError(
            f"base vocabulary mismatch: {spec_a.base_vocab_size} vs {spec_b.base_vocab_size}"
        )
    rng = np.random.default_rng(spec_a.rng_seed if seed is None else seed)
    lo, hi = len_range
    lines_a, lines_b = [], []
    for _ in range(n_sentences):
        length = int(rng.integers(lo, hi + 1))
        latent = rng.integers(0, spec_a.base_vocab_size, size=length)
        lines_a.append(_surface(spec_a, latent))
        lines_b.append(_surface(spec_b, latent))
    return lines_a, lines_b


def cipher_oracle_translate(
    spec_a: SyntheticLanguageSpec, spec_b: SyntheticLanguageSpec, sentence: str
) -> str:
    """Exact reference translation: token-wise permB(permA^-1(token))."""
    inv_a = spec_a.inverse
    out = []
    for tok in sentence.split():
        idx = _SYMBOL_INDEX.get(tok)
        if idx is None or idx >= spec_a.base_vocab_size:
            raise CorpusError(f"symbol {tok!r} outside base vocabulary of {spec_a.language!r}")
        out.append(ALPHABET[spec_b.permutation[inv_a[idx]]])
    return " ".join(out)


def preprocess(
    lines_src,
    lines_tgt,
    vocab_src: Vocabulary,
    vocab_tgt: Vocabulary,
    max_len: int = 80,
) -> ParallelCorpus:
    """Normalize, length-filter, and BPE-encode an aligned pair of line lists.

    A pair is dropped when either side exceeds `max_len` whitespace words;
    the filter runs before subword splitting.
    """
    lines_src = list(lines_src)
    lines_tgt = list(lines_tgt)
    if len(lines_src) != len(lines_tgt):
        raise CorpusError(
            f"alignment error: {len(lines_src)} source lines vs {len(lines_tgt)} target lines"
        )
    pairs = []
    for src, tgt in zip(lines_src, lines_tgt):
        src = normalize(src)
        tgt = normalize(tgt)
        if not src or not tgt:
            continue
        if len(src.split()) > max_len or len(tgt.split()) > max_len:
            continue
        pairs.append((vocab_src.encode(src), vocab_tgt.encode(tgt)))
    if not pairs:
        log.warning("preprocess produced an empty corpus (%s-%s)", vocab_src.language, vocab_tgt.language)
    return ParallelCorpus(src_lang=vocab_src.language, tgt_lang=vocab_tgt.language, pairs=pairs)


def pad_block(sentences: list[TokenizedSentence]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad sentences with PAD to one width: (ids [B, W], pad mask [B, W], True at padding)."""
    width = max(len(s.ids) for s in sentences)
    ids = np.full((len(sentences), width), PAD, dtype=np.int64)
    mask = np.ones((len(sentences), width), dtype=bool)
    for row, s in enumerate(sentences):
        ids[row, : len(s.ids)] = s.ids
        mask[row, : len(s.ids)] = False
    return ids, mask


def make_batches(corpus: ParallelCorpus, batch_tokens: int, seed: int) -> list[Batch]:
    """Length-bucketed batches under a rows x max-len token budget.

    Every corpus pair lands in exactly one batch; batch order is shuffled
    with the given seed.
    """
    if not corpus.pairs:
        raise CorpusError("cannot batch an empty corpus")
    order = sorted(
        range(len(corpus.pairs)),
        key=lambda i: (len(corpus.pairs[i][0].ids), len(corpus.pairs[i][1].ids), i),
    )
    groups: list[list[int]] = []
    current: list[int] = []
    cur_max = 0
    for i in order:
        src, tgt = corpus.pairs[i]
        length = max(len(src.ids), len(tgt.ids))
        if length > batch_tokens:
            raise CorpusError(f"sentence of length {length} exceeds batch budget {batch_tokens}")
        new_max = max(cur_max, length)
        if current and (len(current) + 1) * new_max > batch_tokens:
            groups.append(current)
            current, cur_max = [], 0
            new_max = length
        current.append(i)
        cur_max = new_max
    if current:
        groups.append(current)

    rng = np.random.default_rng(seed)
    rng.shuffle(groups)

    batches = []
    for group in groups:
        src_ids, src_mask = pad_block([corpus.pairs[i][0] for i in group])
        tgt_ids, tgt_mask = pad_block([corpus.pairs[i][1] for i in group])
        batches.append(Batch(src_ids, tgt_ids, src_mask, tgt_mask))
    return batches

"""Monolingual subword vocabularies: BPE learning, encoding, decoding.

Each vocabulary is built from exactly one language's corpus. Words get a
trailing end-of-word marker before merging so detokenization is a plain
string join.
"""

from __future__ import annotations

import hashlib
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIALS = ["<pad>", "<bos>", "<eos>", "<unk>"]
EOW = "</w>"

_PUNCT = set(".,;:!?()[]{}\"'«»¿¡—…-")


class TokenizerError(ValueError):
    pass


def normalize(text: str) -> str:
    """NFC, lowercase, punctuation spacing, whitespace collapse."""
    text = unicodedata.normalize("NFC", text).lower()
    out = []
    for ch in text:
        if ch in _PUNCT:
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return " ".join("".join(out).split())


def _word_symbols(word: str) -> tuple[str, ...]:
    # EOW is its own trailing symbol; merges may later absorb it.
    return tuple(word) + (EOW,)


def _merge_pair(symbols: list[str], left: str, right: str) -> list[str]:
    """`symbols` with every adjacent (left, right) pair replaced by left + right."""
    merged = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
            merged.append(left + right)
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return merged


@dataclass
class TokenizedSentence:
    ids: list[int]
    surface: str


@dataclass
class Vocabulary:
    """Immutable after construction; safe for concurrent readers."""

    language: str
    tokens: list[str]
    merge_table: list[tuple[str, str]]
    _token_to_id: dict = field(default_factory=dict, repr=False)
    _word_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.tokens[:4] != SPECIALS:
            raise TokenizerError("specials must occupy ids 0..3")
        if len(set(self.tokens)) != len(self.tokens):
            raise TokenizerError("duplicate token strings in vocabulary")
        self._token_to_id = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    # -- encoding -------------------------------------------------------------

    def _encode_word(self, word: str) -> list[int]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        symbols = list(_word_symbols(word))
        for left, right in self.merge_table:
            if len(symbols) < 2:
                break
            symbols = _merge_pair(symbols, left, right)
        ids = [self._token_to_id.get(s, UNK) for s in symbols]
        self._word_cache[word] = ids
        return ids

    def encode(self, sentence: str) -> TokenizedSentence:
        """BOS + subword ids + EOS; unknown characters become UNK."""
        ids = [BOS]
        for word in sentence.split():
            ids.extend(self._encode_word(word))
        ids.append(EOS)
        return TokenizedSentence(ids=ids, surface=sentence)

    def decode(self, ids) -> str:
        """Inverse of encode: specials stripped, subword marks joined."""
        parts = []
        for i in ids:
            i = int(i)
            if i < 0 or i >= len(self.tokens):
                raise TokenizerError(f"token id {i} out of range (vocabulary size {len(self.tokens)})")
            if i in (PAD, BOS, EOS):
                continue
            if i == UNK:
                parts.append("<unk>")
            else:
                parts.append(self.tokens[i])
        return "".join(parts).replace(EOW, " ").strip()

    # -- serialization --------------------------------------------------------

    def serialize(self) -> str:
        lines = [f"1\t{self.language}\t{len(self.tokens)}"]
        lines.extend(self.tokens)
        lines.append("#MERGES")
        lines.extend(f"{a}\t{b}" for a, b in self.merge_table)
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.serialize())

    @classmethod
    def deserialize(cls, text: str) -> "Vocabulary":
        lines = text.splitlines()
        version, language, size = lines[0].split("\t")
        if version != "1":
            raise TokenizerError(f"unsupported vocabulary version {version!r}")
        size = int(size)
        tokens = lines[1 : 1 + size]
        if lines[1 + size] != "#MERGES":
            raise TokenizerError("missing #MERGES sentinel")
        merges = []
        for line in lines[2 + size :]:
            if not line:
                continue
            a, b = line.split("\t")
            merges.append((a, b))
        return cls(language=language, tokens=tokens, merge_table=merges)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            return cls.deserialize(f.read())

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()


def learn_bpe(corpus_lines, language: str, target_vocab_size: int) -> Vocabulary:
    """Greedy highest-frequency pair merging over one language's corpus.

    Merging stops when the vocabulary reaches the target size or no pair
    occurs at least twice. Ties break on lexicographic pair order so the
    result is deterministic.
    """
    word_freq: Counter = Counter()
    for line in corpus_lines:
        word_freq.update(line.split())
    if not word_freq:
        raise TokenizerError(f"empty corpus for language {language!r}")

    words = {w: list(_word_symbols(w)) for w in word_freq}
    inventory = sorted({s for syms in words.values() for s in syms})
    if target_vocab_size < len(inventory) + len(SPECIALS):
        raise TokenizerError(
            f"target vocabulary size {target_vocab_size} below character "
            f"inventory {len(inventory)} + {len(SPECIALS)} specials"
        )

    tokens = list(SPECIALS) + inventory
    merges: list[tuple[str, str]] = []
    while len(tokens) < target_vocab_size:
        pair_freq: Counter = Counter()
        for w, syms in words.items():
            freq = word_freq[w]
            for pair in zip(syms, syms[1:]):
                pair_freq[pair] += freq
        if not pair_freq:
            break
        best_count = max(pair_freq.values())
        if best_count < 2:
            break
        best = min(p for p, c in pair_freq.items() if c == best_count)
        merges.append(best)
        words = {w: _merge_pair(syms, *best) for w, syms in words.items()}
        tokens.append(best[0] + best[1])

    return Vocabulary(language=language, tokens=tokens, merge_table=merges)

"""Inference by arbitrary encoder/decoder composition.

Direct and zero-shot routes are mechanically identical; the distinction is
provenance metadata. Pivot cascades through an intermediate language's
text. Decoding is greedy or length-normalized beam search, with ties broken
by lowest token id for bitwise reproducibility.

Both decoders are incremental: each step feeds only the newest position to
`DecoderModule.forward` with a `DecoderCache`, which keeps every block's
self-attention keys/values and the encoder memory's cross-attention
keys/values, so a step costs one position instead of the whole prefix.
Greedy decoding drops a row from the batch (cache, encoder states and pad
mask) once it emits EOS; beam search runs a sentence's live hypotheses as
one batch and reorders the cache rows by each survivor's parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CompositionError, DecoderCache, DecoderModule, ModuleRegistry
from .tensor import Tensor, no_grad
from .tokenizer import BOS, EOS, PAD, normalize

ROUTES = ("direct", "zero_shot", "pivot")


@dataclass(frozen=True)
class TranslationRequest:
    src_lang: str
    tgt_lang: str
    route: str = "direct"
    via: str | None = None
    decode: str = "greedy"
    beam_width: int = 4

    def __post_init__(self):
        if self.route not in ROUTES:
            raise CompositionError(f"unknown route {self.route!r}")
        if self.route == "pivot" and not self.via:
            raise CompositionError("pivot route requires a via language")
        if self.decode not in ("greedy", "beam"):
            raise CompositionError(f"unknown decode mode {self.decode!r}")
        if self.decode == "beam" and self.beam_width < 1:
            raise CompositionError("beam width must be >= 1")


def max_output_length(src_len: int) -> int:
    # caps runaway generation on collapsed models
    return 2 * src_len + 5


def greedy_decode(dec: DecoderModule, enc_states, src_pad_mask, max_len: int) -> list[list[int]]:
    """Batched greedy decoding; returns generated ids after BOS, EOS included.

    One cached decoder call per step, over the rows still decoding: a row
    that emits EOS leaves the batch. Argmax ties resolve to the lowest token id.
    """
    b = enc_states.shape[0]
    if max_len <= 0:
        return [[] for _ in range(b)]
    ys = np.full((b, max_len + 1), PAD, dtype=np.int64)
    ys[:, 0] = BOS
    live = np.arange(b)  # the row of ys behind each decoder row
    states, mask = enc_states, np.asarray(src_pad_mask, dtype=bool)
    cache = DecoderCache()
    with no_grad():
        for t in range(max_len):
            logits = dec.forward(states, mask, ys[live, t : t + 1], cache=cache).data[:, -1, :]
            nxt = np.argmax(logits, axis=-1)
            ys[live, t + 1] = nxt
            going = nxt != EOS
            if not going.all():
                live = live[going]
                if not live.size:
                    break
                states, mask = Tensor(states.data[going]), mask[going]
                cache.select(going)
    out = []
    for row in ys[:, 1:]:
        ids = []
        for t in row:
            if t == PAD:
                break
            ids.append(int(t))
            if t == EOS:
                break
        out.append(ids)
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of [N, V] logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def beam_decode(dec: DecoderModule, enc_states, src_pad_mask, width: int, max_len: int) -> list[int]:
    """Single-sentence beam search, scores normalized by token count.

    Each step is one cached decoder call over the live hypotheses; the cache
    rows then follow each survivor's parent. Reduces exactly to greedy for
    width=1.
    """
    if max_len <= 0:
        return []
    cache = DecoderCache()
    with no_grad():
        beams = [([BOS], 0.0, False, 0)]  # (ids, cumulative logp, done, cache row)
        for _ in range(max_len):
            live = [c for c in beams if not c[2]]
            cache.select(np.array([c[3] for c in live]))
            same = np.zeros(len(live), dtype=np.int64)  # every hypothesis reads the one sentence
            logits = dec.forward(Tensor(enc_states.data[same]), np.asarray(src_pad_mask)[same],
                                 np.array([[c[0][-1]] for c in live]), cache=cache)
            lp = _log_softmax(logits.data[:, -1, :])
            top = np.argsort(-lp, axis=-1, kind="stable")[:, :width]
            candidates = []
            row = 0
            for ids, logp, done, _ in beams:
                if done:
                    candidates.append((ids, logp, True, -1))
                    continue
                for t in top[row].tolist():
                    candidates.append((ids + [t], logp + lp[row, t], t == EOS, row))
                row += 1
            candidates.sort(key=lambda c: (-c[1], c[0]))
            beams = candidates[:width]
            if all(done for _, _, done, _ in beams):
                break

    def norm_score(c):
        ids, logp, _, _ = c
        return logp / max(len(ids) - 1, 1)

    best = max(beams, key=lambda c: (norm_score(c), [-t for t in c[0]]))
    return best[0][1:]


def _resolve_pair(registry: ModuleRegistry, src_lang: str, tgt_lang: str):
    enc = registry.encoder(src_lang)
    dec = registry.decoder(tgt_lang)
    if enc.dim != dec.dim:
        raise CompositionError(
            f"cannot compose {enc.name} (D={enc.dim}) with {dec.name} (D={dec.dim})"
        )
    return enc, dec


def _translate_block(registry, request, lines: list[str]) -> list[str]:
    enc, dec = _resolve_pair(registry, request.src_lang, request.tgt_lang)
    sentences = [enc.vocab.encode(normalize(line)) for line in lines]
    width = max(len(s.ids) for s in sentences)
    ids = np.full((len(sentences), width), PAD, dtype=np.int64)
    mask = np.ones((len(sentences), width), dtype=bool)
    for row, s in enumerate(sentences):
        ids[row, : len(s.ids)] = s.ids
        mask[row, : len(s.ids)] = False
    with no_grad():
        states, _ = enc.encode(ids, mask)
    if request.decode == "greedy":
        max_len = max(max_output_length(len(s.ids) - 2) for s in sentences)
        decoded = greedy_decode(dec, states, mask, max_len)
    else:
        decoded = []
        for row, s in enumerate(sentences):
            one_states = Tensor(states.data[row : row + 1])
            decoded.append(
                beam_decode(dec, one_states, mask[row : row + 1],
                            request.beam_width, max_output_length(len(s.ids) - 2))
            )
    return [dec.vocab.decode(ids) for ids in decoded]


def translate_corpus(registry: ModuleRegistry, request: TranslationRequest,
                     lines: list[str], chunk: int = 64) -> list[str]:
    """Translate aligned lines; chunked so memory stays bounded."""
    if request.route == "pivot":
        first = TranslationRequest(request.src_lang, request.via, "direct",
                                   decode=request.decode, beam_width=request.beam_width)
        second = TranslationRequest(request.via, request.tgt_lang, "direct",
                                    decode=request.decode, beam_width=request.beam_width)
        mid = translate_corpus(registry, first, lines, chunk)
        return translate_corpus(registry, second, mid, chunk)
    out = []
    for lo in range(0, len(lines), chunk):
        out.extend(_translate_block(registry, request, lines[lo : lo + chunk]))
    return out


def translate(registry: ModuleRegistry, request: TranslationRequest, sentence: str) -> str:
    return translate_corpus(registry, request, [sentence])[0]

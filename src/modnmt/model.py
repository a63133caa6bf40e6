"""Per-language transformer encoders and decoders with a freeze-aware registry.

No parameter object is ever shared between modules: every module owns its
embedding, attention, and feed-forward weights, so languages can be added,
frozen, or recombined without touching each other.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
import zlib

import numpy as np

from .optim import Parameter
from .tensor import Tensor
from .tokenizer import Vocabulary

NEG_INF = -1e9


class CompositionError(ValueError):
    """Modules with incompatible dimensions or vocabularies were combined."""


class CheckpointError(ValueError):
    pass


def sinusoidal_positions(length: int, dim: int, start: int = 0) -> np.ndarray:
    """Encodings of positions start .. start+length-1."""
    pos = np.arange(start, start + length)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * (i // 2) / dim)
    enc = np.empty((length, dim))
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    return enc


class _Module:
    """One language's encoder or decoder; the two share this builder.

    A decoder's layout is an encoder's with a cross-attention sublayer and a
    third layer-norm in every block, plus an output projection.
    """

    kind: str
    attention: tuple[str, ...]  # attention sublayers of a block
    norms: tuple[str, ...]  # layer-norms of a block

    def __init__(self, language: str, vocab: Vocabulary, dim: int, n_blocks: int,
                 n_heads: int, ff_dim: int, seed: int):
        self._describe(language, vocab, dim, n_blocks, n_heads, ff_dim)
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode("utf-8"))])
        for local, shape, init in self._layout():
            self._add_param(local, _initial(rng, init, shape))

    def _describe(self, language: str, vocab: Vocabulary, dim: int, n_blocks: int,
                  n_heads: int, ff_dim: int) -> None:
        if n_heads < 1 or dim % n_heads:
            raise CompositionError(f"dim {dim} not divisible by {n_heads} heads")
        self.language = language
        self.vocab = vocab
        self.vocab_hash = vocab.content_hash()
        self.dim, self.n_blocks, self.n_heads, self.ff_dim = dim, n_blocks, n_heads, ff_dim
        self.name = f"{self.kind}:{language}"
        self.params: dict[str, Parameter] = {}

    def _layout(self) -> list[tuple[str, tuple, str]]:
        """(local name, shape, init) of every parameter, in RNG draw order."""
        d, f, v = self.dim, self.ff_dim, len(self.vocab)
        out = [("embedding", (v, d), "embedding")]
        for blk in range(self.n_blocks):
            pre = f"block{blk}"
            for sub in self.attention:
                out += [(f"{pre}.{sub}.{w}", (d, d), "glorot") for w in ("wq", "wk", "wv", "wo")]
                out += [(f"{pre}.{sub}.{b}", (d,), "zeros") for b in ("bq", "bk", "bv", "bo")]
            out += [(f"{pre}.ff.w1", (d, f), "glorot"), (f"{pre}.ff.b1", (f,), "zeros"),
                    (f"{pre}.ff.w2", (f, d), "glorot"), (f"{pre}.ff.b2", (d,), "zeros")]
            for ln in self.norms:
                out += [(f"{pre}.{ln}.gain", (d,), "ones"), (f"{pre}.{ln}.bias", (d,), "zeros")]
        return out + [("ln_final.gain", (d,), "ones"), ("ln_final.bias", (d,), "zeros")]

    def _add_param(self, local_name: str, data: np.ndarray) -> None:
        full = f"{self.name}/{local_name}"
        self.params[local_name] = Parameter(name=full, tensor=Tensor(data, requires_grad=True))

    def _embed(self, ids: np.ndarray, start: int) -> Tensor:
        """Token embeddings scaled by sqrt(dim), plus the encodings of positions start, ..."""
        x = self.params["embedding"].tensor.embedding(ids) * np.sqrt(self.dim)
        return x + sinusoidal_positions(ids.shape[1], self.dim, start)

    @property
    def frozen(self) -> bool:
        return all(p.frozen for p in self.params.values())

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def set_frozen(self, frozen: bool) -> None:
        for p in self.params.values():
            p.frozen = frozen

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.tensor.zero_grad()

    def parameter_bytes(self) -> bytes:
        buf = io.BytesIO()
        for local in sorted(self.params):
            buf.write(self.params[local].tensor.data.astype("<f8").tobytes())
        return buf.getvalue()


def _initial(rng: np.random.Generator, init: str, shape: tuple) -> np.ndarray:
    """A parameter's initial value; only the two uniform inits draw from `rng`."""
    if init == "zeros":
        return np.zeros(shape)
    if init == "ones":
        return np.ones(shape)
    # embedding rows have unit variance after the sqrt(dim) scale; weights are Glorot-uniform
    limit = np.sqrt(3.0 / shape[1]) if init == "embedding" else np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _attention(x_q: Tensor, x_kv: Tensor | None, p: dict, prefix: str, n_heads: int,
               bias: np.ndarray, cache: DecoderCache | None = None) -> Tensor:
    """Multi-head attention; `bias` is an additive mask broadcast to [B,H,Tq,Tk].

    With a `cache`, the keys/values projected from `x_kv` are appended to the
    ones it holds under `prefix`, and attention runs over all of them; `x_kv`
    None attends over the cached keys/values alone.
    """
    q = x_q.linear(p[prefix + ".wq"].tensor, p[prefix + ".bq"].tensor)
    kv = None
    if x_kv is not None:
        kv = (x_kv.linear(p[prefix + ".wk"].tensor, p[prefix + ".bk"].tensor),
              x_kv.linear(p[prefix + ".wv"].tensor, p[prefix + ".bv"].tensor))
    if cache is not None:
        kv = cache.extend(prefix, kv)
    ctx = q.attention(*kv, n_heads, bias)
    return ctx.linear(p[prefix + ".wo"].tensor, p[prefix + ".bo"].tensor)


def _feed_forward(x: Tensor, p: dict, prefix: str) -> Tensor:
    h = x.linear(p[prefix + ".w1"].tensor, p[prefix + ".b1"].tensor).relu()
    return h.linear(p[prefix + ".w2"].tensor, p[prefix + ".b2"].tensor)


def _layer_norm(x: Tensor, p: dict, prefix: str) -> Tensor:
    return x.layer_norm(p[prefix + ".gain"].tensor, p[prefix + ".bias"].tensor)


class EncoderModule(_Module):
    kind = "encoder"
    attention = ("attn",)
    norms = ("ln1", "ln2")

    def __init__(self, language: str, vocab: Vocabulary, dim: int = 64,
                 n_blocks: int = 2, n_heads: int = 4, ff_dim: int = 256, seed: int = 0):
        super().__init__(language, vocab, dim, n_blocks, n_heads, ff_dim, seed)

    def encode(self, src_ids: np.ndarray, src_pad_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Run the encoder stack.

        Returns (states [B,S,D], h [B,D]) where h is the mean of the
        final-block states over non-pad positions.
        """
        src_ids = np.asarray(src_ids)
        src_pad_mask = np.asarray(src_pad_mask, dtype=bool)
        p = self.params
        x = self._embed(src_ids, 0)
        key_bias = np.where(src_pad_mask[:, None, None, :], NEG_INF, 0.0)
        for blk in range(self.n_blocks):
            pre = f"block{blk}"
            q = _layer_norm(x, p, f"{pre}.ln1")
            x = x + _attention(q, q, p, f"{pre}.attn", self.n_heads, key_bias)
            x = x + _feed_forward(_layer_norm(x, p, f"{pre}.ln2"), p, f"{pre}.ff")
        states = _layer_norm(x, p, "ln_final")
        keep = (~src_pad_mask).astype(np.float64)
        counts = keep.sum(axis=1, keepdims=True)
        h = (states * keep[:, :, None]).sum(axis=1) * (1.0 / counts)
        return states, h


class DecoderCache:
    """Inference state of incremental decoding through one `DecoderModule`.

    Holds, per attention sublayer, the projected keys and values [B, T, D]
    attended over so far, before the head split: each self-attention
    sublayer's grow by the positions of every cached `forward` call, each
    cross-attention sublayer's are the encoder memory's, computed once with
    its source-key bias `cross_bias`. Row i belongs to batch row i of the
    calls. For decoding under `no_grad` only: they grow outside the tape, so
    no gradient would flow through them.
    """

    def __init__(self):
        self.length = 0
        self.kv: dict[str, tuple[Tensor, Tensor]] = {}
        self.cross_bias: np.ndarray | None = None

    def extend(self, name: str, kv: tuple[Tensor, Tensor] | None) -> tuple[Tensor, Tensor]:
        """Append `kv` (None: nothing) to the positions held under `name`; return them all."""
        if kv is not None:
            old = self.kv.get(name)
            self.kv[name] = kv if old is None else tuple(
                Tensor(np.concatenate([o.data, n.data], axis=1)) for o, n in zip(old, kv))
        return self.kv[name]

    def select(self, rows: np.ndarray) -> None:
        """Keep the batch rows `rows` (a boolean mask or indices, which may repeat) in that order."""
        self.kv = {name: (Tensor(k.data[rows]), Tensor(v.data[rows])) for name, (k, v) in self.kv.items()}
        if self.cross_bias is not None:
            self.cross_bias = self.cross_bias[rows]


class DecoderModule(_Module):
    kind = "decoder"
    attention = ("self_attn", "cross_attn")
    norms = ("ln1", "ln2", "ln3")

    def __init__(self, language: str, vocab: Vocabulary, dim: int = 64,
                 n_blocks: int = 2, n_heads: int = 4, ff_dim: int = 256, seed: int = 0):
        super().__init__(language, vocab, dim, n_blocks, n_heads, ff_dim, seed)

    def _layout(self) -> list[tuple[str, tuple, str]]:
        d, v = self.dim, len(self.vocab)
        return super()._layout() + [("out_proj.w", (d, v), "glorot"), ("out_proj.b", (v,), "zeros")]

    def forward(self, enc_states: Tensor, src_pad_mask: np.ndarray,
                tgt_input_ids: np.ndarray, return_blocks: bool = False,
                cache: DecoderCache | None = None):
        """Teacher-forced decoder pass over already-shifted target inputs.

        `tgt_input_ids[:, t]` may influence logits only at positions >= t;
        combined with the caller's one-step shift this gives strict
        causality with respect to predicted tokens.

        With a `cache`, `tgt_input_ids` holds only the positions after the
        `cache.length` ones already decoded; their logits equal the matching
        positions of one pass over the whole prefix. The first such call also
        caches the cross-attention keys and values of `enc_states` and the
        source-key bias of `src_pad_mask`; later calls read neither's rows.
        """
        tgt_input_ids = np.asarray(tgt_input_ids)
        b, t = tgt_input_ids.shape
        if enc_states.shape[-1] != self.dim:
            raise CompositionError(
                f"cannot compose dim-{enc_states.shape[-1]} encoder states with {self.name} (dim {self.dim})")
        past = cache.length if cache is not None else 0
        memory = None if past else enc_states
        p = self.params
        x = self._embed(tgt_input_ids, past)
        causal = np.where(np.triu(np.ones((t, past + t), dtype=bool), k=past + 1), NEG_INF, 0.0)[None, None]
        cross_bias = (cache.cross_bias if past else
                      np.where(np.asarray(src_pad_mask, dtype=bool)[:, None, None, :], NEG_INF, 0.0))
        block_states = []
        for blk in range(self.n_blocks):
            pre = f"block{blk}"
            q = _layer_norm(x, p, f"{pre}.ln1")
            x = x + _attention(q, q, p, f"{pre}.self_attn", self.n_heads, causal, cache)
            x = x + _attention(_layer_norm(x, p, f"{pre}.ln2"), memory,
                               p, f"{pre}.cross_attn", self.n_heads, cross_bias, cache)
            x = x + _feed_forward(_layer_norm(x, p, f"{pre}.ln3"), p, f"{pre}.ff")
            block_states.append(x)
        if cache is not None:
            cache.length += t
            cache.cross_bias = cross_bias
        x = _layer_norm(x, p, "ln_final")
        logits = x.linear(p["out_proj.w"].tensor, p["out_proj.b"].tensor)
        if return_blocks:
            return logits, block_states
        return logits


def decode_teacher_forced(dec: DecoderModule, enc_states: Tensor,
                          src_pad_mask: np.ndarray, tgt_ids: np.ndarray) -> Tensor:
    """Logits [B, T-1, V] predicting tgt_ids[:, 1:] from tgt_ids[:, :-1]."""
    return dec.forward(enc_states, src_pad_mask, np.asarray(tgt_ids)[:, :-1])


class ModuleRegistry:
    """Named encoder/decoder modules with freeze semantics."""

    def __init__(self):
        self.modules: dict[str, EncoderModule | DecoderModule] = {}

    def add(self, module) -> None:
        if module.name in self.modules:
            raise CompositionError(f"module {module.name!r} already registered")
        self.modules[module.name] = module

    def get(self, name: str):
        try:
            return self.modules[name]
        except KeyError:
            raise CompositionError(f"unknown module {name!r}") from None

    def encoder(self, language: str) -> EncoderModule:
        return self.get(f"encoder:{language}")

    def decoder(self, language: str) -> DecoderModule:
        return self.get(f"decoder:{language}")

    def parameters(self) -> list[Parameter]:
        out = []
        for name in sorted(self.modules):
            out.extend(self.modules[name].parameters())
        return out

    def snapshot(self) -> dict[str, bytes]:
        return {name: m.parameter_bytes() for name, m in sorted(self.modules.items())}


# -- checkpoint format --------------------------------------------------------
#
# magic, version, module records (name, kind, language, arch, vocab hash,
# frozen flag, parameter blobs as little-endian float64), trailing 8-byte
# checksum = sha256(payload)[:8].

_MAGIC = b"MDNMTCKP"
_VERSION = 1


def _pack_str(buf: io.BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    buf.write(struct.pack("<H", len(raw)))
    buf.write(raw)


class _Reader:
    """Reads a checkpoint payload; running past its end is a CheckpointError."""

    def __init__(self, payload: bytes):
        self.payload = memoryview(payload)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n > len(self.payload) - self.pos:
            raise CheckpointError("checkpoint file truncated")
        self.pos += n
        return self.payload[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("checkpoint string is not UTF-8") from None


def save_checkpoint(registry: ModuleRegistry, path) -> None:
    body = io.BytesIO()
    body.write(_MAGIC)
    body.write(struct.pack("<II", _VERSION, len(registry.modules)))
    for name in sorted(registry.modules):
        m = registry.modules[name]
        _pack_str(body, name)
        body.write(struct.pack("<B", 0 if m.kind == "encoder" else 1))
        _pack_str(body, m.language)
        body.write(struct.pack("<B", 1 if m.frozen else 0))
        body.write(struct.pack("<IIII", m.dim, m.n_blocks, m.n_heads, m.ff_dim))
        _pack_str(body, m.vocab_hash)
        body.write(struct.pack("<I", len(m.params)))
        for local in sorted(m.params):
            p = m.params[local]
            _pack_str(body, local)
            body.write(struct.pack("<B", p.tensor.data.ndim))
            for extent in p.tensor.data.shape:
                body.write(struct.pack("<I", extent))
            body.write(p.tensor.data.astype("<f8").tobytes())
    payload = body.getvalue()
    checksum = hashlib.sha256(payload).digest()[:8]
    with open(path, "wb") as f:
        f.write(payload)
        f.write(checksum)


def load_checkpoint(path, vocabularies: dict[str, Vocabulary]) -> ModuleRegistry:
    """Rebuild a registry; `vocabularies` maps language tag to Vocabulary.

    Vocabulary content hashes must match the ones recorded at save time.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(_MAGIC) + 8:
        raise CheckpointError("checkpoint file truncated")
    payload, checksum = memoryview(blob)[:-8], blob[-8:]
    if hashlib.sha256(payload).digest()[:8] != checksum:
        raise CheckpointError("checkpoint checksum mismatch")
    buf = _Reader(payload)
    if buf.take(len(_MAGIC)) != _MAGIC:
        raise CheckpointError("bad checkpoint magic bytes")
    version, n_modules = buf.unpack("<II")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    registry = ModuleRegistry()
    for _ in range(n_modules):
        name = buf.string()
        (kind_code,) = buf.unpack("<B")
        language = buf.string()
        (frozen,) = buf.unpack("<B")
        dim, n_blocks, n_heads, ff_dim = buf.unpack("<IIII")
        vocab_hash = buf.string()
        if kind_code not in (0, 1):
            raise CheckpointError(f"unknown module kind code {kind_code} for {name!r}")
        if language not in vocabularies:
            raise CheckpointError(f"no vocabulary supplied for language {language!r}")
        vocab = vocabularies[language]
        if vocab.content_hash() != vocab_hash:
            raise CheckpointError(f"vocabulary hash mismatch for language {language!r}")
        cls = EncoderModule if kind_code == 0 else DecoderModule
        module = cls.__new__(cls)  # no random init: every parameter comes from the file
        try:
            module._describe(language, vocab, dim, n_blocks, n_heads, ff_dim)
        except CompositionError as err:
            raise CheckpointError(f"module {name!r}: {err}") from None
        if module.name != name or name in registry.modules:
            raise CheckpointError(f"module record {name!r} repeated or not named {module.name!r}")
        (n_params,) = buf.unpack("<I")
        records = {}
        for _ in range(n_params):
            local = buf.string()
            (ndim,) = buf.unpack("<B")
            shape = buf.unpack(f"<{ndim}I")
            if local in records:
                raise CheckpointError(f"parameter {name}/{local} repeated")
            records[local] = np.frombuffer(buf.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        # every block holds parameters, so a corrupt n_blocks cannot size the layout
        if n_blocks > n_params:
            raise CheckpointError(f"module {name!r} has {n_params} parameters for {n_blocks} blocks")
        layout = module._layout()
        mismatch = sorted({(local, shape) for local, shape, _ in layout}
                          ^ {(local, data.shape) for local, data in records.items()})
        if mismatch:
            raise CheckpointError(f"parameter {name}/{mismatch[0][0]} missing, unknown or mis-shaped")
        for local, _, _ in layout:
            module._add_param(local, records[local].astype(np.float64))
        if frozen:
            module.set_frozen(True)
        registry.add(module)
    if buf.pos != len(payload):
        raise CheckpointError("bytes after the last checkpoint module")
    return registry

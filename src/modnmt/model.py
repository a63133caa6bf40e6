"""Per-language transformer encoders and decoders with a freeze-aware registry.

No parameter object is ever shared between modules: every module owns its
embedding, attention, and feed-forward weights, so languages can be added,
frozen, or recombined without touching each other.
"""

from __future__ import annotations

import hashlib
import io
import struct
import zlib

import numpy as np

from .optim import Parameter
from .tensor import Tensor, concat
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


def _init_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


class _ParamOwner:
    """Shared parameter bookkeeping for encoder/decoder modules."""

    name: str

    def __init__(self):
        self.params: dict[str, Parameter] = {}
        self.frozen = False

    def _add_param(self, local_name: str, data: np.ndarray) -> Parameter:
        full = f"{self.name}/{local_name}"
        p = Parameter(name=full, tensor=Tensor(data, requires_grad=True))
        self.params[local_name] = p
        return p

    def _glorot(self, rng, fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def set_frozen(self, frozen: bool) -> None:
        self.frozen = frozen
        for p in self.params.values():
            p.frozen = frozen
            p.tensor.requires_grad = not frozen
            p.tensor.grad = None if frozen else np.zeros_like(p.tensor.data)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.tensor.zero_grad()

    def parameter_bytes(self) -> bytes:
        buf = io.BytesIO()
        for local in sorted(self.params):
            buf.write(self.params[local].tensor.data.astype("<f8").tobytes())
        return buf.getvalue()


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """[..., D_in] @ [D_in, D_out] + bias, flattened to one GEMM."""
    *lead, d_in = x.shape
    flat = x.reshape(-1, d_in) if len(lead) > 1 else x
    out = flat @ w + b
    return out.reshape(*lead, w.shape[1]) if len(lead) > 1 else out


def _attention(x_q: Tensor, x_kv: Tensor | None, p: dict, prefix: str, n_heads: int,
               bias: np.ndarray, cache: DecoderCache | None = None) -> Tensor:
    """Multi-head attention; `bias` is an additive mask broadcast to [B,H,Tq,Tk].

    With a `cache`, the key/value heads projected from `x_kv` are appended to
    the ones it holds under `prefix`, and attention runs over all of them;
    `x_kv` None attends over the cached heads alone.
    """
    b, tq, d = x_q.shape
    dh = d // n_heads

    def heads(t: Tensor) -> Tensor:
        return t.reshape(b, t.shape[1], n_heads, dh).transpose(0, 2, 1, 3)

    q = heads(_linear(x_q, p[prefix + ".wq"].tensor, p[prefix + ".bq"].tensor))
    kv = None
    if x_kv is not None:
        kv = (heads(_linear(x_kv, p[prefix + ".wk"].tensor, p[prefix + ".bk"].tensor)),
              heads(_linear(x_kv, p[prefix + ".wv"].tensor, p[prefix + ".bv"].tensor)))
    if cache is not None:
        kv = cache.extend(prefix, kv)
    k, v = kv
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh)) + bias
    ctx = scores.softmax(-1) @ v
    ctx = ctx.transpose(0, 2, 1, 3).reshape(b, tq, d)
    return _linear(ctx, p[prefix + ".wo"].tensor, p[prefix + ".bo"].tensor)


def _feed_forward(x: Tensor, p: dict, prefix: str) -> Tensor:
    h = _linear(x, p[prefix + ".w1"].tensor, p[prefix + ".b1"].tensor).relu()
    return _linear(h, p[prefix + ".w2"].tensor, p[prefix + ".b2"].tensor)


def _layer_norm(x: Tensor, p: dict, prefix: str) -> Tensor:
    return x.layer_norm(p[prefix + ".gain"].tensor, p[prefix + ".bias"].tensor)


class EncoderModule(_ParamOwner):
    kind = "encoder"

    def __init__(self, language: str, vocab: Vocabulary, dim: int = 64,
                 n_blocks: int = 2, n_heads: int = 4, ff_dim: int = 256, seed: int = 0):
        super().__init__()
        if dim % n_heads:
            raise CompositionError(f"dim {dim} not divisible by {n_heads} heads")
        self.language = language
        self.vocab = vocab
        self.vocab_hash = vocab.content_hash()
        self.dim, self.n_blocks, self.n_heads, self.ff_dim = dim, n_blocks, n_heads, ff_dim
        self.name = f"encoder:{language}"
        self._build(seed)

    def _build(self, seed: int) -> None:
        rng = _init_rng(seed, self.name)
        d, f, v = self.dim, self.ff_dim, len(self.vocab)
        self._add_param("embedding", rng.uniform(-np.sqrt(3.0 / d), np.sqrt(3.0 / d), size=(v, d)))
        for blk in range(self.n_blocks):
            for sub in ("attn", ):
                for w in ("wq", "wk", "wv", "wo"):
                    self._add_param(f"block{blk}.{sub}.{w}", self._glorot(rng, d, d))
                for bname in ("bq", "bk", "bv", "bo"):
                    self._add_param(f"block{blk}.{sub}.{bname}", np.zeros(d))
            self._add_param(f"block{blk}.ff.w1", self._glorot(rng, d, f))
            self._add_param(f"block{blk}.ff.b1", np.zeros(f))
            self._add_param(f"block{blk}.ff.w2", self._glorot(rng, f, d))
            self._add_param(f"block{blk}.ff.b2", np.zeros(d))
            for ln in ("ln1", "ln2"):
                self._add_param(f"block{blk}.{ln}.gain", np.ones(d))
                self._add_param(f"block{blk}.{ln}.bias", np.zeros(d))
        self._add_param("ln_final.gain", np.ones(d))
        self._add_param("ln_final.bias", np.zeros(d))

    def encode(self, src_ids: np.ndarray, src_pad_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Run the encoder stack.

        Returns (states [B,S,D], h [B,D]) where h is the mean of the
        final-block states over non-pad positions.
        """
        src_ids = np.asarray(src_ids)
        src_pad_mask = np.asarray(src_pad_mask, dtype=bool)
        b, s = src_ids.shape
        p = self.params
        x = p["embedding"].tensor.embedding(src_ids) * np.sqrt(self.dim)
        x = x + sinusoidal_positions(s, self.dim)
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

    Holds, per attention sublayer, the key and value heads [B, H, T, D/H]
    attended over so far: each self-attention sublayer's grow by the
    positions of every cached `forward` call, each cross-attention
    sublayer's are the encoder memory's, computed once. Row i belongs to
    batch row i of the calls.
    """

    def __init__(self):
        self.length = 0
        self.kv: dict[str, tuple[Tensor, Tensor]] = {}

    def extend(self, name: str, kv: tuple[Tensor, Tensor] | None) -> tuple[Tensor, Tensor]:
        """Append `kv` (None: nothing) to the heads held under `name`; return them all."""
        if kv is not None:
            old = self.kv.get(name)
            self.kv[name] = kv if old is None else tuple(concat([o, n], axis=2) for o, n in zip(old, kv))
        return self.kv[name]

    def select(self, rows: np.ndarray) -> None:
        """Keep the batch rows `rows` (a boolean mask or indices, which may repeat) in that order."""
        self.kv = {name: (Tensor(k.data[rows]), Tensor(v.data[rows])) for name, (k, v) in self.kv.items()}


class DecoderModule(_ParamOwner):
    kind = "decoder"

    def __init__(self, language: str, vocab: Vocabulary, dim: int = 64,
                 n_blocks: int = 2, n_heads: int = 4, ff_dim: int = 256, seed: int = 0):
        super().__init__()
        if dim % n_heads:
            raise CompositionError(f"dim {dim} not divisible by {n_heads} heads")
        self.language = language
        self.vocab = vocab
        self.vocab_hash = vocab.content_hash()
        self.dim, self.n_blocks, self.n_heads, self.ff_dim = dim, n_blocks, n_heads, ff_dim
        self.name = f"decoder:{language}"
        self._build(seed)

    def _build(self, seed: int) -> None:
        rng = _init_rng(seed, self.name)
        d, f, v = self.dim, self.ff_dim, len(self.vocab)
        self._add_param("embedding", rng.uniform(-np.sqrt(3.0 / d), np.sqrt(3.0 / d), size=(v, d)))
        for blk in range(self.n_blocks):
            for sub in ("self_attn", "cross_attn"):
                for w in ("wq", "wk", "wv", "wo"):
                    self._add_param(f"block{blk}.{sub}.{w}", self._glorot(rng, d, d))
                for bname in ("bq", "bk", "bv", "bo"):
                    self._add_param(f"block{blk}.{sub}.{bname}", np.zeros(d))
            self._add_param(f"block{blk}.ff.w1", self._glorot(rng, d, f))
            self._add_param(f"block{blk}.ff.b1", np.zeros(f))
            self._add_param(f"block{blk}.ff.w2", self._glorot(rng, f, d))
            self._add_param(f"block{blk}.ff.b2", np.zeros(d))
            for ln in ("ln1", "ln2", "ln3"):
                self._add_param(f"block{blk}.{ln}.gain", np.ones(d))
                self._add_param(f"block{blk}.{ln}.bias", np.zeros(d))
        self._add_param("ln_final.gain", np.ones(d))
        self._add_param("ln_final.bias", np.zeros(d))
        self._add_param("out_proj.w", self._glorot(rng, d, v))
        self._add_param("out_proj.b", np.zeros(v))

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
        caches the cross-attention keys and values of `enc_states`, which
        later calls reuse.
        """
        tgt_input_ids = np.asarray(tgt_input_ids)
        b, t = tgt_input_ids.shape
        if enc_states.shape[-1] != self.dim:
            raise CompositionError(
                f"encoder dim {enc_states.shape[-1]} incompatible with {self.name} dim {self.dim}"
            )
        past = cache.length if cache is not None else 0
        memory = None if cache is not None and cache.length else enc_states
        p = self.params
        x = p["embedding"].tensor.embedding(tgt_input_ids) * np.sqrt(self.dim)
        x = x + sinusoidal_positions(t, self.dim, past)
        causal = np.where(np.triu(np.ones((t, past + t), dtype=bool), k=past + 1), NEG_INF, 0.0)[None, None]
        cross_bias = np.where(np.asarray(src_pad_mask, dtype=bool)[:, None, None, :], NEG_INF, 0.0)
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
        x = _layer_norm(x, p, "ln_final")
        logits = _linear(x, p["out_proj.w"].tensor, p["out_proj.b"].tensor)
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

    def has(self, name: str) -> bool:
        return name in self.modules

    def set_frozen(self, name: str, frozen: bool) -> None:
        self.get(name).set_frozen(frozen)

    def parameters(self) -> list[Parameter]:
        out = []
        for name in sorted(self.modules):
            out.extend(self.modules[name].parameters())
        return out

    def zero_grad(self) -> None:
        for m in self.modules.values():
            m.zero_grad()

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


def _read_str(buf: io.BytesIO) -> str:
    (n,) = struct.unpack("<H", buf.read(2))
    return buf.read(n).decode("utf-8")


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
    payload, checksum = blob[:-8], blob[-8:]
    if hashlib.sha256(payload).digest()[:8] != checksum:
        raise CheckpointError("checkpoint checksum mismatch")
    buf = io.BytesIO(payload)
    if buf.read(len(_MAGIC)) != _MAGIC:
        raise CheckpointError("bad checkpoint magic bytes")
    version, n_modules = struct.unpack("<II", buf.read(8))
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    registry = ModuleRegistry()
    for _ in range(n_modules):
        name = _read_str(buf)
        (kind_code,) = struct.unpack("<B", buf.read(1))
        language = _read_str(buf)
        (frozen,) = struct.unpack("<B", buf.read(1))
        dim, n_blocks, n_heads, ff_dim = struct.unpack("<IIII", buf.read(16))
        vocab_hash = _read_str(buf)
        if language not in vocabularies:
            raise CheckpointError(f"no vocabulary supplied for language {language!r}")
        vocab = vocabularies[language]
        if vocab.content_hash() != vocab_hash:
            raise CheckpointError(f"vocabulary hash mismatch for language {language!r}")
        cls = EncoderModule if kind_code == 0 else DecoderModule
        module = cls(language, vocab, dim=dim, n_blocks=n_blocks, n_heads=n_heads, ff_dim=ff_dim)
        (n_params,) = struct.unpack("<I", buf.read(4))
        if n_params != len(module.params):
            raise CheckpointError(f"parameter count mismatch for module {name!r}")
        for _ in range(n_params):
            local = _read_str(buf)
            if local not in module.params:
                raise CheckpointError(f"unknown parameter {local!r} in module {name!r}")
            (ndim,) = struct.unpack("<B", buf.read(1))
            shape = tuple(struct.unpack("<I", buf.read(4))[0] for _ in range(ndim))
            target = module.params[local].tensor
            if shape != target.data.shape:
                raise CheckpointError(f"shape mismatch for {name}/{local}: {shape}")
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(buf.read(8 * count), dtype="<f8").reshape(shape)
            target.data = data.astype(np.float64).copy()
        if frozen:
            module.set_frozen(True)
        registry.add(module)
    return registry

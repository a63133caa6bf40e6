import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnmt.corpus import generate_cipher_lines, make_batches, make_cipher_spec, preprocess
from modnmt.model import (
    NEG_INF,
    CheckpointError,
    CompositionError,
    DecoderCache,
    DecoderModule,
    EncoderModule,
    ModuleRegistry,
    decode_teacher_forced,
    load_checkpoint,
    save_checkpoint,
    sinusoidal_positions,
)
from modnmt.optim import Adam
from modnmt.tensor import Tensor, cross_entropy, no_grad
from modnmt.tokenizer import PAD, learn_bpe


@pytest.fixture(scope="module")
def vocab():
    spec = make_cipher_spec("X", 16, 1)
    lines, _ = generate_cipher_lines(spec, spec, 40, len_range=(3, 8), seed=2)
    return learn_bpe(lines, "X", 24)


ARCH = dict(dim=16, n_blocks=2, n_heads=2, ff_dim=32)


def pad_batch(vocab, lines):
    sentences = [vocab.encode(line) for line in lines]
    width = max(len(s.ids) for s in sentences)
    ids = np.full((len(sentences), width), PAD, dtype=np.int64)
    mask = np.ones((len(sentences), width), dtype=bool)
    for row, s in enumerate(sentences):
        ids[row, : len(s.ids)] = s.ids
        mask[row, : len(s.ids)] = False
    return ids, mask


class TestSinusoidalPositions:
    def test_position_zero(self):
        enc = sinusoidal_positions(4, 8)
        np.testing.assert_allclose(enc[0, 0::2], 0.0)
        np.testing.assert_allclose(enc[0, 1::2], 1.0)

    def test_bounded(self):
        enc = sinusoidal_positions(50, 16)
        assert np.abs(enc).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("length, dim, start", [(1, 16, 0), (7, 64, 0), (1, 64, 30), (12, 32, 5)])
    def test_cached_read_only_and_fresh_bytes(self, length, dim, start):
        enc = sinusoidal_positions(length, dim, start)
        assert sinusoidal_positions(length, dim, start) is enc
        assert not enc.flags.writeable
        with pytest.raises(ValueError):
            enc[0, 0] = 1.0
        assert enc.tobytes() == sinusoidal_positions.__wrapped__(length, dim, start).tobytes()


class TestEncoder:
    def test_identical_sentences_identical_rows(self, vocab):
        enc = EncoderModule("X", vocab, seed=3, **ARCH)
        ids, mask = pad_batch(vocab, ["a b c", "a b c", "a b c"])
        with no_grad():
            _, h = enc.encode(ids, mask)
        np.testing.assert_array_equal(h.data[0], h.data[1])
        np.testing.assert_array_equal(h.data[0], h.data[2])

    def test_padding_content_irrelevant(self, vocab):
        enc = EncoderModule("X", vocab, seed=3, **ARCH)
        ids, mask = pad_batch(vocab, ["a b", "a b c d e"])
        with no_grad():
            _, h1 = enc.encode(ids, mask)
            ids2 = ids.copy()
            ids2[0, mask[0]] = 5  # rewrite padded slots of the short row
            _, h2 = enc.encode(ids2, mask)
        np.testing.assert_array_equal(h1.data[0], h2.data[0])

    def test_single_position_pooling(self, vocab):
        enc = EncoderModule("X", vocab, seed=3, **ARCH)
        ids = np.array([[5]])
        mask = np.zeros((1, 1), dtype=bool)
        with no_grad():
            states, h = enc.encode(ids, mask)
        np.testing.assert_array_equal(h.data, states.data[:, 0, :])

    @pytest.mark.parametrize("lengths", [list(range(1, 10)), [9, 9, 9], [6]],
                             ids=["one_to_s", "no_padding", "single_row"])
    @pytest.mark.parametrize("arch", [ARCH, dict(dim=64, n_blocks=2, n_heads=4, ff_dim=256)],
                             ids=["dim16", "dim64"])
    def test_no_grad_packs_real_rows_with_the_same_bytes(self, vocab, lengths, arch):
        enc = EncoderModule("X", vocab, seed=3, **arch)
        width = max(lengths)
        rng = np.random.default_rng(len(lengths))
        ids = rng.integers(3, len(vocab), size=(len(lengths), width))
        mask = np.arange(width)[None, :] >= np.array(lengths)[:, None]
        ids[mask] = PAD
        taped_states, taped_h = enc.encode(ids, mask)
        assert taped_states.requires_grad
        with no_grad():
            states, h = enc.encode(ids, mask)
        assert states.shape == taped_states.shape
        assert states.data[~mask].tobytes() == taped_states.data[~mask].tobytes()
        assert h.data.tobytes() == taped_h.data.tobytes()
        assert np.all(states.data[mask] == 0.0) and not np.signbit(states.data[mask]).any()

    def test_seeded_init_reproducible(self, vocab):
        a = EncoderModule("X", vocab, seed=3, **ARCH)
        b = EncoderModule("X", vocab, seed=3, **ARCH)
        assert a.parameter_bytes() == b.parameter_bytes()
        c = EncoderModule("X", vocab, seed=4, **ARCH)
        assert a.parameter_bytes() != c.parameter_bytes()

    def test_encoder_decoder_seeds_differ(self, vocab):
        e = EncoderModule("X", vocab, seed=3, **ARCH)
        d = DecoderModule("X", vocab, seed=3, **ARCH)
        assert not np.array_equal(e.params["embedding"].tensor.data,
                                  d.params["embedding"].tensor.data)

    def test_indivisible_heads_rejected(self, vocab):
        with pytest.raises(CompositionError, match="divisible"):
            EncoderModule("X", vocab, dim=16, n_blocks=1, n_heads=3, ff_dim=8)


class TestDecoder:
    def test_causality(self, vocab):
        enc = EncoderModule("X", vocab, seed=3, **ARCH)
        dec = DecoderModule("X", vocab, seed=3, **ARCH)
        src_ids, src_mask = pad_batch(vocab, ["a b c d"])
        tgt = np.array([[1, 5, 6, 7, 8, 2]])
        with no_grad():
            states, _ = enc.encode(src_ids, src_mask)
            base = dec.forward(states, src_mask, tgt).data
            for t in range(1, tgt.shape[1]):
                perturbed = tgt.copy()
                perturbed[0, t] = 9
                out = dec.forward(states, src_mask, perturbed).data
                np.testing.assert_array_equal(out[0, :t], base[0, :t])
                assert not np.array_equal(out[0, t:], base[0, t:])

    def test_padded_source_ignored(self, vocab):
        enc = EncoderModule("X", vocab, seed=3, **ARCH)
        dec = DecoderModule("X", vocab, seed=3, **ARCH)
        src_ids, src_mask = pad_batch(vocab, ["a b", "a b c d e"])
        tgt = np.array([[1, 5, 6, 2], [1, 5, 6, 2]])
        with no_grad():
            states, _ = enc.encode(src_ids, src_mask)
            base = dec.forward(states, src_mask, tgt).data
            src2 = src_ids.copy()
            src2[0, src_mask[0]] = 7
            states2, _ = enc.encode(src2, src_mask)
            out = dec.forward(states2, src_mask, tgt).data
        np.testing.assert_array_equal(base[0], out[0])

    def test_fixed_seed_reproducible_logits(self, vocab):
        src_ids, src_mask = pad_batch(vocab, ["a b c"])
        tgt = np.array([[1, 5, 2]])

        def run():
            enc = EncoderModule("X", vocab, seed=9, **ARCH)
            dec = DecoderModule("X", vocab, seed=9, **ARCH)
            with no_grad():
                states, _ = enc.encode(src_ids, src_mask)
                return dec.forward(states, src_mask, tgt).data.tobytes()

        assert run() == run()

    def test_dim_mismatch_rejected(self, vocab):
        dec = DecoderModule("X", vocab, seed=3, **ARCH)
        with pytest.raises(CompositionError, match="dim"):
            dec.forward(Tensor(np.zeros((1, 3, 8))), np.zeros((1, 3), bool), np.array([[1, 2]]))

    def test_teacher_forced_shape(self, vocab):
        enc = EncoderModule("X", vocab, seed=3, **ARCH)
        dec = DecoderModule("X", vocab, seed=3, **ARCH)
        src_ids, src_mask = pad_batch(vocab, ["a b c", "a b"])
        tgt = np.array([[1, 5, 6, 2], [1, 5, 2, 0]])
        with no_grad():
            states, _ = enc.encode(src_ids, src_mask)
            logits = decode_teacher_forced(dec, states, src_mask, tgt)
        assert logits.shape == (2, 3, len(vocab))


def _reference_forward(dec, enc_states, src_pad_mask, tgt_input_ids):
    """The decoder's teacher-forced pass written out op by op, as it stood
    before the inference cache: the bytes `forward` without a cache keeps."""
    p = {k: v.tensor for k, v in dec.params.items()}
    b, t = tgt_input_ids.shape
    h = dec.n_heads

    def linear(x, pre):
        *lead, d_in = x.shape
        flat = x.reshape(-1, d_in) if len(lead) > 1 else x
        out = flat @ p[pre[0]] + p[pre[1]]
        return out.reshape(*lead, p[pre[0]].shape[1]) if len(lead) > 1 else out

    def attention(x_q, x_kv, pre, bias):
        tq, tk, d = x_q.shape[1], x_kv.shape[1], x_q.shape[2]
        dh = d // h
        q = linear(x_q, (pre + ".wq", pre + ".bq")).reshape(b, tq, h, dh).transpose(0, 2, 1, 3)
        k = linear(x_kv, (pre + ".wk", pre + ".bk")).reshape(b, tk, h, dh).transpose(0, 2, 1, 3)
        v = linear(x_kv, (pre + ".wv", pre + ".bv")).reshape(b, tk, h, dh).transpose(0, 2, 1, 3)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh)) + bias
        ctx = (scores.softmax(-1) @ v).transpose(0, 2, 1, 3).reshape(b, tq, d)
        return linear(ctx, (pre + ".wo", pre + ".bo"))

    def norm(x, pre):
        return x.layer_norm(p[pre + ".gain"], p[pre + ".bias"])

    x = p["embedding"].embedding(tgt_input_ids) * np.sqrt(dec.dim) + sinusoidal_positions(t, dec.dim)
    causal = np.where(np.triu(np.ones((t, t), dtype=bool), k=1), NEG_INF, 0.0)[None, None]
    cross = np.where(src_pad_mask[:, None, None, :], NEG_INF, 0.0)
    for blk in range(dec.n_blocks):
        q = norm(x, f"block{blk}.ln1")
        x = x + attention(q, q, f"block{blk}.self_attn", causal)
        x = x + attention(norm(x, f"block{blk}.ln2"), enc_states, f"block{blk}.cross_attn", cross)
        x = x + linear(linear(norm(x, f"block{blk}.ln3"), (f"block{blk}.ff.w1", f"block{blk}.ff.b1")).relu(),
                       (f"block{blk}.ff.w2", f"block{blk}.ff.b2"))
    return linear(norm(x, "ln_final"), ("out_proj.w", "out_proj.b"))


class TestDecoderCache:
    LINES = ["a b", "a b c d e f", "c", "d e a b c"]
    STEPS = 9

    def _setup(self, vocab, seed):
        enc = EncoderModule("X", vocab, seed=seed, **ARCH)
        dec = DecoderModule("X", vocab, seed=seed, **ARCH)
        src_ids, src_mask = pad_batch(vocab, self.LINES)
        rng = np.random.default_rng(seed)
        tgt = rng.integers(4, len(vocab), size=(len(self.LINES), self.STEPS))
        tgt[:, 0] = 1
        with no_grad():
            states, _ = enc.encode(src_ids, src_mask)
            full = dec.forward(states, src_mask, tgt).data
        return dec, states, src_mask, tgt, full

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_position_per_call_matches_full_pass(self, vocab, seed):
        dec, states, mask, tgt, full = self._setup(vocab, seed)
        cache = DecoderCache()
        with no_grad():
            for t in range(self.STEPS):
                step = dec.forward(states, mask, tgt[:, t : t + 1], cache=cache).data
                np.testing.assert_allclose(step[:, 0], full[:, t], rtol=0, atol=1e-12)
        assert cache.length == self.STEPS

    def test_uneven_chunks_match_full_pass(self, vocab):
        dec, states, mask, tgt, full = self._setup(vocab, 3)
        cache = DecoderCache()
        with no_grad():
            for lo, hi in ((0, 3), (3, 4), (4, self.STEPS)):
                step = dec.forward(states, mask, tgt[:, lo:hi], cache=cache).data
                np.testing.assert_allclose(step, full[:, lo:hi], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_dropped_and_repeated(self, vocab, seed):
        dec, states, mask, tgt, full = self._setup(vocab, seed)
        cache = DecoderCache()
        rows = np.arange(len(self.LINES))
        with no_grad():
            for t in range(self.STEPS):
                if t == 3:  # drop rows 0 and 2
                    keep = np.array([False, True, False, True])
                    rows, cache_rows = rows[keep], keep
                elif t == 6:  # reorder and repeat, as beam search does
                    cache_rows = np.array([1, 0, 1])
                    rows = rows[cache_rows]
                else:
                    cache_rows = None
                if cache_rows is not None:
                    cache.select(cache_rows)
                step = dec.forward(Tensor(states.data[rows]), mask[rows], tgt[rows, t : t + 1],
                                   cache=cache).data
                np.testing.assert_allclose(step[:, 0], full[rows, t], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_encoder_side_read_from_cache(self, vocab, seed):
        """After the first call every call passes the original states and
        mask; the cache alone carries their rows through drops and repeats."""
        dec, states, mask, tgt, full = self._setup(vocab, seed)
        selections = {2: np.array([False, True, False, True]),  # drop rows 0 and 2
                      4: np.array([1, 0, 1, 1]),  # reorder and repeat, as beam search does
                      7: np.array([0, 2, 3])}  # drop one copy
        cache = DecoderCache()
        rows = np.arange(len(self.LINES))
        with no_grad():
            for t in range(self.STEPS):
                if t in selections:
                    rows = rows[selections[t]]
                    cache.select(selections[t])
                step = dec.forward(states, mask, tgt[rows, t : t + 1], cache=cache).data
                np.testing.assert_allclose(step[:, 0], full[rows, t], rtol=0, atol=1e-12)

    def test_forward_without_cache_byte_identical_to_reference(self, vocab):
        dec, states, mask, tgt, full = self._setup(vocab, 4)
        with no_grad():
            ref = _reference_forward(dec, states, mask, tgt).data
        assert full.tobytes() == ref.tobytes()

    def test_training_gradients_byte_identical_to_reference(self, vocab):
        enc = EncoderModule("X", vocab, seed=5, **ARCH)
        dec = DecoderModule("X", vocab, seed=5, **ARCH)
        src_ids, src_mask = pad_batch(vocab, self.LINES)
        tgt_ids, tgt_mask = pad_batch(vocab, list(reversed(self.LINES)))
        grads = []
        for forward in (dec.forward, lambda *a: _reference_forward(dec, *a)):
            enc.zero_grad()
            dec.zero_grad()
            states, _ = enc.encode(src_ids, src_mask)
            logits = forward(states, src_mask, tgt_ids[:, :-1])
            cross_entropy(logits, tgt_ids[:, 1:], ~tgt_mask[:, 1:]).backward()
            grads.append([p.tensor.grad.tobytes() for p in enc.parameters() + dec.parameters()])
        assert grads[0] == grads[1]


def _train_steps(modules, params, batch, n):
    opt = Adam()
    for _ in range(n):
        for m in modules:
            m.zero_grad()
        states, _ = modules[0].encode(batch.src_ids, batch.src_pad_mask)
        logits = decode_teacher_forced(modules[1], states, batch.src_pad_mask, batch.tgt_ids)
        loss = cross_entropy(logits, batch.tgt_ids[:, 1:], ~batch.tgt_pad_mask[:, 1:])
        loss.backward()
        opt.step(params, lr=1e-3)


class TestFreeze:
    def _setup(self, vocab):
        enc = EncoderModule("X", vocab, seed=3, **ARCH)
        dec = DecoderModule("X", vocab, seed=3, **ARCH)
        corpus = preprocess(["a b c"] * 4, ["a b c"] * 4, vocab, vocab)
        batch = make_batches(corpus, 64, seed=0)[0]
        return enc, dec, batch

    def test_frozen_bytes_identical_after_training(self, vocab):
        enc, dec, batch = self._setup(vocab)
        enc.set_frozen(True)
        before = enc.parameter_bytes()
        _train_steps((enc, dec), enc.parameters() + dec.parameters(), batch, 100)
        assert enc.parameter_bytes() == before
        # the unfrozen decoder did move
        assert dec.parameter_bytes() != DecoderModule("X", vocab, seed=3, **ARCH).parameter_bytes()

    def test_unfreeze_restores_flow(self, vocab):
        enc, dec, batch = self._setup(vocab)
        enc.set_frozen(True)
        enc.set_frozen(False)
        before = enc.parameter_bytes()
        _train_steps((enc, dec), enc.parameters() + dec.parameters(), batch, 5)
        assert enc.parameter_bytes() != before

    def test_freeze_idempotent(self, vocab):
        enc, _, _ = self._setup(vocab)
        enc.set_frozen(True)
        enc.set_frozen(True)
        assert all(p.frozen for p in enc.parameters())
        enc.set_frozen(False)
        assert all(not p.frozen for p in enc.parameters())


class TestRegistry:
    def test_duplicate_rejected(self, vocab):
        reg = ModuleRegistry()
        reg.add(EncoderModule("X", vocab, seed=1, **ARCH))
        with pytest.raises(CompositionError, match="already"):
            reg.add(EncoderModule("X", vocab, seed=2, **ARCH))

    def test_unknown_lookup(self, vocab):
        with pytest.raises(CompositionError, match="unknown"):
            ModuleRegistry().encoder("Q")

    def test_snapshot_keys(self, vocab):
        reg = ModuleRegistry()
        reg.add(EncoderModule("X", vocab, seed=1, **ARCH))
        reg.add(DecoderModule("X", vocab, seed=1, **ARCH))
        assert sorted(reg.snapshot()) == ["decoder:X", "encoder:X"]


class TestCheckpoint:
    def _registry(self, vocab, seed=3):
        reg = ModuleRegistry()
        reg.add(EncoderModule("X", vocab, seed=seed, **ARCH))
        reg.add(DecoderModule("X", vocab, seed=seed, **ARCH))
        return reg

    def test_save_load_save_byte_identical(self, vocab, tmp_path):
        reg = self._registry(vocab)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(reg, p1)
        loaded = load_checkpoint(p1, {"X": vocab})
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_preserves_parameters_and_freeze(self, vocab, tmp_path):
        reg = self._registry(vocab)
        reg.get("encoder:X").set_frozen(True)
        path = tmp_path / "c.bin"
        save_checkpoint(reg, path)
        loaded = load_checkpoint(path, {"X": vocab})
        assert loaded.snapshot() == reg.snapshot()
        assert loaded.encoder("X").frozen and not loaded.decoder("X").frozen

    def test_no_gradient_before_backward(self, vocab, tmp_path):
        reg = self._registry(vocab)
        reg.get("encoder:X").set_frozen(True)
        path = tmp_path / "g.bin"
        save_checkpoint(reg, path)
        loaded = load_checkpoint(path, {"X": vocab})
        for registry in (reg, loaded):
            assert all(p.tensor.grad is None for p in registry.parameters())

    def test_add_language_leaves_existing_bytes(self, vocab, tmp_path):
        reg = self._registry(vocab)
        path = tmp_path / "d.bin"
        save_checkpoint(reg, path)
        loaded = load_checkpoint(path, {"X": vocab})
        before = loaded.snapshot()
        z_vocab = learn_bpe(["z z z", "zz"], "Z", 8)
        loaded.add(EncoderModule("Z", z_vocab, seed=5, **ARCH))
        after = loaded.snapshot()
        assert after["encoder:X"] == before["encoder:X"]
        assert after["decoder:X"] == before["decoder:X"]

    def test_truncated_file_rejected(self, vocab, tmp_path):
        reg = self._registry(vocab)
        path = tmp_path / "e.bin"
        save_checkpoint(reg, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="checksum|truncated"):
            load_checkpoint(path, {"X": vocab})

    def test_corrupted_byte_rejected(self, vocab, tmp_path):
        reg = self._registry(vocab)
        path = tmp_path / "f.bin"
        save_checkpoint(reg, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path, {"X": vocab})

    def test_wrong_vocabulary_rejected(self, vocab, tmp_path):
        reg = self._registry(vocab)
        path = tmp_path / "g.bin"
        save_checkpoint(reg, path)
        other = learn_bpe(["q q", "qq"], "X", 8)
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_checkpoint(path, {"X": other})

    def test_missing_vocabulary_rejected(self, vocab, tmp_path):
        reg = self._registry(vocab)
        path = tmp_path / "h.bin"
        save_checkpoint(reg, path)
        with pytest.raises(CheckpointError, match="no vocabulary"):
            load_checkpoint(path, {})


def _layout(module):
    return sorted((local, p.tensor.data.shape) for local, p in module.params.items())


def _block_layout(blk, attention, norms):
    out = []
    for sub in attention:
        out += [(f"block{blk}.{sub}.{n}", (16, 16)) for n in ("wk", "wo", "wq", "wv")]
        out += [(f"block{blk}.{sub}.{n}", (16,)) for n in ("bk", "bo", "bq", "bv")]
    out += [(f"block{blk}.ff.b1", (32,)), (f"block{blk}.ff.b2", (16,)),
            (f"block{blk}.ff.w1", (16, 32)), (f"block{blk}.ff.w2", (32, 16))]
    for ln in norms:
        out += [(f"block{blk}.{ln}.bias", (16,)), (f"block{blk}.{ln}.gain", (16,))]
    return out


class TestInitPin:
    """Pinned layouts and init bytes: checkpoints and seeded runs depend on both."""

    def test_encoder(self, vocab):
        enc = EncoderModule("X", vocab, seed=3, **ARCH)
        expected = [("embedding", (24, 16)), ("ln_final.bias", (16,)), ("ln_final.gain", (16,))]
        for blk in range(2):
            expected += _block_layout(blk, ["attn"], ["ln1", "ln2"])
        assert _layout(enc) == sorted(expected)
        assert hashlib.sha256(enc.parameter_bytes()).hexdigest() == (
            "ec9da0fbbb22a0ca22e5459d33d4297e7cd1868050a85adf179379502af91a05")

    def test_decoder(self, vocab):
        dec = DecoderModule("X", vocab, seed=3, **ARCH)
        expected = [("embedding", (24, 16)), ("ln_final.bias", (16,)), ("ln_final.gain", (16,)),
                    ("out_proj.b", (24,)), ("out_proj.w", (16, 24))]
        for blk in range(2):
            expected += _block_layout(blk, ["cross_attn", "self_attn"], ["ln1", "ln2", "ln3"])
        assert _layout(dec) == sorted(expected)
        assert hashlib.sha256(dec.parameter_bytes()).hexdigest() == (
            "b2686e3b9bfc2a5153918319d4135ab87b2ff2de0c95c7b6b8685b2ae2851de7")


def _sealed(payload: bytes) -> bytes:
    """`payload` with a valid checksum, as save_checkpoint writes it."""
    return payload + hashlib.sha256(payload).digest()[:8]


@pytest.fixture(scope="module")
def ckpt_payload(vocab, tmp_path_factory):
    """Checksum-free bytes of a saved encoder:X + decoder:X checkpoint, and a scratch path."""
    reg = ModuleRegistry()
    reg.add(EncoderModule("X", vocab, seed=3, **ARCH))
    reg.add(DecoderModule("X", vocab, seed=3, **ARCH))
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.bin"
    save_checkpoint(reg, path)
    return path.read_bytes()[:-8], path


def _load(path, blob, vocab):
    path.write_bytes(blob)
    return load_checkpoint(path, {"X": vocab})


class TestMalformedCheckpoint:
    """A malformed body under a valid checksum raises CheckpointError and nothing else."""

    HEADER = 16  # magic, version, module count

    def _arch_offset(self, payload):
        """Offset of the first module's dim (decoder:X: records are sorted by name)."""
        name_len = struct.unpack_from("<H", payload, self.HEADER)[0]
        lang_at = self.HEADER + 2 + name_len + 1
        return lang_at + 2 + struct.unpack_from("<H", payload, lang_at)[0] + 1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_truncation(self, vocab, ckpt_payload, data):
        payload, path = ckpt_payload
        cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
        with pytest.raises(CheckpointError):
            _load(path, _sealed(payload[:cut]), vocab)

    @settings(max_examples=50, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_any_appended_bytes(self, vocab, ckpt_payload, extra):
        payload, path = ckpt_payload
        with pytest.raises(CheckpointError):
            _load(path, _sealed(payload + extra), vocab)

    def test_duplicated_parameter_record(self, vocab, ckpt_payload):
        payload, path = ckpt_payload
        # same length and shape: bk's record now repeats bq and bk is missing
        blob = payload.replace(b"block0.cross_attn.bk", b"block0.cross_attn.bq", 1)
        with pytest.raises(CheckpointError, match="repeated"):
            _load(path, _sealed(blob), vocab)

    def test_unknown_kind_code(self, vocab, ckpt_payload):
        payload, path = ckpt_payload
        blob = bytearray(payload)
        blob[self.HEADER + 2 + len("decoder:X")] = 7
        with pytest.raises(CheckpointError, match="kind code"):
            _load(path, _sealed(bytes(blob)), vocab)

    def test_repeated_module(self, vocab, ckpt_payload):
        payload, path = ckpt_payload
        # the decoder's record, written twice
        record = payload[self.HEADER : payload.index(b"encoder:X") - 2]
        blob = payload[:8] + struct.pack("<II", 1, 2) + record + record
        with pytest.raises(CheckpointError, match="repeated"):
            _load(path, _sealed(blob), vocab)

    @pytest.mark.parametrize("field, value, match", [
        (2, 0, "heads"),  # n_heads 0
        (2, 3, "heads"),  # n_heads not dividing dim 16
        (0, 2**31, "mis-shaped"),  # a huge dim: checked against the records, nothing allocated
        (1, 2**31, "blocks"),  # a huge n_blocks
    ])
    def test_corrupt_architecture(self, vocab, ckpt_payload, field, value, match):
        payload, path = ckpt_payload
        blob = bytearray(payload)
        struct.pack_into("<I", blob, self._arch_offset(payload) + 4 * field, value)
        with pytest.raises(CheckpointError, match=match):
            _load(path, _sealed(bytes(blob)), vocab)

    def test_huge_parameter_extent(self, vocab, ckpt_payload):
        payload, path = ckpt_payload
        at = payload.index(b"embedding") + len(b"embedding") + 1  # first extent of the decoder's table
        blob = bytearray(payload)
        struct.pack_into("<I", blob, at, 2**31)
        with pytest.raises(CheckpointError, match="truncated"):
            _load(path, _sealed(bytes(blob)), vocab)

import numpy as np
import pytest

from modnmt.corpus import make_batches, preprocess
from modnmt.model import CompositionError, DecoderModule, EncoderModule, ModuleRegistry, decode_teacher_forced
from modnmt.optim import Adam
from modnmt.tensor import Tensor, cross_entropy, no_grad
from modnmt.tokenizer import BOS, EOS, PAD, learn_bpe
from modnmt.translator import (
    TranslationRequest,
    beam_decode,
    greedy_decode,
    max_output_length,
    translate,
    translate_corpus,
)

LINES_X = ["a b c", "b c a", "c a b", "a c b", "b a c", "c b a", "a a b", "b b c"]
LINES_Y = [line.translate(str.maketrans("abc", "xyz")) for line in LINES_X]
ARCH = dict(dim=16, n_blocks=1, n_heads=2, ff_dim=32, seed=1)


@pytest.fixture(scope="module")
def overfit_registry():
    """Memorize an 8-sentence X-Y cipher; greedy output becomes exact."""
    vx = learn_bpe(LINES_X, "X", 12)
    vy = learn_bpe(LINES_Y, "Y", 12)
    corpus = preprocess(LINES_X, LINES_Y, vx, vy)
    batch = make_batches(corpus, 1000, seed=0)[0]
    e_x = EncoderModule("X", vx, **ARCH)
    d_y = DecoderModule("Y", vy, **ARCH)
    params = e_x.parameters() + d_y.parameters()
    opt = Adam()
    for step in range(1, 601):
        e_x.zero_grad()
        d_y.zero_grad()
        states, _ = e_x.encode(batch.src_ids, batch.src_pad_mask)
        logits = decode_teacher_forced(d_y, states, batch.src_pad_mask, batch.tgt_ids)
        loss = cross_entropy(logits, batch.tgt_ids[:, 1:], ~batch.tgt_pad_mask[:, 1:])
        loss.backward()
        opt.step(params, lr=2e-3 if step > 50 else 2e-3 * step / 50)
    registry = ModuleRegistry()
    registry.add(e_x)
    registry.add(d_y)
    registry.add(DecoderModule("X", vx, **ARCH))  # untrained, for pivot plumbing
    registry.add(EncoderModule("Y", vy, **ARCH))
    return registry


class TestRequest:
    def test_unknown_route(self):
        with pytest.raises(CompositionError, match="route"):
            TranslationRequest("X", "Y", "detour")

    def test_pivot_requires_via(self):
        with pytest.raises(CompositionError, match="via"):
            TranslationRequest("X", "Y", "pivot")

    def test_bad_beam_width(self):
        with pytest.raises(CompositionError, match="beam width"):
            TranslationRequest("X", "Y", decode="beam", beam_width=0)


class TestGreedy:
    def test_overfit_model_emits_memorized_target(self, overfit_registry):
        req = TranslationRequest("X", "Y", "direct")
        for src, tgt in zip(LINES_X, LINES_Y):
            assert translate(overfit_registry, req, src) == tgt

    def test_max_len_zero_empty(self, overfit_registry):
        enc = overfit_registry.encoder("X")
        dec = overfit_registry.decoder("Y")
        ids, mask = np.array([[1, 5, 2]]), np.zeros((1, 3), bool)
        with no_grad():
            states, _ = enc.encode(ids, mask)
        assert greedy_decode(dec, states, mask, 0) == [[]]

    def test_deterministic(self, overfit_registry):
        req = TranslationRequest("X", "Y", "direct")
        out1 = translate_corpus(overfit_registry, req, LINES_X)
        out2 = translate_corpus(overfit_registry, req, LINES_X)
        assert out1 == out2

    def test_terminates_within_budget(self, overfit_registry):
        # even an untrained decoder must stop at the length cap
        req = TranslationRequest("Y", "X", "direct")
        out = translate(overfit_registry, req, "x y z")
        assert len(out.split()) <= max_output_length(3) + 1


class TestBeam:
    def test_width_one_equals_greedy(self, overfit_registry):
        rng = np.random.default_rng(0)
        inputs = [" ".join(rng.choice(list("abc"), size=rng.integers(2, 6))) for _ in range(100)]
        greedy = translate_corpus(overfit_registry, TranslationRequest("X", "Y", "direct"), inputs)
        beam1 = translate_corpus(
            overfit_registry, TranslationRequest("X", "Y", "direct", decode="beam", beam_width=1), inputs)
        assert beam1 == greedy

    def test_width_four_at_least_width_one(self, overfit_registry):
        from modnmt.evaluation import corpus_bleu
        b1 = translate_corpus(
            overfit_registry, TranslationRequest("X", "Y", "direct", decode="beam", beam_width=1), LINES_X)
        b4 = translate_corpus(
            overfit_registry, TranslationRequest("X", "Y", "direct", decode="beam", beam_width=4), LINES_X)
        assert corpus_bleu(b4, LINES_Y, smoothing=True).bleu >= corpus_bleu(b1, LINES_Y, smoothing=True).bleu

    def test_early_eos_termination(self, overfit_registry):
        enc = overfit_registry.encoder("X")
        dec = overfit_registry.decoder("Y")
        sent = enc.vocab.encode("a b c")
        ids = np.array([sent.ids])
        mask = np.zeros((1, len(sent.ids)), bool)
        with no_grad():
            states, _ = enc.encode(ids, mask)
        out = beam_decode(dec, states, mask, width=4, max_len=50)
        assert out[-1] == EOS
        assert len(out) < 50


class TestRoutes:
    def test_zero_shot_same_mechanics_as_direct(self, overfit_registry):
        direct = translate_corpus(overfit_registry, TranslationRequest("X", "Y", "direct"), LINES_X)
        zs = translate_corpus(overfit_registry, TranslationRequest("X", "Y", "zero_shot"), LINES_X)
        assert direct == zs

    def test_pivot_equals_textual_composition(self, overfit_registry):
        pivot = translate_corpus(
            overfit_registry, TranslationRequest("Y", "Y", "pivot", via="X"), LINES_Y)
        mid = translate_corpus(overfit_registry, TranslationRequest("Y", "X", "direct"), LINES_Y)
        composed = translate_corpus(overfit_registry, TranslationRequest("X", "Y", "direct"), mid)
        assert pivot == composed

    def test_missing_module_rejected(self, overfit_registry):
        with pytest.raises(CompositionError, match="unknown"):
            translate(overfit_registry, TranslationRequest("Q", "Y", "direct"), "a")

    def test_dim_mismatch_rejected(self, overfit_registry):
        vx = overfit_registry.encoder("X").vocab
        reg = ModuleRegistry()
        reg.add(overfit_registry.encoder("X"))
        reg.add(DecoderModule("W", vx, dim=8, n_blocks=1, n_heads=2, ff_dim=16, seed=0))
        with pytest.raises(CompositionError, match="compose"):
            translate(reg, TranslationRequest("X", "W", "direct"), "a b")


def test_zero_shot_never_touches_pivot_vocabulary(overfit_registry):
    """Instrumentation: zero-shot must use exactly the source encoder's and
    target decoder's vocabularies, with no intermediate text round-trip."""
    calls = {"encode": [], "decode": []}
    touched = []
    for name, mod in overfit_registry.modules.items():
        vocab = mod.vocab
        orig_enc, orig_dec = vocab.encode, vocab.decode
        touched.append((vocab, orig_enc, orig_dec))

        def wrap_enc(s, _orig=orig_enc, _lang=vocab.language):
            calls["encode"].append(_lang)
            return _orig(s)

        def wrap_dec(ids, _orig=orig_dec, _lang=vocab.language):
            calls["decode"].append(_lang)
            return _orig(ids)

        vocab.encode = wrap_enc
        vocab.decode = wrap_dec
    try:
        translate(overfit_registry, TranslationRequest("X", "Y", "zero_shot"), "a b c")
    finally:
        for vocab, orig_enc, orig_dec in touched:
            vocab.encode = orig_enc
            vocab.decode = orig_dec
    assert set(calls["encode"]) == {"X"}
    assert set(calls["decode"]) == {"Y"}


# -- full-recompute references ---------------------------------------------------
#
# The decoders as they were before the inference cache: every step re-runs
# the decoder over the whole prefix, greedy keeps finished rows in the batch,
# beam runs one hypothesis per call and ranks the vocabulary in Python.


def reference_greedy(dec, enc_states, src_pad_mask, max_len):
    b = enc_states.shape[0]
    if max_len <= 0:
        return [[] for _ in range(b)]
    with no_grad():
        ys = np.full((b, 1), BOS, dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        for _ in range(max_len):
            logits = dec.forward(enc_states, src_pad_mask, ys).data[:, -1, :]
            nxt = np.where(done, PAD, np.argmax(logits, axis=-1))
            ys = np.concatenate([ys, nxt[:, None]], axis=1)
            done |= nxt == EOS
            if done.all():
                break
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


def reference_beam(dec, enc_states, src_pad_mask, width, max_len):
    if max_len <= 0:
        return []
    with no_grad():
        beams = [([BOS], 0.0, False)]
        for _ in range(max_len):
            candidates = []
            for ids, logp, done in beams:
                if done:
                    candidates.append((ids, logp, True))
                    continue
                row = dec.forward(enc_states, src_pad_mask, np.array([ids])).data[0, -1, :]
                shifted = row - row.max()
                lp = shifted - np.log(np.exp(shifted).sum())
                for t in sorted(range(lp.shape[0]), key=lambda t: (-lp[t], t))[:width]:
                    candidates.append((ids + [t], logp + lp[t], t == EOS))
            candidates.sort(key=lambda c: (-c[1], c[0]))
            beams = candidates[:width]
            if all(done for _, _, done in beams):
                break
    best = max(beams, key=lambda c: (c[1] / max(len(c[0]) - 1, 1), [-t for t in c[0]]))
    return best[0][1:]


def _encode_lines(enc, lines):
    sentences = [enc.vocab.encode(line) for line in lines]
    width = max(len(s.ids) for s in sentences)
    ids = np.full((len(sentences), width), PAD, dtype=np.int64)
    mask = np.ones((len(sentences), width), dtype=bool)
    for row, s in enumerate(sentences):
        ids[row, : len(s.ids)] = s.ids
        mask[row, : len(s.ids)] = False
    with no_grad():
        states, _ = enc.encode(ids, mask)
    return states, mask, [len(s.ids) - 2 for s in sentences]


def _random_lines(seed, n, symbols="abc"):
    rng = np.random.default_rng(seed)
    return [" ".join(rng.choice(list(symbols), size=rng.integers(1, 8))) for _ in range(n)]


class TestMatchesFullRecompute:
    @pytest.mark.parametrize("src, tgt", [("X", "Y"), ("Y", "X")])
    def test_greedy(self, overfit_registry, src, tgt):
        enc, dec = overfit_registry.encoder(src), overfit_registry.decoder(tgt)
        lines = _random_lines(1, 64, "abc" if src == "X" else "xyz")
        states, mask, lengths = _encode_lines(enc, lines)
        max_len = max(max_output_length(n) for n in lengths)
        assert greedy_decode(dec, states, mask, max_len) == reference_greedy(dec, states, mask, max_len)

    def test_greedy_with_a_row_at_the_cap(self, overfit_registry):
        enc, dec = overfit_registry.encoder("X"), overfit_registry.decoder("Y")
        # "a" alone translates to EOS at once; the others need 4 tokens, over the cap
        lines = ["a", "a b c", "a", "a", "b c a b"]
        states, mask, _ = _encode_lines(enc, lines)
        max_len = 3
        out = greedy_decode(dec, states, mask, max_len)
        assert out == reference_greedy(dec, states, mask, max_len)
        assert any(len(ids) == max_len and ids[-1] != EOS for ids in out)
        assert any(ids[-1] == EOS and len(ids) < max_len for ids in out)

    def test_greedy_untrained_decoder_runs_to_cap(self, overfit_registry):
        enc, dec = overfit_registry.encoder("Y"), overfit_registry.decoder("X")
        states, mask, _ = _encode_lines(enc, ["x y z", "z", "y y x z"])
        assert greedy_decode(dec, states, mask, 11) == reference_greedy(dec, states, mask, 11)

    def test_sentence_alone_equals_inside_chunk(self, overfit_registry):
        req = TranslationRequest("X", "Y", "direct")
        lines = _random_lines(2, 32)
        chunk = translate_corpus(overfit_registry, req, lines)
        assert [translate(overfit_registry, req, line) for line in lines] == chunk

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_beam(self, overfit_registry, width):
        enc, dec = overfit_registry.encoder("X"), overfit_registry.decoder("Y")
        lines = _random_lines(3, 24)
        states, mask, lengths = _encode_lines(enc, lines)
        for row, n in enumerate(lengths):
            one, one_mask = Tensor(states.data[row : row + 1]), mask[row : row + 1]
            assert (beam_decode(dec, one, one_mask, width, max_output_length(n))
                    == reference_beam(dec, one, one_mask, width, max_output_length(n)))

    def test_beam_untrained_decoder(self, overfit_registry):
        enc, dec = overfit_registry.encoder("Y"), overfit_registry.decoder("X")
        states, mask, _ = _encode_lines(enc, ["x y z"])
        assert beam_decode(dec, states, mask, 3, 9) == reference_beam(dec, states, mask, 3, 9)


class _TiedDecoder:
    """After BOS, tokens 5 and 4 share the top logit; after anything else EOS wins."""

    VOCAB = 8

    def forward(self, enc_states, src_pad_mask, tgt_input_ids, cache=None):
        ids = np.asarray(tgt_input_ids)
        logits = np.zeros(ids.shape + (self.VOCAB,))
        logits[..., 4] = logits[..., 5] = np.where(ids == BOS, 3.0, 0.0)
        logits[..., EOS] = np.where(ids == BOS, 0.0, 3.0)
        return Tensor(logits)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_beam_ties_pick_lowest_token_id(width):
    states, mask = Tensor(np.zeros((1, 2, 4))), np.zeros((1, 2), bool)
    dec = _TiedDecoder()
    out = beam_decode(dec, states, mask, width, 5)
    assert out == [4, EOS]
    assert out == reference_beam(dec, states, mask, width, 5)

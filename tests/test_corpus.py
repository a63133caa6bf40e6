import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnmt.corpus import (
    ALPHABET,
    CorpusError,
    ParallelCorpus,
    SyntheticLanguageSpec,
    cipher_oracle_translate,
    generate_cipher_lines,
    make_batches,
    make_cipher_spec,
    preprocess,
)
from modnmt.tokenizer import TokenizedSentence, learn_bpe


def identity_spec(lang, size=16):
    return SyntheticLanguageSpec(lang, size, np.arange(size), rng_seed=0)


class TestCipherSpec:
    def test_permutation_is_bijection(self):
        spec = make_cipher_spec("X", 64, 7)
        assert sorted(spec.permutation.tolist()) == list(range(64))

    def test_inverse(self):
        spec = make_cipher_spec("X", 32, 3)
        np.testing.assert_array_equal(spec.permutation[spec.inverse], np.arange(32))

    def test_non_bijection_rejected(self):
        with pytest.raises(CorpusError, match="bijection"):
            SyntheticLanguageSpec("X", 3, [0, 0, 2], rng_seed=0)

    def test_oversized_base_vocab_rejected(self):
        with pytest.raises(CorpusError):
            SyntheticLanguageSpec("X", len(ALPHABET) + 1,
                                  np.arange(len(ALPHABET) + 1), rng_seed=0)

    def test_save_load_round_trip(self, tmp_path):
        spec = make_cipher_spec("X", 48, 11)
        path = tmp_path / "spec.txt"
        spec.save(path)
        loaded = SyntheticLanguageSpec.load(path)
        assert loaded.language == "X" and loaded.rng_seed == 11
        np.testing.assert_array_equal(loaded.permutation, spec.permutation)


class TestGenerate:
    def test_identity_specs_give_equal_sides(self):
        a = identity_spec("A")
        b = identity_spec("B")
        la, lb = generate_cipher_lines(a, b, 50, seed=1)
        assert la == lb

    def test_n_zero(self):
        a = identity_spec("A")
        la, lb = generate_cipher_lines(a, a, 0, seed=1)
        assert la == [] and lb == []

    def test_seeded_reproducibility_and_oracle_identity(self):
        sa = make_cipher_spec("A", 40, 5)
        sb = make_cipher_spec("B", 40, 6)
        run1 = generate_cipher_lines(sa, sb, 1000, seed=9)
        run2 = generate_cipher_lines(sa, sb, 1000, seed=9)
        assert run1 == run2
        la, lb = run1
        for src, tgt in zip(la, lb):
            assert cipher_oracle_translate(sa, sb, src) == tgt

    def test_lengths_respect_range(self):
        sa = make_cipher_spec("A", 20, 2)
        la, _ = generate_cipher_lines(sa, sa, 300, len_range=(3, 12), seed=4)
        lengths = {len(line.split()) for line in la}
        assert lengths <= set(range(3, 13))
        assert 3 in lengths and 12 in lengths

    def test_base_vocab_mismatch(self):
        with pytest.raises(CorpusError, match="mismatch"):
            generate_cipher_lines(make_cipher_spec("A", 16, 1), make_cipher_spec("B", 32, 2), 5)


class TestOracle:
    def test_identity_when_specs_equal(self):
        sa = make_cipher_spec("A", 30, 3)
        assert cipher_oracle_translate(sa, sa, "a b c") == "a b c"

    def test_round_trip_is_identity(self):
        sa = make_cipher_spec("A", 30, 3)
        sb = make_cipher_spec("B", 30, 4)
        line, _ = generate_cipher_lines(sa, sa, 1, seed=8)
        fwd = cipher_oracle_translate(sa, sb, line[0])
        assert cipher_oracle_translate(sb, sa, fwd) == line[0]

    def test_composition(self):
        sa, sb, sc = (make_cipher_spec(L, 30, i) for i, L in enumerate("ABC"))
        lines, _ = generate_cipher_lines(sa, sa, 100, seed=13)
        for s in lines:
            via_b = cipher_oracle_translate(sb, sc, cipher_oracle_translate(sa, sb, s))
            assert via_b == cipher_oracle_translate(sa, sc, s)

    def test_out_of_vocabulary_symbol(self):
        sa = make_cipher_spec("A", 10, 1)
        with pytest.raises(CorpusError, match="outside base vocabulary"):
            cipher_oracle_translate(sa, sa, "z")


@pytest.fixture(scope="module")
def tiny_setup():
    sa = make_cipher_spec("A", 16, 1)
    sb = make_cipher_spec("B", 16, 2)
    la, lb = generate_cipher_lines(sa, sb, 60, len_range=(3, 8), seed=3)
    va = learn_bpe(la, "A", 24)
    vb = learn_bpe(lb, "B", 24)
    return la, lb, va, vb


class TestPreprocess:
    def test_short_pairs_kept(self, tiny_setup):
        la, lb, va, vb = tiny_setup
        corpus = preprocess(la, lb, va, vb, max_len=80)
        assert len(corpus) == len(la)
        assert corpus.pairs[0][0].surface == la[0]

    def test_long_pairs_dropped(self, tiny_setup):
        la, lb, va, vb = tiny_setup
        corpus = preprocess(la, lb, va, vb, max_len=4)
        expected = sum(1 for a, b in zip(la, lb)
                       if len(a.split()) <= 4 and len(b.split()) <= 4)
        assert len(corpus) == expected

    def test_empty_input_warns(self, tiny_setup, caplog):
        _, _, va, vb = tiny_setup
        with caplog.at_level("WARNING"):
            corpus = preprocess([], [], va, vb)
        assert len(corpus) == 0
        assert any("empty corpus" in r.message for r in caplog.records)

    def test_misaligned_sides(self, tiny_setup):
        la, lb, va, vb = tiny_setup
        with pytest.raises(CorpusError, match="alignment"):
            preprocess(la, lb[:-1], va, vb)


class TestBatches:
    def test_equal_lengths_split_evenly(self, tiny_setup):
        _, _, va, vb = tiny_setup
        lines = ["a b c"] * 4
        corpus = preprocess(lines, lines, va, va)
        width = len(corpus.pairs[0][0].ids)
        batches = make_batches(corpus, batch_tokens=2 * width, seed=0)
        assert [b.size for b in batches] == [2, 2]

    def test_same_seed_identical(self, tiny_setup):
        la, lb, va, vb = tiny_setup
        corpus = preprocess(la, lb, va, vb)
        b1 = make_batches(corpus, 64, seed=5)
        b2 = make_batches(corpus, 64, seed=5)
        assert len(b1) == len(b2)
        for x, y in zip(b1, b2):
            np.testing.assert_array_equal(x.src_ids, y.src_ids)
            np.testing.assert_array_equal(x.tgt_ids, y.tgt_ids)

    def test_every_pair_exactly_once(self, tiny_setup):
        la, lb, va, vb = tiny_setup
        corpus = preprocess(la, lb, va, vb)
        batches = make_batches(corpus, 64, seed=5)
        assert sum(b.size for b in batches) == len(corpus)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                            min_size=1, max_size=40),
           budget=st.integers(12, 120), seed=st.integers(0, 2**16))
    def test_every_pair_in_exactly_one_batch_within_budget(self, lengths, budget, seed):
        # each pair's ids are its index + 1, so a batch row names the pair it holds
        pairs = [(TokenizedSentence([i + 1] * s, ""), TokenizedSentence([i + 1] * t, ""))
                 for i, (s, t) in enumerate(lengths)]
        rows = []
        for b in make_batches(ParallelCorpus("A", "B", pairs), budget, seed):
            assert b.size * max(b.src_ids.shape[1], b.tgt_ids.shape[1]) <= budget
            rows += [(tuple(src[~src_pad]), tuple(tgt[~tgt_pad])) for src, tgt, src_pad, tgt_pad
                     in zip(b.src_ids, b.tgt_ids, b.src_pad_mask, b.tgt_pad_mask)]
        assert sorted(rows) == sorted((tuple(s.ids), tuple(t.ids)) for s, t in pairs)

    def test_unpadded_row_mask_all_false(self, tiny_setup):
        _, _, va, _ = tiny_setup
        lines = ["a b c d"] * 3
        corpus = preprocess(lines, lines, va, va)
        batch = make_batches(corpus, 1000, seed=0)[0]
        assert not batch.src_pad_mask.any()
        assert not batch.tgt_pad_mask.any()

    def test_budget_respected(self, tiny_setup):
        la, lb, va, vb = tiny_setup
        corpus = preprocess(la, lb, va, vb)
        for batch in make_batches(corpus, 48, seed=1):
            assert batch.size * max(batch.src_ids.shape[1], batch.tgt_ids.shape[1]) <= 48

    def test_oversized_sentence_rejected(self, tiny_setup):
        la, lb, va, vb = tiny_setup
        corpus = preprocess(la, lb, va, vb)
        with pytest.raises(CorpusError, match="exceeds"):
            make_batches(corpus, 4, seed=0)

    def test_empty_corpus_rejected(self, tiny_setup):
        _, _, va, vb = tiny_setup
        corpus = preprocess([], [], va, vb)
        with pytest.raises(CorpusError, match="empty"):
            make_batches(corpus, 64, seed=0)

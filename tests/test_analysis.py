import numpy as np
import pytest

from modnmt.analysis import (
    AnalysisError,
    RepresentationDump,
    collapse_indicator,
    dump_to_csv,
    extract_representations,
    pca_project,
    projection_to_csv,
    representation_report,
)
from modnmt.corpus import generate_cipher_lines, make_cipher_spec
from modnmt.model import DecoderModule, EncoderModule, ModuleRegistry
from modnmt.tokenizer import learn_bpe
from modnmt.translator import CHUNK

ARCH = dict(dim=16, n_blocks=2, n_heads=2, ff_dim=32)


@pytest.fixture(scope="module")
def setup():
    sx = make_cipher_spec("X", 16, 1)
    sy = make_cipher_spec("Y", 16, 2)
    lx, ly = generate_cipher_lines(sx, sy, 24, len_range=(3, 8), seed=3)
    vx = learn_bpe(lx, "X", 24)
    vy = learn_bpe(ly, "Y", 24)
    reg = ModuleRegistry()
    reg.add(EncoderModule("X", vx, seed=5, **ARCH))
    reg.add(EncoderModule("Y", vy, seed=6, **ARCH))
    reg.add(DecoderModule("X", vx, seed=5, **ARCH))
    return reg, {"X": lx, "Y": ly}


class TestExtract:
    def test_shapes_and_alignment(self, setup):
        reg, corpus = setup
        dumps = extract_representations(reg, corpus)
        assert set(dumps) == {"X", "Y"}
        for d in dumps.values():
            assert d.matrix.shape == (24, 16)
            assert d.sentence_indices == list(range(24))
            assert d.stage == "encoder_final"

    def test_same_sentence_identical_rows(self, setup):
        reg, corpus = setup
        repeated = {"X": [corpus["X"][0]] * 3}
        dump = extract_representations(reg, repeated)["X"]
        np.testing.assert_array_equal(dump.matrix[0], dump.matrix[1])
        np.testing.assert_array_equal(dump.matrix[0], dump.matrix[2])

    def test_chunking_invariant(self, setup):
        """70 sentences run as two chunks (64 + 6) give the rows of the first
        64 and the last 6 extracted on their own."""
        reg, _ = setup
        lines, _ = generate_cipher_lines(make_cipher_spec("X", 16, 1), make_cipher_spec("Y", 16, 2), 70,
                                         len_range=(3, 8), seed=4)
        whole = extract_representations(reg, {"X": lines})["X"].matrix
        head = extract_representations(reg, {"X": lines[:CHUNK]})["X"].matrix
        tail = extract_representations(reg, {"X": lines[CHUNK:]})["X"].matrix
        assert CHUNK == 64 and tail.shape[0] == 6
        np.testing.assert_allclose(whole, np.concatenate([head, tail]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stage", ["encoder_final", "decoder_block_last"])
    def test_lines_normalised_like_translation(self, setup, stage):
        reg, corpus = setup
        shouted = {lang: ["  " + "   ".join(line.upper().split()) + " " for line in lines]
                   for lang, lines in corpus.items()}
        plain = extract_representations(reg, corpus, stage=stage, decoder_lang="X")
        noisy = extract_representations(reg, shouted, stage=stage, decoder_lang="X")
        for lang in corpus:
            np.testing.assert_array_equal(noisy[lang].matrix, plain[lang].matrix)

    def test_decoder_stage_one_dump_per_source(self, setup):
        reg, corpus = setup
        dumps = extract_representations(reg, corpus, stage="decoder_block_last", decoder_lang="X")
        assert set(dumps) == {"X", "Y"}
        for d in dumps.values():
            assert d.matrix.shape == (24, 16)

    def test_decoder_stage_requires_lang(self, setup):
        reg, corpus = setup
        with pytest.raises(AnalysisError, match="decoder_lang"):
            extract_representations(reg, corpus, stage="decoder_block_0")

    def test_unknown_stage(self, setup):
        reg, corpus = setup
        for stage in ("pooled", "decoder_block_x", "decoder_block_", "decoder_block_-1"):
            with pytest.raises(AnalysisError, match="unknown stage"):
                extract_representations(reg, corpus, stage=stage, decoder_lang="X")

    def test_misaligned_corpus(self, setup):
        reg, corpus = setup
        with pytest.raises(AnalysisError, match="aligned"):
            extract_representations(reg, {"X": corpus["X"], "Y": corpus["Y"][:-1]})


class TestReport:
    def test_self_distance_zero(self, setup):
        reg, corpus = setup
        dumps = extract_representations(reg, corpus)
        distances, _ = representation_report(dumps)
        assert distances[("X", "X")] == pytest.approx(0.0, abs=1e-9)
        assert distances[("X", "Y")] == distances[("Y", "X")]

    def test_untrained_encoders_near_uncorrelated(self, setup):
        reg, corpus = setup
        dumps = extract_representations(reg, corpus)
        distances, _ = representation_report(dumps)
        assert abs(distances[("X", "Y")] - 1.0) < 0.3

    def test_collapse_indicator_fields(self, setup):
        reg, corpus = setup
        dumps = extract_representations(reg, corpus)
        ind = collapse_indicator(dumps["X"])
        assert -1.0 - 1e-9 <= ind.mean_pairwise_cosine <= 1.0 + 1e-9
        assert ind.dimension_variance_min <= ind.dimension_variance_mean <= ind.dimension_variance_max

    def test_collapsed_matrix_cosine_one(self):
        dump = RepresentationDump("X", "encoder_final",
                                  np.tile([[1.0, 2.0, 3.0]], (5, 1)), list(range(5)))
        ind = collapse_indicator(dump)
        assert ind.mean_pairwise_cosine == pytest.approx(1.0, abs=1e-12)
        assert ind.dimension_variance_max == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_languages(self, setup):
        reg, corpus = setup
        dumps = extract_representations(reg, {"X": corpus["X"]})
        with pytest.raises(AnalysisError, match="at least 2"):
            representation_report(dumps)


class TestPca:
    def test_axis_aligned_recovery(self):
        rng = np.random.default_rng(0)
        data = np.zeros((100, 2))
        data[:, 0] = rng.normal(scale=5.0, size=100)
        data[:, 1] = rng.normal(scale=0.5, size=100)
        coords, variances = pca_project(data, 2)
        centered = data - data.mean(axis=0)
        np.testing.assert_allclose(np.abs(coords[:, 0]), np.abs(centered[:, 0]), atol=0.3)
        assert variances[0] > variances[1]

    def test_variance_weakly_decreasing(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 6))
        _, variances = pca_project(data, 4)
        assert all(variances[i] >= variances[i + 1] - 1e-12 for i in range(3))

    def test_rank_one_second_component_zero(self):
        direction = np.array([1.0, 2.0, 3.0, 4.0])
        weights = np.linspace(-1, 1, 30)[:, None]
        data = weights * direction[None, :]
        _, variances = pca_project(data, 2)
        assert variances[1] == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(20, 5))
        c1, _ = pca_project(data, 2)
        c2, _ = pca_project(data, 2)
        np.testing.assert_array_equal(c1, c2)

    def test_k_exceeds_dim(self):
        with pytest.raises(AnalysisError):
            pca_project(np.zeros((5, 2)), 3)


class TestCsv:
    def test_dump_csv_header_and_rows(self, setup):
        reg, corpus = setup
        dump = extract_representations(reg, {"X": corpus["X"][:3]})["X"]
        lines = dump_to_csv(dump).splitlines()
        assert lines[0].startswith("lang,sentence_idx,stage,v0")
        assert len(lines) == 4
        assert lines[1].startswith("X,0,encoder_final,")

    def test_projection_csv(self, setup):
        reg, corpus = setup
        dumps = extract_representations(reg, {k: v[:5] for k, v in corpus.items()})
        lines = projection_to_csv(dumps).splitlines()
        assert lines[0] == "lang,sentence_idx,x,y"
        assert len(lines) == 11

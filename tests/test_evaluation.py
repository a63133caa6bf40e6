import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnmt import evaluation
from modnmt.evaluation import EvaluationError, ExperimentGrid, GridEntry, corpus_bleu, experiment_grid
from modnmt.translator import TranslationRequest


class TestCorpusBleu:
    def test_identity_is_100(self):
        refs = ["a b c d e", "f g h i", "a a b b c"]
        report = corpus_bleu(refs, refs)
        assert report.bleu == pytest.approx(100.0)
        assert report.precisions == [1.0, 1.0, 1.0, 1.0]
        assert report.brevity_penalty == 1.0

    def test_single_substitution_unsmoothed_zero(self):
        # "a b x d" vs "a b c d": trigrams {abx, bxd} never match -> p3 = 0
        report = corpus_bleu(["a b x d"], ["a b c d"])
        assert report.precisions[2] == 0.0
        assert report.bleu == 0.0

    def test_clipping(self):
        # "a a a a" vs "a b c d": 'a' occurs once in ref -> p1 clipped to 1/4
        report = corpus_bleu(["a a a a"], ["a b c d"])
        assert report.precisions[0] == pytest.approx(0.25)

    def test_smoothing_rescues_higher_orders(self):
        report = corpus_bleu(["a b x d"], ["a b c d"], smoothing=True)
        assert report.bleu > 0.0
        # p2: 1 match of 3 bigrams -> (1+1)/(3+1)
        assert report.precisions[1] == pytest.approx(0.5)

    def test_brevity_penalty_short_hypothesis(self):
        report = corpus_bleu(["a b"], ["a b c d"], smoothing=True)
        assert report.brevity_penalty == pytest.approx(np.exp(1.0 - 4.0 / 2.0))

    def test_no_penalty_for_long_hypothesis(self):
        report = corpus_bleu(["a b c d e f"], ["a b c d"])
        assert report.brevity_penalty == 1.0

    def test_pooled_not_averaged(self):
        # corpus-level pooling: counts accumulate before division
        pooled = corpus_bleu(["a b c d", "x y"], ["a b c d", "p q"], smoothing=True)
        assert pooled.precisions[0] == pytest.approx(4 / 6)

    def test_count_mismatch(self):
        with pytest.raises(EvaluationError, match="mismatch"):
            corpus_bleu(["a"], ["a", "b"])

    def test_empty_corpus(self):
        with pytest.raises(EvaluationError, match="empty"):
            corpus_bleu([], [])

    def test_empty_hypotheses_score_zero(self):
        report = corpus_bleu(["", ""], ["a b", "c d"])
        assert report.bleu == 0.0
        assert report.brevity_penalty == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_corpus_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        hyps = [" ".join(rng.choice(list("abcde"), size=rng.integers(1, 8))) for _ in range(n)]
        refs = [" ".join(rng.choice(list("abcde"), size=rng.integers(1, 8))) for _ in range(n)]
        perm = rng.permutation(n)
        base = corpus_bleu(hyps, refs, smoothing=True)
        shuffled = corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm], smoothing=True)
        assert shuffled.bleu == pytest.approx(base.bleu, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        hyps = [" ".join(rng.choice(list("ab"), size=rng.integers(1, 6))) for _ in range(4)]
        refs = [" ".join(rng.choice(list("ab"), size=rng.integers(1, 6))) for _ in range(4)]
        report = corpus_bleu(hyps, refs, smoothing=True)
        assert 0.0 <= report.bleu <= 100.0


class TestGrid:
    def test_empty_grid_csv(self):
        grid = ExperimentGrid()
        assert grid.to_csv().splitlines()[0].startswith("label,route,src,tgt,via,bleu")
        assert len(grid.to_csv().splitlines()) == 1

    def test_csv_row_contents(self):
        entry = GridEntry("zeroshot", TranslationRequest("Z", "Y", "zero_shot"), corpus_bleu(["a b c d"], ["a b c d"]))
        grid = ExperimentGrid([entry])
        row = grid.to_csv().splitlines()[1]
        assert row.startswith("zeroshot,zero_shot,Z,Y,,100.0000")

    def test_table_renders(self):
        entry = GridEntry("pivot", TranslationRequest("Z", "Y", "pivot", via="X"), corpus_bleu(["a b c d"], ["a b c d"]))
        table = ExperimentGrid([entry]).to_table()
        assert "pivot" in table and "Z-Y" in table and "100.00" in table


class TestExperimentGridChecks:
    """Every direction is checked before the first is translated."""

    @pytest.fixture(autouse=True)
    def no_translation(self, monkeypatch):
        monkeypatch.setattr(evaluation, "translate_corpus", lambda *args: pytest.fail("translated"))

    @pytest.mark.parametrize("second", [TranslationRequest("Z", "X"), TranslationRequest("Q", "Y")])
    def test_missing_language_named(self, second):
        directions = [("ok", TranslationRequest("Z", "Y")), ("bad", second)]
        missing = "X" if second.tgt_lang == "X" else "Q"
        with pytest.raises(EvaluationError, match=f"no test corpus for language '{missing}'"):
            experiment_grid(None, directions, {"Y": ["a"], "Z": ["b"]})

    def test_line_count_mismatch(self):
        with pytest.raises(EvaluationError, match="Z-Y: 2 source lines vs 0 reference lines"):
            experiment_grid(None, [("z", TranslationRequest("Z", "Y"))], {"Y": [], "Z": ["a", "b"]})

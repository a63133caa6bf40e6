import numpy as np
import pytest

from modnmt.corpus import (
    cipher_oracle_translate,
    generate_cipher_lines,
    make_batches,
    make_cipher_spec,
    normalize_lines,
    preprocess,
)
from modnmt.model import CompositionError, DecoderModule, EncoderModule, ModuleRegistry
from modnmt.objective import DistanceMetric
from modnmt.tokenizer import learn_bpe
from modnmt.trainer import (
    ADD_LOSS_CSV_HEADER,
    LOSS_CSV_HEADER,
    TrainingConfig,
    TrainingError,
    VocabularyMismatchError,
    add_language,
    corpus_hash,
    joint_train,
    loss_rows_to_csv,
    lr_schedule,
)

SMALL = dict(dim=16, n_blocks=1, n_heads=2, ff_dim=32, batch_tokens=128)


@pytest.fixture(scope="module")
def data():
    specs = {L: make_cipher_spec(L, 16, 11 + i) for i, L in enumerate("XYZ")}
    base, _ = generate_cipher_lines(specs["X"], specs["X"], 60, len_range=(3, 8), seed=3)
    from modnmt.corpus import cipher_oracle_translate
    lines = {L: [cipher_oracle_translate(specs["X"], specs[L], s) for s in base] for L in specs}
    vocab = {L: learn_bpe(lines[L], L, 24) for L in specs}
    return lines, vocab


class TestLrSchedule:
    def test_peak_at_warmup(self):
        assert lr_schedule(200, 200, 1e-3) == pytest.approx(1e-3)

    def test_linear_ramp_midpoint(self):
        assert lr_schedule(100, 200, 1e-3) == pytest.approx(5e-4)

    def test_inverse_sqrt_decay(self):
        assert lr_schedule(800, 200, 1e-3) == pytest.approx(5e-4)


class TestTrainingConfig:
    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            TrainingConfig(steps=0)

    @pytest.mark.parametrize("key", ["dim", "n_blocks", "n_heads", "ff_dim", "batch_tokens"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be >= 1"):
            TrainingConfig(**{key: value})

    @pytest.mark.parametrize("lr_peak", [-1.0, 0.0, float("nan"), float("inf")])
    def test_lr_peak_not_finite_and_positive_rejected(self, lr_peak):
        with pytest.raises(ValueError, match="lr_peak must be finite and > 0"):
            TrainingConfig(lr_peak=lr_peak)

    def test_dim_indivisible_by_heads_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            TrainingConfig(dim=16, n_heads=3)

    def test_as_dict_round_trips_metric(self):
        cfg = TrainingConfig(metric=DistanceMetric("l2", 0.5))
        d = cfg.as_dict()
        assert d["metric"] == "l2" and d["metric_weight"] == 0.5


class TestJointTrain:
    def test_loss_rows_and_manifest(self, data):
        lines, vocab = data
        corpus = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
        cfg = TrainingConfig(steps=30, warmup_steps=10, seed=5, **SMALL)
        registry, manifest, rows = joint_train(corpus, vocab["X"], vocab["Y"], cfg)
        assert len(rows) == 30
        assert [r[0] for r in rows] == list(range(1, 31))
        assert sorted(registry.modules) == ["decoder:X", "decoder:Y", "encoder:X", "encoder:Y"]
        assert manifest.kind == "joint" and manifest.status == "ok"
        assert manifest.corpus_hashes == {"X-Y": corpus_hash(corpus)}
        csv = loss_rows_to_csv(rows)
        assert csv.splitlines()[0] == LOSS_CSV_HEADER

    def test_additivity_every_step(self, data):
        lines, vocab = data
        corpus = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
        cfg = TrainingConfig(steps=25, warmup_steps=10, seed=5,
                             metric=DistanceMetric("correlation", 0.7), **SMALL)
        _, _, rows = joint_train(corpus, vocab["X"], vocab["Y"], cfg)
        for step, l_xx, l_yy, l_xy, l_yx, d, total, _lr in rows:
            assert total == l_xx + l_yy + l_xy + l_yx + 0.7 * d

    def test_same_seed_identical_everything(self, data):
        lines, vocab = data
        corpus = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
        cfg = TrainingConfig(steps=15, warmup_steps=5, seed=9, **SMALL)
        r1, _, rows1 = joint_train(corpus, vocab["X"], vocab["Y"], cfg)
        r2, _, rows2 = joint_train(corpus, vocab["X"], vocab["Y"], cfg)
        assert loss_rows_to_csv(rows1) == loss_rows_to_csv(rows2)
        assert r1.snapshot() == r2.snapshot()

    def test_different_seed_differs(self, data):
        lines, vocab = data
        corpus = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
        base = TrainingConfig(steps=10, warmup_steps=5, seed=9, **SMALL)
        other = TrainingConfig(steps=10, warmup_steps=5, seed=10, **SMALL)
        r1, _, _ = joint_train(corpus, vocab["X"], vocab["Y"], base)
        r2, _, _ = joint_train(corpus, vocab["X"], vocab["Y"], other)
        assert r1.snapshot() != r2.snapshot()

    def test_manifest_save(self, data, tmp_path):
        lines, vocab = data
        corpus = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
        cfg = TrainingConfig(steps=5, warmup_steps=2, seed=1, **SMALL)
        _, manifest, _ = joint_train(corpus, vocab["X"], vocab["Y"], cfg)
        path = tmp_path / "manifest.txt"
        manifest.save(path)
        text = path.read_text()
        assert "kind: joint" in text
        assert "config.seed: 1" in text
        assert "corpus_hash.X-Y:" in text


def one_row_batch_corpus():
    """The first 41 pairs of the `gen-data --seed 7` 2k-pair X-Y corpus with
    BPE-96 vocabularies learned on all 2000 lines: at batch_tokens 25,
    `make_batches` makes 30 batches, 22 of them (the first among them) of one row."""
    spec_x, spec_y = make_cipher_spec("X", 64, 7), make_cipher_spec("Y", 64, 8)
    base, _ = generate_cipher_lines(spec_x, spec_x, 2000, (3, 12), seed=7)
    lines_x = [cipher_oracle_translate(spec_x, spec_x, s) for s in base]
    lines_y = [cipher_oracle_translate(spec_x, spec_y, s) for s in base]
    vx = learn_bpe(normalize_lines(lines_x), "X", 96)
    vy = learn_bpe(normalize_lines(lines_y), "Y", 96)
    return preprocess(lines_x[:41], lines_y[:41], vx, vy), vx, vy


class TestOneRowBatch:
    def test_recorded_batch_plan(self):
        corpus, _, _ = one_row_batch_corpus()
        sizes = [b.size for b in make_batches(corpus, 25, 7)]
        assert len(sizes) == 30 and sizes.count(1) == 22 and sizes[0] == 1

    def test_correlation_fails_typed_with_step(self):
        corpus, vx, vy = one_row_batch_corpus()
        cfg = TrainingConfig(steps=5, warmup_steps=2, seed=7, **{**SMALL, "batch_tokens": 25})
        with pytest.raises(TrainingError, match="at least 2") as info:
            joint_train(corpus, vx, vy, cfg)
        assert info.value.step == 1
        manifest = info.value.manifest
        assert manifest.status == "failed" and manifest.failure_step == 1

    def test_l2_trains_on_one_row(self):
        corpus, vx, vy = one_row_batch_corpus()
        cfg = TrainingConfig(steps=3, warmup_steps=2, seed=7, metric=DistanceMetric("l2"),
                             **{**SMALL, "batch_tokens": 25})
        _, manifest, rows = joint_train(corpus, vx, vy, cfg)
        assert manifest.status == "ok" and len(rows) == 3


@pytest.fixture(scope="module")
def joint_registry(data):
    lines, vocab = data
    corpus = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
    cfg = TrainingConfig(steps=40, warmup_steps=10, seed=5, **SMALL)
    registry, _, _ = joint_train(corpus, vocab["X"], vocab["Y"], cfg)
    return registry


class TestAddLanguage:
    def test_existing_modules_frozen_and_byte_identical(self, data, joint_registry):
        lines, vocab = data
        before = {k: v for k, v in joint_registry.snapshot().items()}
        corpus = preprocess(lines["Z"], lines["X"], vocab["Z"], vocab["X"])
        cfg = TrainingConfig(steps=20, warmup_steps=5, seed=6, **SMALL)
        registry, manifest, rows = add_language(joint_registry, corpus, vocab["Z"], vocab["X"], cfg)
        after = registry.snapshot()
        for name in before:
            assert after[name] == before[name]
        assert "encoder:Z" in registry.modules
        assert "decoder:Z" not in registry.modules
        assert manifest.trained_modules == ["encoder:Z"]
        assert sorted(manifest.frozen_modules) == sorted(before)
        assert loss_rows_to_csv(rows, ADD_LOSS_CSV_HEADER).splitlines()[0] == ADD_LOSS_CSV_HEADER

    def test_both_directions_trains_decoder_too(self, data):
        lines, vocab = data
        corpus_xy = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
        cfg = TrainingConfig(steps=10, warmup_steps=5, seed=5, **SMALL)
        registry, _, _ = joint_train(corpus_xy, vocab["X"], vocab["Y"], cfg)
        corpus_zx = preprocess(lines["Z"], lines["X"], vocab["Z"], vocab["X"])
        registry, manifest, rows = add_language(
            registry, corpus_zx, vocab["Z"], vocab["X"], cfg, both_directions=True)
        assert sorted(manifest.trained_modules) == ["decoder:Z", "encoder:Z"]
        assert rows[0][2] > 0.0  # l_xz reported

    def test_manifest_records_distance_only_for_joint(self, data):
        # add-language trains no distance term, so its manifest names none
        lines, vocab = data
        cfg = TrainingConfig(steps=2, warmup_steps=1, seed=5, **SMALL)
        corpus_xy = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
        registry, joint, _ = joint_train(corpus_xy, vocab["X"], vocab["Y"], cfg)
        corpus_zx = preprocess(lines["Z"], lines["X"], vocab["Z"], vocab["X"])
        _, added, _ = add_language(registry, corpus_zx, vocab["Z"], vocab["X"], cfg)
        assert {"metric", "metric_weight"} <= set(joint.config)
        assert not {"metric", "metric_weight"} & set(added.config)
        assert added.config["steps"] == 2

    def test_vocabulary_hash_guard(self, data, joint_registry):
        lines, vocab = data
        wrong_x = learn_bpe(lines["X"][:10], "X", 22)
        corpus = preprocess(lines["Z"], lines["X"], vocab["Z"], wrong_x)
        cfg = TrainingConfig(steps=5, warmup_steps=2, seed=6, **SMALL)
        with pytest.raises(VocabularyMismatchError, match="differs"):
            add_language(joint_registry, corpus, vocab["Z"], wrong_x, cfg)

    def test_dim_guard(self, data, joint_registry):
        lines, vocab = data
        corpus = preprocess(lines["Z"], lines["X"], vocab["Z"], vocab["X"])
        cfg = TrainingConfig(steps=5, warmup_steps=2, seed=6, dim=8, n_blocks=1,
                             n_heads=2, ff_dim=16, batch_tokens=128)
        with pytest.raises(CompositionError, match="incompatible"):
            add_language(joint_registry, corpus, vocab["Z"], vocab["X"], cfg)

    @pytest.mark.parametrize("case, error, match", [
        ("vocabulary", VocabularyMismatchError, "differs"),
        ("dim", CompositionError, "incompatible"),
        ("encoder_registered", CompositionError, "encoder:Z.*already registered"),
        ("decoder_registered", CompositionError, "decoder:Z.*already registered"),
    ])
    def test_rejected_call_changes_nothing(self, data, case, error, match):
        lines, vocab = data
        arch = dict(dim=16, n_blocks=1, n_heads=2, ff_dim=32, seed=5)
        registry = ModuleRegistry()
        registry.add(EncoderModule("X", vocab["X"], **arch))
        registry.add(DecoderModule("X", vocab["X"], **arch))
        registry.add((EncoderModule if case == "encoder_registered" else DecoderModule)("Z", vocab["Z"], **arch))
        vocab_x = learn_bpe(lines["X"][:10], "X", 22) if case == "vocabulary" else vocab["X"]
        cfg = TrainingConfig(steps=5, warmup_steps=2, seed=6, **{**SMALL, "dim": 8 if case == "dim" else 16})
        corpus = preprocess(lines["Z"], lines["X"], vocab["Z"], vocab_x)

        def state():
            return {n: m.frozen for n, m in registry.modules.items()}, registry.snapshot()

        before = state()
        with pytest.raises(error, match=match):
            add_language(registry, corpus, vocab["Z"], vocab_x, cfg,
                         both_directions=case == "decoder_registered")
        assert state() == before

    def test_order_independent_encoder_bytes(self, data):
        lines, vocab = data
        spec_w = make_cipher_spec("W", 16, 40)
        from modnmt.corpus import cipher_oracle_translate
        spec_x = make_cipher_spec("X", 16, 11)
        lines_w = [cipher_oracle_translate(spec_x, spec_w, s) for s in lines["X"]]
        vocab_w = learn_bpe(lines_w, "W", 24)
        corpus_xy = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
        corpus_zx = preprocess(lines["Z"], lines["X"], vocab["Z"], vocab["X"])
        corpus_wx = preprocess(lines_w, lines["X"], vocab_w, vocab["X"])
        cfg_joint = TrainingConfig(steps=10, warmup_steps=5, seed=5, **SMALL)
        cfg_z = TrainingConfig(steps=12, warmup_steps=5, seed=21, **SMALL)
        cfg_w = TrainingConfig(steps=12, warmup_steps=5, seed=22, **SMALL)

        def run(order):
            registry, _, _ = joint_train(corpus_xy, vocab["X"], vocab["Y"], cfg_joint)
            for tag in order:
                if tag == "Z":
                    registry, _, _ = add_language(registry, corpus_zx, vocab["Z"], vocab["X"], cfg_z)
                else:
                    registry, _, _ = add_language(registry, corpus_wx, vocab_w, vocab["X"], cfg_w)
            snap = registry.snapshot()
            return snap["encoder:Z"], snap["encoder:W"]

        z_first = run("ZW")
        w_first = run("WZ")
        assert z_first[0] == w_first[0]
        assert z_first[1] == w_first[1]


def test_corpus_hash_sensitive_to_content(data):
    lines, vocab = data
    c1 = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
    c2 = preprocess(lines["X"][:-1], lines["Y"][:-1], vocab["X"], vocab["Y"])
    assert corpus_hash(c1) != corpus_hash(c2)
    assert corpus_hash(c1) == corpus_hash(c1)


def test_one_step_gradients_only_on_trained_parameters(data):
    """After one step of either phase every trained parameter holds a
    gradient and no frozen one does."""
    lines, vocab = data
    cfg = TrainingConfig(steps=1, warmup_steps=1, seed=5, **SMALL)
    corpus_xy = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
    registry, _, _ = joint_train(corpus_xy, vocab["X"], vocab["Y"], cfg)
    assert all(p.tensor.grad is not None for p in registry.parameters())
    corpus_zx = preprocess(lines["Z"], lines["X"], vocab["Z"], vocab["X"])
    registry, manifest, _ = add_language(registry, corpus_zx, vocab["Z"], vocab["X"], cfg, both_directions=True)
    assert sorted(manifest.trained_modules) == ["decoder:Z", "encoder:Z"]
    for name, module in registry.modules.items():
        trained = name in manifest.trained_modules
        assert all((p.tensor.grad is not None) == trained for p in module.parameters()), name

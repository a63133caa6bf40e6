"""End-to-end acceptance gates.

Each test prints a one-line verdict with the measured values so a run log
doubles as the acceptance report. The expensive fixtures (the 10k-sentence
joint run and the language-addition run) are session-scoped and shared.
"""

import hashlib
import time

import numpy as np
import pytest

from modnmt.analysis import collapse_indicator, extract_representations
from modnmt.cli import dispatch
from modnmt.corpus import (
    cipher_oracle_translate,
    generate_cipher_lines,
    make_batches,
    make_cipher_spec,
    preprocess,
)
from modnmt.evaluation import corpus_bleu, evaluate_direction
from modnmt.model import (
    DecoderModule,
    EncoderModule,
    decode_teacher_forced,
    load_checkpoint,
    save_checkpoint,
)
from modnmt.objective import correlation_distance
from modnmt.tensor import Tensor, cross_entropy, finite_difference_gradient
from modnmt.tokenizer import learn_bpe
from modnmt.trainer import TrainingConfig, add_language, joint_train
from modnmt.translator import TranslationRequest


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


# -- shared corpus / run fixtures ---------------------------------------------


@pytest.fixture(scope="session")
def data():
    """Four pairwise-aligned cipher languages over one latent stream.

    Base vocab 64, lengths 3-12, train seed 7: the calibration corpus the
    thresholds were pinned against.
    """
    specs = {L: make_cipher_spec(L, 64, 7 + i) for i, L in enumerate("XYZW")}
    first = specs["X"]
    base, _ = generate_cipher_lines(first, first, 10000, (3, 12), seed=7)
    test_base, _ = generate_cipher_lines(first, first, 200, (3, 12), seed=1007)
    lines = {L: [cipher_oracle_translate(first, s, t) for t in base] for L, s in specs.items()}
    test = {L: [cipher_oracle_translate(first, s, t) for t in test_base] for L, s in specs.items()}
    vocab = {L: learn_bpe(lines[L], L, 96) for L in specs}
    return specs, lines, test, vocab


@pytest.fixture(scope="session")
def joint_run(data, tmp_path_factory):
    """Joint X-Y training: 1200 steps, batch_tokens=1024, seed 7 (<= 5k-step cap)."""
    _, lines, _, vocab = data
    corpus = preprocess(lines["X"], lines["Y"], vocab["X"], vocab["Y"])
    config = TrainingConfig(steps=1200, batch_tokens=1024, seed=7)
    start = time.time()
    registry, manifest, rows = joint_train(corpus, vocab["X"], vocab["Y"], config)
    elapsed = time.time() - start
    ckpt = tmp_path_factory.mktemp("joint") / "checkpoint.bin"
    save_checkpoint(registry, ckpt)
    return registry, ckpt, elapsed


@pytest.fixture(scope="session")
def add_run(data, joint_run):
    """Incremental Z addition against the frozen joint checkpoint: 600 steps."""
    _, lines, _, vocab = data
    _, ckpt, _ = joint_run
    registry = load_checkpoint(ckpt, vocab)
    before = registry.snapshot()
    corpus = preprocess(lines["Z"], lines["X"], vocab["Z"], vocab["X"])
    config = TrainingConfig(steps=600, batch_tokens=1024, seed=11)
    registry, _, _ = add_language(registry, corpus, vocab["Z"], vocab["X"], config)
    return registry, before


# -- criterion 1: gradient correctness ----------------------------------------


def test_criterion_1_gradient_check(data):
    _, lines, _, vocab = data
    start = time.time()
    arch = dict(dim=16, n_blocks=2, n_heads=2, ff_dim=32, seed=13)
    enc = EncoderModule("X", vocab["X"], **arch)
    dec = DecoderModule("Y", vocab["Y"], **arch)
    corpus = preprocess(lines["X"][:4], lines["Y"][:4], vocab["X"], vocab["Y"])
    batch = make_batches(corpus, 10_000, seed=0)[0]
    assert batch.size == 4

    def loss_value():
        states, _ = enc.encode(batch.src_ids, batch.src_pad_mask)
        logits = decode_teacher_forced(dec, states, batch.src_pad_mask, batch.tgt_ids)
        return cross_entropy(logits, batch.tgt_ids[:, 1:], ~batch.tgt_pad_mask[:, 1:])

    loss_value().backward()
    worst = 0.0
    n_coords = 0
    for param in enc.parameters() + dec.parameters():
        fd = finite_difference_gradient(lambda: loss_value().item(), param.tensor, eps=1e-4)
        scale = max(np.abs(fd).max(), 1e-8)
        worst = max(worst, float(np.abs(param.tensor.grad - fd).max() / scale))
        n_coords += fd.size
    elapsed = time.time() - start
    ok = worst < 1e-3 and elapsed < 120
    verdict("criterion 1", ok,
            f"worst relative gradient error {worst:.3e} over {n_coords} coordinates "
            f"(gate < 1e-3) in {elapsed:.1f}s (gate < 120s)")
    assert worst < 1e-3
    assert elapsed < 120


# -- criterion 2: correlation-distance identities -----------------------------


def test_criterion_2_correlation_identities():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 8))
    d_self = correlation_distance(Tensor(x), Tensor(x)).item()
    d_neg = correlation_distance(Tensor(x), Tensor(-x)).item()
    y = rng.normal(size=(16, 8))
    d_base = correlation_distance(Tensor(x), Tensor(y)).item()
    d_affine = correlation_distance(Tensor(1.7 * x + 0.3), Tensor(y)).item()
    d_hand = correlation_distance(Tensor([[0.0], [2.0]]), Tensor([[1.0], [3.0]])).item()
    errors = {
        "d(X,X)": abs(d_self),
        "d(X,-X)-2": abs(d_neg - 2.0),
        "affine": abs(d_affine - d_base),
        "B=2 hand": abs(d_hand),
    }
    worst = max(errors.values())
    verdict("criterion 2", worst < 1e-9,
            f"identity deviations {', '.join(f'{k}={v:.2e}' for k, v in errors.items())} "
            f"(gate < 1e-9)")
    assert worst < 1e-9


# -- criterion 3: loss additivity ---------------------------------------------


def test_criterion_3_loss_additivity(data):
    _, lines, _, vocab = data
    corpus = preprocess(lines["X"][:200], lines["Y"][:200], vocab["X"], vocab["Y"])
    config = TrainingConfig(steps=200, batch_tokens=256, warmup_steps=50, seed=3,
                            metric="correlation", metric_weight=1.0,
                            dim=16, n_blocks=1, n_heads=2, ff_dim=32)
    _, _, rows = joint_train(corpus, vocab["X"], vocab["Y"], config)
    assert len(rows) == 200
    exact = all(
        total == ((l_xx + l_yy) + l_xy) + l_yx + d
        for _, l_xx, l_yy, l_xy, l_yx, d, total, _lr in rows
    )
    verdict("criterion 3", exact, "total == sum of components exactly at all 200 steps")
    assert exact


# -- criteria 4-5: joint autoencoding and translation -------------------------


def test_criterion_4_autoencoding(data, joint_run):
    _, _, test, _ = data
    registry, _, elapsed = joint_run
    scores = {}
    for lang in "XY":
        req = TranslationRequest(lang, lang, "direct")
        scores[lang] = evaluate_direction(registry, req, test[lang], test[lang]).bleu
    ok = min(scores.values()) >= 95 and elapsed < 900
    verdict("criterion 4", ok,
            f"autoencode BLEU X={scores['X']:.2f} Y={scores['Y']:.2f} (gate >= 95), "
            f"training took {elapsed:.0f}s (gate < 900s)")
    assert min(scores.values()) >= 95
    assert elapsed < 900


def test_criterion_5_translation(data, joint_run):
    _, _, test, _ = data
    registry, _, _ = joint_run
    xy = evaluate_direction(registry, TranslationRequest("X", "Y", "direct"),
                            test["X"], test["Y"]).bleu
    yx = evaluate_direction(registry, TranslationRequest("Y", "X", "direct"),
                            test["Y"], test["X"]).bleu
    verdict("criterion 5", min(xy, yx) >= 90,
            f"BLEU X->Y={xy:.2f} Y->X={yx:.2f} against oracle references (gate >= 90)")
    assert min(xy, yx) >= 90


# -- criteria 6-7: incremental addition and zero-shot -------------------------


def test_criterion_6_incremental_addition(data, add_run):
    _, _, test, _ = data
    registry, before = add_run
    zx = evaluate_direction(registry, TranslationRequest("Z", "X", "direct"),
                            test["Z"], test["X"]).bleu
    after = registry.snapshot()
    untouched = all(after[name] == blob for name, blob in before.items())
    new_modules = sorted(set(after) - set(before))
    ok = zx >= 90 and untouched and new_modules == ["encoder:Z"]
    verdict("criterion 6", ok,
            f"BLEU Z->X={zx:.2f} (gate >= 90); pre-existing modules byte-identical: "
            f"{untouched}; new modules: {new_modules}")
    assert zx >= 90
    assert untouched
    assert new_modules == ["encoder:Z"]


def test_criterion_7_zero_shot(data, joint_run, add_run):
    _, _, test, vocab = data
    registry, _ = add_run
    zs = evaluate_direction(registry, TranslationRequest("Z", "Y", "zero_shot"),
                            test["Z"], test["Y"]).bleu
    pv = evaluate_direction(registry, TranslationRequest("Z", "Y", "pivot", via="X"),
                            test["Z"], test["Y"]).bleu
    _, ckpt, _ = joint_run
    control = load_checkpoint(ckpt, vocab)
    control.add(EncoderModule("Z", vocab["Z"], seed=99))
    untrained = evaluate_direction(control, TranslationRequest("Z", "Y", "zero_shot"),
                                   test["Z"], test["Y"]).bleu
    ok = zs >= 25 and untrained < 1 and pv >= zs
    verdict("criterion 7", ok,
            f"zero-shot Z->Y={zs:.2f} (gate >= 25), untrained control={untrained:.2f} "
            f"(gate < 1), pivot via X={pv:.2f} (gate >= zero-shot)")
    assert zs >= 25
    assert untrained < 1
    assert pv >= zs


# -- criterion 8: order independence ------------------------------------------


def test_criterion_8_order_independence(data, joint_run):
    _, lines, _, vocab = data
    _, ckpt, _ = joint_run
    corpus_z = preprocess(lines["Z"], lines["X"], vocab["Z"], vocab["X"])
    corpus_w = preprocess(lines["W"], lines["X"], vocab["W"], vocab["X"])
    cfg_z = TrainingConfig(steps=120, batch_tokens=1024, warmup_steps=40, seed=11)
    cfg_w = TrainingConfig(steps=120, batch_tokens=1024, warmup_steps=40, seed=12)

    def run(order):
        registry = load_checkpoint(ckpt, vocab)
        for tag in order:
            corpus = corpus_z if tag == "Z" else corpus_w
            v = vocab[tag]
            cfg = cfg_z if tag == "Z" else cfg_w
            registry, _, _ = add_language(registry, corpus, v, vocab["X"], cfg)
        snap = registry.snapshot()
        return snap["encoder:Z"], snap["encoder:W"]

    z1, w1 = run("ZW")
    z2, w2 = run("WZ")
    ok = z1 == z2 and w1 == w2
    verdict("criterion 8", ok,
            f"e_Z bit-identical across addition orders: {z1 == z2}; "
            f"e_W bit-identical: {w1 == w2}")
    assert z1 == z2
    assert w1 == w2


# -- criterion 9: collapse reproduction ---------------------------------------


def test_criterion_9_collapse(data):
    specs, lines, test, _ = data
    lx = lines["X"][:2000]
    ly = lines["Y"][:2000]
    vx = learn_bpe(lx, "X", 96)
    vy = learn_bpe(ly, "Y", 96)
    corpus = preprocess(lx, ly, vx, vy)
    sample = {"X": test["X"][:130], "Y": test["Y"][:130]}

    def run(kind):
        config = TrainingConfig(steps=2000, batch_tokens=256, warmup_steps=200, seed=7,
                                metric=kind, metric_weight=1.0,
                                dim=32, n_blocks=2, n_heads=4, ff_dim=128)
        registry, _, _ = joint_train(corpus, vx, vy, config)
        dumps = extract_representations(registry, sample)
        return float(np.mean([collapse_indicator(dumps[lang]).mean_pairwise_cosine
                              for lang in "XY"]))

    cos_l2 = run("l2")
    cos_corr = run("correlation")
    verdict("criterion 9", cos_l2 > cos_corr,
            f"within-language mean pairwise cosine at step 2k: l2={cos_l2:.4f}, "
            f"correlation={cos_corr:.4f} (gate: l2 strictly greater)")
    assert cos_l2 > cos_corr


# -- criterion 10: BLEU oracle ------------------------------------------------


def test_criterion_10_bleu_oracle():
    identity = corpus_bleu(["a b c d", "e f g"], ["a b c d", "e f g"]).bleu
    zero = corpus_bleu(["a b x d"], ["a b c d"]).bleu
    clipped = corpus_bleu(["a a a a"], ["a b c d"]).precisions[0]
    ok = identity == 100.0 and zero == 0.0 and clipped == 0.25
    verdict("criterion 10", ok,
            f"identity={identity}, unsmoothed-zero={zero}, clipped p1={clipped} "
            f"(gates: 100.0 / 0.0 / 0.25 exactly)")
    assert identity == 100.0
    assert zero == 0.0
    assert clipped == 0.25


# -- criterion 11: CLI determinism --------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert dispatch(["gen-data", "--base-vocab", "16", "--langs", "3", "--n", "120",
                     "--n-test", "0", "--len-min", "3", "--len-max", "8",
                     "--seed", "21", "--out", str(data_dir)]) == 0
    for lang in "XYZ":
        assert dispatch(["build-vocab", "--corpus", str(data_dir / f"{lang}.txt"),
                         "--language", lang, "--size", "24",
                         "--out", str(data_dir / f"vocab_{lang}.txt")]) == 0
    small = ["--steps", "40", "--warmup-steps", "10", "--batch-tokens", "128",
             "--dim", "16", "--n-blocks", "1", "--n-heads", "2", "--ff-dim", "32",
             "--seed", "21"]

    def train(out):
        assert dispatch(["train-joint",
                         "--src-corpus", str(data_dir / "X.txt"),
                         "--tgt-corpus", str(data_dir / "Y.txt"),
                         "--src-vocab", str(data_dir / "vocab_X.txt"),
                         "--tgt-vocab", str(data_dir / "vocab_Y.txt"),
                         "--out", str(out), *small]) == 0

    def add(src_run, out):
        assert dispatch(["add-language", "--from", str(src_run / "checkpoint.bin"),
                         "--src-corpus", str(data_dir / "Z.txt"),
                         "--tgt-corpus", str(data_dir / "X.txt"),
                         "--new-vocab", str(data_dir / "vocab_Z.txt"),
                         "--shared-lang", "X", "--out", str(out), *small]) == 0

    def digest(run):
        return (hashlib.sha256((run / "checkpoint.bin").read_bytes()).hexdigest(),
                (run / "loss.csv").read_text())

    train(tmp_path / "j1")
    train(tmp_path / "j2")
    joint_same = digest(tmp_path / "j1") == digest(tmp_path / "j2")
    add(tmp_path / "j1", tmp_path / "a1")
    add(tmp_path / "j1", tmp_path / "a2")
    add_same = digest(tmp_path / "a1") == digest(tmp_path / "a2")
    verdict("criterion 11", joint_same and add_same,
            f"train-joint reruns identical (checkpoint hash + loss CSV): {joint_same}; "
            f"add-language reruns identical: {add_same}")
    assert joint_same
    assert add_same

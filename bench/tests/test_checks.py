"""Every check of the benchmark can fail, and the span arithmetic is right.

    python3 -m pytest -q bench/tests
"""

import json

import numpy as np
import pytest

import checks
import inputs
import layers
from modnmt import evaluation, model, translator
from modnmt.tensor import no_grad
from spans import Span, Tracer, per_unit, self_times


@pytest.fixture(scope="module")
def untrained(tmp_path_factory):
    """A checkpoint with the decode checkpoint's vocabularies and no training."""
    inp = inputs.joint_inputs(inputs.CKPT_KEY)
    vocabs = {"X": inp.vocab_x, "Y": inp.vocab_y}
    registry = model.ModuleRegistry()
    for lang, vocab in vocabs.items():
        registry.add(model.EncoderModule(lang, vocab, seed=3, **inputs.ARCH))
        registry.add(model.DecoderModule(lang, vocab, seed=3, **inputs.ARCH))
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.bin"
    model.save_checkpoint(registry, path)
    return model.load_checkpoint(path, vocabs)


def test_untrained_checkpoint_fails_bleu_floor(untrained):
    src, refs = inputs.heldout(1, 64)
    hyps = translator.translate_corpus(untrained, translator.TranslationRequest("X", "Y"), src)
    problems = checks.bleu_floor(hyps, refs)
    assert len(problems) == 1 and "not above the floor" in problems[0]
    assert checks.bleu_floor(refs, refs) == []


def _greedy(registry, lines):
    enc, dec = registry.encoder("X"), registry.decoder("Y")
    rows = [enc.vocab.encode(line).ids for line in lines]
    width = max(map(len, rows))
    ids = np.array([row + [0] * (width - len(row)) for row in rows])
    mask = ids == 0
    with no_grad():
        states, _ = enc.encode(ids, mask)
    max_len = 12
    return dec, states, mask, max_len, translator.greedy_decode(dec, states, mask, max_len)


def test_flipped_token_fails_greedy_argmax(untrained):
    src, _ = inputs.heldout(2, 6)
    dec, states, mask, max_len, out = _greedy(untrained, src)
    assert checks.greedy_argmax(dec, states, mask, max_len, out) == []
    with no_grad():
        first = dec.forward(states, mask, np.full((len(out), 1), 1)).data[0, 0]
    flipped = [list(row) for row in out]
    flipped[0][0] = int(np.argmin(first))
    problems = checks.greedy_argmax(dec, states, mask, max_len, flipped)
    assert "row 0 position 0: token" in problems[0]


def test_changed_byte_fails_freeze_check(untrained):
    before = checks.module_digests(untrained)
    assert checks.frozen_unchanged(before, checks.module_digests(untrained), set()) == []
    data = untrained.decoder("X").params["out_proj.b"].tensor.data
    raw = data.view(np.uint8)
    raw[3] ^= 1
    try:
        problems = checks.frozen_unchanged(before, checks.module_digests(untrained), set())
    finally:
        raw[3] ^= 1
    assert problems == ["frozen module decoder:X changed"]


def test_added_module_must_be_the_new_one(untrained):
    before = checks.module_digests(untrained)
    after = dict(before, **{"encoder:W": "0"})
    assert checks.frozen_unchanged(before, after, {"encoder:W"}) == []
    assert checks.frozen_unchanged(before, after, {"encoder:Z"}) != []


def test_loss_row_checks_fail():
    row = [1, 1.0, 2.0, 3.0, 4.0, 0.5, 10.5, 1e-3]
    assert checks.joint_rows([row]) == []
    assert checks.joint_rows([row[:6] + [10.5 + 1e-12, 1e-3]]) != []
    assert checks.joint_rows([row[:1] + [float("nan")] + row[2:]]) != []
    assert checks.loss_falls([5.0, 4.0, 3.0, 2.0]) == []
    assert checks.loss_falls([2.0, 3.0, 4.0, 5.0]) != []


def test_bleu_matches_the_program():
    src, refs = inputs.heldout(3, 40)
    rng = np.random.default_rng(0)
    hyps = [" ".join(w for w in r.split() if rng.random() > 0.2) for r in refs]
    assert checks.bleu(hyps, refs) == pytest.approx(evaluation.corpus_bleu(hyps, refs).bleu, abs=1e-9)


def test_self_time_on_hand_made_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b", 4.5, 6.0, parent=0),
        Span("other", 11.0, 12.0),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    assert per_unit(spans, {"root"}, {"a", "b"}) == pytest.approx([4.5])
    assert per_unit(spans, {"root"}, {"root", "a"}, "self") == pytest.approx([7.5])
    assert per_unit(spans, {"a", "other"}, {"a.child", "other"}) == pytest.approx([1.0, 1.0])


def test_tracer_records_nesting_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.outer
    ticks = iter(range(100))
    with Tracer(clock=lambda: float(next(ticks))) as tracer:
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner", count=lambda span, args, result: span.counts.update(r=result))
        assert Layer().outer() == 2
    assert [(s.name, s.parent, s.counts) for s in tracer.spans] == [("outer", None, {}), ("inner", 0, {"r": 1})]
    assert Layer.outer is original


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()

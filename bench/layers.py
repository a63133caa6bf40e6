"""Which program functions the traced run wraps, and the per-layer metrics
reduced from their spans.

Units: a training step ("trainer.step", from the `lr_schedule` call that
starts it to the return of the `Adam.step` that ends it), a translation
chunk ("bench.chunk", one `translate_corpus` call on 64 sentences) and a
set-up repetition ("bench.setup"). A time metric is the median, over the
units in which the layer ran, of the layer's total time in that unit; its
`_n` twin is the number of those units (0 when the workload bypasses the
layer, and then the time reads 0 too).
"""

from __future__ import annotations

import numpy as np

from modnmt import corpus, model, objective, optim, tensor, tokenizer, trainer, translator

from spans import Tracer, median_or_zero, per_unit

STEP, CHUNK, SETUP = "trainer.step", "bench.chunk", "bench.setup"
WORK = {STEP, CHUNK}
TRANSLATOR = {"translator.translate_corpus", "translator.greedy_decode", "translator.beam_decode"}


def _positions(span, args, result):
    rows, length = np.shape(args[3])
    span.counts["calls"] = 1
    span.counts["positions"] = rows * length


def _params_updated(span, args, result):
    span.counts["params"] = sum(1 for p in args[1] if not p.frozen and p.tensor.requires_grad
                                and p.tensor.grad is not None)


def _fill(span, args, result):
    span.counts["real"] = sum(int((~b.src_pad_mask).sum() + (~b.tgt_pad_mask).sum()) for b in result)
    span.counts["slots"] = sum(b.src_ids.size + b.tgt_ids.size for b in result)


def _tokens_greedy(span, args, result):
    span.counts["tokens"] = sum(len(ids) for ids in result)


def _tokens_beam(span, args, result):
    span.counts["tokens"] = len(result)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the program looks them up."""
    w = tracer.wrap
    w(tensor.Tensor, "backward", "tensor.backward")
    for owner in (objective, trainer):
        w(owner, "cross_entropy", "tensor.cross_entropy")
    w(model.EncoderModule, "encode", "model.encode")
    w(model.DecoderModule, "forward", "model.decoder_forward", count=_positions)
    for cls in (model.EncoderModule, model.DecoderModule):
        w(cls, "__init__", "model.build")
    w(model, "load_checkpoint", "model.load_checkpoint")
    w(model, "save_checkpoint", "model.save_checkpoint")
    w(trainer, "joint_loss", "objective.joint_loss")
    w(objective, "pairwise_distance", "objective.distance")
    w(optim.Adam, "step", "optim.adam_step", count=_params_updated, closes=STEP)
    w(trainer, "lr_schedule", "trainer.lr_schedule", opens=STEP)
    w(corpus, "preprocess", "corpus.preprocess")
    w(trainer, "make_batches", "corpus.make_batches", count=_fill)
    w(tokenizer.Vocabulary, "encode", "tokenizer.encode")
    w(translator, "translate_corpus", "translator.translate_corpus")
    w(translator, "greedy_decode", "translator.greedy_decode", count=_tokens_greedy)
    w(translator, "beam_decode", "translator.beam_decode", count=_tokens_beam)


# (metric, span names, what is summed per unit, unit spans); "calls" makes
# every span of the metric its own unit.
TIMES = [
    ("tensor.backward_s", {"tensor.backward"}, "time", WORK),
    ("tensor.cross_entropy_s", {"tensor.cross_entropy"}, "time", WORK),
    ("model.encode_s", {"model.encode"}, "time", WORK),
    ("model.decoder_forward_s", {"model.decoder_forward"}, "time", WORK),
    ("model.build_s", {"model.build"}, "time", {SETUP}),
    ("model.load_checkpoint_s", {"model.load_checkpoint"}, "time", {SETUP}),
    ("model.save_checkpoint_s", {"model.save_checkpoint"}, "time", "calls"),
    ("objective.joint_loss_s", {"objective.joint_loss"}, "self", WORK),
    ("objective.distance_s", {"objective.distance"}, "time", WORK),
    ("optim.adam_step_s", {"optim.adam_step"}, "time", WORK),
    ("corpus.preprocess_s", {"corpus.preprocess"}, "time", {SETUP}),
    ("corpus.make_batches_s", {"corpus.make_batches"}, "time", "calls"),
    ("tokenizer.encode_s", {"tokenizer.encode"}, "time", WORK | {SETUP}),
    ("trainer.step_s", {STEP}, "time", {STEP}),
    ("trainer.loop_self_s", {STEP}, "self", {STEP}),
    ("translator.greedy_decode_s", {"translator.greedy_decode"}, "time", WORK),
    ("translator.beam_decode_s", {"translator.beam_decode"}, "time", WORK),
    ("translator.self_s", TRANSLATOR, "self", WORK),
]
COUNTS = [
    ("model.decoder_forward_calls", {"model.decoder_forward"}, "calls", WORK),
    ("model.decoder_positions", {"model.decoder_forward"}, "positions", WORK),
    ("optim.params_updated", {"optim.adam_step"}, "params", WORK),
    ("translator.tokens_emitted", {"translator.greedy_decode", "translator.beam_decode"}, "tokens", WORK),
]
RATIOS = [
    # (metric, numerator spans and counter, denominator spans and counter, units)
    ("corpus.token_fill", {"corpus.make_batches"}, "real", {"corpus.make_batches"}, "slots", "calls"),
    ("translator.position_share", {"translator.greedy_decode", "translator.beam_decode"}, "tokens",
     {"model.decoder_forward"}, "positions", {CHUNK}),
]


def _samples(spans, names, what, units):
    units = names if units == "calls" else units
    return per_unit(spans, units, names, what)


def metrics(spans) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for name, names, what, units in TIMES:
        samples = _samples(spans, names, what, units)
        out[name] = (median_or_zero(samples), "s")
        out[name[:-2] + "_n"] = (len(samples), "count")
    for name, names, what, units in COUNTS:
        out[name] = (median_or_zero(_samples(spans, names, what, units)), "count")
    for name, num_names, num, den_names, den, units in RATIOS:
        top = sum(_samples(spans, num_names, num, units))
        bottom = sum(_samples(spans, den_names, den, units))
        out[name] = (top / bottom if bottom else 0.0, "ratio")
    return out


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, (_, unit) in metrics([]).items()]

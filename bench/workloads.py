"""The four workloads: seeded inputs, the timed set-up, the repeated units of
timed work, and the checks of their outputs.

A run is a closed loop of whole rounds. A round repeats the set-up
SETUP_REPS times, each repetition timed, and then runs the workload's units
of work on the last set-up's state, each unit timed on its own. A rate is
the median over units of a unit's work over its time, so that a slow spell
of the machine, or a chunk held open by one runaway sentence, moves it less
than it would move a total.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import statistics
import time

import checks
import inputs
from modnmt import corpus as mcorpus
from modnmt import model as mmodel
from modnmt import tokenizer as mtok
from modnmt import trainer as mtrainer
from modnmt import translator as mtranslator

SETUP_REPS = 3
CHUNK = 64  # translate_corpus's default chunk


def _non_pad(batch) -> int:
    return int((~batch.src_pad_mask).sum() + (~batch.tgt_pad_mask).sum())


def planned_batches(corp, config) -> list:
    """The batches `joint_train`/`add_language` consume, in order, made with the
    same public `make_batches` calls (seed + epoch, reshuffled each epoch)."""
    out, epoch = [], 0
    while len(out) < config.steps:
        out += mcorpus.make_batches(corp, config.batch_tokens, config.seed + epoch)
        epoch += 1
    return out[: config.steps]


class Workload:
    unit_span = "bench.unit"

    def __init__(self, scratch):
        self.scratch = scratch
        self.problems: list[str] = []
        self.digests: set[str] = set()  # of the checkpoints a training workload saves

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def finish(self) -> None:
        if len(self.digests) > 1:
            self.problems.append(f"{len(self.digests)} different checkpoints from one seed")

    def extra(self) -> dict:
        """Figures printed on their own line (not metrics)."""
        return {}

    def _save(self, registry) -> None:
        path = self.scratch / "checkpoint.bin"
        mmodel.save_checkpoint(registry, path)
        self.digests.add(hashlib.sha256(path.read_bytes()).hexdigest())


class JointTrain(Workload):
    """The first STEPS steps of `joint_train` on a seeded 2k-pair X-Y corpus."""

    STEPS = 12

    def __init__(self, seed, scratch):
        super().__init__(scratch)
        self.inp = inputs.joint_inputs(seed)
        self.config = inputs.config(self.STEPS)
        corp = mcorpus.preprocess(self.inp.lines_x, self.inp.lines_y, self.inp.vocab_x, self.inp.vocab_y)
        batches = planned_batches(corp, self.config)
        self.pairs = sum(b.size for b in batches)
        self.tokens = sum(_non_pad(b) for b in batches)

    def setup(self):
        inp = self.inp
        corp = mcorpus.preprocess(inp.lines_x, inp.lines_y, inp.vocab_x, inp.vocab_y)
        for lang, vocab in (("X", inp.vocab_x), ("Y", inp.vocab_y)):
            for cls in (mmodel.EncoderModule, mmodel.DecoderModule):
                cls(lang, vocab, seed=self.config.seed, **inputs.ARCH)
        return corp

    def units(self, corp):
        inp = self.inp
        return [("steps", lambda: mtrainer.joint_train(corp, inp.vocab_x, inp.vocab_y, self.config))]

    def check(self, key, result) -> None:
        registry, _, rows = result
        self.problems += checks.joint_rows(rows)
        self.problems += checks.loss_falls([row[6] for row in rows])
        self._save(registry)

    def work(self, key):
        return self.STEPS, self.pairs, self.tokens


class AddLanguage(Workload):
    """One epoch of `add_language` of a seeded Z against the checkpoint's frozen decoder:X."""

    def __init__(self, seed, scratch):
        super().__init__(scratch)
        ckpt = inputs.decode_checkpoint_dir()
        self.ckpt = ckpt / "checkpoint.bin"
        self.vocabs = {lang: mtok.Vocabulary.load(ckpt / f"vocab_{lang}.txt") for lang in "XY"}
        self.lines_z, self.lines_x, self.vocab_z = inputs.add_inputs(seed)
        corp = mcorpus.preprocess(self.lines_z, self.lines_x, self.vocab_z, self.vocabs["X"])
        epoch = mcorpus.make_batches(corp, inputs.BATCH_TOKENS, inputs.TRAIN_SEED)
        self.config = inputs.config(len(epoch))
        self.pairs = len(corp)
        self.tokens = sum(_non_pad(b) for b in epoch)

    def setup(self):
        registry = mmodel.load_checkpoint(self.ckpt, self.vocabs)
        corp = mcorpus.preprocess(self.lines_z, self.lines_x, self.vocab_z, self.vocabs["X"])
        mmodel.EncoderModule("Z", self.vocab_z, seed=self.config.seed, **inputs.ARCH)
        return registry, corp

    def units(self, state):
        registry, corp = state
        self.before = checks.module_digests(registry)
        return [("epoch", lambda: mtrainer.add_language(registry, corp, self.vocab_z,
                                                         self.vocabs["X"], self.config))]

    def check(self, key, result) -> None:
        registry, _, rows = result
        self.problems += checks.frozen_unchanged(self.before, checks.module_digests(registry),
                                                 {"encoder:Z"})
        totals = [row[3] for row in rows]
        if not all(math.isfinite(v) for v in totals):
            self.problems.append("non-finite add-language loss")
        self.problems += checks.loss_falls(totals)
        self._save(registry)

    def work(self, key):
        return self.config.steps, self.pairs, self.tokens


class Translate(Workload):
    """`translate_corpus` X->Y over a seeded held-out set, one call per 64-sentence
    chunk, chunks taken in order (from the start again if time remains).

    The decoder's ids are recorded by a pass-through wrapper around the
    decode function (one call per chunk or sentence, a few microseconds), so
    that every chunk's output can be checked after its timing.
    """

    unit_span = "bench.chunk"
    SLICE = 8  # sentences on which width-1 beam must equal greedy

    def __init__(self, seed, scratch, decode: str, chunks: int, per_round: int):
        super().__init__(scratch)
        self.ckpt = inputs.decode_checkpoint_dir()
        self.src, self.refs = inputs.heldout(seed, chunks * CHUNK)
        self.request = mtranslator.TranslationRequest("X", "Y", decode=decode, beam_width=4)
        self.decoder = "greedy_decode" if decode == "greedy" else "beam_decode"
        self.chunks, self.per_round, self.next = chunks, per_round, 0
        self.texts: dict[int, list[str]] = {}
        self.tokens: dict[int, int] = {}
        self.calls: list = []
        self.bleu = 0.0

    def __enter__(self):
        original = getattr(mtranslator, self.decoder)

        def recording(*args):
            result = original(*args)
            self.calls.append((args, result))
            return result

        setattr(mtranslator, self.decoder, recording)
        self._original = original
        return self

    def __exit__(self, *exc):
        setattr(mtranslator, self.decoder, self._original)
        return False

    def _chunk(self, key: int, lines: list[str]) -> list[str]:
        return lines[key * CHUNK:(key + 1) * CHUNK]

    def setup(self):
        vocabs = {lang: mtok.Vocabulary.load(self.ckpt / f"vocab_{lang}.txt") for lang in "XY"}
        return mmodel.load_checkpoint(self.ckpt / "checkpoint.bin", vocabs)

    def units(self, registry):
        self.registry = registry
        keys = [(self.next + i) % self.chunks for i in range(self.per_round)]
        self.next = (keys[-1] + 1) % self.chunks
        return [(k, lambda k=k: mtranslator.translate_corpus(registry, self.request,
                                                             self._chunk(k, self.src)))
                for k in keys]

    def check(self, key, result) -> None:
        calls, self.calls = self.calls, []
        if key in self.texts:
            if result != self.texts[key]:
                self.problems.append(f"chunk {key} translated differently the second time")
            return
        self.texts[key] = result
        if self.request.decode == "greedy":
            (dec, states, mask, max_len), ids = calls[0]
            self.problems += checks.greedy_argmax(dec, states, mask, max_len, ids)
        else:
            ids = [result for _, result in calls]
            self.problems += checks.ends_in_eos_or_cap(ids, [args[4] for args, _ in calls])
        vocab = self.registry.decoder("Y").vocab
        if [vocab.decode(row) for row in ids] != result:
            self.problems.append(f"chunk {key}: decoded ids differ from the translated text")
        self.tokens[key] = sum(len(row) for row in ids)

    def work(self, key):
        return CHUNK, CHUNK, self.tokens[key]

    def finish(self) -> None:
        hyps = [t for k in sorted(self.texts) for t in self.texts[k]]
        refs = [r for k in sorted(self.texts) for r in self._chunk(k, self.refs)]
        self.bleu = checks.bleu(hyps, refs)
        self.problems += checks.bleu_floor(hyps, refs)
        if self.request.decode == "beam":
            self._width_one_equals_greedy(self.registry)

    def _width_one_equals_greedy(self, registry) -> None:
        greedy = mtranslator.TranslationRequest("X", "Y")
        beam1 = mtranslator.TranslationRequest("X", "Y", decode="beam", beam_width=1)
        for line in self.src[: self.SLICE]:
            a = mtranslator.translate_corpus(registry, greedy, [line])
            b = mtranslator.translate_corpus(registry, beam1, [line])
            if a != b:
                self.problems.append(f"width-1 beam {b} differs from greedy {a}")

    def extra(self) -> dict:
        return {"bleu": round(self.bleu, 4), "chunks_checked": len(self.texts)}


def make(name: str, seed: int, scratch):
    if name == "joint-train":
        return JointTrain(seed, scratch)
    if name == "add-language":
        return AddLanguage(seed, scratch)
    if name == "translate-greedy":
        return Translate(seed, scratch, "greedy", chunks=128, per_round=4)
    if name == "translate-beam":
        return Translate(seed, scratch, "beam", chunks=16, per_round=1)
    raise ValueError(f"unknown workload {name!r}")


def run(workload: Workload, seconds: float, tracer=None) -> dict:
    """Drive `workload` in rounds until `seconds` have passed; return its figures.

    Rates are medians over units of each unit's work over its time.
    """
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    clock = time.perf_counter
    attempted = 0
    setup_times: list[float] = []
    rates: list[tuple[float, float]] = []
    rounds = 0
    with workload:
        start = clock()
        while True:
            for _ in range(SETUP_REPS):
                with span("bench.setup"):
                    t0 = clock()
                    state = workload.setup()
                    setup_times.append(clock() - t0)
            for key, fn in workload.units(state):
                with span(workload.unit_span):
                    t0 = clock()
                    out = fn()
                    elapsed = clock() - t0
                workload.check(key, out)
                ops, sents, tokens = workload.work(key)
                attempted += ops
                rates.append((sents / elapsed, tokens / elapsed))
            rounds += 1
            if clock() - start >= seconds:
                break
        workload.finish()
    return {
        "attempted": attempted,
        "rounds": rounds,
        "units": len(rates),
        "setup_s": statistics.median(setup_times),
        "setup_n": len(setup_times),
        "sents_per_s": statistics.median(r[0] for r in rates),
        "tokens_per_s": statistics.median(r[1] for r in rates),
        "unit_rates": [round(r[0], 3) for r in rates],
    }


def scratch_dir():
    path = inputs.CACHE_DIR / f"run-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def remove(path) -> None:
    shutil.rmtree(path, ignore_errors=True)

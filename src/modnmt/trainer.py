"""Training schedules: joint bilingual training and incremental language
addition against a frozen decoder, plus the warmup learning-rate schedule.

Runs are deterministic: module initialization derives from the config seed,
batch shuffling from seed + epoch, and all math is float64, so identical
configs under the same BLAS thread count reproduce identical checkpoints bit
for bit.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field

from .corpus import ParallelCorpus, make_batches
from .model import DecoderModule, EncoderModule, ModuleRegistry, decode_teacher_forced
from .objective import DistanceMetric, joint_loss
from .optim import Adam
from .tensor import GradientError, cross_entropy
from .tokenizer import Vocabulary

log = logging.getLogger(__name__)

LOSS_CSV_HEADER = "step,l_xx,l_yy,l_xy,l_yx,d,total,lr"


class TrainingError(RuntimeError):
    """A run failed at `step`; `manifest` is the run's, marked failed."""

    def __init__(self, message: str, step: int, manifest: RunManifest):
        super().__init__(message)
        self.step = step
        self.manifest = manifest


class VocabularyMismatchError(ValueError):
    """The shared language's vocabulary differs between training phases."""


@dataclass
class TrainingConfig:
    steps: int = 1200
    batch_tokens: int = 1024
    lr_peak: float = 1e-3
    warmup_steps: int = 200
    seed: int = 7
    metric: DistanceMetric = field(default_factory=DistanceMetric)
    eval_every: int = 0
    dim: int = 64
    n_blocks: int = 2
    n_heads: int = 4
    ff_dim: int = 256

    def __post_init__(self):
        if self.steps < 1 or self.warmup_steps < 1:
            raise ValueError("steps and warmup_steps must be >= 1")

    def as_dict(self) -> dict:
        return {
            "steps": self.steps, "batch_tokens": self.batch_tokens,
            "lr_peak": self.lr_peak, "warmup_steps": self.warmup_steps,
            "seed": self.seed, "metric": self.metric.kind,
            "metric_weight": self.metric.weight, "eval_every": self.eval_every,
            "dim": self.dim, "n_blocks": self.n_blocks,
            "n_heads": self.n_heads, "ff_dim": self.ff_dim,
        }


@dataclass
class RunManifest:
    kind: str  # joint | add_language
    config: dict
    corpus_hashes: dict
    trained_modules: list
    frozen_modules: list
    final_metrics: dict = field(default_factory=dict)
    checkpoint_path: str = ""
    status: str = "ok"
    failure_step: int | None = None
    failure_cause: str = ""

    def fail(self, message: str, step: int) -> TrainingError:
        """Mark the run failed at `step`; return the error to raise."""
        self.status, self.failure_step, self.failure_cause = "failed", step, message
        return TrainingError(message, step, self)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"kind: {self.kind}\n")
            f.write(f"status: {self.status}\n")
            if self.failure_step is not None:
                f.write(f"failure_step: {self.failure_step}\n")
                f.write(f"failure_cause: {self.failure_cause}\n")
            for k, v in self.config.items():
                f.write(f"config.{k}: {v}\n")
            for k, v in self.corpus_hashes.items():
                f.write(f"corpus_hash.{k}: {v}\n")
            f.write("trained_modules: " + " ".join(self.trained_modules) + "\n")
            f.write("frozen_modules: " + " ".join(self.frozen_modules) + "\n")
            for k, v in self.final_metrics.items():
                f.write(f"metric.{k}: {v}\n")
            if self.checkpoint_path:
                f.write(f"checkpoint: {self.checkpoint_path}\n")


def corpus_hash(corpus: ParallelCorpus) -> str:
    h = hashlib.sha256()
    for src, tgt in corpus.pairs:
        h.update(" ".join(map(str, src.ids)).encode())
        h.update(b"|")
        h.update(" ".join(map(str, tgt.ids)).encode())
        h.update(b"\n")
    return h.hexdigest()


def lr_schedule(step: int, warmup: int, lr_peak: float) -> float:
    """Linear ramp to lr_peak at `warmup`, then inverse-sqrt decay."""
    if step < warmup:
        return lr_peak * step / warmup
    return lr_peak * math.sqrt(warmup / step)


def _epoch_batches(corpus: ParallelCorpus, batch_tokens: int, seed: int, steps: int):
    """Yield exactly `steps` batches, reshuffling each epoch with seed+epoch."""
    produced = 0
    epoch = 0
    while produced < steps:
        for batch in make_batches(corpus, batch_tokens, seed + epoch):
            yield batch
            produced += 1
            if produced >= steps:
                return
        epoch += 1


def _validation_bleu(registry, corpus_langs, val_corpora, limit: int = 64) -> dict:
    # local import: translator/evaluation sit above trainer in layering
    from .evaluation import evaluate_direction
    from .translator import TranslationRequest

    metrics = {}
    for (src, tgt), (src_lines, ref_lines) in val_corpora.items():
        req = TranslationRequest(src, tgt, "direct")
        report = evaluate_direction(registry, req, src_lines[:limit], ref_lines[:limit])
        metrics[f"bleu_{src}_{tgt}"] = round(report.bleu, 2)
    return metrics


def joint_train(
    corpus: ParallelCorpus,
    vocab_x: Vocabulary,
    vocab_y: Vocabulary,
    config: TrainingConfig,
    val_lines: tuple[list[str], list[str]] | None = None,
) -> tuple[ModuleRegistry, RunManifest, list[list[float]]]:
    """Joint bilingual training of e_x, d_x, e_y, d_y from scratch.

    Every step samples one parallel batch and optimizes the full joint
    objective. Returns the registry, the run manifest, and per-step loss
    rows matching LOSS_CSV_HEADER.
    """
    x, y = corpus.src_lang, corpus.tgt_lang
    arch = dict(dim=config.dim, n_blocks=config.n_blocks, n_heads=config.n_heads,
                ff_dim=config.ff_dim, seed=config.seed)
    registry = ModuleRegistry()
    e_x = EncoderModule(x, vocab_x, **arch)
    d_x = DecoderModule(x, vocab_x, **arch)
    e_y = EncoderModule(y, vocab_y, **arch)
    d_y = DecoderModule(y, vocab_y, **arch)
    for m in (e_x, d_x, e_y, d_y):
        registry.add(m)

    optimizer = Adam()
    params = registry.parameters()
    rows: list[list[float]] = []
    manifest = RunManifest(
        kind="joint",
        config=config.as_dict(),
        corpus_hashes={f"{x}-{y}": corpus_hash(corpus)},
        trained_modules=sorted(registry.modules),
        frozen_modules=[],
    )

    for step, batch in enumerate(_epoch_batches(corpus, config.batch_tokens, config.seed, config.steps), start=1):
        lr = lr_schedule(step, config.warmup_steps, config.lr_peak)
        if batch.size < config.metric.min_batch:
            raise manifest.fail(
                f"step {step}: a batch of {batch.size} sentence(s), but the {config.metric.kind} "
                f"distance needs at least {config.metric.min_batch}; raise batch_tokens", step)
        registry.zero_grad()
        breakdown, total = joint_loss(batch, e_x, d_x, e_y, d_y, config.metric)
        if not math.isfinite(breakdown.total):
            raise manifest.fail(f"non-finite loss at step {step}", step)
        total.backward()
        try:
            optimizer.step(params, lr)
        except GradientError as err:
            raise manifest.fail(str(err), step) from err
        rows.append([step, *breakdown.as_csv_row(), lr])
        if config.eval_every and val_lines is not None and step % config.eval_every == 0:
            metrics = _validation_bleu(
                registry, (x, y),
                {(x, x): (val_lines[0], val_lines[0]),
                 (y, y): (val_lines[1], val_lines[1]),
                 (x, y): (val_lines[0], val_lines[1]),
                 (y, x): (val_lines[1], val_lines[0])},
            )
            manifest.final_metrics.update(metrics)
            log.info("step %d validation %s", step, metrics)

    manifest.final_metrics["final_total_loss"] = rows[-1][6]
    return registry, manifest, rows


ADD_LOSS_CSV_HEADER = "step,l_zx,l_xz,total,lr"


def add_language(
    registry: ModuleRegistry,
    corpus_zx: ParallelCorpus,
    vocab_z: Vocabulary,
    vocab_x: Vocabulary,
    config: TrainingConfig,
    both_directions: bool = False,
) -> tuple[ModuleRegistry, RunManifest, list[list[float]]]:
    """Train a fresh encoder for a new language against the frozen decoder
    of an already-trained one.

    `corpus_zx` pairs new-language sentences (source side) with an existing
    language X (target side). Only the new modules receive updates; every
    pre-existing module is frozen and stays byte-identical. The X-side
    vocabulary must hash-match the one used in the joint phase.
    """
    z, x = corpus_zx.src_lang, corpus_zx.tgt_lang
    d_x = registry.decoder(x)
    if vocab_x.content_hash() != d_x.vocab_hash:
        raise VocabularyMismatchError(
            f"vocabulary for shared language {x!r} differs from the joint-phase vocabulary"
        )

    existing = sorted(registry.modules)
    for name in existing:
        registry.set_frozen(name, True)

    arch = dict(dim=config.dim, n_blocks=config.n_blocks, n_heads=config.n_heads,
                ff_dim=config.ff_dim, seed=config.seed)
    if config.dim != d_x.dim:
        raise VocabularyMismatchError(
            f"configured dim {config.dim} incompatible with frozen decoder dim {d_x.dim}"
        )
    e_z = EncoderModule(z, vocab_z, **arch)
    registry.add(e_z)
    trained = [e_z.name]
    d_z = None
    e_x = None
    if both_directions:
        e_x = registry.encoder(x)
        d_z = DecoderModule(z, vocab_z, **arch)
        registry.add(d_z)
        trained.append(d_z.name)

    optimizer = Adam()
    params = e_z.parameters() + (d_z.parameters() if d_z else [])
    rows: list[list[float]] = []
    manifest = RunManifest(
        kind="add_language",
        config=config.as_dict(),
        corpus_hashes={f"{z}-{x}": corpus_hash(corpus_zx)},
        trained_modules=trained,
        frozen_modules=existing,
    )

    for step, batch in enumerate(_epoch_batches(corpus_zx, config.batch_tokens, config.seed, config.steps), start=1):
        lr = lr_schedule(step, config.warmup_steps, config.lr_peak)
        for m in (e_z, d_z) if d_z else (e_z,):
            m.zero_grad()
        states_z, _ = e_z.encode(batch.src_ids, batch.src_pad_mask)
        logits = decode_teacher_forced(d_x, states_z, batch.src_pad_mask, batch.tgt_ids)
        loss_zx = cross_entropy(logits, batch.tgt_ids[:, 1:], ~batch.tgt_pad_mask[:, 1:])
        total = loss_zx
        loss_xz_val = 0.0
        if d_z is not None:
            states_x, _ = e_x.encode(batch.tgt_ids, batch.tgt_pad_mask)
            logits_xz = decode_teacher_forced(d_z, states_x, batch.tgt_pad_mask, batch.src_ids)
            loss_xz = cross_entropy(logits_xz, batch.src_ids[:, 1:], ~batch.src_pad_mask[:, 1:])
            loss_xz_val = loss_xz.item()
            total = loss_zx + loss_xz
        if not math.isfinite(total.item()):
            raise manifest.fail(f"non-finite loss at step {step}", step)
        total.backward()
        try:
            optimizer.step(params, lr)
        except GradientError as err:
            raise manifest.fail(str(err), step) from err
        rows.append([step, loss_zx.item(), loss_xz_val, total.item(), lr])

    manifest.final_metrics["final_total_loss"] = rows[-1][3]
    return registry, manifest, rows


def loss_rows_to_csv(rows: list[list[float]], header: str = LOSS_CSV_HEADER) -> str:
    lines = [header]
    for row in rows:
        step = int(row[0])
        lines.append(",".join([str(step)] + [f"{v:.12g}" for v in row[1:]]))
    return "\n".join(lines) + "\n"

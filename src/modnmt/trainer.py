"""Training schedules: joint bilingual training and incremental language
addition against a frozen decoder, plus the warmup learning-rate schedule.

Runs are deterministic: module initialization derives from the config seed,
batch shuffling from seed + epoch, and all math is float64, so identical
configs under the same BLAS thread count reproduce identical checkpoints bit
for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import platform
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusError, ParallelCorpus, make_batches
from .model import CompositionError, DecoderModule, EncoderModule, ModuleRegistry, decode_teacher_forced
from .objective import DistanceMetric, joint_loss
from .optim import Adam
from .tensor import HEAP, LINEAR_SPLIT, GradientError, cross_entropy
from .tokenizer import Vocabulary

LOSS_CSV_HEADER = "step,l_xx,l_yy,l_xy,l_yx,d,total,lr"
# add-language trains no distance term, so these config keys neither apply to nor
# are recorded by it
JOINT_ONLY_KEYS = ("metric", "metric_weight")


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
    dim: int = 64
    n_blocks: int = 2
    n_heads: int = 4
    ff_dim: int = 256

    def __post_init__(self):
        for key in ("steps", "warmup_steps", "batch_tokens", "dim", "n_blocks", "n_heads", "ff_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.dim % self.n_heads:
            raise ValueError(f"dim {self.dim} not divisible by {self.n_heads} heads")
        if not (math.isfinite(self.lr_peak) and self.lr_peak > 0):
            raise ValueError(f"lr_peak must be finite and > 0, got {self.lr_peak}")

    def as_dict(self) -> dict:
        return {
            "steps": self.steps, "batch_tokens": self.batch_tokens,
            "lr_peak": self.lr_peak, "warmup_steps": self.warmup_steps,
            "seed": self.seed, "metric": self.metric.kind,
            "metric_weight": self.metric.weight,
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
            for k, v in environment().items():
                f.write(f"env.{k}: {v}\n")
            for k, v in self.corpus_hashes.items():
                f.write(f"corpus_hash.{k}: {v}\n")
            f.write("trained_modules: " + " ".join(self.trained_modules) + "\n")
            f.write("frozen_modules: " + " ".join(self.frozen_modules) + "\n")
            for k, v in self.final_metrics.items():
                f.write(f"metric.{k}: {v}\n")
            if self.checkpoint_path:
                f.write(f"checkpoint: {self.checkpoint_path}\n")


def environment() -> dict:
    """What the bytes and speed of a run depend on besides its config: the
    Python and numpy versions, the BLAS numpy was built with, the BLAS thread
    settings this process sees, the CPUs it may run on, the malloc thresholds
    `modnmt.tensor` set and the rule by which `Tensor.linear` splits GEMMs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    env["cpus"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env["malloc"] = HEAP
    env["linear_split"] = LINEAR_SPLIT
    return env


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


def _epoch_batches(corpus: ParallelCorpus, batch_tokens: int, seed: int):
    """Batches without end, reshuffling each epoch with seed+epoch."""
    epochs = (make_batches(corpus, batch_tokens, seed + epoch) for epoch in itertools.count())
    return itertools.chain.from_iterable(epochs)


def _train(corpus: ParallelCorpus, config: TrainingConfig, manifest: RunManifest, params: list,
           step_loss, min_batch: int = 1) -> list[list[float]]:
    """The step loop both phases share; returns one row per step.

    `step_loss(batch)` returns the step's total loss Tensor and the values
    of its row between the step number and the learning rate, the total
    last. Only `params` have their gradients cleared and are updated.
    """
    optimizer = Adam()
    rows: list[list[float]] = []
    batches = _epoch_batches(corpus, config.batch_tokens, config.seed)
    for step in range(1, config.steps + 1):
        try:
            batch = next(batches)
        except CorpusError as err:  # an empty corpus, or a pair longer than batch_tokens
            raise manifest.fail(f"step {step}: {err}", step) from err
        lr = lr_schedule(step, config.warmup_steps, config.lr_peak)
        if batch.size < min_batch:
            raise manifest.fail(
                f"step {step}: a batch of {batch.size} sentence(s), but the {config.metric.kind} "
                f"distance needs at least {min_batch}; raise batch_tokens", step)
        for p in params:
            p.tensor.zero_grad()
        total, values = step_loss(batch)
        if not math.isfinite(values[-1]):
            raise manifest.fail(f"non-finite loss at step {step}", step)
        total.backward()
        try:
            optimizer.step(params, lr)
        except GradientError as err:
            raise manifest.fail(str(err), step) from err
        rows.append([step, *values, lr])
    manifest.final_metrics["final_total_loss"] = rows[-1][-2]
    return rows


def joint_train(
    corpus: ParallelCorpus,
    vocab_x: Vocabulary,
    vocab_y: Vocabulary,
    config: TrainingConfig,
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
    manifest = RunManifest(
        kind="joint",
        config=config.as_dict(),
        corpus_hashes={f"{x}-{y}": corpus_hash(corpus)},
        trained_modules=sorted(registry.modules),
        frozen_modules=[],
    )

    def step_loss(batch):
        breakdown, total = joint_loss(batch, e_x, d_x, e_y, d_y, config.metric)
        return total, breakdown.as_csv_row()

    rows = _train(corpus, config, manifest, registry.parameters(), step_loss, config.metric.min_batch)
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
    vocabulary must hash-match the one used in the joint phase. Every check
    runs before any module is frozen, so a rejected call leaves `registry`
    as it was.
    """
    z, x = corpus_zx.src_lang, corpus_zx.tgt_lang
    d_x = registry.decoder(x)
    e_x = registry.encoder(x) if both_directions else None
    if vocab_x.content_hash() != d_x.vocab_hash:
        raise VocabularyMismatchError(
            f"vocabulary for shared language {x!r} differs from the joint-phase vocabulary"
        )
    if config.dim != d_x.dim:
        raise CompositionError(
            f"configured dim {config.dim} incompatible with frozen decoder dim {d_x.dim}"
        )
    arch = dict(dim=config.dim, n_blocks=config.n_blocks, n_heads=config.n_heads,
                ff_dim=config.ff_dim, seed=config.seed)
    e_z = EncoderModule(z, vocab_z, **arch)
    d_z = DecoderModule(z, vocab_z, **arch) if both_directions else None
    trained = [m for m in (e_z, d_z) if m is not None]
    for m in trained:
        if m.name in registry.modules:
            raise CompositionError(f"module {m.name!r} already registered")

    existing = sorted(registry.modules)
    for name in existing:
        registry.set_frozen(name, True)
    for m in trained:
        registry.add(m)
    manifest = RunManifest(
        kind="add_language",
        config={k: v for k, v in config.as_dict().items() if k not in JOINT_ONLY_KEYS},
        corpus_hashes={f"{z}-{x}": corpus_hash(corpus_zx)},
        trained_modules=[m.name for m in trained],
        frozen_modules=existing,
    )

    def step_loss(batch):
        states_z, _ = e_z.encode(batch.src_ids, batch.src_pad_mask)
        logits = decode_teacher_forced(d_x, states_z, batch.src_pad_mask, batch.tgt_ids)
        loss_zx = cross_entropy(logits, batch.tgt_ids[:, 1:], ~batch.tgt_pad_mask[:, 1:])
        if d_z is None:
            return loss_zx, [loss_zx.item(), 0.0, loss_zx.item()]
        states_x, _ = e_x.encode(batch.tgt_ids, batch.tgt_pad_mask)
        logits_xz = decode_teacher_forced(d_z, states_x, batch.tgt_pad_mask, batch.src_ids)
        loss_xz = cross_entropy(logits_xz, batch.src_ids[:, 1:], ~batch.src_pad_mask[:, 1:])
        total = loss_zx + loss_xz
        return total, [loss_zx.item(), loss_xz.item(), total.item()]

    params = [p for m in trained for p in m.parameters()]
    rows = _train(corpus_zx, config, manifest, params, step_loss)
    return registry, manifest, rows


def loss_rows_to_csv(rows: list[list[float]], header: str = LOSS_CSV_HEADER) -> str:
    lines = [header]
    for row in rows:
        step = int(row[0])
        lines.append(",".join([str(step)] + [f"{v:.12g}" for v in row[1:]]))
    return "\n".join(lines) + "\n"

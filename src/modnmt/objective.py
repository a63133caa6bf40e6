"""The joint training objective: four cross-entropies plus a representation
distance between pooled sentence vectors.

The default distance is the correlation distance (1 minus the batch-wise
Pearson correlation, averaged over dimensions). L1/L2 are provided to
reproduce the space-collapse failure they cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import Batch
from .model import DecoderModule, EncoderModule, decode_teacher_forced
from .tensor import ShapeError, Tensor, cross_entropy

CORRELATION_EPS = 1e-12  # zero-variance guard inside the square root

METRIC_KINDS = ("correlation", "l1", "l2", "none")


@dataclass(frozen=True)
class DistanceMetric:
    kind: str = "correlation"
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown distance metric {self.kind!r}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"distance weight must be nonnegative and finite, got {self.weight}")


@dataclass
class LossBreakdown:
    """The five addends, reported separately; `total` is their exact sum
    (distance scaled by its weight) in a fixed accumulation order."""

    l_xx: float
    l_yy: float
    l_xy: float
    l_yx: float
    d: float
    total: float

    def as_csv_row(self) -> list[float]:
        return [self.l_xx, self.l_yy, self.l_xy, self.l_yx, self.d, self.total]


def correlation_distance(h_x: Tensor, h_y: Tensor) -> Tensor:
    """1 - mean over dimensions of the per-dimension batch Pearson correlation.

    Both arguments are [B, D] with row i of each side coming from the same
    parallel sentence. Invariant under positive per-dimension affine maps of
    either argument; range [0, 2].
    """
    if h_x.shape != h_y.shape:
        raise ShapeError(f"representation shapes differ: {h_x.shape} vs {h_y.shape}")
    if h_x.shape[0] < 2:
        raise ShapeError("correlation distance needs at least 2 sentences per batch")
    cx = h_x - h_x.mean(axis=0, keepdims=True)
    cy = h_y - h_y.mean(axis=0, keepdims=True)
    num = (cx * cy).sum(axis=0)
    den = ((cx * cx).sum(axis=0) * (cy * cy).sum(axis=0) + CORRELATION_EPS).sqrt()
    corr = (num / den).mean()
    return 1.0 - corr


def pairwise_distance(kind: str, h_x: Tensor, h_y: Tensor) -> Tensor:
    if h_x.shape != h_y.shape:
        raise ShapeError(f"representation shapes differ: {h_x.shape} vs {h_y.shape}")
    if kind == "correlation":
        return correlation_distance(h_x, h_y)
    if kind == "l1":
        return (h_x - h_y).abs().mean()
    if kind == "l2":
        diff = h_x - h_y
        return (diff * diff).mean()
    if kind == "none":
        return Tensor(0.0)
    raise ValueError(f"unknown distance metric {kind!r}")


def joint_loss(
    batch: Batch,
    e_x: EncoderModule,
    d_x: DecoderModule,
    e_y: EncoderModule,
    d_y: DecoderModule,
    metric: DistanceMetric,
) -> tuple[LossBreakdown, Tensor]:
    """Teacher-forced joint objective over one parallel X-Y batch.

    One batch drives all five terms: both reconstructions, both translation
    directions, and the distance on the pooled representations.
    """
    x, y = (batch.src_ids, batch.src_pad_mask), (batch.tgt_ids, batch.tgt_pad_mask)
    states_x, h_x = e_x.encode(*x)
    states_y, h_y = e_y.encode(*y)

    def teacher_forced(dec, states, src, tgt):
        """Cross-entropy of `dec` on side `tgt`'s ids, reading `states` encoded from side `src`."""
        ids, mask = tgt
        return cross_entropy(decode_teacher_forced(dec, states, src[1], ids), ids[:, 1:], ~mask[:, 1:])

    l_xx = teacher_forced(d_x, states_x, x, x)
    l_yy = teacher_forced(d_y, states_y, y, y)
    l_xy = teacher_forced(d_y, states_x, x, y)
    l_yx = teacher_forced(d_x, states_y, y, x)
    dist = pairwise_distance(metric.kind, h_x, h_y)

    total = l_xx + l_yy + l_xy + l_yx + metric.weight * dist
    breakdown = LossBreakdown(
        l_xx=l_xx.item(), l_yy=l_yy.item(), l_xy=l_xy.item(), l_yx=l_yx.item(),
        d=dist.item(), total=total.item(),
    )
    return breakdown, total

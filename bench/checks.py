"""Output checks, each made apart from the program or from a property the
method must have. None compares against stored output.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

from modnmt.tensor import no_grad
from modnmt.tokenizer import BOS, EOS, PAD

BLEU_FLOOR = 30.0  # a 300-step checkpoint scores ~55; an untrained one 0
ARGMAX_TOL = 1e-9  # absolute, on float64 logits


def bleu(hyps: list[str], refs: list[str]) -> float:
    """Corpus BLEU-4 over whitespace tokens with the standard brevity penalty."""
    matches, totals = [0] * 4, [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs, strict=True):
        h, r = hyp.split(), ref.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            hg = Counter(tuple(h[i:i + n]) for i in range(len(h) - n + 1))
            rg = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
            matches[n - 1] += sum(min(c, rg[g]) for g, c in hg.items())
            totals[n - 1] += max(len(h) - n + 1, 0)
    if hyp_len == 0 or min(matches) == 0:
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(matches, totals)) / 4
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p)


def bleu_floor(hyps: list[str], refs: list[str], floor: float = BLEU_FLOOR) -> list[str]:
    score = bleu(hyps, refs)
    return [] if score > floor else [f"BLEU {score:.2f} not above the floor {floor}"]


def ends_in_eos_or_cap(outputs: list[list[int]], caps: list[int]) -> list[str]:
    return [f"hypothesis {i} has {len(ids)} tokens, no EOS and cap {cap}"
            for i, (ids, cap) in enumerate(zip(outputs, caps, strict=True))
            if not ((ids and ids[-1] == EOS) or len(ids) == cap)]


def greedy_argmax(dec, enc_states, src_pad_mask, max_len: int, outputs: list[list[int]],
                  tol: float = ARGMAX_TOL) -> list[str]:
    """Each emitted token must be an argmax of one teacher-forced pass over
    BOS plus the tokens emitted before it."""
    problems = ends_in_eos_or_cap(outputs, [max_len] * len(outputs))
    width = max((len(ids) for ids in outputs), default=0)
    if width == 0:
        return problems
    prefix = np.full((len(outputs), width), PAD, dtype=np.int64)
    prefix[:, 0] = BOS
    for row, ids in enumerate(outputs):
        prefix[row, 1:len(ids)] = ids[:-1]
    with no_grad():
        logits = dec.forward(enc_states, src_pad_mask, prefix).data
    for row, ids in enumerate(outputs):
        for t, tok in enumerate(ids):
            best = logits[row, t].max()
            if logits[row, t, tok] < best - tol:
                problems.append(f"row {row} position {t}: token {tok} is not an argmax")
    return problems


def module_digests(registry) -> dict[str, str]:
    """sha256 of every module's parameters, in sorted parameter order."""
    out = {}
    for name, module in sorted(registry.modules.items()):
        h = hashlib.sha256()
        for local in sorted(module.params):
            h.update(local.encode())
            h.update(np.ascontiguousarray(module.params[local].tensor.data).tobytes())
        out[name] = h.hexdigest()
    return out


def frozen_unchanged(before: dict[str, str], after: dict[str, str], new: set[str]) -> list[str]:
    """Pre-existing modules byte-identical; exactly the `new` modules added."""
    problems = [f"frozen module {n} changed" for n in before if after.get(n) != before[n]]
    added = set(after) - set(before)
    if added != new:
        problems.append(f"new modules {sorted(added)}, expected {sorted(new)}")
    return problems


def joint_rows(rows: list[list[float]]) -> list[str]:
    """Loss rows are finite and `total` is the exact sum of its addends in the
    documented order (distance weight 1)."""
    problems = []
    for row in rows:
        step, l_xx, l_yy, l_xy, l_yx, d, total, _ = row
        if not all(math.isfinite(v) for v in row):
            problems.append(f"step {step}: non-finite loss row")
        elif l_xx + l_yy + l_xy + l_yx + 1.0 * d != total:
            problems.append(f"step {step}: total {total!r} is not the sum of its terms")
    return problems


def loss_falls(totals: list[float]) -> list[str]:
    """Mean loss over the last quarter of the steps below the first quarter's."""
    k = max(1, len(totals) // 4)
    early, late = sum(totals[:k]) / k, sum(totals[-k:]) / k
    return [] if late < early else [f"loss did not fall: first {k} steps {early:.4f}, last {late:.4f}"]

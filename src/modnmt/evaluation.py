"""Corpus BLEU and the experiment grid over translation routes.

BLEU is the standard corpus-level score: clipped modified n-gram precisions
pooled over the corpus for n=1..4, geometric mean, explicit brevity
penalty. Comparison tokens are whitespace words after subword re-joining.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .model import ModuleRegistry
from .translator import TranslationRequest, translate_corpus

MAX_ORDER = 4


class EvaluationError(ValueError):
    pass


@dataclass
class BleuReport:
    bleu: float  # 0..100
    precisions: list[float]  # p1..p4
    brevity_penalty: float
    hyp_tokens: int
    ref_tokens: int
    smoothing: bool


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses: list[str], references: list[str], smoothing: bool = False) -> BleuReport:
    """Corpus-level BLEU over whitespace tokens.

    Smoothing (when on) adds 1 to numerator and denominator for n >= 2.
    """
    if len(hypotheses) != len(references):
        raise EvaluationError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise EvaluationError("empty corpus")

    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h = hyp.split()
        r = ref.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, MAX_ORDER + 1):
            hgrams = _ngrams(h, n)
            rgrams = _ngrams(r, n)
            totals[n - 1] += max(len(h) - n + 1, 0)
            for gram, count in hgrams.items():
                matches[n - 1] += min(count, rgrams.get(gram, 0))

    precisions = []
    for n in range(1, MAX_ORDER + 1):
        num, den = matches[n - 1], totals[n - 1]
        if smoothing and n >= 2:
            num, den = num + 1, den + 1
        precisions.append(num / den if den > 0 else 0.0)

    if hyp_len == 0:
        bp = 0.0
    elif hyp_len < ref_len:
        bp = math.exp(1.0 - ref_len / hyp_len)
    else:
        bp = 1.0

    if min(precisions) > 0.0:
        bleu = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
    else:
        bleu = 0.0
    return BleuReport(bleu=bleu, precisions=precisions, brevity_penalty=bp,
                      hyp_tokens=hyp_len, ref_tokens=ref_len, smoothing=smoothing)


def evaluate_direction(registry: ModuleRegistry, request: TranslationRequest,
                       src_lines: list[str], ref_lines: list[str]) -> BleuReport:
    """Translate the test set via the requested route and score it."""
    hyps = translate_corpus(registry, request, src_lines)
    return corpus_bleu(hyps, ref_lines)


@dataclass
class GridEntry:
    label: str  # e.g. baseline / joint / added / zero_shot / pivot
    request: TranslationRequest
    report: BleuReport


@dataclass
class ExperimentGrid:
    entries: list[GridEntry] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["label,route,src,tgt,via,bleu,p1,p2,p3,p4,bp"]
        for e in self.entries:
            r, b = e.request, e.report
            p = ",".join(f"{x:.6f}" for x in b.precisions)
            lines.append(
                f"{e.label},{r.route},{r.src_lang},{r.tgt_lang},{r.via or ''},"
                f"{b.bleu:.4f},{p},{b.brevity_penalty:.6f}"
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = f"{'label':<10} {'route':<9} {'pair':<8} {'via':<4} {'BLEU':>7}"
        rows = [header, "-" * len(header)]
        for e in self.entries:
            r = e.request
            rows.append(f"{e.label:<10} {r.route:<9} {r.src_lang + '-' + r.tgt_lang:<8} "
                        f"{r.via or '':<4} {e.report.bleu:7.2f}")
        return "\n".join(rows) + "\n"


def experiment_grid(registry: ModuleRegistry, directions: list[tuple[str, TranslationRequest]],
                    test_corpora: dict[str, list[str]]) -> ExperimentGrid:
    """Evaluate every configured direction on the shared held-out set.

    `test_corpora` maps language tag to aligned test lines; each direction
    uses its source language's lines as input and its target language's
    lines as references. Every direction is checked before any is translated.
    """
    for _, request in directions:
        for lang in (request.src_lang, request.tgt_lang):
            if lang not in test_corpora:
                raise EvaluationError(f"no test corpus for language {lang!r}")
        n_src, n_ref = len(test_corpora[request.src_lang]), len(test_corpora[request.tgt_lang])
        if n_src != n_ref:
            raise EvaluationError(f"{request.src_lang}-{request.tgt_lang}: "
                                  f"{n_src} source lines vs {n_ref} reference lines")
    grid = ExperimentGrid()
    for label, request in directions:
        report = evaluate_direction(
            registry, request, test_corpora[request.src_lang], test_corpora[request.tgt_lang])
        grid.entries.append(GridEntry(label=label, request=request, report=report))
    return grid

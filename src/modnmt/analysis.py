"""Representation-space diagnostics.

Extracts pooled sentence vectors per language at the final encoder block or
at a decoder block under teacher forcing, reports cross-language
correlation distances and within-language collapse indicators, and exports
a 2-D PCA projection for external plotting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .corpus import pad_block
from .model import ModuleRegistry
from .objective import correlation_distance
from .tensor import Tensor, no_grad
from .tokenizer import normalize
from .translator import CHUNK

DEFAULT_SENTENCE_COUNT = 130  # diagnostic sample size for reports


class AnalysisError(ValueError):
    pass


@dataclass
class RepresentationDump:
    language: str
    stage: str  # encoder_final | decoder_block_<k>
    matrix: np.ndarray  # [n_sentences, D]
    sentence_indices: list[int]


@dataclass
class CollapseIndicator:
    language: str
    mean_pairwise_cosine: float
    dimension_variance_mean: float
    dimension_variance_min: float
    dimension_variance_max: float


def extract_representations(
    registry: ModuleRegistry,
    corpus_multi: dict[str, list[str]],
    stage: str = "encoder_final",
    decoder_lang: str | None = None,
) -> dict[str, RepresentationDump]:
    """Pooled sentence vectors per language over a multi-way parallel corpus.

    Row i of every dump corresponds to the same parallel sentence. Decoder
    stages run the named decoder teacher-forced on its own language's
    reference lines and pool the requested block's states over non-pad
    target positions.
    """
    if stage != "encoder_final" and not re.fullmatch(r"decoder_block_(\d+|last)", stage):
        raise AnalysisError(f"unknown stage {stage!r}")
    counts = {len(lines) for lines in corpus_multi.values()}
    if len(counts) != 1:
        raise AnalysisError("corpus sides are not aligned (unequal sentence counts)")
    if not counts.pop():
        raise AnalysisError("empty corpus")

    if stage.startswith("decoder_block_"):
        if decoder_lang is None:
            raise AnalysisError("decoder stages require decoder_lang")
        dec = registry.decoder(decoder_lang)
        block = stage.removeprefix("decoder_block_")
        block_idx = dec.n_blocks - 1 if block == "last" else int(block)
        if not 0 <= block_idx < dec.n_blocks:
            raise AnalysisError(f"decoder block {block_idx} out of range")
        ref_lines = corpus_multi.get(decoder_lang)
        if ref_lines is None:
            raise AnalysisError(f"decoder stage needs {decoder_lang!r} reference lines")

    dumps = {}
    for lang, lines in corpus_multi.items():
        enc = registry.encoder(lang)
        vectors = []
        with no_grad():
            for lo in range(0, len(lines), CHUNK):
                ids, mask = pad_block([enc.vocab.encode(normalize(line)) for line in lines[lo : lo + CHUNK]])
                states, h = enc.encode(ids, mask)
                if stage == "encoder_final":
                    vectors.append(h.data)
                else:
                    tgt_ids, tgt_mask = pad_block(
                        [dec.vocab.encode(normalize(line)) for line in ref_lines[lo : lo + CHUNK]])
                    _, blocks = dec.forward(states, mask, tgt_ids[:, :-1], return_blocks=True)
                    bstates = blocks[block_idx].data
                    keep = (~tgt_mask[:, 1:]).astype(np.float64)
                    pooled = (bstates * keep[:, :, None]).sum(axis=1) / keep.sum(axis=1, keepdims=True)
                    vectors.append(pooled)
        dumps[lang] = RepresentationDump(
            language=lang, stage=stage,
            matrix=np.concatenate(vectors, axis=0),
            sentence_indices=list(range(len(lines))),
        )
    return dumps


def collapse_indicator(dump: RepresentationDump) -> CollapseIndicator:
    """Mean pairwise cosine among distinct sentences plus variance summary."""
    m = dump.matrix
    if m.shape[0] < 2:
        raise AnalysisError("collapse indicator needs at least 2 sentences")
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    unit = m / np.maximum(norms, 1e-12)
    gram = unit @ unit.T
    n = m.shape[0]
    off_diag_sum = gram.sum() - np.trace(gram)
    mean_cos = off_diag_sum / (n * (n - 1))
    var = m.var(axis=0)
    return CollapseIndicator(
        language=dump.language,
        mean_pairwise_cosine=float(mean_cos),
        dimension_variance_mean=float(var.mean()),
        dimension_variance_min=float(var.min()),
        dimension_variance_max=float(var.max()),
    )


def representation_report(dumps: dict[str, RepresentationDump]):
    """Pairwise correlation-distance matrix plus per-language collapse stats."""
    langs = sorted(dumps)
    if len(langs) < 2:
        raise AnalysisError("report needs at least 2 language dumps")
    n_rows = {lang: dumps[lang].matrix.shape[0] for lang in langs}
    if len(set(n_rows.values())) != 1:
        raise AnalysisError(f"row misalignment across dumps: {n_rows}")
    if n_rows[langs[0]] < 2:
        raise AnalysisError("report needs at least 2 sentences per language")
    distances = {}
    for i, a in enumerate(langs):
        for b in langs[i:]:
            d = correlation_distance(Tensor(dumps[a].matrix), Tensor(dumps[b].matrix))
            distances[(a, b)] = float(d.item())
            distances[(b, a)] = distances[(a, b)]
    indicators = {lang: collapse_indicator(dumps[lang]) for lang in langs}
    return distances, indicators


def pca_project(matrix: np.ndarray, k: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Top-k principal-component projection via eigen-decomposition.

    Returns (coordinates [n, k], explained variance per component). Sign
    convention: each component's largest-magnitude entry is positive.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n, d = matrix.shape
    if k > d:
        raise AnalysisError(f"k={k} exceeds dimensionality {d}")
    if n < k:
        raise AnalysisError(f"need at least {k} rows, got {n}")
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    components = eigvecs[:, order]
    for j in range(k):
        pivot = np.argmax(np.abs(components[:, j]))
        if components[pivot, j] < 0:
            components[:, j] = -components[:, j]
    coords = centered @ components
    return coords, eigvals[order]


def dump_to_csv(dump: RepresentationDump) -> str:
    d = dump.matrix.shape[1]
    lines = ["lang,sentence_idx,stage," + ",".join(f"v{i}" for i in range(d))]
    for idx, row in zip(dump.sentence_indices, dump.matrix):
        values = ",".join(f"{v:.10g}" for v in row)
        lines.append(f"{dump.language},{idx},{dump.stage},{values}")
    return "\n".join(lines) + "\n"


def projection_to_csv(dumps: dict[str, RepresentationDump]) -> str:
    """Joint PCA over all languages' vectors, exported for external plotting."""
    langs = sorted(dumps)
    stacked = np.concatenate([dumps[lang].matrix for lang in langs], axis=0)
    coords, _ = pca_project(stacked)
    lines = ["lang,sentence_idx,x,y"]
    row = 0
    for lang in langs:
        for idx in dumps[lang].sentence_indices:
            lines.append(f"{lang},{idx},{coords[row, 0]:.10g},{coords[row, 1]:.10g}")
            row += 1
    return "\n".join(lines) + "\n"

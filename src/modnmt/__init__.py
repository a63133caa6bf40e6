"""Modular multilingual NMT at desk scale.

Independent per-language transformer encoders and decoders trained to a
shared representation space, with joint bilingual training, incremental
language addition against frozen modules, and zero-shot translation by
free encoder/decoder composition.
"""

from .corpus import (
    Batch,
    ParallelCorpus,
    SyntheticLanguageSpec,
    cipher_oracle_translate,
    generate_cipher_lines,
    make_batches,
    make_cipher_spec,
    preprocess,
)
from .evaluation import BleuReport, corpus_bleu, evaluate_direction, experiment_grid
from .model import (
    DecoderModule,
    EncoderModule,
    ModuleRegistry,
    decode_teacher_forced,
    load_checkpoint,
    save_checkpoint,
)
from .objective import DistanceMetric, LossBreakdown, correlation_distance, joint_loss, pairwise_distance
from .optim import Adam, Parameter
from .tensor import Tensor, cross_entropy, finite_difference_gradient, no_grad
from .tokenizer import TokenizedSentence, Vocabulary, learn_bpe, normalize
from .trainer import TrainingConfig, add_language, joint_train, lr_schedule
from .translator import TranslationRequest, beam_decode, greedy_decode, translate, translate_corpus

__version__ = "0.1.0"

__all__ = [
    "Adam", "Batch", "BleuReport", "DecoderModule", "DistanceMetric",
    "EncoderModule", "LossBreakdown", "ModuleRegistry", "ParallelCorpus", "Parameter",
    "SyntheticLanguageSpec", "Tensor", "TokenizedSentence", "TrainingConfig",
    "TranslationRequest", "Vocabulary", "add_language", "beam_decode",
    "cipher_oracle_translate", "corpus_bleu", "correlation_distance", "cross_entropy",
    "decode_teacher_forced", "evaluate_direction", "experiment_grid",
    "finite_difference_gradient", "generate_cipher_lines", "greedy_decode",
    "joint_loss", "joint_train", "learn_bpe", "load_checkpoint", "lr_schedule",
    "make_batches", "make_cipher_spec", "no_grad", "normalize", "pairwise_distance",
    "preprocess", "save_checkpoint", "translate", "translate_corpus",
]

"""Command-line surface: data generation, vocabularies, training phases,
translation, evaluation, and representation inspection.

Every subcommand writes into a run directory and is rerunnable: identical
inputs and seed produce identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import analysis, corpus, evaluation, tokenizer, trainer, translator
from .model import load_checkpoint, save_checkpoint
from .objective import METRIC_KINDS

log = logging.getLogger(__name__)

LANG_NAMES = ["X", "Y", "Z", "W", "V", "U", "T", "S"]

CONFIG_KEYS = {f.name: type(f.default) for f in fields(trainer.TrainingConfig)} | {"max_len": int}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def read_config_file(path) -> dict:
    """`key = value` lines; `#` comments; unknown keys rejected."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = CONFIG_KEYS[key](raw)
    return values


def build_training_config(args) -> tuple[trainer.TrainingConfig, int]:
    values = read_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    ignored = [key for key in trainer.JOINT_ONLY_KEYS if key in values]
    if args.command == "add-language" and ignored:
        raise UsageError(f"add-language trains no distance term; {', '.join(ignored)} does not apply")
    max_len = values.pop("max_len", 80)
    if max_len < 1:
        raise UsageError(f"max_len must be >= 1, got {max_len}")
    try:
        return trainer.TrainingConfig(**values), max_len
    except ValueError as err:
        raise UsageError(str(err)) from None


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    for key, kind in CONFIG_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                       choices=METRIC_KINDS if key == "metric" else None)


def _read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def _load_run(ckpt_path):
    """The registry in a checkpoint and the vocabularies saved next to it."""
    directory = Path(ckpt_path).parent
    vocabs = {}
    for path in sorted(directory.glob("vocab_*.txt")):
        v = tokenizer.Vocabulary.load(path)
        vocabs[v.language] = v
    if not vocabs:
        raise UsageError(f"no vocab_*.txt files found next to checkpoint in {directory}")
    return load_checkpoint(ckpt_path, vocabs), vocabs


def _save_run(out: Path, registry, manifest, loss_csv: str, vocabs: dict) -> None:
    """Write a finished run: checkpoint, manifest, loss.csv and vocabularies."""
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.bin"
    save_checkpoint(registry, ckpt)
    manifest.checkpoint_path = str(ckpt)
    manifest.save(out / "manifest.txt")
    (out / "loss.csv").write_text(loss_csv, encoding="utf-8")
    for lang, v in vocabs.items():
        v.save(out / f"vocab_{lang}.txt")


@contextlib.contextmanager
def _manifest_on_failure(out: Path):
    """Write the failed run's manifest into `out` before its TrainingError propagates."""
    try:
        yield
    except trainer.TrainingError as err:
        out.mkdir(parents=True, exist_ok=True)
        err.manifest.save(out / "manifest.txt")
        raise


# -- subcommands --------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if not 1 <= args.langs <= len(LANG_NAMES):
        raise UsageError(f"--langs must be between 1 and {len(LANG_NAMES)}")
    if not 0 <= args.len_min <= args.len_max:
        raise UsageError("need 0 <= --len-min <= --len-max")
    if not 1 <= args.base_vocab <= len(corpus.ALPHABET):
        raise UsageError(f"--base-vocab must be between 1 and {len(corpus.ALPHABET)}")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    langs = LANG_NAMES[: args.langs]
    specs = {
        lang: corpus.make_cipher_spec(lang, args.base_vocab, args.seed + i)
        for i, lang in enumerate(langs)
    }
    for lang, spec in specs.items():
        spec.save(out / f"spec_{lang}.txt")
    # one shared latent stream keeps all languages pairwise-aligned
    first = specs[langs[0]]
    for split, n, seed in (("train", args.n, args.seed), ("test", args.n_test, args.seed + 1000)):
        if n <= 0:
            continue
        base_lines, _ = corpus.generate_cipher_lines(
            first, first, n, (args.len_min, args.len_max), seed=seed)
        suffix = "" if split == "train" else ".test"
        for lang, spec in specs.items():
            lines = [corpus.cipher_oracle_translate(first, spec, line) for line in base_lines]
            _write_lines(out / f"{lang}{suffix}.txt", lines)
    log.info("wrote %d languages to %s", len(langs), out)
    return 0


def cmd_build_vocab(args) -> int:
    lines = [tokenizer.normalize(line) for line in _read_lines(args.corpus)]
    vocab = tokenizer.learn_bpe(lines, args.language, args.size)
    vocab.save(args.out)
    log.info("vocabulary %s: %d tokens, %d merges", args.language, len(vocab), len(vocab.merge_table))
    return 0


def cmd_train_joint(args) -> int:
    config, max_len = build_training_config(args)
    out = Path(args.out)
    vocab_x = tokenizer.Vocabulary.load(args.src_vocab)
    vocab_y = tokenizer.Vocabulary.load(args.tgt_vocab)
    corp = corpus.preprocess(_read_lines(args.src_corpus), _read_lines(args.tgt_corpus),
                             vocab_x, vocab_y, max_len=max_len)
    with _manifest_on_failure(out):
        registry, manifest, rows = trainer.joint_train(corp, vocab_x, vocab_y, config)
    _save_run(out, registry, manifest, trainer.loss_rows_to_csv(rows),
              {vocab_x.language: vocab_x, vocab_y.language: vocab_y})
    log.info("joint training done; final loss %.4f", manifest.final_metrics["final_total_loss"])
    return 0


def cmd_add_language(args) -> int:
    config, max_len = build_training_config(args)
    out = Path(args.out)
    registry, vocabs = _load_run(args.from_ckpt)
    vocab_z = tokenizer.Vocabulary.load(args.new_vocab)
    lines_z = _read_lines(args.src_corpus)
    lines_x = _read_lines(args.tgt_corpus)
    shared = args.shared_lang
    if shared not in vocabs:
        raise UsageError(f"shared language {shared!r} not present in checkpoint")
    corp = corpus.preprocess(lines_z, lines_x, vocab_z, vocabs[shared], max_len=max_len)
    with _manifest_on_failure(out):
        registry, manifest, rows = trainer.add_language(
            registry, corp, vocab_z, vocabs[shared], config, both_directions=args.both_directions)
    _save_run(out, registry, manifest, trainer.loss_rows_to_csv(rows, trainer.ADD_LOSS_CSV_HEADER),
              {**vocabs, vocab_z.language: vocab_z})
    log.info("added language %s; final loss %.4f", vocab_z.language,
             manifest.final_metrics["final_total_loss"])
    return 0


def cmd_translate(args) -> int:
    registry, _ = _load_run(args.ckpt)
    request = translator.TranslationRequest(
        src_lang=args.src, tgt_lang=args.tgt, route=args.route, via=args.via,
        decode=args.decode, beam_width=args.width)
    lines = _read_lines(args.input)
    outputs = translator.translate_corpus(registry, request, lines)
    _write_lines(args.output, outputs)
    meta = Path(args.output).with_suffix(Path(args.output).suffix + ".meta")
    meta.write_text(
        f"route: {args.route}\nsrc: {args.src}\ntgt: {args.tgt}\n"
        f"via: {args.via or ''}\ndecode: {args.decode}\nwidth: {args.width}\n"
        f"checkpoint: {args.ckpt}\n", encoding="utf-8")
    return 0


def _parse_test_corpora(pairs) -> dict:
    out = {}
    for item in pairs:
        lang, _, path = item.partition("=")
        if not path:
            raise UsageError(f"--test expects lang=path, got {item!r}")
        out[lang] = _read_lines(path)
    return out


def cmd_evaluate(args) -> int:
    registry, _ = _load_run(args.ckpt)
    test_corpora = _parse_test_corpora(args.test)
    directions = []
    for lineno, line in enumerate(_read_lines(args.grid), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (4, 5):
            raise UsageError(f"{args.grid}:{lineno}: expected label,route,src,tgt[,via]")
        label, route, src, tgt = fields[:4]
        for lang in (src, tgt):
            if lang not in test_corpora:
                raise UsageError(f"{args.grid}:{lineno}: no --test lines for language {lang!r}")
        via = fields[4] if len(fields) == 5 else None
        directions.append((label, translator.TranslationRequest(src, tgt, route, via=via)))
    grid = evaluation.experiment_grid(registry, directions, test_corpora)
    Path(args.out).write_text(grid.to_csv(), encoding="utf-8")
    sys.stdout.write(grid.to_table())
    return 0


def cmd_inspect_reps(args) -> int:
    if args.sentences < 2:
        raise UsageError("--sentences must be at least 2")
    registry, _ = _load_run(args.ckpt)
    test_corpora = _parse_test_corpora(args.test)
    test_corpora = {k: v[: args.sentences] for k, v in test_corpora.items()}
    dumps = analysis.extract_representations(
        registry, test_corpora, stage=args.stage, decoder_lang=args.decoder_lang)
    # every output is computed before --out is made, so a failed report writes nothing
    files = {f"reps_{lang}.csv": analysis.dump_to_csv(dump) for lang, dump in dumps.items()}
    files["projection.csv"] = analysis.projection_to_csv(dumps)
    distances, indicators = analysis.representation_report(dumps)
    lines = [f"stage: {args.stage}"]
    for (a, b), d in sorted(distances.items()):
        if a < b:
            lines.append(f"correlation_distance {a}-{b}: {d:.6f}")
    for lang, ind in sorted(indicators.items()):
        lines.append(
            f"collapse {lang}: mean_pairwise_cosine {ind.mean_pairwise_cosine:.6f} "
            f"var_mean {ind.dimension_variance_mean:.6g}")
    files["report.txt"] = "\n".join(lines) + "\n"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    sys.stdout.write(files["report.txt"])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="modnmt", description="Modular multilingual NMT at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic cipher-language corpora")
    p.add_argument("--base-vocab", type=int, default=64)
    p.add_argument("--langs", type=int, default=3)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--n-test", dest="n_test", type=int, default=200)
    p.add_argument("--len-min", dest="len_min", type=int, default=3)
    p.add_argument("--len-max", dest="len_max", type=int, default=12)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("build-vocab", help="learn a monolingual BPE vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--language", required=True)
    p.add_argument("--size", type=int, default=96)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train-joint", help="joint bilingual training")
    p.add_argument("--src-corpus", required=True)
    p.add_argument("--tgt-corpus", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_joint)

    p = sub.add_parser("add-language", help="incremental language addition")
    p.add_argument("--from", dest="from_ckpt", required=True, help="existing checkpoint")
    p.add_argument("--src-corpus", required=True, help="new-language side")
    p.add_argument("--tgt-corpus", required=True, help="shared-language side")
    p.add_argument("--new-vocab", required=True)
    p.add_argument("--shared-lang", required=True)
    p.add_argument("--both-directions", action="store_true")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_add_language)

    p = sub.add_parser("translate", help="translate a file of sentences")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--route", choices=translator.ROUTES, default="direct")
    p.add_argument("--via")
    p.add_argument("--decode", choices=translator.DECODES, default="greedy")
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="run a BLEU experiment grid")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--grid", required=True, help="label,route,src,tgt[,via] per line")
    p.add_argument("--test", action="append", required=True, help="lang=path, repeatable")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect-reps", help="export representation diagnostics")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--stage", default="encoder_final")
    p.add_argument("--decoder-lang", dest="decoder_lang")
    p.add_argument("--test", action="append", required=True, help="lang=path, repeatable")
    p.add_argument("--sentences", type=int, default=analysis.DEFAULT_SENTENCE_COUNT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect_reps)

    return parser


def dispatch(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

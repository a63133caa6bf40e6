import hashlib
import os
from dataclasses import fields

import numpy as np
import pytest

from modnmt.cli import UsageError, build_parser, dispatch, read_config_file
from modnmt.corpus import SyntheticLanguageSpec, cipher_oracle_translate
from modnmt.tensor import HEAP, LINEAR_SPLIT
from modnmt.trainer import TrainingConfig

SMALL_TRAIN = [
    "--steps", "25", "--warmup-steps", "10", "--batch-tokens", "128",
    "--dim", "16", "--n-blocks", "1", "--n-heads", "2", "--ff-dim", "32",
]


def read(path):
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data + vocabularies + a short joint run, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = dispatch(["gen-data", "--base-vocab", "16", "--langs", "3",
                   "--n", "80", "--n-test", "20", "--len-min", "3", "--len-max", "8",
                   "--seed", "5", "--out", str(data)])
    assert rc == 0
    for lang in "XYZ":
        rc = dispatch(["build-vocab", "--corpus", str(data / f"{lang}.txt"),
                       "--language", lang, "--size", "24",
                       "--out", str(data / f"vocab_{lang}.txt")])
        assert rc == 0
    run1 = root / "run1"
    rc = dispatch(["train-joint",
                   "--src-corpus", str(data / "X.txt"), "--tgt-corpus", str(data / "Y.txt"),
                   "--src-vocab", str(data / "vocab_X.txt"), "--tgt-vocab", str(data / "vocab_Y.txt"),
                   "--seed", "5", "--out", str(run1), *SMALL_TRAIN])
    assert rc == 0
    return root, data, run1


class TestGenData:
    def test_outputs_and_alignment(self, workspace):
        _, data, _ = workspace
        for lang in "XYZ":
            assert (data / f"spec_{lang}.txt").exists()
            assert (data / f"{lang}.txt").exists()
            assert (data / f"{lang}.test.txt").exists()
        specs = {L: SyntheticLanguageSpec.load(data / f"spec_{L}.txt") for L in "XYZ"}
        lx = read(data / "X.txt").splitlines()
        ly = read(data / "Y.txt").splitlines()
        assert len(lx) == len(ly) == 80
        for src, tgt in zip(lx, ly):
            assert cipher_oracle_translate(specs["X"], specs["Y"], src) == tgt

    def test_too_many_langs(self, tmp_path):
        assert dispatch(["gen-data", "--langs", "99", "--out", str(tmp_path / "d")]) == 1

    @pytest.mark.parametrize("argv", [
        ["--langs", "0"], ["--langs", "-1"], ["--langs", "9"],
        ["--len-min", "5", "--len-max", "3"], ["--len-min", "-3"],
        ["--seed", "-1"], ["--base-vocab", "0"], ["--base-vocab", "93"],
    ], ids=["langs0", "langs-1", "langs9", "len_min_over_max", "len_min_negative",
            "seed_negative", "base_vocab0", "base_vocab_over_alphabet"])
    def test_bad_arguments_write_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "d"
        assert dispatch(["gen-data", "--n", "4", "--n-test", "2", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("steps = 12  # comment\nmetric = l2\n\nlr_peak = 0.002\n")
        assert read_config_file(cfg) == {"steps": 12, "metric": "l2", "lr_peak": 0.002}

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("momentum = 0.9\n")
        with pytest.raises(Exception, match="unknown config key"):
            read_config_file(cfg)

    def test_eval_every_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("eval_every = 5\n")
        with pytest.raises(UsageError, match="unknown config key 'eval_every'"):
            read_config_file(cfg)

    def test_flags_override_file(self, workspace, tmp_path):
        _, data, _ = workspace
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("steps = 99999\n")
        out = tmp_path / "run"
        rc = dispatch(["train-joint", "--config", str(cfg),
                       "--src-corpus", str(data / "X.txt"), "--tgt-corpus", str(data / "Y.txt"),
                       "--src-vocab", str(data / "vocab_X.txt"), "--tgt-vocab", str(data / "vocab_Y.txt"),
                       "--seed", "5", "--out", str(out), *SMALL_TRAIN])
        assert rc == 0
        assert "config.steps: 25" in read(out / "manifest.txt")


class TestConfigSurface:
    """The settable values are TrainingConfig's fields plus max_len, each a
    flag of both training subcommands and a config key, typed as its default."""

    DEFAULTS = {f.name: f.default for f in fields(TrainingConfig)} | {"max_len": 80}
    REQUIRED = {
        "train-joint": ["--src-corpus", "x", "--tgt-corpus", "y", "--src-vocab", "vx",
                        "--tgt-vocab", "vy", "--out", "run"],
        "add-language": ["--from", "c", "--src-corpus", "z", "--tgt-corpus", "x",
                         "--new-vocab", "vz", "--shared-lang", "X", "--out", "run"],
    }

    @pytest.mark.parametrize("command", ["train-joint", "add-language"])
    def test_every_value_is_a_flag(self, command):
        argv = [command, *self.REQUIRED[command]]
        for key, default in self.DEFAULTS.items():
            argv += ["--" + key.replace("_", "-"), str(default)]
        args = build_parser().parse_args(argv)
        for key, default in self.DEFAULTS.items():
            value = getattr(args, key)
            assert type(value) is type(default) and value == default, key

    def test_every_value_is_a_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{key} = {default}\n" for key, default in self.DEFAULTS.items()))
        values = read_config_file(cfg)
        assert list(values) == list(self.DEFAULTS)
        for key, default in self.DEFAULTS.items():
            assert type(values[key]) is type(default) and values[key] == default, key

    def test_joint_manifest_config_order(self, workspace):
        _, _, run1 = workspace
        keys = [line.split(":")[0][len("config."):] for line in read(run1 / "manifest.txt").splitlines()
                if line.startswith("config.")]
        assert keys == ["steps", "batch_tokens", "lr_peak", "warmup_steps", "seed", "metric",
                        "metric_weight", "dim", "n_blocks", "n_heads", "ff_dim"]


class TestTrainJoint:
    def test_artifacts(self, workspace):
        _, _, run1 = workspace
        assert (run1 / "checkpoint.bin").exists()
        assert (run1 / "vocab_X.txt").exists() and (run1 / "vocab_Y.txt").exists()
        loss = read(run1 / "loss.csv").splitlines()
        assert loss[0] == "step,l_xx,l_yy,l_xy,l_yx,d,total,lr"
        assert len(loss) == 26
        manifest = read(run1 / "manifest.txt")
        assert "kind: joint" in manifest and "status: ok" in manifest
        lines = manifest.splitlines()
        assert f"env.numpy: {np.__version__}" in lines
        assert any(line.startswith("env.python: 3.") for line in lines)
        assert any(line.startswith("env.blas: ") for line in lines)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert f"env.{var}: {os.environ.get(var, 'unset')}" in lines
        assert f"env.malloc: {HEAP}" in lines
        assert HEAP == "default" or HEAP == "mmap_threshold=33554432 trim_threshold=268435456"
        assert f"env.cpus: {len(os.sched_getaffinity(0))}" in lines
        assert f"env.linear_split: {LINEAR_SPLIT}" in lines

    @pytest.mark.parametrize("argv, message", [
        (["--dim", "0"], "dim must be >= 1"),
        (["--steps", "0"], "steps must be >= 1"),
        (["--metric-weight", "-1"], "weight must be nonnegative"),
        (["--metric-weight", "nan"], "weight must be nonnegative"),
        (["--metric-weight", "inf"], "weight must be nonnegative"),
        (["--n-heads", "3", "--dim", "16"], "dim 16 not divisible by 3 heads"),
        (["--lr-peak", "-1"], "lr_peak must be finite and > 0"),
        (["--lr-peak", "0"], "lr_peak must be finite and > 0"),
        (["--lr-peak", "nan"], "lr_peak must be finite and > 0"),
        (["--max-len", "0"], "max_len must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
    ], ids=["dim0", "steps0", "metric_weight_negative", "metric_weight_nan", "metric_weight_inf",
            "heads_indivisible",
            "lr_peak_negative", "lr_peak0", "lr_peak_nan", "max_len0", "seed_negative"])
    def test_bad_config_is_usage_error_before_out(self, workspace, tmp_path, capsys, argv, message):
        _, data, _ = workspace
        out = tmp_path / "run"
        rc = dispatch(["train-joint",
                       "--src-corpus", str(data / "X.txt"), "--tgt-corpus", str(data / "Y.txt"),
                       "--src-vocab", str(data / "vocab_X.txt"), "--tgt-vocab", str(data / "vocab_Y.txt"),
                       "--out", str(out), *SMALL_TRAIN, *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, cause", [
        (["--batch-tokens", "4"], "exceeds batch budget 4"),
        (["--max-len", "1"], "cannot batch an empty corpus"),  # every line has 3 to 8 words
    ], ids=["batch_tokens_below_longest_pair", "max_len_empties_corpus"])
    def test_unbatchable_corpus_writes_failed_manifest(self, workspace, tmp_path, argv, cause):
        _, data, _ = workspace
        out = tmp_path / "run"
        rc = dispatch(["train-joint",
                       "--src-corpus", str(data / "X.txt"), "--tgt-corpus", str(data / "Y.txt"),
                       "--src-vocab", str(data / "vocab_X.txt"), "--tgt-vocab", str(data / "vocab_Y.txt"),
                       "--out", str(out), *SMALL_TRAIN, *argv])
        assert rc == 2
        manifest = read(out / "manifest.txt").splitlines()
        assert "status: failed" in manifest and "failure_step: 1" in manifest
        assert any(line.startswith("failure_cause:") and cause in line for line in manifest)
        assert not (out / "checkpoint.bin").exists()

    def test_misaligned_corpora_create_no_out(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        short = tmp_path / "Y79.txt"
        short.write_text("".join(read(data / "Y.txt").splitlines(keepends=True)[:79]), encoding="utf-8")
        out = tmp_path / "run"
        rc = dispatch(["train-joint",
                       "--src-corpus", str(data / "X.txt"), "--tgt-corpus", str(short),
                       "--src-vocab", str(data / "vocab_X.txt"), "--tgt-vocab", str(data / "vocab_Y.txt"),
                       "--out", str(out), *SMALL_TRAIN])
        assert rc == 2
        assert "alignment error" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_identical(self, workspace, tmp_path):
        _, data, run1 = workspace
        out = tmp_path / "rerun"
        rc = dispatch(["train-joint",
                       "--src-corpus", str(data / "X.txt"), "--tgt-corpus", str(data / "Y.txt"),
                       "--src-vocab", str(data / "vocab_X.txt"), "--tgt-vocab", str(data / "vocab_Y.txt"),
                       "--seed", "5", "--out", str(out), *SMALL_TRAIN])
        assert rc == 0
        assert read(out / "loss.csv") == read(run1 / "loss.csv")
        assert hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest() == \
            hashlib.sha256((run1 / "checkpoint.bin").read_bytes()).hexdigest()


    def test_failed_run_writes_manifest(self, tmp_path):
        # the first 41 pairs of the seed-7 2k corpus make 1-row batches at batch_tokens 25
        data = tmp_path / "data"
        assert dispatch(["gen-data", "--langs", "2", "--n", "2000", "--n-test", "0",
                         "--seed", "7", "--out", str(data)]) == 0
        for lang in "XY":
            assert dispatch(["build-vocab", "--corpus", str(data / f"{lang}.txt"), "--language", lang,
                             "--size", "96", "--out", str(data / f"vocab_{lang}.txt")]) == 0
            head = read(data / f"{lang}.txt").splitlines(keepends=True)[:41]
            (data / f"{lang}41.txt").write_text("".join(head), encoding="utf-8")
        out = tmp_path / "failed"
        rc = dispatch(["train-joint",
                       "--src-corpus", str(data / "X41.txt"), "--tgt-corpus", str(data / "Y41.txt"),
                       "--src-vocab", str(data / "vocab_X.txt"), "--tgt-vocab", str(data / "vocab_Y.txt"),
                       "--seed", "7", "--out", str(out), *SMALL_TRAIN, "--batch-tokens", "25"])
        assert rc == 2
        manifest = read(out / "manifest.txt").splitlines()
        assert "status: failed" in manifest and "failure_step: 1" in manifest
        assert any(line.startswith("failure_cause:") and "at least 2" in line for line in manifest)
        assert not (out / "checkpoint.bin").exists()


@pytest.fixture(scope="module")
def run2(workspace):
    root, data, run1 = workspace
    out = root / "run2"
    rc = dispatch(["add-language", "--from", str(run1 / "checkpoint.bin"),
                   "--src-corpus", str(data / "Z.txt"), "--tgt-corpus", str(data / "X.txt"),
                   "--new-vocab", str(data / "vocab_Z.txt"), "--shared-lang", "X",
                   "--seed", "6", "--out", str(out), *SMALL_TRAIN])
    assert rc == 0
    return out


class TestAddLanguage:
    def test_artifacts_and_freeze(self, workspace, run2):
        _, _, run1 = workspace
        from modnmt.model import load_checkpoint
        from modnmt.tokenizer import Vocabulary
        vocabs = {L: Vocabulary.load(run2 / f"vocab_{L}.txt") for L in "XYZ"}
        before = load_checkpoint(run1 / "checkpoint.bin",
                                 {L: vocabs[L] for L in "XY"}).snapshot()
        after = load_checkpoint(run2 / "checkpoint.bin", vocabs).snapshot()
        assert "encoder:Z" in after
        for name in before:
            assert after[name] == before[name]
        loss = read(run2 / "loss.csv").splitlines()
        assert loss[0] == "step,l_zx,l_xz,total,lr"

    def test_bad_shared_lang(self, workspace, tmp_path):
        _, data, run1 = workspace
        rc = dispatch(["add-language", "--from", str(run1 / "checkpoint.bin"),
                       "--src-corpus", str(data / "Z.txt"), "--tgt-corpus", str(data / "X.txt"),
                       "--new-vocab", str(data / "vocab_Z.txt"), "--shared-lang", "Q",
                       "--out", str(tmp_path / "bad"), *SMALL_TRAIN])
        assert rc == 1
        assert not (tmp_path / "bad").exists()

    def test_dim_unlike_checkpoint_creates_no_out(self, workspace, tmp_path, capsys):
        _, data, run1 = workspace
        out = tmp_path / "run"
        rc = dispatch(["add-language", "--from", str(run1 / "checkpoint.bin"),
                       "--src-corpus", str(data / "Z.txt"), "--tgt-corpus", str(data / "X.txt"),
                       "--new-vocab", str(data / "vocab_Z.txt"), "--shared-lang", "X",
                       "--out", str(out), *SMALL_TRAIN, "--dim", "32"])
        assert rc == 2
        assert "incompatible with frozen decoder dim 16" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error_before_out(self, workspace, tmp_path, capsys):
        _, data, run1 = workspace
        out = tmp_path / "run"
        rc = dispatch(["add-language", "--from", str(run1 / "checkpoint.bin"),
                       "--src-corpus", str(data / "Z.txt"), "--tgt-corpus", str(data / "X.txt"),
                       "--new-vocab", str(data / "vocab_Z.txt"), "--shared-lang", "X",
                       "--out", str(out), *SMALL_TRAIN, "--seed", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "seed must be >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--metric", "l2"], ["--metric-weight", "5"]],
                             ids=["metric", "metric_weight"])
    def test_metric_flag_rejected(self, workspace, tmp_path, capsys, flag):
        _, data, run1 = workspace
        out = tmp_path / "run"
        rc = dispatch(["add-language", "--from", str(run1 / "checkpoint.bin"),
                       "--src-corpus", str(data / "Z.txt"), "--tgt-corpus", str(data / "X.txt"),
                       "--new-vocab", str(data / "vocab_Z.txt"), "--shared-lang", "X",
                       "--out", str(out), *SMALL_TRAIN, *flag])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag[0][2:].replace("-", "_") in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["metric = l2", "metric_weight = 5"])
    def test_metric_config_key_rejected(self, workspace, tmp_path, capsys, line):
        _, data, run1 = workspace
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        out = tmp_path / "run"
        rc = dispatch(["add-language", "--config", str(cfg), "--from", str(run1 / "checkpoint.bin"),
                       "--src-corpus", str(data / "Z.txt"), "--tgt-corpus", str(data / "X.txt"),
                       "--new-vocab", str(data / "vocab_Z.txt"), "--shared-lang", "X",
                       "--out", str(out), *SMALL_TRAIN])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and line.split(" ")[0] in err
        assert not out.exists()


    def test_failed_run_writes_manifest(self, workspace, tmp_path, monkeypatch):
        _, data, run1 = workspace
        from modnmt import trainer
        from modnmt.tensor import Tensor

        monkeypatch.setattr(trainer, "cross_entropy", lambda *args: Tensor(float("nan")))
        out = tmp_path / "failed"
        rc = dispatch(["add-language", "--from", str(run1 / "checkpoint.bin"),
                       "--src-corpus", str(data / "Z.txt"), "--tgt-corpus", str(data / "X.txt"),
                       "--new-vocab", str(data / "vocab_Z.txt"), "--shared-lang", "X",
                       "--seed", "6", "--out", str(out), *SMALL_TRAIN])
        assert rc == 2
        manifest = read(out / "manifest.txt").splitlines()
        assert "kind: add_language" in manifest and "status: failed" in manifest
        assert "failure_step: 1" in manifest
        assert any(line.startswith("env.blas: ") for line in manifest)
        assert f"env.malloc: {HEAP}" in manifest


class TestTranslate:
    def test_translate_and_meta(self, workspace, run2, tmp_path):
        _, data, _ = workspace
        out_file = tmp_path / "hyp.txt"
        rc = dispatch(["translate", "--ckpt", str(run2 / "checkpoint.bin"),
                       "--src", "Z", "--tgt", "Y", "--route", "zero_shot",
                       "--in", str(data / "Z.test.txt"), "--out", str(out_file)])
        assert rc == 0
        assert len(read(out_file).splitlines()) == 20
        meta = read(tmp_path / "hyp.txt.meta")
        assert "route: zero_shot" in meta and "src: Z" in meta

    def test_via_without_pivot_rejected(self, workspace, run2, tmp_path, capsys):
        _, data, _ = workspace
        out_file = tmp_path / "hyp.txt"
        rc = dispatch(["translate", "--ckpt", str(run2 / "checkpoint.bin"),
                       "--src", "Z", "--tgt", "Y", "--route", "direct", "--via", "Q",
                       "--in", str(data / "Z.test.txt"), "--out", str(out_file)])
        assert rc == 2
        assert "via" in capsys.readouterr().err
        assert not out_file.exists() and not (tmp_path / "hyp.txt.meta").exists()

    def test_missing_module_is_runtime_error(self, workspace, tmp_path):
        _, data, run1 = workspace
        rc = dispatch(["translate", "--ckpt", str(run1 / "checkpoint.bin"),
                       "--src", "Q", "--tgt", "Y",
                       "--in", str(data / "X.test.txt"), "--out", str(tmp_path / "o.txt")])
        assert rc == 2


class TestEvaluate:
    def test_grid_csv(self, workspace, run2, tmp_path, capsys):
        _, data, _ = workspace
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            "# analog of the trained/zero-shot/pivot comparison\n"
            "added,direct,Z,X\n"
            "zeroshot,zero_shot,Z,Y\n"
            "pivot,pivot,Z,Y,X\n")
        out = tmp_path / "grid.csv"
        rc = dispatch(["evaluate", "--ckpt", str(run2 / "checkpoint.bin"),
                       "--grid", str(grid),
                       "--test", f"X={data / 'X.test.txt'}",
                       "--test", f"Y={data / 'Y.test.txt'}",
                       "--test", f"Z={data / 'Z.test.txt'}",
                       "--out", str(out)])
        assert rc == 0
        lines = read(out).splitlines()
        assert lines[0].startswith("label,route,src,tgt,via,bleu")
        assert len(lines) == 4
        assert lines[3].startswith("pivot,pivot,Z,Y,X,")
        assert "zeroshot" in capsys.readouterr().out

    def test_missing_test_language_is_usage_error(self, workspace, run2, tmp_path, capsys, monkeypatch):
        _, data, _ = workspace
        from modnmt import translator

        monkeypatch.setattr(translator, "_translate_block", lambda *args: pytest.fail("translated"))
        grid = tmp_path / "grid.cfg"
        grid.write_text("a,direct,Z,X\n")
        out = tmp_path / "g.csv"
        rc = dispatch(["evaluate", "--ckpt", str(run2 / "checkpoint.bin"),
                       "--grid", str(grid), "--test", f"Z={data / 'Z.test.txt'}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "no --test lines for language 'X'" in err
        assert not out.exists()

    def test_malformed_grid(self, workspace, run2, tmp_path):
        _, data, _ = workspace
        grid = tmp_path / "grid.cfg"
        grid.write_text("only,three,fields\n")
        rc = dispatch(["evaluate", "--ckpt", str(run2 / "checkpoint.bin"),
                       "--grid", str(grid), "--test", f"X={data / 'X.test.txt'}",
                       "--out", str(tmp_path / "g.csv")])
        assert rc == 1


class TestInspectReps:
    def test_outputs(self, workspace, run2, tmp_path):
        _, data, _ = workspace
        out = tmp_path / "reps"
        rc = dispatch(["inspect-reps", "--ckpt", str(run2 / "checkpoint.bin"),
                       "--test", f"X={data / 'X.test.txt'}",
                       "--test", f"Y={data / 'Y.test.txt'}",
                       "--sentences", "12", "--out", str(out)])
        assert rc == 0
        assert (out / "reps_X.csv").exists() and (out / "reps_Y.csv").exists()
        assert read(out / "projection.csv").splitlines()[0] == "lang,sentence_idx,x,y"
        report = read(out / "report.txt")
        assert "correlation_distance X-Y:" in report
        assert "collapse X:" in report


    @pytest.mark.parametrize("count", ["1", "0", "-1"])
    def test_too_few_sentences_is_usage_error(self, workspace, run2, tmp_path, capsys, count):
        _, data, _ = workspace
        rc = dispatch(["inspect-reps", "--ckpt", str(run2 / "checkpoint.bin"),
                       "--test", f"X={data / 'X.test.txt'}", "--test", f"Y={data / 'Y.test.txt'}",
                       "--sentences", count, "--out", str(tmp_path / "reps")])
        assert rc == 1
        assert "--sentences" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, message", [(0, "empty corpus"), (1, "at least 2 sentences")])
    def test_short_test_files_are_analysis_errors(self, workspace, run2, tmp_path, capsys, lines, message):
        _, data, _ = workspace
        for lang in "XY":
            head = read(data / f"{lang}.test.txt").splitlines()[:lines]
            (tmp_path / f"{lang}.txt").write_text("".join(line + "\n" for line in head), encoding="utf-8")
        rc = dispatch(["inspect-reps", "--ckpt", str(run2 / "checkpoint.bin"),
                       "--test", f"X={tmp_path / 'X.txt'}", "--test", f"Y={tmp_path / 'Y.txt'}",
                       "--out", str(tmp_path / "reps")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "reps").exists()


    def test_unparseable_decoder_block_is_analysis_error(self, workspace, run2, tmp_path, capsys):
        _, data, _ = workspace
        rc = dispatch(["inspect-reps", "--ckpt", str(run2 / "checkpoint.bin"),
                       "--test", f"X={data / 'X.test.txt'}", "--test", f"Y={data / 'Y.test.txt'}",
                       "--stage", "decoder_block_x", "--decoder-lang", "X", "--out", str(tmp_path / "reps")])
        assert rc == 2
        assert "unknown stage 'decoder_block_x'" in capsys.readouterr().err
        assert not (tmp_path / "reps").exists()


class TestDispatch:
    def test_unknown_command(self):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert dispatch(["build-vocab", "--language", "X"]) == 1

    def test_eval_every_flag_rejected(self, capsys):
        argv = ["train-joint", "--src-corpus", "x", "--tgt-corpus", "y", "--src-vocab", "vx",
                "--tgt-vocab", "vy", "--out", "run", "--eval-every", "5"]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--eval-every" in err

"""The command-line surface: config file format, subcommands, artifacts,
exit codes, and the one-line error contract.

One small training run is shared across the read-only tests (module
fixture); determinism tests launch their own runs and compare artifact
bytes.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catkg import cli as cli_mod
from catkg import trainer as trainer_mod
from catkg.attention import VARIANTS
from catkg.cli import _write_manifest, build_parser, main
from catkg.config import (KEY_MAP, TrainConfig, load_config, parse_config,
                          serialize_config, validate)
from catkg.errors import ConfigError, ParseError, PathError
from catkg import tensor as T
from catkg.kg import KgModel, evaluate, load_triples
from catkg.tensor import load_checkpoint, save_checkpoint

from conftest import build_toy_store, use_cpus, write_store_files

BASE_CONFIG = """\
# toy run: small enough to train in well under a second
model.d = 16
model.heads = 2
model.variant = cat
train.batch_size = 64
train.epochs = 8
train.lr = 0.01
train.dropout = 0.0
train.seed = 7
data.train_path = {train}
data.valid_path = {valid}
data.test_path = {test}
"""


def write_dataset(directory, **store_kw):
    kw = dict(n_entities=20, n_train=60, n_valid=10, n_test=5)
    kw.update(store_kw)
    return write_store_files(build_toy_store(**kw), directory)


def write_config(directory, paths, extra="", name="run.cfg"):
    text = BASE_CONFIG.format(**paths) + extra
    cfg_path = directory / name
    cfg_path.write_text(text, encoding="utf-8")
    return cfg_path


def run_cli(argv):
    """Invoke main() in process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Runs main() on argv[2:] in a fresh process, as ``python -m catkg`` does,
# then prints the names of the live threads. With argv[1] == "two" the
# process claims two CPUs whatever it may use.
CLI_PROCESS = """
import os, sys, threading
if sys.argv[1] == "two":
    os.sched_getaffinity = lambda pid: {0, 1}
from catkg.cli import main
code = main(sys.argv[2:])
print(" ".join(t.name for t in threading.enumerate()))
sys.exit(code)
"""


def process_env():
    """The environment with this checkout's package first on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def run_cli_process(argv, cpus="own"):
    """Run the CLI in a subprocess with numpy's default error handling,
    returning (exit_code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-c", CLI_PROCESS, cpus, *argv],
                          env=process_env(), capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def assert_one_non_finite_line(stderr):
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    assert lines[0].startswith("error: non-finite: ")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One finished training run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = write_dataset(root)
    cfg_path = write_config(root, paths)
    out_dir = root / "run1"
    code, stdout, stderr = run_cli(["train", "--config", str(cfg_path),
                                    "--out-dir", str(out_dir)])
    assert code == 0, stderr
    return {"root": root, "paths": paths, "config": cfg_path,
            "out_dir": out_dir, "checkpoint": out_dir / "model.catw",
            "stdout": stdout}


# Every config key in file order: a field the file format does not name
# cannot be set, serialized or recorded in a manifest.
ALL_KEYS = [
    ("model.d", "d"), ("model.heads", "heads"),
    ("model.ff_multiplier", "ff_multiplier"), ("model.variant", "variant"),
    ("train.batch_size", "batch_size"), ("train.epochs", "epochs"),
    ("train.lr", "lr"), ("train.weight_decay", "weight_decay"),
    ("train.dropout", "dropout"),
    ("train.label_smoothing", "label_smoothing"),
    ("train.lambda_ent_init", "lambda_ent_init"),
    ("train.plateau_patience", "plateau_patience"), ("train.seed", "seed"),
    ("data.train_path", "train_path"), ("data.valid_path", "valid_path"),
    ("data.test_path", "test_path"),
]

FLOAT_KEYS = [
    "train.lr", "train.weight_decay", "train.dropout",
    "train.label_smoothing", "train.lambda_ent_init",
]


README = Path(__file__).resolve().parents[1] / "README.md"

STR_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)
              if f.type == "str"]

# Blanks str.strip() removes, breaks str.splitlines() splits at, and a few
# characters that are neither.
_BLANKS_AND_BREAKS = (" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
                      "\u2000\u2028\u2029\u3000\u200b,#=")


def _str_values(name):
    """Values for str field ``name``: ones it accepts, with blanks and line
    breaks around or inside them, and arbitrary text."""
    f = next(f for f in dataclasses.fields(TrainConfig) if f.name == name)
    rule = f.metadata["rule"]
    core = st.one_of(
        st.sampled_from([f.default, "data/x y.txt",
                         *(rule if isinstance(rule, tuple) else ())]),
        st.text(max_size=12))
    junk = st.text(alphabet=_BLANKS_AND_BREAKS, max_size=3)
    join = lambda a, b, c: a + b + c  # noqa: E731
    return st.one_of(core, st.builds(join, junk, core, junk),
                     st.builds(join, core, junk, core))


class TestConfigFormat:
    def test_key_map_names_every_field_in_file_order(self):
        assert list(KEY_MAP.items()) == ALL_KEYS
        assert [f.name for f in dataclasses.fields(TrainConfig)] == \
            [name for _, name in ALL_KEYS]

    def test_readme_key_table_matches_the_config(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | default | rule |") + 2  # past |---|
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            key, default, _ = (cell.strip() for cell in
                               line.strip("|").split("|"))
            rows.append((key.strip("`"), default))
        written = dict(line.split(" = ", 1) for line in
                       serialize_config(TrainConfig()).splitlines())
        assert [key for key, _ in rows] == list(KEY_MAP)
        assert rows == [(key, f"`{value}`" if value else "empty")
                        for key, value in written.items()]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError) as info:
            parse_config(f"{key} = {value}\n")
        assert str(info.value) == f"{key} must be finite, got {float(value)}"

    def test_float_keys_are_the_float_fields(self):
        fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
        assert FLOAT_KEYS == [key for key, name in ALL_KEYS
                              if fields[name] == "float"]

    @pytest.mark.parametrize("line,message", [
        ("train.lr = 0", "train.lr must be positive, got 0.0"),
        ("train.label_smoothing = 1",
         "train.label_smoothing must be in [0, 1), got 1.0"),
        ("train.lambda_ent_init = -1",
         "train.lambda_ent_init must be >= 0, got -1.0"),
    ])
    def test_finite_range_messages(self, line, message):
        with pytest.raises(ConfigError) as info:
            parse_config(line + "\n")
        assert str(info.value) == message

    def test_round_trip_is_exact(self):
        cfg = validate(TrainConfig(
            d=32, heads=8, ff_multiplier=3, variant="hyperbolic",
            batch_size=128, epochs=7, lr=0.003,
            weight_decay=0.0, dropout=0.1, label_smoothing=0.0,
            lambda_ent_init=0.02, plateau_patience=4, seed=9, train_path="a",
            valid_path="b", test_path="c"))
        default = TrainConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(TrainConfig))
        text = serialize_config(cfg)
        assert [line.split(" = ")[0] for line in text.splitlines()] == \
            list(KEY_MAP)
        assert parse_config(text) == cfg

    def test_comments_blanks_and_spacing_ignored(self):
        cfg = parse_config("# header\n\n  model.d   =  8\nmodel.heads=1\n")
        assert cfg.d == 8 and cfg.heads == 1

    def test_unknown_key_is_an_error_not_a_default(self):
        # All but the first are keys an older config.txt may still hold.
        for text, lineno in [
                ("model.depth = 3\n", 1),
                ("model.d = 8\nmodel.activation = gelu\n", 2),
                ("model.d = 8\ntrain.entropy_sign = subtract\n", 2),
                ("model.d = 8\ntrain.dropout_sites = entity\n", 2),
                ("model.d = 8\ntrain.grad_clip = 1.0\n", 2),
                ("train.beta1 = 0.9\n", 1),
                ("model.d = 8\ntrain.beta2 = 0.999\n", 2),
                ("model.d = 8\nmodel.heads = 2\ntrain.adam_eps = 1e-8\n", 3),
                ("# old run\ntrain.plateau_factor = 0.5\n", 2),
                ("model.d = 8\n\ntrain.lambda_ent_decay = 0.95\n", 3),
                ("model.d = 8\ntrain.lambda_ent_min = 0.001\n", 2),
                ("model.d = 8\nmodel.curvature = 1.0\n", 2)]:
            key = text.splitlines()[-1].split(" = ")[0]
            with pytest.raises(ConfigError) as info:
                parse_config(text, source="x.cfg")
            assert str(info.value) == (
                f"x.cfg:{lineno}: unknown config key {key!r}")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config("model.d = 8\nmodel.d = 16\n")
        assert "duplicate" in str(info.value)

    def test_missing_equals_is_a_parse_error_with_lineno(self):
        with pytest.raises(ParseError) as info:
            parse_config("model.d = 8\nmodel.heads 2\n", source="f.cfg")
        assert "f.cfg:2" in str(info.value)

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config("model.d = eight\n")
        assert "model.d" in str(info.value)

    @pytest.mark.parametrize("line,needle", [
        ("model.d = 6\nmodel.heads = 4", "divisible"),
        ("train.dropout = 1.0", "train.dropout"),
        ("model.variant = toroidal", "model.variant"),
        ("train.lr = -0.1", "train.lr"),
    ])
    def test_range_validation(self, line, needle):
        with pytest.raises(ConfigError) as info:
            parse_config(line + "\n")
        assert needle in str(info.value)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(PathError):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("value", [
        " data.txt", "data.txt ", "\xa0x", "\tx", "a\nb", "a\r\nb", "a\rb",
        "a\x0bb", "a\x0cb", "a\x1cb", "a\x1db", "a\x1eb", "a\x85b",
        "a\u2028b", "a\u2029b", "\n"])
    def test_str_with_outer_blanks_or_line_breaks_rejected(self, value):
        # parse_config strips values and reads one line per key, so none of
        # these could be written to a config file and read back.
        assert _message(lambda: TrainConfig(train_path=value)) == (
            "data.train_path must have no outer blanks or line breaks, "
            f"got {value!r}")

    @pytest.mark.parametrize("name", STR_FIELDS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_accepted_str_value_round_trips(self, name, data):
        value = data.draw(_str_values(name))
        try:
            cfg = TrainConfig(**{name: value})
        except ConfigError:
            return
        assert parse_config(serialize_config(cfg)) == cfg


# Every key with a rule, in file order: the one declaration of what a
# valid run setting is. Each comes with an out-of-range value as the file
# spells it.
RULED_KEYS = [
    ("model.d", ">= 1", "0"), ("model.heads", ">= 1", "-2"),
    ("model.ff_multiplier", ">= 1", "0"),
    ("model.variant", VARIANTS, "toroidal"),
    ("train.batch_size", ">= 1", "0"), ("train.epochs", ">= 1", "0"),
    ("train.lr", "positive", "-1.0"),
    ("train.weight_decay", ">= 0", "-0.001"),
    ("train.dropout", "in [0, 1)", "1"),
    ("train.label_smoothing", "in [0, 1)", "1.5"),
    ("train.lambda_ent_init", ">= 0", "-0.01"),
    ("train.plateau_patience", ">= 1", "0"), ("train.seed", ">= 0", "-1"),
]

# Values no single field's rule can reject, checked by hand after the rules.
UNRULED_BAD = [("model.heads", "3")]


# True and False are no count or rate, though bool is an Integral.
BOOL_IS_NO_NUMBER = [
    (f.name, value, f"{f.metadata['section']}.{f.name}: expected "
     f"{'an integer' if f.type == 'int' else 'a number'}, got {value}")
    for f in dataclasses.fields(TrainConfig) if f.type in ("int", "float")
    for value in (True, False)]

# A str field takes only a str: unchecked, 5 crashes in str.split, None
# serializes as 'None', and a path of 0 reads (and closes) stdin.
NOT_A_STRING = [
    (f.name, value, f"{f.metadata['section']}.{f.name}: expected a string,"
     f" got {value}")
    for f in dataclasses.fields(TrainConfig) if f.type == "str"
    for value in (5, None)] + [
    ("train_path", 0, "data.train_path: expected a string, got 0")]


def _typed(key, raw):
    """``raw`` converted as parse_config converts the key's value."""
    kind = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    return {"int": int, "float": float, "str": str}[kind[KEY_MAP[key]]](raw)


def _message(call):
    with pytest.raises(ConfigError) as info:
        call()
    return str(info.value)


class TestConfigRules:
    def test_ruled_keys_in_file_order(self):
        declared = [(key, f.metadata["rule"]) for key, f in
                    zip(KEY_MAP, dataclasses.fields(TrainConfig))
                    if f.metadata["rule"] is not None]
        assert declared == [(key, rule) for key, rule, _ in RULED_KEYS]

    @pytest.mark.parametrize("key,rule,raw", RULED_KEYS)
    def test_constructor_raises_the_file_error(self, key, rule, raw):
        value = _typed(key, raw)
        built = _message(lambda: TrainConfig(**{KEY_MAP[key]: value}))
        assert built == _message(lambda: parse_config(f"{key} = {raw}\n"))
        assert built == (f"{key} must be one of {rule}, got {value!r}"
                         if isinstance(rule, tuple)
                         else f"{key} must be {rule}, got {value}")

    @pytest.mark.parametrize("key,raw", UNRULED_BAD)
    def test_cross_field_and_parsed_checks_match_the_file(self, key, raw):
        value = _typed(key, raw)
        assert (_message(lambda: TrainConfig(**{KEY_MAP[key]: value}))
                == _message(lambda: parse_config(f"{key} = {raw}\n")))

    def test_replace_checks_the_copy(self):
        assert (_message(lambda: dataclasses.replace(TrainConfig(), lr=0.0))
                == "train.lr must be positive, got 0.0")
        assert (_message(lambda: dataclasses.replace(TrainConfig(), lr=True))
                == "train.lr: expected a number, got True")

    @pytest.mark.parametrize("name,value,message", [
        ("d", "8", "model.d: expected an integer, got '8'"),
        ("seed", 1.0, "train.seed: expected an integer, got 1.0"),
        ("lr", "0.1", "train.lr: expected a number, got '0.1'"),
        ("dropout", None, "train.dropout: expected a number, got None"),
        ("variant", ["cat"], "model.variant: expected a string, got ['cat']"),
    ] + BOOL_IS_NO_NUMBER + NOT_A_STRING)
    def test_wrong_type_is_invalid_config(self, name, value, message):
        assert _message(lambda: TrainConfig(**{name: value})) == message

    def test_numpy_scalars_are_numbers(self):
        cfg = TrainConfig(seed=np.int64(3), epochs=np.int32(2),
                          lr=np.float32(0.5))
        assert (cfg.seed, cfg.epochs, cfg.lr) == (3, 2, 0.5)


class TestTrainCommand:
    def test_reports_metrics_and_artifacts(self, trained):
        stdout = trained["stdout"]
        assert re.search(r"split=valid seed=7 metric=mrr value=[\d.]+", stdout)
        assert re.search(r"split=test seed=7 metric=hits_at_10 ", stdout)
        assert "best_epoch=" in stdout
        out_dir = trained["out_dir"]
        for artifact in ("epochs.log", "model.catw", "config.txt",
                         "manifest.json"):
            assert (out_dir / artifact).exists(), artifact

    def test_diverging_run_writes_only_the_error_line(self, trained,
                                                      tmp_path):
        cfg_path = tmp_path / "huge-lr.cfg"
        cfg_path.write_text(trained["config"].read_text().replace(
            "train.lr = 0.01", "train.lr = 1e300").replace(
            "train.batch_size = 64", "train.batch_size = 16"),
            encoding="utf-8")
        code, _, stderr = run_cli_process([
            "train", "--config", str(cfg_path),
            "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_non_finite_line(stderr)
        assert "non-finite training loss" in stderr

    def test_epoch_log_has_one_line_per_epoch(self, trained):
        lines = (trained["out_dir"] / "epochs.log").read_text().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("epoch=1 train_loss=")
        assert all("alpha_e=" in line for line in lines)  # cat variant

    def test_manifest_contents(self, trained):
        manifest = json.loads(
            (trained["out_dir"] / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 7
        assert manifest["config"]["model.d"] == 16
        assert manifest["config"]["model.variant"] == "cat"
        for split in ("train", "valid", "test"):
            assert re.fullmatch(r"[0-9a-f]{64}",
                                manifest["datasets"][split]["sha256"])
        assert 0 < manifest["metrics"]["valid"]["mrr"] <= 1
        assert set(manifest["timings_sec"]) == {"load", "train", "final_eval"}
        assert manifest["artifacts"]["checkpoint"].endswith("model.catw")

    def test_config_snapshot_relaunches_identically(self, trained, tmp_path):
        snapshot = trained["out_dir"] / "config.txt"
        rerun = tmp_path / "rerun"
        code, _, err = run_cli(["train", "--config", str(snapshot),
                                "--out-dir", str(rerun)])
        assert code == 0, err
        assert ((rerun / "epochs.log").read_bytes()
                == (trained["out_dir"] / "epochs.log").read_bytes())

    def test_same_seed_is_bit_identical_different_seed_is_not(self, trained,
                                                              tmp_path):
        cfg = str(trained["config"])
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out, seed in ((a, "7"), (b, "7"), (c, "8")):
            code, _, err = run_cli(["train", "--config", cfg, "--seed", seed,
                                    "--out-dir", str(out)])
            assert code == 0, err
        assert (a / "epochs.log").read_bytes() == (b / "epochs.log").read_bytes()
        assert (a / "epochs.log").read_bytes() != (c / "epochs.log").read_bytes()

    def test_variant_override_lands_in_manifest(self, trained, tmp_path):
        out = tmp_path / "euclid"
        code, stdout, err = run_cli(["train", "--config",
                                     str(trained["config"]),
                                     "--variant", "euclidean",
                                     "--out-dir", str(out)])
        assert code == 0, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model.variant"] == "euclidean"
        log = (out / "epochs.log").read_text()
        assert "alpha_e=" not in log  # fixed geometry logs no routing

    def test_validates_each_epoch_and_tests_once(self, trained, tmp_path,
                                                 monkeypatch):
        splits = []

        def counted(store, model, split, *args, **kwargs):
            splits.append(split)
            return evaluate(store, model, split, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "evaluate", counted)
        monkeypatch.setattr(cli_mod, "evaluate", counted)
        out = tmp_path / "run"
        code, stdout, err = run_cli(["train", "--config",
                                     str(trained["config"]),
                                     "--out-dir", str(out)])
        assert code == 0, err
        assert splits == ["valid"] * 8 + ["test"]
        # The valid report is the best epoch's record, to the last bit.
        best = int(re.search(r"best_epoch=(\d+)", stdout).group(1))
        record = (out / "epochs.log").read_text().splitlines()[best - 1]
        mrr = re.search(r"valid_mrr=(\S+)", record).group(1)
        hits = re.search(r"valid_hits10=(\S+)", record).group(1)
        assert stdout.startswith(
            f"split=valid seed=7 metric=mrr value={mrr}\n"
            f"split=valid seed=7 metric=hits_at_10 value={hits}\n"
            f"split=valid seed=7 metric=n_evaluated value=10\n")

    def test_default_out_dir_is_runs_command(self, trained, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(["train", "--config", str(trained["config"])])
        assert code == 0, err
        assert (tmp_path / "runs" / "train" / "manifest.json").exists()


class TestManifestWrite:
    def test_failed_write_leaves_the_previous_manifest(self, tmp_path):
        cfg = TrainConfig()
        _write_manifest(tmp_path, "eval", cfg, timings={"eval": 1.0},
                        metrics={"test": {"mrr": 0.5}}, artifacts={})
        before = (tmp_path / "manifest.json").read_bytes()
        with pytest.raises(TypeError):  # json.dump fails after a partial write
            _write_manifest(tmp_path, "eval", cfg, timings={"eval": 2.0},
                            metrics={"test": {"mrr": object()}}, artifacts={})
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


    def test_build_records_blas_threads_and_cpus(self, tmp_path,
                                                 monkeypatch):
        # Runs whose bytes differ can then be told apart by these settings.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        use_cpus(monkeypatch, 3)
        _write_manifest(tmp_path, "eval", TrainConfig(), timings={},
                        metrics={}, artifacts={})
        build = json.loads((tmp_path / "manifest.json").read_text())["build"]
        assert build["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                         "OMP_NUM_THREADS": None,
                                         "MKL_NUM_THREADS": "4"}
        assert build["usable_cpus"] == 3


class TestEvalCommand:
    def test_metrics_match_the_training_manifest(self, trained, tmp_path):
        out = tmp_path / "eval"
        code, stdout, err = run_cli([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]),
            "--split", "valid", "--out-dir", str(out)])
        assert code == 0, err
        train_manifest = json.loads(
            (trained["out_dir"] / "manifest.json").read_text())
        value = float(re.search(r"metric=mrr value=([\d.e-]+)",
                                stdout).group(1))
        assert value == train_manifest["metrics"]["valid"]["mrr"]
        assert (out / "metrics.txt").read_text().splitlines()[0] in stdout

    def test_repeat_evaluation_is_identical(self, trained, tmp_path):
        argv = ["eval", "--config", str(trained["config"]),
                "--checkpoint", str(trained["checkpoint"]), "--split", "test"]
        _, first, _ = run_cli(argv + ["--out-dir", str(tmp_path / "e1")])
        _, second, _ = run_cli(argv + ["--out-dir", str(tmp_path / "e2")])
        assert first == second

    def test_eval_manifest_counts_triples(self, trained, tmp_path):
        out = tmp_path / "eval"
        code, _, err = run_cli([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]),
            "--split", "test", "--out-dir", str(out)])
        assert code == 0, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["test"]["n_evaluated"] == 5

    def test_missing_checkpoint_is_a_path_error(self, trained, tmp_path):
        code, _, stderr = run_cli([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(tmp_path / "ghost.catw"),
            "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert stderr.startswith("error: path-error: ")
        assert not (tmp_path / "out").exists()

    def test_non_finite_parameters_are_reported(self, trained, tmp_path):
        tensors = load_checkpoint(trained["checkpoint"])
        tensors["entity_emb"][1] = np.nan
        bad = tmp_path / "nan.catw"
        save_checkpoint(bad, tensors)
        code, _, stderr = run_cli([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert stderr.startswith("error: non-finite: ")

    def test_overflowing_scores_write_only_the_error_line(self, trained,
                                                          tmp_path):
        # Finite parameters whose scores overflow: numpy's warnings would
        # come before the error line.
        tensors = load_checkpoint(trained["checkpoint"])
        tensors["entity_emb"][1] = 1e308
        bad = tmp_path / "huge.catw"
        save_checkpoint(bad, tensors)
        code, _, stderr = run_cli_process([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert_one_non_finite_line(stderr)

    def test_overflow_on_the_helper_thread_writes_only_the_error_line(
            self, tmp_path):
        # The test split's (B, n) scores reach tensor.BESIDE_FROM, so with
        # two CPUs claimed the head's second row block and the finiteness
        # scan run on the helper thread. Entity 1 overflows the last
        # query's score, which is in that block.
        paths = write_dataset(tmp_path, n_entities=2048, n_train=2000,
                              n_valid=10, n_test=512)
        cfg_path = write_config(tmp_path, paths)
        store = load_triples(paths["train"], paths["valid"], paths["test"])
        assert store.test.shape[0] * store.n_entities >= T.BESIDE_FROM
        model = KgModel(store.n_entities, store.n_relations,
                        load_config(cfg_path))
        last, _ = model.query(store.test[-1:, 0], store.test[-1:, 1])
        model.entity_emb.data[1] = 1e308 * np.sign(last.data[0])
        checkpoint = tmp_path / "huge.catw"
        trainer_mod.save_model(checkpoint, model)
        code, stdout, stderr = run_cli_process([
            "eval", "--config", str(cfg_path), "--checkpoint",
            str(checkpoint), "--out-dir", str(tmp_path / "out")], "two")
        assert code == 1
        assert_one_non_finite_line(stderr)
        assert "catkg-helper" in stdout

    def test_corrupt_checkpoint_header_is_a_parse_error(self, trained,
                                                        tmp_path):
        raw = bytearray(trained["checkpoint"].read_bytes())
        raw[16:18] = b"\xff\xfe"  # first tensor name, no longer UTF-8
        bad = tmp_path / "bad.catw"
        bad.write_bytes(bytes(raw))
        code, _, stderr = run_cli([
            "eval", "--config", str(trained["config"]),
            "--checkpoint", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert stderr.startswith("error: parse-error: ")

    def test_variant_mismatch_is_incompatibility(self, trained, tmp_path):
        code, _, stderr = run_cli([
            "eval", "--config", str(trained["config"]),
            "--variant", "euclidean",
            "--checkpoint", str(trained["checkpoint"]),
            "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert stderr.startswith("error: incompatibility: ")

    def test_vocabulary_mismatch_is_incompatibility(self, trained, tmp_path):
        other = write_dataset(tmp_path, n_entities=25, seed=1)
        cfg_path = write_config(tmp_path, other)
        code, _, stderr = run_cli([
            "eval", "--config", str(cfg_path),
            "--checkpoint", str(trained["checkpoint"]),
            "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert stderr.startswith("error: incompatibility: ")


class TestRouteExportCommand:
    def test_writes_table_and_prints_means(self, trained, tmp_path):
        out = tmp_path / "routes"
        code, stdout, err = run_cli([
            "route-export", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]),
            "--split", "test", "--out-dir", str(out)])
        assert code == 0, err
        table = out / "routing.tsv"
        lines = table.read_text().splitlines()
        assert lines[0] == "head\trelation\talpha_e\talpha_h\talpha_s"
        printed = dict(re.findall(r"mean_(alpha_\w)=([\d.e-]+)", stdout))
        assert set(printed) == {"alpha_e", "alpha_h", "alpha_s"}
        manifest = json.loads((out / "manifest.json").read_text())
        for key, value in printed.items():
            assert float(value) == manifest["metrics"]["mean_alpha"][key]
        assert f"routing_table={table}" in stdout

    def test_row_weights_sum_to_one(self, trained, tmp_path):
        out = tmp_path / "routes"
        run_cli(["route-export", "--config", str(trained["config"]),
                 "--checkpoint", str(trained["checkpoint"]),
                 "--split", "valid", "--out-dir", str(out)])
        for line in (out / "routing.tsv").read_text().splitlines()[1:]:
            if line.startswith("#"):
                continue
            weights = [float(c) for c in line.split("\t")[2:]]
            assert abs(sum(weights) - 1.0) < 1e-12

    def test_custom_out_path(self, trained, tmp_path):
        target = tmp_path / "custom" / "table.tsv"
        target.parent.mkdir()
        code, stdout, _ = run_cli([
            "route-export", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]),
            "--out", str(target), "--out-dir", str(tmp_path / "meta")])
        assert code == 0
        assert target.exists()
        assert f"routing_table={target}" in stdout

    def test_out_in_a_missing_directory_fails_before_the_run_dir(
            self, trained, tmp_path):
        missing = tmp_path / "missing" / "dir"
        out = tmp_path / "rdir"
        code, stdout, stderr = run_cli([
            "route-export", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]),
            "--out", str(missing / "r.tsv"), "--out-dir", str(out)])
        assert code == 1 and stdout == ""
        assert stderr == (f"error: path-error: --out directory "
                          f"{str(missing)!r} does not exist\n")
        assert not out.exists() and not missing.parent.exists()

    def test_out_that_is_a_directory_fails_before_the_run_dir(
            self, trained, tmp_path):
        target = tmp_path / "table"
        target.mkdir()
        out = tmp_path / "rdir"
        code, stdout, stderr = run_cli([
            "route-export", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]),
            "--out", str(target), "--out-dir", str(out)])
        assert code == 1 and stdout == ""
        assert stderr == (f"error: path-error: --out {str(target)!r} is a"
                          f" directory\n")
        assert not out.exists() and not any(target.iterdir())

    def test_out_in_the_run_dir_it_makes(self, trained, tmp_path):
        out = tmp_path / "rdir"
        code, _, err = run_cli([
            "route-export", "--config", str(trained["config"]),
            "--checkpoint", str(trained["checkpoint"]),
            "--out", str(out / "r.tsv"), "--out-dir", str(out)])
        assert code == 0, err
        assert (out / "r.tsv").exists()

    def test_empty_split_is_invalid_config(self, trained, tmp_path):
        paths = write_dataset(tmp_path)
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        cfg_path = write_config(
            tmp_path, dict(paths, test=str(tmp_path / "empty.txt")))
        out = tmp_path / "routes"
        code, stdout, stderr = run_cli([
            "route-export", "--config", str(cfg_path),
            "--checkpoint", str(trained["checkpoint"]),
            "--split", "test", "--out-dir", str(out)])
        assert code == 1 and stdout == ""
        assert stderr == ("error: invalid-config: cannot export routing of "
                          "an empty 'test' split\n")
        assert not out.exists()

    def test_non_finite_weights_exit_one_and_leave_no_table(self, trained,
                                                            tmp_path):
        # Finite parameters that overflow the router of relation 1.
        tensors = load_checkpoint(trained["checkpoint"])
        tensors["relation_emb"][1] = 1e308
        tensors["block.router.lin2.bias"][:2] = 1e308
        bad = tmp_path / "huge.catw"
        save_checkpoint(bad, tensors)
        out = tmp_path / "routes"
        code, stdout, stderr = run_cli([
            "route-export", "--config", str(trained["config"]),
            "--checkpoint", str(bad), "--split", "train",
            "--out-dir", str(out)])
        assert code == 1 and stdout == ""
        assert re.fullmatch(r"error: non-finite: non-finite routing weights"
                            r" for query \(\d+, 1\) on the 'train' split\n",
                            stderr)
        assert not (out / "routing.tsv").exists()

    def test_fixed_variant_checkpoint_is_unsupported(self, trained, tmp_path):
        out = tmp_path / "fixed"
        code, _, err = run_cli(["train", "--config", str(trained["config"]),
                                "--variant", "spherical",
                                "--out-dir", str(out)])
        assert code == 0, err
        routes = tmp_path / "routes"
        code, _, stderr = run_cli([
            "route-export", "--config", str(trained["config"]),
            "--variant", "spherical",
            "--checkpoint", str(out / "model.catw"),
            "--out-dir", str(routes)])
        assert code == 1
        assert stderr.startswith("error: unsupported-variant: ")
        assert not routes.exists()


class TestBenchCommand:
    def test_report_covers_all_variants(self, trained, tmp_path):
        out = tmp_path / "bench"
        code, stdout, err = run_cli([
            "bench", "--config", str(trained["config"]),
            "--batch-size", "8", "--warmup", "1", "--iters", "3",
            "--out-dir", str(out)])
        assert code == 0, err
        for variant in ("cat", "euclidean", "hyperbolic", "spherical"):
            assert re.search(
                rf"variant={variant} params=\d+ mean_ms=[\d.]+ std_ms=[\d.]+"
                rf" batch=8 iters=3", stdout), variant
        assert "cat_vs_sum_of_fixed=" in stdout
        overhead = float(re.search(
            r"param_overhead_cat_vs_euclidean=([\d.]+)", stdout).group(1))
        assert overhead > 1.0
        assert (out / "bench.txt").read_text().strip() in stdout.strip()

    def test_without_dataset_uses_benchmark_vocabulary(self, tmp_path):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text("model.d = 16\nmodel.heads = 2\n",
                            encoding="utf-8")
        out = tmp_path / "bench"
        code, stdout, err = run_cli([
            "bench", "--config", str(cfg_path),
            "--batch-size", "4", "--warmup", "1", "--iters", "2",
            "--out-dir", str(out)])
        assert code == 0, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["n_entities"] == 14541
        assert manifest["metrics"]["n_relations"] == 237


    @pytest.mark.parametrize("flag,value", [
        ("--iters", "0"), ("--iters", "-3"), ("--batch-size", "0"),
        ("--warmup", "-1"), ("--iters", "many"),
    ])
    def test_bad_counts_exit_two(self, tmp_path, flag, value):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text("model.d = 16\nmodel.heads = 2\n",
                            encoding="utf-8")
        out = tmp_path / "bench"
        code, stdout, stderr = run_cli([
            "bench", "--config", str(cfg_path), "--batch-size", "4",
            "--warmup", "0", "--iters", "1", flag, value,
            "--out-dir", str(out)])
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: invalid-args: argument {flag}: ")
        assert not out.exists()


# Each subcommand's options: a flag no run needs is not declared.
COMMON = ["--config", "--seed", "--out-dir", "-h", "--help"]
SURFACE = {
    "train": COMMON + ["--variant"],
    "eval": COMMON + ["--variant", "--checkpoint", "--split"],
    "bench": COMMON + ["--batch-size", "--warmup", "--iters"],
    "route-export": COMMON + ["--variant", "--checkpoint", "--split", "--out"],
}


class TestSurface:
    def test_each_subcommand_declares_exactly_its_options(self):
        sub, = (a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        assert {name: sorted(s for action in p._actions
                             for s in action.option_strings)
                for name, p in sub.choices.items()} == \
            {name: sorted(options) for name, options in SURFACE.items()}

    def test_bench_has_no_variant_flag(self, trained, tmp_path):
        # bench times every variant, so a --variant would only mislabel
        # its manifest.
        out = tmp_path / "bench"
        code, stdout, stderr = run_cli([
            "bench", "--config", str(trained["config"]),
            "--variant", "cat", "--out-dir", str(out)])
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: invalid-args: ")
        assert not out.exists()


class TestErrorSurface:
    def test_help_exits_zero(self):
        code, stdout, _ = run_cli(["--help"])
        assert code == 0
        assert "train" in stdout and "route-export" in stdout

    def test_missing_required_flag_exits_two(self):
        code, _, stderr = run_cli(["train"])
        assert code == 2
        assert stderr.startswith("error: invalid-args: ")

    def test_unknown_subcommand_exits_two(self):
        code, _, stderr = run_cli(["explode"])
        assert code == 2
        assert "invalid-args" in stderr

    def test_unknown_flag_exits_two(self, trained):
        code, _, stderr = run_cli(["train", "--config",
                                   str(trained["config"]), "--turbo"])
        assert code == 2
        assert "invalid-args" in stderr

    def test_bad_variant_choice_exits_two(self, trained):
        code, _, stderr = run_cli(["train", "--config",
                                   str(trained["config"]),
                                   "--variant", "toroidal"])
        assert code == 2

    def test_negative_seed_override_exits_one(self, trained, tmp_path):
        out = tmp_path / "out"
        code, stdout, stderr = run_cli([
            "train", "--config", str(trained["config"]), "--seed", "-1",
            "--out-dir", str(out)])
        assert code == 1 and stdout == ""
        assert stderr == ("error: invalid-config: train.seed must be >= 0, "
                          "got -1\n")
        assert not out.exists()

    def test_missing_config_file_exits_one(self, tmp_path):
        code, _, stderr = run_cli(["train", "--config",
                                   str(tmp_path / "none.cfg")])
        assert code == 1
        assert stderr.startswith("error: path-error: ")

    def test_unknown_config_key_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for text, lineno in [("model.warp = 9\n", 1),
                             ("model.d = 8\nmodel.activation = gelu\n", 2),
                             ("model.d = 8\ntrain.grad_clip = 1.0\n", 2),
                             ("model.d = 8\nmodel.curvature = 1.0\n", 2)]:
            cfg.write_text(text, encoding="utf-8")
            code, _, stderr = run_cli(["train", "--config", str(cfg)])
            assert code == 1
            assert stderr.startswith("error: invalid-config: ")
            assert f"bad.cfg:{lineno}: unknown config key" in stderr

    # Mid-step, where the reported traceback came from, and while
    # config.txt's temp file is open.
    @pytest.mark.parametrize("owner,name", [(T.Tape, "backward"),
                                            (cli_mod, "serialize_config")])
    def test_interrupt_is_one_line_and_exit_130(self, tmp_path, monkeypatch,
                                                owner, name):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(owner, name, interrupt)
        out = tmp_path / "run"
        code, _, stderr = run_cli([
            "train", "--config", str(write_config(tmp_path,
                                                  write_dataset(tmp_path))),
            "--out-dir", str(out)])
        assert code == 130
        assert stderr.splitlines() == [
            "error: interrupted: train stopped before it finished"]
        assert not list(out.glob(".*.tmp"))

    def test_sigterm_is_one_line_and_exit_130(self, tmp_path):
        # A long run of the installed module, stopped once its first epoch
        # is on record.
        cfg = write_config(tmp_path, write_dataset(tmp_path))
        cfg.write_text(cfg.read_text().replace("train.epochs = 8",
                                               "train.epochs = 100000"))
        out = tmp_path / "run"
        proc = subprocess.Popen(
            [sys.executable, "-m", "catkg", "train", "--config", str(cfg),
             "--out-dir", str(out)], env=process_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            log = out / "epochs.log"
            deadline = time.monotonic() + 120
            while not (log.exists() and log.read_text()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert stderr == ("error: interrupted: train stopped before it "
                          "finished\n")
        assert not list(out.glob(".*.tmp"))

    def test_memory_error_is_one_line_and_exit_one(self, tmp_path,
                                                   monkeypatch):
        # numpy's message for `catkg bench` at model.d = 2**40.
        message = ("Unable to allocate 114. PiB for an array with shape "
                   "(14541, 1099511627776) and data type float64")
        handlers = []

        def exhaust(args):
            handlers.append(signal.getsignal(signal.SIGTERM))
            raise MemoryError(message)

        monkeypatch.setattr(cli_mod, "_cmd_bench", exhaust)
        before = signal.getsignal(signal.SIGTERM)
        assert run_cli(["bench", "--config", str(tmp_path / "x.cfg")]) == (
            1, "", f"error: out-of-memory: {message}\n")
        # SIGTERM raised KeyboardInterrupt only while the command ran.
        assert handlers == [signal.default_int_handler]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_oversized_table_is_out_of_memory(self, tmp_path):
        # 14,541 × 2⁵⁰ float64 values are more bytes than an address
        # space holds, so numpy would refuse the shape without trying.
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"model.d = {2 ** 50}\nmodel.heads = 2\n",
                       encoding="utf-8")
        out = tmp_path / "bench"
        code, stdout, stderr = run_cli(["bench", "--config", str(cfg),
                                        "--out-dir", str(out)])
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: out-of-memory: a float64 (14541, {2 ** 50})"
                          f" table does not fit in the address space\n")
        assert not out.exists()

    def test_config_syntax_error_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.d 16\n", encoding="utf-8")
        code, _, stderr = run_cli(["train", "--config", str(cfg)])
        assert code == 1
        assert stderr.startswith("error: parse-error: ")

    def test_config_that_is_not_utf8_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"model.d = 16\nmodel.heads = \xff\n")
        code, _, stderr = run_cli(["train", "--config", str(cfg)])
        assert code == 1
        assert stderr.startswith("error: parse-error: ")
        assert "bad.cfg" in stderr

    def test_dataset_that_is_not_utf8_exits_one(self, tmp_path):
        paths = write_dataset(tmp_path)
        broken = tmp_path / "valid.txt"
        lines = broken.read_bytes().splitlines(keepends=True)
        lines[3] = b"caf\xe9\tr0\te1\n"  # Latin-1, not UTF-8
        broken.write_bytes(b"".join(lines))
        cfg_path = write_config(tmp_path, paths)
        code, _, stderr = run_cli(["train", "--config", str(cfg_path),
                                   "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert stderr.startswith("error: parse-error: ")
        assert f"{broken}:4" in stderr

    def test_config_without_data_paths_exits_one(self, tmp_path):
        cfg = tmp_path / "nodata.cfg"
        cfg.write_text("model.d = 16\nmodel.heads = 2\n", encoding="utf-8")
        code, _, stderr = run_cli(["train", "--config", str(cfg),
                                   "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert stderr.startswith("error: path-error: ")
        assert "data.train_path" in stderr

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_empty_split_exits_one_before_training(self, tmp_path, split):
        paths = write_dataset(tmp_path)
        (tmp_path / f"{split}.txt").write_text("", encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, stderr = run_cli(["train", "--config",
                                        str(write_config(tmp_path, paths)),
                                        "--out-dir", str(out)])
        assert code == 1 and stdout == ""
        assert stderr == ("error: invalid-config: cannot train with an "
                          f"empty {split!r} split\n")
        assert not out.exists()

    def test_malformed_dataset_line_exits_one(self, tmp_path):
        paths = write_dataset(tmp_path)
        broken = tmp_path / "train.txt"
        text = broken.read_text(encoding="utf-8").splitlines()
        text.insert(2, "only\ttwo")
        broken.write_text("".join(l + "\n" for l in text), encoding="utf-8")
        cfg_path = write_config(tmp_path, paths)
        code, _, stderr = run_cli(["train", "--config", str(cfg_path),
                                   "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert stderr.startswith("error: parse-error: ")
        assert f"{broken}:3" in stderr
        assert not (tmp_path / "out").exists()

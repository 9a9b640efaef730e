import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from refdoc import service
from refdoc.cli import main
from refdoc.corpus import save_corpus
from refdoc.model_io import save_model
from refdoc.synthetic import generate_corpus

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env():
    """The environment with src/ first on PYTHONPATH, for a child python."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    save_corpus(generate_corpus(seed=1, per_class=25), path)
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, nb_model):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(nb_model, path)
    return path


def test_unknown_flag_exits_1_with_clean_stdout(capsys):
    assert main(["--definitely-not-a-flag"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err


def test_no_command_exits_1(capsys):
    assert main([]) == 1
    assert capsys.readouterr().out == ""


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_corpus_is_a_data_error(capsys, tmp_path):
    assert main(["ingest", str(tmp_path / "nope.jsonl")]) == 2


def deeply_nested(path):
    """A JSON file of one array nested 200,000 deep, as a string path."""
    path.write_text("[" * 200_000 + "]" * 200_000 + "\n")
    return str(path)


def not_utf8(path):
    """A file whose bytes are not UTF-8 text, as a string path."""
    path.write_bytes(b'{"id": "\xff"}\n')
    return str(path)


def unlabeled_corpus(path):
    """A JSONL corpus of two records with no label, as a string path."""
    path.write_text("".join(json.dumps({"id": str(i), "message": message})
                            + "\n" for i, message in
                            enumerate(["renamed the method", "moved it"])))
    return str(path)


def _repeat_first_class(payload):
    payload["class_order"][1] = payload["class_order"][0]


def _repeat_selected_ngram(payload):
    vocab = payload["vocabulary"]
    first, second = vocab["selected"][:2]
    vocab["ngrams"][second] = vocab["ngrams"][first]


def predict_with(edit):
    """A hostile case's argv: predict with the case's model file after
    edit has damaged its payload."""
    def argv(p):
        payload = json.loads(Path(p["model"]).read_text())
        edit(payload)
        path = p["tmp"] / "edited.json"
        path.write_text(json.dumps(payload))
        return ["predict", "renamed the method", "--model", str(path)]
    return argv


# case -> (argv from the case's paths, expected text in stderr)
HOSTILE = {
    "serve-port-out-of-range": (lambda p: [
        "serve", "--model", p["model"], "--port", "99999"], "port"),
    "serve-port-in-use": (lambda p: [
        "serve", "--model", p["model"], "--host", "127.0.0.1",
        "--port", p["busy_port"]], "in use"),
    "train-out-is-a-directory": (lambda p: [
        "train", p["corpus"], "--algo", "nb", "--out", p["dir"]],
        "Is a directory"),
    "ingest-a-directory": (lambda p: ["ingest", p["dir"]], "Is a directory"),
    "predict-model-is-a-directory": (lambda p: [
        "predict", "renamed the method", "--model", p["dir"]],
        "Is a directory"),
    "predict-deeply-nested-model": (lambda p: [
        "predict", "renamed the method", "--model",
        deeply_nested(p["tmp"] / "deep.json")], "nested too deeply"),
    "ingest-deeply-nested-line": (lambda p: [
        "ingest", deeply_nested(p["tmp"] / "deep.jsonl")],
        "line 1: JSON nested too deeply"),
    "predict-model-not-utf8": (lambda p: [
        "predict", "renamed the method", "--model",
        not_utf8(p["tmp"] / "latin.json")], "not UTF-8"),
    "ingest-corpus-not-utf8": (lambda p: [
        "ingest", not_utf8(p["tmp"] / "latin.jsonl")], "not UTF-8"),
    "predict-empty-class-order": (predict_with(
        lambda m: m.update(class_order=[])), "class_order"),
    "predict-one-class-order": (predict_with(
        lambda m: m.update(class_order=m["class_order"][:1])), "class_order"),
    "predict-repeated-class": (predict_with(_repeat_first_class),
                               "class_order"),
    "predict-reversed-class-order": (predict_with(
        lambda m: m["class_order"].reverse()), "class_order"),
    "predict-repeated-ngram": (predict_with(_repeat_selected_ngram),
                               "ascending order"),
    "baseline-unlabeled-corpus": (lambda p: [
        "baseline", "--corpus", unlabeled_corpus(p["tmp"] / "bare.jsonl")],
        "labeled records"),
}


@pytest.mark.parametrize("case", list(HOSTILE))
def test_hostile_file_or_argument_exits_2(case, corpus_path, model_path,
                                          tmp_path, monkeypatch, capsys):
    def serve_forever(self):
        raise AssertionError("the server bound its port")  # not a hang

    monkeypatch.setattr(service.PredictServer, "serve_forever", serve_forever)
    argv, expected = HOSTILE[case]
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        paths = {"model": str(model_path), "corpus": str(corpus_path),
                 "dir": str(tmp_path), "tmp": tmp_path,
                 "busy_port": str(busy.getsockname()[1])}
        assert main(argv(paths)) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("refdoc: ")
    assert expected in err and "Traceback" not in err


def test_serve_on_a_bad_port_exits_2_without_announcing_or_leaking(
        model_path):
    # -W error turns a socket left to the garbage collector into an
    # "Exception ignored" ResourceWarning on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "refdoc",
         "serve", "--model", str(model_path), "--port", "99999"],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "serving on" not in proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("refdoc: ")


def test_malformed_corpus_is_a_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n")
    assert main(["ingest", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_ingest_prints_class_counts(corpus_path, capsys):
    assert main(["ingest", str(corpus_path)]) == 0
    out = capsys.readouterr().out
    assert "150 records" in out
    assert "RenameMethod" in out and "25" in out


def test_sample_writes_balanced_subset(corpus_path, tmp_path, capsys):
    out_path = tmp_path / "sample.jsonl"
    assert main(["sample", str(corpus_path), "--per-class", "10",
                 "--seed", "3", "--out", str(out_path)]) == 0
    with open(out_path) as fh:
        assert sum(1 for _ in fh) == 60


def test_train_then_predict(corpus_path, tmp_path, capsys):
    model_out = tmp_path / "m.json"
    assert main(["train", str(corpus_path), "--algo", "nb",
                 "--out", str(model_out)]) == 0
    capsys.readouterr()
    assert main(["predict", "Renamed getter for readability",
                 "--model", str(model_out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "RenameMethod"


def test_predict_reads_stdin_and_env_model(model_path, capsys, monkeypatch):
    monkeypatch.setenv("REFDOC_MODEL", str(model_path))
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(
        "Extract common code into helper"))
    assert main(["predict"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "ExtractMethod"


def test_predict_scores_flag_outputs_json(model_path, capsys):
    assert main(["predict", "inline the trivial method", "--model",
                 str(model_path), "--scores"]) == 0
    lines = capsys.readouterr().out.splitlines()
    scores = json.loads(lines[1])
    assert abs(sum(scores.values()) - 1.0) <= 1e-9


def test_predict_without_model_is_a_data_error(capsys, monkeypatch):
    monkeypatch.delenv("REFDOC_MODEL", raising=False)
    assert main(["predict", "some message"]) == 2


def test_predict_with_model_missing_a_key_exits_2(model_path, tmp_path,
                                                 capsys):
    payload = json.loads(model_path.read_text())
    del payload["vocabulary"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert main(["predict", "some message", "--model", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "vocabulary" in err and "Traceback" not in err


def test_predict_with_nan_log_prior_exits_2(model_path, tmp_path, capsys):
    payload = json.loads(model_path.read_text())
    payload["parameters"]["log_prior"] = [float("nan")] * len(
        payload["parameters"]["log_prior"])
    broken = tmp_path / "nan.json"
    broken.write_text(json.dumps(payload))  # NaN is written as NaN
    assert main(["predict", "renamed the method", "--model", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


def test_evaluate_prints_report_table(corpus_path, tmp_path, capsys):
    json_out = tmp_path / "report.json"
    assert main(["evaluate", str(corpus_path), "--algo", "nb",
                 "--folds", "3", "--json", str(json_out)]) == 0
    out = capsys.readouterr().out
    assert "Refactoring type" in out
    assert "macro" in out
    payload = json.loads(json_out.read_text())
    assert payload["folds"] == 3
    assert set(payload["per_class"]) == {
        "ExtractMethod", "InlineMethod", "MoveMethod", "PullUpMethod",
        "PushDownMethod", "RenameMethod"}


def test_evaluate_gbt_table_regression(corpus_path, capsys):
    # frozen from the first run: deterministic given (corpus, seed, folds)
    assert main(["evaluate", str(corpus_path), "--algo", "gbt",
                 "--folds", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["Refactoring", "type", "P", "R", "F1"]
    assert len(lines) == 9  # header, rule, six classes, macro
    assert lines[-1].startswith("macro")


def test_baseline_message_mode(capsys):
    assert main(["baseline", "the movie was moved"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "MoveMethod"


def test_baseline_no_match(capsys):
    assert main(["baseline", "Change name of `Decorator' to `Events'"]) == 0
    assert capsys.readouterr().out.strip() == "no-match"


def test_baseline_corpus_mode(corpus_path, capsys):
    assert main(["baseline", "--corpus", str(corpus_path)]) == 0
    assert "Refactoring type" in capsys.readouterr().out


def test_terms_subcommand(corpus_path, capsys):
    assert main(["terms", str(corpus_path), "--class", "RenameMethod",
                 "--n", "2", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "method name" in out


def test_terms_unknown_class_is_a_data_error(corpus_path, capsys):
    assert main(["terms", str(corpus_path), "--class", "Nonsense"]) == 2


def test_inconsistency_subcommand(tmp_path, none_model, capsys):
    corpus = tmp_path / "rq4.jsonl"
    save_corpus(generate_corpus(seed=5, per_class=10, include_none=True),
                corpus)
    model_file = tmp_path / "none_model.json"
    save_model(none_model, model_file)
    json_out = tmp_path / "rq4.json"
    assert main(["inconsistency", str(corpus), "--model", str(model_file),
                 "--json", str(json_out)]) == 0
    out = capsys.readouterr().out
    for case in ("Consistent", "DocMissing", "CodeMissing", "TypeMismatch"):
        assert case in out
    payload = json.loads(json_out.read_text())
    assert payload["total"] == 70


def test_inconsistency_refuses_model_without_none(corpus_path, model_path,
                                                  capsys):
    assert main(["inconsistency", str(corpus_path), "--model",
                 str(model_path)]) == 2


def test_train_include_none_requires_none_rows(corpus_path, tmp_path, capsys):
    assert main(["train", str(corpus_path), "--algo", "nb", "--include-none",
                 "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("flag,value,name", [("--features", "-5", "k_select"),
                                             ("--features", "0", "k_select"),
                                             ("--ngram", "4", "n_max")])
def test_train_rejects_bad_pipeline_setting(corpus_path, tmp_path, capsys,
                                            flag, value, name):
    out = tmp_path / "m.json"
    assert main(["train", str(corpus_path), "--algo", "nb", flag, value,
                 "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_predict_with_negative_k_select_exits_2(model_path, tmp_path, capsys):
    payload = json.loads(Path(model_path).read_text())
    payload["pipeline"]["k_select"] = -5
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert main(["predict", "renamed the method", "--model", str(broken)]) == 2
    assert "k_select" in capsys.readouterr().err


@pytest.mark.parametrize("none_rows,flags", [(True, []),
                                              (False, ["--include-none"])])
def test_evaluate_follows_train_none_class_rule(corpus_path, tmp_path, capsys,
                                                none_rows, flags):
    corpus = corpus_path
    if none_rows:
        corpus = tmp_path / "with_none.jsonl"
        save_corpus(generate_corpus(seed=5, per_class=10, include_none=True),
                    corpus)
    args = [str(corpus), "--algo", "nb"] + flags
    assert main(["train"] + args + ["--out", str(tmp_path / "m.json")]) == 2
    train_err = capsys.readouterr().err
    assert "include_none" in train_err
    assert main(["evaluate"] + args + ["--folds", "3"]) == 2
    assert capsys.readouterr().err == train_err


def test_predict_with_stray_hyperparameter_exits_2(model_path, tmp_path,
                                                   capsys):
    payload = json.loads(model_path.read_text())
    payload["hyperparameters"]["alpha_"] = 2.0
    broken = tmp_path / "stray.json"
    broken.write_text(json.dumps(payload))
    assert main(["predict", "renamed the method", "--model", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "alpha_" in err and "Traceback" not in err


def test_predict_with_nan_learning_rate_exits_2(gbt_model, tmp_path, capsys):
    path = tmp_path / "gbt.json"
    save_model(gbt_model, path)
    payload = json.loads(path.read_text())
    payload["hyperparameters"]["learning_rate"] = float("nan")
    path.write_text(json.dumps(payload))  # written as the JSON token NaN
    assert main(["predict", "renamed the method", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert "learning_rate" in err and "Traceback" not in err


def test_cli_import_loads_no_scipy():
    # refdoc's matrices are numpy arrays; scipy would add its import time
    # and memory to every command and to the service
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, refdoc.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_process_pools_unloaded():
    # training forks its workers with os.fork; a pool module would add to
    # the import time and memory of every command. (asyncio, which the
    # service needs, loads the base of concurrent.futures but no executor.)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, refdoc.cli; print(sorted(m for m in sys.modules if "
         "m.split('.')[0] == 'multiprocessing' or m in "
         "('concurrent.futures.process', 'concurrent.futures.thread')))"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_predict_with_self_looping_tree_exits_2(gbt_model, tmp_path):
    path = tmp_path / "loop.json"
    save_model(gbt_model, path)
    payload = json.loads(path.read_text())
    tree = payload["parameters"]["trees"][0][0]
    tree["left"][0] = tree["right"][0] = 0
    path.write_text(json.dumps(payload))
    # a self-looping tree makes prediction spin; the timeout fails that
    proc = subprocess.run(
        [sys.executable, "-m", "refdoc", "predict", "renamed the method",
         "--model", str(path)], capture_output=True, text=True, timeout=30,
        env=src_env())
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "refdoc", "--help"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert "usage" in proc.stdout


def test_module_entry_point_unknown_flag_exit_code():
    proc = subprocess.run([sys.executable, "-m", "refdoc", "--nope"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "usage" in proc.stderr


def test_module_entry_point_predict(model_path):
    proc = subprocess.run(
        [sys.executable, "-m", "refdoc", "predict",
         "Renamed getter for readability", "--model", str(model_path)],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "RenameMethod"

"""workers.map_parts: part order, child errors, dead children, cleanup."""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from refdoc import workers
from refdoc.cli import main
from refdoc.corpus import save_corpus
from refdoc.errors import (InsufficientClass, NonFinite, ParseError,
                           RefdocError)
from refdoc.synthetic import generate_corpus
from refdoc.trees import BoostedClassifier


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(workers, "usable_cpus", lambda: n)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("cpus, n_parts", [(1, 7), (2, 7), (3, 7), (3, 2),
                                           (3, 0)])
def test_results_come_back_in_part_order(cpus, n_parts, monkeypatch,
                                         forked_pids):
    use_cpus(monkeypatch, cpus)
    got = workers.map_parts(
        lambda chunk: [(p * p, os.getpid()) for p in chunk], range(n_parts))
    assert [r for r, _ in got] == [p * p for p in range(n_parts)]
    # one process per chunk, the caller's included
    assert len({pid for _, pid in got}) == min(cpus, n_parts)
    assert len(forked_pids) == max(min(cpus, n_parts) - 1, 0)
    assert_reaped(forked_pids)


def test_every_chunk_runs_in_the_caller_while_another_thread_lives(
        monkeypatch, forked_pids):
    use_cpus(monkeypatch, 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        got = workers.map_parts(
            lambda chunk: [(p, os.getpid()) for p in chunk], range(5))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert got == [(p, os.getpid()) for p in range(5)]
    assert forked_pids == []


def test_a_nested_map_parts_runs_in_the_process_that_calls_it(
        monkeypatch, forked_pids):
    use_cpus(monkeypatch, 3)

    def outer(chunk):
        forks_before = len(forked_pids)  # a child sees its own copy
        nested = [workers.map_parts(
            lambda inner: [os.getpid() for _ in inner], range(4))
            for _ in range(2)]  # the second sees the flag the first left
        return [(os.getpid(), nested, len(forked_pids) - forks_before)
                for _ in chunk]

    got = workers.map_parts(outer, range(3))
    assert len(forked_pids) == 2
    assert len({pid for pid, _, _ in got}) == 3
    for pid, nested, forks in got:
        assert nested == [[pid] * 4] * 2
        assert forks == 0
    assert_reaped(forked_pids)
    # the flag is cleared once the outer call returns
    again = workers.map_parts(
        lambda chunk: [os.getpid() for _ in chunk], range(3))
    assert len(set(again)) == 3
    assert len(forked_pids) == 4


def test_child_error_is_raised_as_its_own_type(monkeypatch, forked_pids):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def fn(chunk):
        if os.getpid() != caller:
            raise NonFinite("diverged in a worker")
        return chunk

    with pytest.raises(NonFinite, match="diverged in a worker"):
        workers.map_parts(fn, [0, 1])
    assert len(forked_pids) == 1
    assert_reaped(forked_pids)


class Unrebuildable(Exception):
    """Its pickle holds only the message, which __init__ cannot take alone."""

    def __init__(self, name, count):
        super().__init__(f"{name}: {count} left")


def test_child_error_that_cannot_be_rebuilt_is_a_refdoc_error(monkeypatch):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def fn(chunk):
        if os.getpid() != caller:
            raise Unrebuildable("Rename", 1)
        return chunk

    with pytest.raises(RefdocError, match="worker failed: Unrebuildable"):
        workers.map_parts(fn, [0, 1])


def test_child_insufficient_class_keeps_its_type_and_fields(monkeypatch,
                                                            forked_pids):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def fn(chunk):
        if os.getpid() != caller:
            raise InsufficientClass("RenameMethod", 1, 2)
        return chunk

    with pytest.raises(InsufficientClass) as info:
        workers.map_parts(fn, [0, 1])
    err = info.value
    assert (err.label, err.available, err.requested) == ("RenameMethod", 1, 2)
    assert str(err) == "class RenameMethod: 1 available, 2 requested"
    assert len(forked_pids) == 1
    assert_reaped(forked_pids)


def test_pickled_parse_error_keeps_its_line():
    err = pickle.loads(pickle.dumps(ParseError("invalid JSON", line=7)))
    assert type(err) is ParseError
    assert err.line == 7
    assert str(err) == "line 7: invalid JSON"


def test_train_exits_2_when_a_worker_diverges(monkeypatch, tmp_path, capsys,
                                              forked_pids):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()
    boost = BoostedClassifier._boost

    def diverging_boost(self, *args):
        if os.getpid() != caller:
            raise NonFinite("boosting loss diverged; lower the learning rate")
        return boost(self, *args)

    monkeypatch.setattr(BoostedClassifier, "_boost", diverging_boost)
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(generate_corpus(seed=1, per_class=25), corpus)
    assert main(["train", str(corpus), "--algo", "gbt",
                 "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "diverged" in err and "Traceback" not in err
    assert len(forked_pids) == 1
    assert not (tmp_path / "m.json").exists()


def test_killed_child_is_a_refdoc_error_not_a_hang(monkeypatch, forked_pids):
    use_cpus(monkeypatch, 3)
    caller = os.getpid()

    def fn(chunk):
        if os.getpid() != caller and 2 in chunk:
            os.kill(os.getpid(), signal.SIGKILL)
        return chunk

    start = time.monotonic()
    with pytest.raises(RefdocError, match="without an answer"):
        workers.map_parts(fn, [0, 1, 2])
    assert time.monotonic() - start < 5
    assert len(forked_pids) == 2
    assert_reaped(forked_pids)


def test_caller_error_kills_and_reaps_every_child(monkeypatch, forked_pids):
    use_cpus(monkeypatch, 3)
    caller = os.getpid()

    def fn(chunk):
        if os.getpid() != caller:
            time.sleep(60)
            return chunk
        raise ValueError("the caller's chunk failed")

    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller's chunk failed"):
        workers.map_parts(fn, [0, 1, 2])
    assert time.monotonic() - start < 5
    assert len(forked_pids) == 2
    assert_reaped(forked_pids)


def _children(pid):
    try:
        return Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:  # not Linux, or no children file
        return []


def test_sigint_mid_fit_exits_130_and_leaves_no_process(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(generate_corpus(seed=0, per_class=100), corpus)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "refdoc", "train", str(corpus), "--algo", "gbt",
         "--out", str(tmp_path / "m.json")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True, env={**os.environ, "PYTHONPATH": str(src)})
    pgid = proc.pid
    try:
        # mid-fit: once workers are forked, or after 2 s where none are
        deadline = time.monotonic() + 2
        while not _children(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        time.sleep(0.2)
        assert proc.poll() is None, "the fit ended before the signal"
        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            os.killpg(pgid, signal.SIGKILL)
            proc.wait()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 130, stderr
    assert "Traceback" not in stderr
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)

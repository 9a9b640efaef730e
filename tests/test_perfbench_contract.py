"""The benchmark's tracer wraps refdoc functions by module and name, and
its workloads call the refdoc API.

A rename or removal of one of its targets, or of an entry its workloads
call, would make benchmark runs fail; these tests make the same install,
and the benchmark's own selftest, fail in the test suite.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_and_uninstalls_against_src():
    tracer = _load_tracer()
    before = {(m, a): _lookup(m, a) for m, a, _ in tracer.TARGETS}
    recorder = tracer.Tracer()
    try:
        recorder.install()
    finally:
        recorder.uninstall()
    for (module_name, attr), original in before.items():
        assert _lookup(module_name, attr) is original, (module_name, attr)


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

"""The benchmark's tracer wraps refdoc functions by module and name.

A rename or removal of one of its targets would make traced benchmark
runs fail; this test makes the same install fail in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

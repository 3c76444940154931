"""The benchmark's tracer still attaches to the library.

``perfbench/tracing.py`` wraps library functions by module and name and
reads some of their arguments by position. A rename or a signature change
in the library does not fail any other test, but it breaks traced
benchmark runs; this test loads the tracer from its file, unchanged, and
checks both.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from algwatch.inference import build_and_run_trellis
from algwatch import multihop
from algwatch.multihop import police

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_names_resolve():
    tracing = _load_tracing()
    for module_name, attr in (*tracing.SPANNED, ("hashing", "hash_eval_vec")):
        owner = importlib.import_module(f"algwatch.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
    # the tracer's notes read these arguments by position
    assert list(inspect.signature(police).parameters)[:2] == ["watcher", "watched"]
    assert list(inspect.signature(build_and_run_trellis).parameters) == ["obs"]


def test_traced_scenario_reports_police_calls():
    tracing = _load_tracing()
    with tracing.Tracer().installed() as tracer:
        multihop.mincut_scenario("one-honest-path", instances=1, policed_samples=3,
                                 calibration_iterations=50)
    _, counts = tracing.layer_metrics(tracer.spans)
    assert counts["multihop.police.calls"] > 0

"""The benchmark's tracer (perfbench/spans.py) wraps program attributes by
name; a rename in the package must not leave one of them dangling."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    for mod_name, attr, _ in spans.BOUNDARIES:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{mod_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr} is not callable"

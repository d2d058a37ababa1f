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


def test_benchmark_api_resolves():
    """Every ``vi.<name>`` chain and every name imported from the package in
    perfbench/*.py exists, so removing API the benchmark calls fails here."""
    import re

    import vibroimpact
    used = set()
    for path in SPANS.parent.glob("*.py"):
        text = path.read_text()
        used.update(re.findall(r"\bvi((?:\.[A-Za-z_]\w*)+)", text))
        for names in re.findall(r"from vibroimpact import \(?([\w\s,]+)\)?",
                                text):
            used.update("." + n.strip() for n in names.split(",") if n.strip())
    assert used
    for chain in sorted(used):
        owner = vibroimpact
        for part in chain.split(".")[1:]:
            assert hasattr(owner, part), f"vi{chain} is gone"
            owner = getattr(owner, part)

"""The benchmark's outputs pinned bit for bit: each workload of
perfbench/workloads.py runs its job once, and the digest of its outputs
must equal the one recorded here.  A speed-up that moves any image, root,
det or CSV byte fails here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DIGESTS = {
    "regions": "a1e40297e163f85085585bfa5cdba66b07cd3f8e1dbbe11ff5c53a524515bc4d",
    "islands": "ee5d00ff53fa56fbd1c4a9b8738cccf402271ae8bada97ff3110204692dd2eeb",
    "branch": "c9146492dcc8d97ce7d2fcd76c963e60e698d4d763d54d9b91236cabcdf22387",
    "wall_vanishing":
        "8984e4f84a08e76be49b35bcb24479c14969d0f5be96e3fd5e906f00b90f6cd1",
}


def _load(name):
    """perfbench/<name>.py as the module ``name`` (workloads imports its
    checks by that name), loaded from the file and left unchanged."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name,
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_every_workload_is_pinned():
    _load("checks")
    assert set(_load("workloads").WORKLOADS) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_one_round_digest(name):
    _load("checks")
    wl = _load("workloads").WORKLOADS[name]
    inputs, out = wl.setup(), {}
    for key, step in wl.steps:
        out[key] = step(inputs, out)
    assert wl.digest(out) == DIGESTS[name]

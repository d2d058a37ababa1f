"""Long-run outputs pinned byte for byte: verdict tables, stroboscopic
clouds and their seed errors, as sha256 digests of the text written.

The digests were computed with the per-cell ``period_map`` loops that the
batched long-run loop replaced; any change to a verdict, an orbit id, a
period count, a cloud point or an error message changes one of them.
Cases with a cap of a few events set ``portrait.EVENT_CAP``; the others
run at the default cap, which none of their cells comes near.
"""

import hashlib
import math

import pytest

from vibroimpact import (AttractorRegistry, ForceLaw, GridSpec,
                         classify_cell, classify_cells, iterate_cloud,
                         make_params, portrait, verdicts_csv)
from vibroimpact.strobemap import SCALAR_CELLS

NARROW = make_params(F=1.0, f=0.005, omega=1.0, l=0.0, r=0.8)
FAST = make_params(F=1.0, f=0.05, omega=2 * math.pi, l=-1.0, r=1.0)
WALL_VANISHING = make_params(F=1.0, f=0.1, omega=2 * math.pi, l=-1.0, r=1.0,
                             force_law="wall_vanishing")
CAP_MESSAGE = ("event cascade exceeded cap of {} events "
               "(possible chatter or degenerate configuration)")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


VERDICT_CASES = {
    # narrow chamber, small friction
    "narrow": (NARROW, GridSpec((0, 0.8), (-2, 2), 2, 2, iterations=150),
               None,
               "072132c95489af11df20938fd1a491787e215432dab13e77a5e85c1734fa6579"),
    # a cap of 12 events: cells stop at many periods, one after sticks
    "narrow_cap": (NARROW, GridSpec((0, 0.8), (-2, 2), 4, 4, iterations=150),
                   12,
                   "7a2348c1d4bd129fd3d328c4c4b862e92cb2f24a9a70fc4fa9396d998686b84b"),
    # fast forcing at t0 = T/4: 144 cells (a batch above SCALAR_CELLS),
    # islands, and a period-1 family of which two cells share an id
    "fast": (FAST, GridSpec((-1, 1), (-3, 3), 12, 12, t0=0.25,
                            iterations=200), None,
             "17ccc674350379a0be043180bc3b919925b86de4ab93d86b4b7121c2a36dbee2"),
    # force vanishing at the walls: sticking, escaped and no-impact line
    "wall_vanishing": (WALL_VANISHING,
                       GridSpec((0.2, 1.0), (-1.5, -0.3), 2, 2,
                                iterations=25), None,
                       "7d674209dba4daa5326f126c536c2f788c5d06bda41ea42800314382ffdbf376"),
}

CLOUD_CASES = {
    "narrow": (NARROW, GridSpec((0, 0.8), (-2, 2), 2, 2, iterations=40,
                                transient=10), None,
               "2d9378bb766bc731b189182d4d69445460204c19f597dc739591bb63593a65a3"),
    "narrow_cap": (NARROW, GridSpec((0, 0.8), (-2, 2), 4, 4, iterations=40,
                                    transient=10), 12,
                   "da70b804181a32720e9e5a57836d912e5b7ec7a09d799eba9b00c81ab869cdd9"),
    "fast_cap": (FAST, GridSpec((-1, 1), (-3, 3), 12, 12, t0=0.25,
                                iterations=20, transient=5), 3,
                 "03b0bee7eec992faa24058902e338a59f9ee53534aa246714f4c35a3098626bd"),
}

# cells whose map hits the event cap, per cloud case
CLOUD_ERRORS = {"narrow": [], "narrow_cap": [0, 2, 4, 6, 12, 15],
                "fast_cap": [87]}


def _set_cap(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(portrait, "EVENT_CAP", cap)


@pytest.mark.parametrize("name", sorted(VERDICT_CASES))
def test_verdict_table_is_pinned(name, monkeypatch):
    p, grid, cap, digest = VERDICT_CASES[name]
    _set_cap(monkeypatch, cap)
    assert _sha(verdicts_csv(grid, classify_cells(p, grid))) == digest


@pytest.mark.parametrize("name", sorted(CLOUD_CASES))
def test_cloud_is_pinned(name, monkeypatch):
    p, grid, cap, digest = CLOUD_CASES[name]
    _set_cap(monkeypatch, cap)
    cloud = iterate_cloud(p, grid)
    assert cloud.errors == {i: CAP_MESSAGE.format(cap)
                            for i in CLOUD_ERRORS[name]}
    assert _sha(cloud.csv()) == digest


def test_one_cell_calls_are_pinned():
    registry = AttractorRegistry()
    verdict = classify_cell(NARROW, 0.45, 0.1, budget=300, registry=registry)
    assert _sha(repr(verdict)) == \
        "7f6082179f6c14f14a57d90cb5ee9878c5bcaac1957acf1a9e8d371d96bd8836"
    cloud = iterate_cloud(NARROW, GridSpec((0, 0.8), (-2, 2), 2, 2,
                                           iterations=50, transient=3),
                          seeds=[[0.45, 0.1]])
    assert cloud.errors == {}
    assert _sha(cloud.csv()) == \
        "227d9427911f7a9d3a358ecb43d520f8245a50eebd6f7923fbe39beb5f7f6ff6"


def test_fast_grid_is_above_the_scalar_threshold():
    assert VERDICT_CASES["fast"][1].nx * VERDICT_CASES["fast"][1].nv \
        > SCALAR_CELLS[ForceLaw.UNIFORM]

import json
import math
from pathlib import Path

import pytest

from vibroimpact.cli import main

RECIPES = Path(__file__).resolve().parents[1] / "recipes"

FAST_CFG = """
[params]
F = 1.0
f = 0.05
omega = 6.283185307179586
l = -1.0
r = 1.0
force_law = uniform

[run]
x0 = 0.0
v0 = 2.0
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return str(path)


def test_simulate_happy_path(cfg, tmp_path):
    out = str(tmp_path / "run")
    rc = main(["simulate", "--config", cfg, "--x0", "0.0", "--v0", "2.0",
               "--periods", "5", "--out-prefix", out])
    assert rc == 0
    events = json.loads(Path(out + "_events.json").read_text())
    assert events["params"]["f"] == 0.05
    strobe = Path(out + "_strobe.csv").read_text().strip().splitlines()
    assert strobe[0] == "period,x,v"
    assert len(strobe) == 7          # header + periods 0..5
    samples = Path(out + "_samples.csv").read_text().splitlines()
    assert samples[0] == "t,x,v"


def test_simulate_missing_config(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--periods", "1"])
    assert rc == 2


def test_simulate_zero_periods(cfg):
    assert main(["simulate", "--config", cfg, "--periods", "0"]) == 2


def test_portrait_modes(cfg, tmp_path):
    out = str(tmp_path / "p")
    rc = main(["portrait", "--config", cfg, "--mode", "regions",
               "--nx", "12", "--nv", "12", "--v-range=-2,2",
               "--tile", "--workers", "1", "--out-prefix", out])
    assert rc == 0
    assert (tmp_path / "p_regions.csv").exists()
    assert (tmp_path / "p_regions.tile").exists()
    rc = main(["portrait", "--config", cfg, "--mode", "cloud",
               "--nx", "3", "--nv", "3", "--v-range=1,3",
               "--iterations", "5", "--workers", "1", "--out-prefix", out])
    assert rc == 0
    assert (tmp_path / "p_cloud.csv").exists()


def test_portrait_bad_grid(cfg):
    assert main(["portrait", "--config", cfg, "--mode", "regions",
                 "--nx", "1", "--nv", "12"]) == 2


def test_portrait_determinism(cfg, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out, workers in ((a, "1"), (b, "2")):
        rc = main(["portrait", "--config", cfg, "--mode", "regions",
                   "--nx", "10", "--nv", "10", "--v-range=-1.5,1.5",
                   "--workers", workers, "--out-prefix", out])
        assert rc == 0
    assert (Path(a + "_regions.csv").read_bytes()
            == Path(b + "_regions.csv").read_bytes())


def test_continue_finds_fold(tmp_path):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[params]\nF = 1.0\nf = 0.05\nomega = 1.0\n"
                   "l = 0.0\nr = 20.0\nforce_law = uniform\n"
                   "[run]\nbranch = 1\n")
    out = tmp_path / "branch.csv"
    rc = main(["continue", "--config", str(cfg), "--step", "2e-3",
               "--f-min", "1e-3", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    fold_rows = [ln for ln in text.splitlines() if ln.startswith("# fold")]
    assert fold_rows
    f_crit = float(fold_rows[0].split("f_crit=")[1].split(",")[0])
    assert f_crit == pytest.approx(2 / math.pi, abs=1e-4)


def test_continue_without_orbit(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[params]\nF = 1.0\nf = 0.68\nomega = 1.0\n"
                   "l = 0.0\nr = 20.0\n")   # past the fold: no orbit
    assert main(["continue", "--config", str(cfg),
                 "--out", str(tmp_path / "b.csv")]) == 3


def test_continue_wall_vanishing_is_usage_error(tmp_path, capsys):
    """Continuation needs the uniform law: exit code 2, no traceback."""
    rc = main(["continue", "--config", str(RECIPES / "wall_vanishing.cfg"),
               "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert "uniform law" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_periodic_command(cfg, capsys):
    rc = main(["periodic", "--config", cfg, "--x0", "-0.951", "--v0", "3.911"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "saddle"
    assert abs(doc["multipliers"][0][0] * doc["multipliers"][1][0] - 1) < 1e-6


def test_periodic_failure(tmp_path):
    cfg = tmp_path / "stick.cfg"
    cfg.write_text("[params]\nF = 1.0\nf = 0.8\nomega = 1.0\n"
                   "l = -20.0\nr = 20.0\n")
    assert main(["periodic", "--config", str(cfg),
                 "--x0", "0.0", "--v0", "1.0"]) == 3


def test_lift_check_command(cfg, capsys):
    rc = main(["lift-check", "--config", cfg, "--x0", "0.0", "--v0", "5.0",
               "--periods", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "conjugacy holds" in out


def test_lift_check_wall_vanishing_is_usage_error(capsys):
    rc = main(["lift-check", "--config", str(RECIPES / "wall_vanishing.cfg"),
               "--x0", "0.0", "--v0", "0.8"])
    assert rc == 2
    assert "uniform law" in capsys.readouterr().err


def test_regions_invariance_command(cfg, tmp_path, capsys):
    out = tmp_path / "inv.csv"
    rc = main(["regions-invariance", "--config", cfg, "--nx", "40",
               "--nv", "40", "--v-range=-1.5,1.5", "--workers", "1",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "violation fraction" in text
    header, row = out.read_text().strip().splitlines()
    assert header == "checked,violations,fraction"


def test_json_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"F": 1, "f": 0, "omega": 1,
                                          "l": 0, "r": 0.8}}))
    rc = main(["simulate", "--config", str(cfg), "--x0", "0.4", "--v0", "0",
               "--periods", "2", "--out-prefix", str(tmp_path / "t")])
    assert rc == 0


def test_recipes_parse():
    from vibroimpact.cli import load_config
    from vibroimpact import params_from_dict
    recipes = sorted(RECIPES.glob("*.cfg"))
    assert len(recipes) >= 15
    for rec in recipes:
        cfg = load_config(str(rec))
        params_from_dict(cfg["params"])

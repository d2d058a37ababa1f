import hashlib
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


# sha256 of the three files, computed with the linear segment scan that
# Trajectory.state_at used before it bisected the segment ends
@pytest.mark.parametrize("config,flags,digests", [
    # turnings, sticks and releases, grazing and wall-pressed rest
    ("[params]\nF = 1.0\nf = 0.55\nomega = 1.0\nl = 0.0\nr = 1.6\n",
     ["--x0", "1.5", "--v0", "2.0", "--periods", "6"],
     ("558c1f1adbe7bcf5cd586c530682c1014d3c838d4872d324661a21c2ae21365b",
      "9ae7a0add1275e067cd5314db335883b1e63789ebf157c74a4a9080be012735b",
      "cd55116842c6cb25f9699d6c2d9f3f8b3191949c496625bbf5b29b3cf88a8ce9")),
    # wall-vanishing law: impacts
    (None, ["--x0", "0.3", "--v0", "2.0", "--periods", "4"],
     ("dc4739fd3fcb1bef6684e143370af033d24b98a0f8d02ab61c21642a6ad3502e",
      "aaf42ef615658ccffbc0835704d1fdc37c2a8fc4cd0203c5f4bf7200a5c12030",
      "272a702caa122dcb8b26cf7fa581c90e60f0c31e5080928bdff92c3c9cb5ba95")),
    # wall-vanishing law: a turning, then sticks and releases in a rest band
    (None, ["--x0", "0.9", "--v0", "0.0", "--periods", "4"],
     ("fab0c96ccd01849a468528440bca3eea26e67f0f1e1a662e86b2337fec7cc1d7",
      "c7a678d1384a047854511da9642dc7732ff7c00cd06e0b7dfea998753fbb8c26",
      "73493f0454b3e7d8271e5daf3e2a7c2d545c9b756eeb96b59c09f9ed62ad4534")),
], ids=["uniform rests", "wall-vanishing impacts", "wall-vanishing rests"])
def test_simulate_outputs_pinned(tmp_path, config, flags, digests):
    cfg = RECIPES / "wall_vanishing.cfg"
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg), "--out-prefix", out]
                + flags) == 0
    for suffix, digest in zip(("_events.json", "_samples.csv", "_strobe.csv"),
                              digests):
        data = Path(out + suffix).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix


def test_simulate_missing_config(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--periods", "1"])
    assert rc == 2


def test_simulate_zero_periods(cfg):
    assert main(["simulate", "--config", cfg, "--periods", "0"]) == 2


@pytest.mark.parametrize("dt", ["0", "-0.1", "nan"])
def test_simulate_nonpositive_sample_step_is_usage_error(cfg, tmp_path, capsys,
                                                         dt):
    """A sample step that is not positive is refused before any file is
    written: exit code 2, no traceback."""
    rc = main(["simulate", "--config", cfg, "--periods", "1", "--sample-dt", dt,
               "--out-prefix", str(tmp_path / "run")])
    assert rc == 2
    assert "sample step must be positive" in capsys.readouterr().err
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize("command", [
    ["simulate", "--v0", "nan", "--periods", "1"],
    ["simulate", "--duration", "inf"],
    ["portrait", "--mode", "regions", "--nx", "4", "--nv", "4", "--t0", "nan",
     "--workers", "1"],
], ids=["simulate v0 nan", "simulate duration inf", "portrait t0 nan"])
def test_non_finite_start_or_time_is_usage_error(cfg, tmp_path, capsys,
                                                 command):
    """Refused before any file is written: exit code 2, no traceback."""
    rc = main(command + ["--config", cfg,
                         "--out-prefix", str(tmp_path / "run")])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize("flags,t_end", [
    (["--periods", "2"], 4 * math.pi),
    (["--duration", "3.5"], 3.5),
    (["--duration", "3.5", "--periods", "2"], 3.5),
    ([], 62.83),
])
def test_simulate_flag_beats_both_config_keys(tmp_path, flags, t_end):
    """A --periods or --duration flag beats the config's [run] duration and
    periods; without a flag the config's duration beats its periods."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[params]\nF = 1.0\nf = 0.1\nomega = 1.0\n"
                   "l = 0.0\nr = 1.6\n"
                   "[run]\nduration = 62.83\nperiods = 7\n")
    out = str(tmp_path / "t")
    assert main(["simulate", "--config", str(cfg), "--out-prefix", out]
                + flags) == 0
    final = json.loads(Path(out + "_events.json").read_text())["final"]
    assert final[2] == pytest.approx(t_end, rel=1e-12)


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


def test_portrait_verdicts(cfg, tmp_path, capsys):
    """--mode verdicts writes verdicts_csv of classify_cells on the grid."""
    from vibroimpact import GridSpec, classify_cells, make_params, verdicts_csv
    out = str(tmp_path / "p")
    rc = main(["portrait", "--config", cfg, "--mode", "verdicts",
               "--nx", "3", "--nv", "3", "--v-range=-2,2",
               "--iterations", "20", "--out-prefix", out])
    assert rc == 0
    assert "p_verdicts.csv (7 escaped_budget, 2 island)" in capsys.readouterr().out
    p = make_params(F=1.0, f=0.05, omega=6.283185307179586, l=-1.0, r=1.0)
    grid = GridSpec((-1.0, 1.0), (-2.0, 2.0), 3, 3, iterations=20)
    assert (Path(out + "_verdicts.csv").read_text()
            == verdicts_csv(grid, classify_cells(p, grid)))


def test_portrait_bad_grid(cfg):
    assert main(["portrait", "--config", cfg, "--mode", "regions",
                 "--nx", "1", "--nv", "12"]) == 2


@pytest.mark.parametrize("flags", [["--iterations", "0"],
                                   ["--iterations", "-3"],
                                   ["--transient", "-2"]])
def test_portrait_bad_iteration_counts(cfg, tmp_path, capsys, flags):
    out = str(tmp_path / "c")
    assert main(["portrait", "--config", cfg, "--mode", "cloud", "--nx", "2",
                 "--nv", "2", "--out-prefix", out, *flags]) == 2
    assert ("error: need iterations >= 1 and transient >= 0"
            in capsys.readouterr().err)
    assert not Path(out + "_cloud.csv").exists()


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


def test_continue_writes_analytic_fold_for_every_k(tmp_path):
    """The k = 3 branch folds at 2F/(3 pi); the analytic row says so."""
    cfg = tmp_path / "k3.cfg"
    cfg.write_text("[params]\nF = 1.0\nf = 0.2\nomega = 6.283185307179586\n"
                   "l = -1.0\nr = 1.0\n[run]\nk = 3\n")
    out = tmp_path / "k3.csv"
    assert main(["continue", "--config", str(cfg), "--f-min", "0.19",
                 "--f-max", "0.35", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[-3].startswith("# fold,f_crit=0.2122065908,")
    assert rows[-2] == f"# analytic_fold,f={2 / (3 * math.pi):.10g}"
    assert rows[-1] == "# termination,fold refined"


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


@pytest.mark.parametrize("flags,message", [
    (["--step", "0"], "positive step"),
    (["--step", "-0.001"], "positive step"),
    (["--f-min", "0.5", "--f-max", "0.1"], "empty friction range"),
])
def test_continue_without_steps_or_range_is_usage_error(cfg, tmp_path, capsys,
                                                        flags, message):
    """A step that is not positive, or f_min > f_max, would give a vacuous
    branch: exit code 2 and no output file."""
    out = tmp_path / "b.csv"
    assert main(["continue", "--config", cfg, "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("samples", ["0", "1"])
def test_lift_check_too_few_samples_is_usage_error(cfg, capsys, samples):
    """Fewer than two samples check nothing: exit code 2, not a pass."""
    rc = main(["lift-check", "--config", cfg, "--x0", "0.0", "--v0", "5.0",
               "--periods", "3", "--samples", samples])
    assert rc == 2
    assert "n_samples >= 2" in capsys.readouterr().err


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


PARAMS_JSON = '"params": {"F": 1, "f": 0, "omega": 1, "l": 0, "r": 0.8}'
PARAMS_INI = "[params]\nf = 0\nomega = 1\nl = 0\nr = 0.8\n"


MALFORMED_CONFIGS = {
    "top.json": "[1, 2]",
    "params.json": '{"params": 3}',
    "run.json": "{" + PARAMS_JSON + ', "run": [1]}',
    "duplicate.cfg": PARAMS_INI + "F = 1.0\nF = 2.0\n",
    "headless.cfg": "F = 1.0\nf = 0\n",
    "percent.cfg": PARAMS_INI + "F = 1%\n",
    "x0.json": "{" + PARAMS_JSON + ', "run": {"x0": [1]}}',
    "section.cfg": PARAMS_INI + "F = 1.0\n[plot]\nwidth = 3\n",
    "noparams.cfg": "[run]\nx0 = 0.4\n",
}


@pytest.mark.parametrize("name", MALFORMED_CONFIGS)
def test_malformed_config_is_usage_error(tmp_path, capsys, name):
    """Exit code 2 with one error line, not a traceback."""
    cfg = tmp_path / name
    cfg.write_text(MALFORMED_CONFIGS[name])
    assert main(["simulate", "--config", str(cfg), "--periods", "1",
                 "--out-prefix", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_grid_range_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "range.json"
    cfg.write_text("{" + PARAMS_JSON + ', "grid": {"x_range": 5}}')
    assert main(["portrait", "--config", str(cfg), "--mode", "regions",
                 "--nx", "4", "--nv", "4", "--workers", "1",
                 "--out-prefix", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err.startswith("error: malformed config value")


def test_recipes_parse():
    from vibroimpact.cli import load_config
    from vibroimpact import params_from_dict
    recipes = sorted(RECIPES.glob("*.cfg"))
    assert len(recipes) >= 15
    for rec in recipes:
        cfg = load_config(str(rec))
        params_from_dict(cfg["params"])

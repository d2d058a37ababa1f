"""Command-line front end.

Subcommands: simulate, portrait, continue, periodic, lift-check,
regions-invariance.  Configs are INI files with [params] / [grid] / [run]
sections (flat key = value lines), or JSON documents with the same keys.
Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from pathlib import Path

from .model import (ContractViolation, ParameterError, Params, PhaseState,
                    params_from_dict)
from .simulator import SimulationError, simulate
from .orbits import (Nonexistence, OrbitError, continue_in_friction,
                     find_periodic, lift_conjugacy_check,
                     symmetric_fold_friction, symmetric_orbit)
from .portrait import (GridSpec, GridError, classify_regions, invariance_check,
                       iterate_cloud)

USAGE_ERROR = 2
NUMERIC_ERROR = 3


class ConfigError(Exception):
    pass


def load_config(path: str) -> dict:
    """Returns {'params': {...}, 'grid': {...}, 'run': {...}}."""
    fp = Path(path)
    if not fp.exists():
        raise ConfigError(f"config not found: {path}")
    text = fp.read_text()
    if fp.suffix == ".json" or text.lstrip().startswith("{"):
        doc = json.loads(text)
        return {"params": doc.get("params", doc),
                "grid": doc.get("grid", {}), "run": doc.get("run", {})}
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str          # keys are case-sensitive (F vs f)
    cp.read_string(text)
    out = {"params": {}, "grid": {}, "run": {}}
    for sec in cp.sections():
        if sec not in out:
            raise ConfigError(f"unknown config section [{sec}]")
        out[sec] = dict(cp.items(sec))
    if not out["params"]:
        raise ConfigError("config has no [params] section")
    return out


def _params(cfg: dict) -> Params:
    return params_from_dict(cfg["params"])


def _grid_from(cfg: dict, args, p: Params) -> GridSpec:
    g = dict(cfg.get("grid", {}))

    def pick(name, cast, default):
        cli = getattr(args, name.replace("-", "_"), None)
        if cli is not None:
            return cli
        if name in g:
            return cast(g[name])
        return default

    def rng(name, default):
        val = pick(name, str, None)
        if val is None:
            return default
        if isinstance(val, str):
            a, b = (float(s) for s in val.split(","))
            return (a, b)
        return val

    x_range = rng("x_range", (p.l, p.r))
    v_range = rng("v_range", (-2.0, 2.0))
    return GridSpec(x_range=x_range, v_range=v_range,
                    nx=int(pick("nx", int, 100)), nv=int(pick("nv", int, 100)),
                    t0=float(pick("t0", float, 0.0)),
                    iterations=int(pick("iterations", int, 200)),
                    transient=int(pick("transient", int, 0)))


def _write(path: str, content: str | bytes) -> None:
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(content, bytes):
        p.write_bytes(content)
    else:
        p.write_text(content)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    p = _params(cfg)
    run = cfg.get("run", {})
    periods = args.periods if args.periods is not None else int(run.get("periods", 0))
    duration = args.duration if args.duration is not None else \
        (float(run.get("duration", 0.0)) or None)
    if duration is None:
        if periods <= 0:
            raise ConfigError("need --periods >= 1 (or a duration)")
        duration = periods * p.T
    x0 = args.x0 if args.x0 is not None else float(run.get("x0", 0.0))
    v0 = args.v0 if args.v0 is not None else float(run.get("v0", 0.0))
    t0 = args.t0 if args.t0 is not None else float(run.get("t0", 0.0))
    traj = simulate(p, PhaseState(x0, v0, t0), duration)
    dt = args.sample_dt if args.sample_dt is not None else p.T / 100.0
    _write(args.out_prefix + "_events.json", traj.to_json())
    _write(args.out_prefix + "_samples.csv", traj.samples_csv(dt))
    # stroboscopic states, one row per period
    rows = ["period,x,v"]
    for n in range(int(round(duration / p.T)) + 1):
        t = t0 + n * p.T
        if t > traj.final.t + 1e-9:
            break
        s = traj.state_at(min(t, traj.final.t))
        rows.append(f"{n},{s.x:.17g},{s.v:.17g}")
    _write(args.out_prefix + "_strobe.csv", "\n".join(rows) + "\n")
    print(f"wrote {args.out_prefix}_events.json, _samples.csv, _strobe.csv "
          f"({len(traj.events)} events)")
    return 0


def cmd_portrait(args) -> int:
    cfg = load_config(args.config)
    p = _params(cfg)
    grid = _grid_from(cfg, args, p)
    workers = args.workers or (os.cpu_count() or 1)
    if args.mode == "regions":
        rg = classify_regions(p, grid, workers=workers)
        _write(args.out_prefix + "_regions.csv", rg.csv())
        if args.tile:
            _write(args.out_prefix + "_regions.tile", rg.to_tile_bytes())
        n_dis = int(rg.dissipative_mask().sum())
        print(f"wrote {args.out_prefix}_regions.csv "
              f"({n_dis}/{grid.nx * grid.nv} dissipative cells)")
    else:
        cloud = iterate_cloud(p, grid)
        _write(args.out_prefix + "_cloud.csv", cloud.csv())
        print(f"wrote {args.out_prefix}_cloud.csv "
              f"({sum(len(q) for q in cloud.points)} points, "
              f"{len(cloud.errors)} seed errors)")
    return 0


def cmd_continue(args) -> int:
    cfg = load_config(args.config)
    p = _params(cfg)
    run = cfg.get("run", {})
    branch = args.branch if args.branch is not None else int(run.get("branch", 1))
    k = args.k if args.k is not None else int(run.get("k", 1))
    try:
        orbit = symmetric_orbit(p, branch, m=k)
    except Nonexistence as exc:
        print(f"no starting orbit: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    res = continue_in_friction(p, orbit, f_min=args.f_min, f_max=args.f_max,
                               ds=args.step)
    out = res.csv()
    if res.fold is not None:
        out += (f"# fold,f_crit={res.fold.f_crit:.10g}"
                f",x={res.fold.state[0]:.10g},v={res.fold.state[1]:.10g}\n")
        if k == 1:
            out += f"# analytic_fold,f={symmetric_fold_friction(p):.10g}\n"
    out += f"# termination,{res.termination}\n"
    _write(args.out, out)
    print(f"wrote {args.out} ({len(res.points)} points, {res.termination})")
    return 0


def cmd_periodic(args) -> int:
    cfg = load_config(args.config)
    p = _params(cfg)
    try:
        orb = find_periodic(p, (args.x0, args.v0), args.k, args.t0)
    except (OrbitError, SimulationError) as exc:
        print(f"no periodic orbit found: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    lam = orb.multipliers
    doc = {"x": orb.fixed_state[0], "v": orb.fixed_state[1], "k": orb.k,
           "t0": orb.t0, "trace": orb.trace, "det": orb.det,
           "type": orb.orbit_type.value, "residual": orb.residual,
           "multipliers": [[lam[0].real, lam[0].imag],
                           [lam[1].real, lam[1].imag]],
           "signature": list(orb.signature)}
    text = json.dumps(doc, indent=1)
    if args.out:
        _write(args.out, text)
    print(text)
    return 0


def cmd_lift_check(args) -> int:
    cfg = load_config(args.config)
    p = _params(cfg)
    rep = lift_conjugacy_check(p, PhaseState(args.x0, args.v0, args.t0),
                               args.periods * p.T, n_samples=args.samples)
    if rep.applicable:
        print(f"conjugacy holds: max defect {rep.max_defect:.3e} "
              f"over {rep.n_samples} samples")
        return 0
    print(f"conjugacy not applicable: {rep.reason}")
    return 0


def cmd_regions_invariance(args) -> int:
    cfg = load_config(args.config)
    p = _params(cfg)
    grid = _grid_from(cfg, args, p)
    workers = args.workers or (os.cpu_count() or 1)
    rg = classify_regions(p, grid, workers=workers)
    rep = invariance_check(p, rg, workers=workers)
    print(f"dissipative cells: {int(rg.dissipative_mask().sum())}")
    print(f"checked (interior): {rep.checked}")
    print(f"violations: {rep.violations}")
    print(f"violation fraction: {rep.violation_fraction:.6f}")
    if args.out:
        _write(args.out, f"checked,violations,fraction\n"
                         f"{rep.checked},{rep.violations},"
                         f"{rep.violation_fraction:.10g}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vibroimpact",
        description="Event-driven simulation and analysis of a periodically "
                    "forced particle bouncing between rigid walls with dry "
                    "friction.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_config(sp):
        sp.add_argument("--config", required=True, help="INI or JSON config")

    sp = sub.add_parser("simulate", help="run one trajectory, write event log and samples")
    add_config(sp)
    sp.add_argument("--x0", type=float)
    sp.add_argument("--v0", type=float)
    sp.add_argument("--t0", type=float)
    sp.add_argument("--periods", type=int)
    sp.add_argument("--duration", type=float)
    sp.add_argument("--sample-dt", type=float)
    sp.add_argument("--out-prefix", default="trajectory")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("portrait", help="grid evaluation: orbit cloud or region map")
    add_config(sp)
    sp.add_argument("--mode", choices=("cloud", "regions"), default="cloud")
    sp.add_argument("--nx", type=int)
    sp.add_argument("--nv", type=int)
    sp.add_argument("--x-range", type=lambda s: tuple(float(v) for v in s.split(",")))
    sp.add_argument("--v-range", type=lambda s: tuple(float(v) for v in s.split(",")))
    sp.add_argument("--iterations", type=int)
    sp.add_argument("--transient", type=int)
    sp.add_argument("--t0", type=float)
    sp.add_argument("--tile", action="store_true", help="also write the binary tile")
    sp.add_argument("--workers", type=int, default=0,
                    help="parallel workers (default: cpu count)")
    sp.add_argument("--out-prefix", default="portrait")
    sp.set_defaults(fn=cmd_portrait)

    sp = sub.add_parser("continue", help="continue a symmetric orbit branch in friction")
    add_config(sp)
    sp.add_argument("--branch", type=int, choices=(1, 2))
    sp.add_argument("--k", type=int, help="odd period multiple of the branch")
    sp.add_argument("--f-min", type=float, default=0.0)
    sp.add_argument("--f-max", type=float, default=None)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--out", default="branch.csv")
    sp.set_defaults(fn=cmd_continue)

    sp = sub.add_parser("periodic", help="locate a periodic orbit by Newton iteration")
    add_config(sp)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--v0", type=float, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_periodic)

    sp = sub.add_parser("lift-check", help="verify the tent-map lift conjugacy")
    add_config(sp)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--v0", type=float, required=True)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--periods", type=int, default=10)
    sp.add_argument("--samples", type=int, default=1000)
    sp.set_defaults(fn=cmd_lift_check)

    sp = sub.add_parser("regions-invariance",
                        help="forward-invariance test of the contracting region")
    add_config(sp)
    sp.add_argument("--nx", type=int)
    sp.add_argument("--nv", type=int)
    sp.add_argument("--x-range", type=lambda s: tuple(float(v) for v in s.split(",")))
    sp.add_argument("--v-range", type=lambda s: tuple(float(v) for v in s.split(",")))
    sp.add_argument("--t0", type=float)
    sp.add_argument("--workers", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_regions_invariance)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParameterError, GridError, ContractViolation,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SimulationError, OrbitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Scenario-driven experiment runner emitting reproducible CSV sweeps.

Scenario files are plain ``key = value`` text ('#' starts a comment).  dBm
values are converted to watts once at load time; all internal math is in SI
units.  Unknown keys are a hard error so typos cannot silently fall
back to defaults.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace

from . import __version__
from .bounds import (
    rho_bounds_linear,
    rho_bounds_nonlinear,
    zeta_bounds_linear,
    zeta_bounds_nonlinear,
)
from .channel import SystemParams, sample_channels
from .energy import NONLINEAR_DEFAULT, EhModel
from .selection import RisMode, SelectionStrategy, required_energy
from .sim import TrialConfig, analytic_outage, block_rng, estimate_outage, sweep_points


class ScenarioError(ValueError):
    """Malformed or invalid scenario file."""


def _positive_watts(raw: dict, key: str) -> float:
    """The dBm value of ``key`` in watts, which must be strictly positive and finite."""
    try:
        watts = 10.0 ** (raw[key] / 10.0) / 1000.0
    except OverflowError:
        raise ValueError(f"{key} = {raw[key]} overflows on conversion from dB") from None
    if watts == 0.0:
        raise ValueError(f"{key} = {raw[key]} underflows to 0 W on conversion from dB")
    return watts


# SystemParams fields a scenario sets as they are; the powers are given in
# dBm and n_total follows from the group sizes
_PARAM_DEFAULTS = {f.name: f.default for f in fields(SystemParams)
                   if f.name not in ("p_tx", "noise_power", "p_t", "p_ph", "n_total")}

_DEFAULTS = {
    # physical parameters
    "p_tx_dbm": 30.0,
    "noise_dbm": -104.0,
    **_PARAM_DEFAULTS,
    # RIS configuration and harvesting
    "mode": "ps",
    "rho": 0.5,
    "zeta": 0.5,
    "eh": "linear",
    **{f"eh_{key}": getattr(NONLINEAR_DEFAULT, key) for key in "abc"},
    "p_t_dbm": 5.0,
    "p_ph_dbm": 5.0,
    # selection and thresholds
    "scheme": "sbgs",
    "k": 1,
    "metric": "data",
    "r_req": 1.0,
    "e_req": 0.0,          # joules, or the string 'auto' for each point's required_energy
    # trials and sweep
    "n_trials": 100_000,
    "seed": 12345,
    "n_draws": 100,
    "sweep_variable": "snr",
    "sweep_grid": "0,4,8,12,16,20,24,28",
}

# keys only the sweep reads: the bounds command neither validates nor records them
_SWEEP_KEYS = {"n_trials", "scheme", "k", "metric", "e_req", "sweep_variable", "sweep_grid"}


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: the base link and trial, and the ``(params, cfg)``
    point of each ``sweep_grid`` value."""

    params: SystemParams
    trial: TrialConfig
    sweep_grid: list
    points: list
    n_draws: int
    raw: dict


def _parse_kv(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _DEFAULTS:
                raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values


def _coerce(key: str, value: str):
    """``value`` as the kind of ``key``'s default: int, str, or otherwise float."""
    kind = type(_DEFAULTS[key])
    if kind is str:
        return value.lower() if key != "sweep_grid" else value
    if key == "e_req" and value.lower() == "auto":
        return "auto"
    try:
        number = int(value) if kind is int else float(value)
        if math.isfinite(number):
            return number
    except ValueError:
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{key} = {value!r} is not {what}")


def load_scenario(path: str, overrides: dict | None = None, sweep: bool = True) -> Scenario:
    """Parse and fully validate a scenario file, filling defaults; ``overrides``
    (already typed values) replace file values before validation.  With
    ``sweep=False``, as for the bounds command, the ``_SWEEP_KEYS`` are ignored:
    the trial keeps their defaults, ``raw`` leaves them out and there are no points."""
    raw = {key: value for key, value in _DEFAULTS.items() if sweep or key not in _SWEEP_KEYS}
    try:
        for key, value in _parse_kv(path).items():
            if key in raw:
                raw[key] = _coerce(key, value)
        raw.update(overrides or {})
        params = SystemParams(
            p_tx=_positive_watts(raw, "p_tx_dbm"),
            noise_power=_positive_watts(raw, "noise_dbm"),
            p_t=_positive_watts(raw, "p_t_dbm"),
            p_ph=_positive_watts(raw, "p_ph_dbm"),
            n_total=raw["m_per_group"] * raw["b_groups"],
            **{key: raw[key] for key in _PARAM_DEFAULTS},
        )
        mode = RisMode(raw["mode"].upper(), rho=raw["rho"], zeta=raw["zeta"])
        abc = {key: raw[f"eh_{key}"] for key in "abc"} if raw["eh"] == "nonlinear" else {}
        eh = EhModel(raw["eh"], **abc)
        trial = TrialConfig(seed=raw["seed"], mode=mode, eh=eh, r_req=raw["r_req"])
        grid, points = [], []
        if sweep:
            e_req = raw["e_req"]
            trial = replace(
                trial,
                n_trials=raw["n_trials"],
                strategy=SelectionStrategy(raw["scheme"].upper(), k=raw["k"]),
                e_req=required_energy(params, mode) if e_req == "auto" else e_req,
                metric=raw["metric"],
            )
            entries = [v.strip() for v in str(raw["sweep_grid"]).split(",")]
            if any(entries) and not all(entries):  # an all-blank grid is empty
                raise ValueError(f"sweep_grid = {raw['sweep_grid']!r} has an empty entry")
            grid = [float(v) for v in entries if v]
            points = sweep_points(params, trial, raw["sweep_variable"], grid)
            if e_req == "auto":  # each point's own need: a zeta sweep moves it
                points = [(p, replace(c, e_req=required_energy(p, c.mode))) for p, c in points]
        if raw["n_draws"] < 1:
            raise ValueError("n_draws must be at least 1")
    except ScenarioError:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return Scenario(
        params=params,
        trial=trial,
        sweep_grid=grid,
        points=points,
        n_draws=raw["n_draws"],
        raw=raw,
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(out_path: str, scenario: Scenario, header: str, rows: list) -> None:
    """Write the scenario's metadata lines, ``header`` and one line per row."""
    lines = [f"# version = {__version__}"]
    lines += [f"# {k} = {_fmt(v)}" for k, v in sorted(scenario.raw.items())]
    lines.append(header)
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run(scenario: Scenario, out_path: str, workers: int = 1) -> int:
    """Evaluate every sweep point and write one CSV row per point; each row's
    scheme, k and mode are those of its own point."""
    analytic = [analytic_outage(p, c) for p, c in scenario.points]
    estimates = estimate_outage(scenario.points, workers=workers)
    rows = [
        [value, float(a), est.p_hat, est.ci_halfwidth, cfg.n_trials,
         cfg.strategy.scheme, cfg.strategy.k, cfg.mode.kind]
        for value, a, est, (_, cfg) in zip(scenario.sweep_grid, analytic, estimates,
                                           scenario.points)
    ]
    _write_csv(out_path, scenario,
               "sweep_value,analytic_outage,empirical_outage,ci_halfwidth,n_trials,scheme,k,mode",
               rows)
    return 0


def run_bounds(scenario: Scenario, out_path: str) -> int:
    """Emit the feasibility interval of the configured mode/EH model for each
    of ``n_draws`` snapshots.  Snapshot d is group 0 of trial d of an
    ``(n_draws, 1)`` block from ``block_rng(seed, 0)``, the channel RGS
    evaluates in a sweep block, so it depends on the seed and d, not on ``n_draws``."""
    params = scenario.params
    trial = scenario.trial
    # at least two rows: BLAS rounds a one-row product differently
    snaps = sample_channels(params, (max(2, scenario.n_draws), 1), block_rng(trial.seed, 0),
                            per_element=True)
    rows = []
    any_feasible = False
    for draw in range(scenario.n_draws):
        snap = snaps[draw, 0]
        if trial.mode.kind == "PS" and trial.eh.kind == "linear":
            iv = rho_bounds_linear(params, snap, trial.r_req)
        elif trial.mode.kind == "PS":
            iv = rho_bounds_nonlinear(params, trial.eh, snap, trial.r_req)
        elif trial.eh.kind == "linear":
            iv = zeta_bounds_linear(params, snap, trial.r_req)
        else:
            iv = zeta_bounds_nonlinear(params, trial.eh, snap, trial.r_req)
        any_feasible = any_feasible or iv.feasible
        rows.append([draw, iv.lower, iv.upper, str(iv.feasible).lower(), iv.cause or ""])
    _write_csv(out_path, scenario, "channel_draw,lower,upper,feasible,cause", rows)
    if not any_feasible:
        print("warning: no feasible interval in any channel draw", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="risgroups",
        description="Grouped self-sustainable RIS outage simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run the configured outage sweep and write a CSV")
    bounds_parser = sub.add_parser(
        "bounds", help="emit feasibility intervals for random channel draws")
    for p in (run_parser, bounds_parser):
        p.add_argument("scenario", help="scenario file (key = value lines)")
        p.add_argument("-o", "--output", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override seed")
    run_parser.add_argument("--trials", dest="n_trials", type=int,
                            default=argparse.SUPPRESS, help="override n_trials")
    run_parser.add_argument("--k", type=int, default=argparse.SUPPRESS,
                            help="override selection order k")
    run_parser.add_argument("--workers", type=int, default=1, help="parallel workers")
    args = parser.parse_args(argv)
    # an override flag sets nothing unless given, and is named after its scenario key
    overrides = {key: value for key, value in vars(args).items() if key in _DEFAULTS}
    workers = getattr(args, "workers", 1)
    try:
        if workers < 1:
            raise ScenarioError("--workers must be at least 1")
        scenario = load_scenario(args.scenario, overrides, sweep=args.command == "run")
        if args.command == "run":
            return run(scenario, args.output, workers=workers)
        return run_bounds(scenario, args.output)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Scenario-driven experiment runner emitting reproducible CSV sweeps.

Scenario files are plain ``key = value`` text ('#' starts a comment).  dB/dBm
values are converted to linear watts once at load time; all internal math is
in SI units.  Unknown keys are a hard error so typos cannot silently fall
back to defaults.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields

from . import __version__
from .bounds import (
    rho_bounds_linear,
    rho_bounds_nonlinear,
    zeta_bounds_linear,
    zeta_bounds_nonlinear,
)
from .channel import SystemParams, build_correlation_matrix, sample_channels
from .energy import (NONLINEAR_DEFAULT, EhModel, PowerBudget, required_energy_ps,
                     required_energy_ts)
from .selection import RisMode, SelectionStrategy
from .sim import TrialConfig, block_rng, sweep, sweep_points


class ScenarioError(ValueError):
    """Malformed or invalid scenario file."""


def _from_db(raw: dict, key: str) -> float:
    """The dB (or dBm) value of ``key`` as a linear ratio (or milliwatts)."""
    try:
        return 10.0 ** (raw[key] / 10.0)
    except OverflowError:
        raise ValueError(f"{key} = {raw[key]} overflows on conversion from dB") from None


def _positive_watts(raw: dict, key: str) -> float:
    """The dBm value of ``key`` in watts, which the link needs strictly positive."""
    watts = _from_db(raw, key) / 1000.0
    if watts == 0.0:
        raise ValueError(f"{key} = {raw[key]} underflows to 0 W on conversion from dB")
    return watts


# SystemParams fields a scenario sets as they are; p_tx and the noise power
# are given in dBm and n_total follows from the group sizes
_PARAM_DEFAULTS = {f.name: f.default for f in fields(SystemParams)
                   if f.name not in ("p_tx", "noise_power", "n_total")}

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
    "gamma_th_db": None,
    "r_req": 1.0,
    "e_req": 0.0,          # joules, or the string 'auto' for the mode's budget
    # trials and sweep
    "n_trials": 100_000,
    "seed": 12345,
    "n_draws": 100,
    "sweep_variable": "snr",
    "sweep_grid": "0,4,8,12,16,20,24,28",
}

_INT_KEYS = {"m_per_group", "b_groups", "k", "n_trials", "seed", "n_draws"}
_STR_KEYS = {"mode", "eh", "scheme", "metric", "sweep_variable", "sweep_grid"}


@dataclass(frozen=True)
class Scenario:
    params: SystemParams
    budget: PowerBudget
    trial: TrialConfig
    sweep_variable: str
    sweep_grid: list
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


def _coerce(key: str, value):
    if not isinstance(value, str):
        return value
    if key in _STR_KEYS:
        return value.lower() if key != "sweep_grid" else value
    if key == "e_req" and value.lower() == "auto":
        return "auto"
    try:
        number = int(value) if key in _INT_KEYS else float(value)
        if math.isfinite(number):
            # e_req keeps its text, which the CSV header echoes as written
            return value.lower() if key == "e_req" else number
    except ValueError:
        pass
    kind = "an integer" if key in _INT_KEYS else "a finite number"
    raise ValueError(f"{key} = {value!r} is not {kind}")


def load_scenario(path: str, overrides: dict | None = None) -> Scenario:
    """Parse and fully validate a scenario file, filling defaults; ``overrides``
    (already typed values) replace file values before validation."""
    raw = dict(_DEFAULTS)
    try:
        for key, value in _parse_kv(path).items():
            raw[key] = _coerce(key, value)
        raw.update(overrides or {})
        params = SystemParams(
            p_tx=_positive_watts(raw, "p_tx_dbm"),
            noise_power=_positive_watts(raw, "noise_dbm"),
            n_total=raw["m_per_group"] * raw["b_groups"],
            **{key: raw[key] for key in _PARAM_DEFAULTS},
        )
        mode = RisMode(raw["mode"].upper(), rho=raw["rho"], zeta=raw["zeta"])
        if raw["eh"] == "linear":
            eh = EhModel("linear")
        elif raw["eh"] == "nonlinear":
            eh = EhModel("nonlinear", a=raw["eh_a"], b=raw["eh_b"], c=raw["eh_c"])
        else:
            raise ScenarioError(f"unknown eh model {raw['eh']!r}")
        budget = PowerBudget(p_t=_from_db(raw, "p_t_dbm") / 1000.0,
                             p_ph=_from_db(raw, "p_ph_dbm") / 1000.0)
        strategy = SelectionStrategy(raw["scheme"].upper(), k=raw["k"])
        r_req = raw["r_req"]
        if raw["gamma_th_db"] is not None:
            r_req = math.log2(1.0 + _from_db(raw, "gamma_th_db"))
        e_req = raw["e_req"]
        if e_req == "auto":
            if mode.kind == "PS":
                e_req = required_energy_ps(params.m_per_group, budget, params.t_s)
            else:
                e_req = required_energy_ts(params.m_per_group, budget, params.t_s, mode.zeta)
        else:
            e_req = float(e_req)
        trial = TrialConfig(
            n_trials=raw["n_trials"],
            seed=raw["seed"],
            strategy=strategy,
            mode=mode,
            eh=eh,
            r_req=r_req,
            e_req=e_req,
            metric=raw["metric"],
        )
        grid = [float(v) for v in str(raw["sweep_grid"]).split(",") if v.strip()]
        sweep_points(params, trial, raw["sweep_variable"], grid)
        if raw["n_draws"] < 1:
            raise ValueError("n_draws must be at least 1")
    except ScenarioError:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return Scenario(
        params=params,
        budget=budget,
        trial=trial,
        sweep_variable=raw["sweep_variable"],
        sweep_grid=grid,
        n_draws=raw["n_draws"],
        raw=raw,
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _metadata_lines(scenario: Scenario) -> list[str]:
    lines = [
        f"# seed = {scenario.trial.seed}",
        f"# version = {__version__}",
    ]
    for key in sorted(scenario.raw):
        lines.append(f"# {key} = {_fmt(scenario.raw[key])}")
    return lines


def run(scenario: Scenario, out_path: str, workers: int = 1) -> int:
    """Run the configured sweep and write one CSV with a metadata header."""
    curve = sweep(
        scenario.params, scenario.trial, scenario.sweep_variable,
        scenario.sweep_grid, workers=workers,
    )
    rows = []
    for value, analytic, est in zip(curve.grid, curve.analytic, curve.estimates):
        rows.append(",".join([
            _fmt(float(value)),
            _fmt(float(analytic)),
            _fmt(est.p_hat),
            _fmt(est.ci_halfwidth),
            str(est.n),
            scenario.trial.strategy.scheme,
            str(scenario.trial.strategy.k),
            scenario.trial.mode.kind,
        ]))
    header = "sweep_value,analytic_outage,empirical_outage,ci_halfwidth,n_trials,scheme,k,mode"
    body = "\n".join(_metadata_lines(scenario) + [header] + rows) + "\n"
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)
    return 0


def run_bounds(scenario: Scenario, out_path: str) -> int:
    """Emit the feasibility interval of the configured mode/EH model for
    independently drawn channel snapshots."""
    params = scenario.params
    trial = scenario.trial
    corr = build_correlation_matrix(
        params.m_per_group, params.spacing, params.wavelength
    )
    rows = []
    any_feasible = False
    for draw in range(scenario.n_draws):
        snap = sample_channels(params, corr, (), block_rng(trial.seed, draw))
        if trial.mode.kind == "PS" and trial.eh.kind == "linear":
            iv = rho_bounds_linear(params, scenario.budget, snap, trial.r_req)
        elif trial.mode.kind == "PS":
            iv = rho_bounds_nonlinear(params, scenario.budget, trial.eh, snap, trial.r_req)
        elif trial.eh.kind == "linear":
            iv = zeta_bounds_linear(params, scenario.budget, snap, trial.r_req)
        else:
            iv = zeta_bounds_nonlinear(params, scenario.budget, trial.eh, snap, trial.r_req)
        any_feasible = any_feasible or iv.feasible
        rows.append(",".join([
            str(draw), _fmt(iv.lower), _fmt(iv.upper), str(iv.feasible).lower(),
            iv.cause or "",
        ]))
    header = "channel_draw,lower,upper,feasible,cause"
    body = "\n".join(_metadata_lines(scenario) + [header] + rows) + "\n"
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)
    if not any_feasible:
        print("warning: no feasible interval in any channel draw", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="risgroups",
        description="Grouped self-sustainable RIS outage simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run the configured outage sweep and write a CSV"),
        ("bounds", "emit feasibility intervals for random channel draws"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario file (key = value lines)")
        p.add_argument("-o", "--output", required=True, help="output CSV path")
        p.add_argument("--trials", type=int, default=None, help="override n_trials")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--k", type=int, default=None, help="override selection order k")
        p.add_argument("--workers", type=int, default=1, help="parallel workers")
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ScenarioError("--workers must be at least 1")
        overrides = {"n_trials": args.trials, "seed": args.seed, "k": args.k}
        scenario = load_scenario(
            args.scenario, {k: v for k, v in overrides.items() if v is not None})
        if args.command == "run":
            return run(scenario, args.output, workers=args.workers)
        return run_bounds(scenario, args.output)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

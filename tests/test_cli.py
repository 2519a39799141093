"""Scenario parsing and the run/bounds CSV harness."""

import collections
import difflib
import inspect
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import risgroups
from risgroups import bounds, cli, sim
from risgroups.channel import sample_channels
from risgroups.cli import _DEFAULTS, _SWEEP_KEYS, ScenarioError, load_scenario, main

ROOT = Path(__file__).resolve().parent.parent
# a key is read as text exactly when its default is text
STR_KEYS = {key for key, value in _DEFAULTS.items() if isinstance(value, str)}
SHIPPED = sorted((ROOT / "scenarios").glob("*.cfg"))

SCENARIO = """
# comment line
mode = ps
rho = 0.4
scheme = sbgs
k = 2
metric = data
r_req = 1.5826823549115563
sweep_variable = snr
sweep_grid = -56,-52,-48
n_trials = 4096
seed = 77
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(SCENARIO, encoding="utf-8")
    return str(path)


class TestLoadScenario:
    def test_values_and_defaults(self, scenario_file):
        sc = load_scenario(scenario_file)
        assert sc.trial.mode.kind == "PS"
        assert sc.trial.mode.rho == pytest.approx(0.4)
        assert sc.trial.strategy.scheme == "SBGS"
        assert sc.trial.strategy.k == 2
        assert sc.trial.n_trials == 4096
        assert sc.trial.seed == 77
        assert sc.sweep_grid == [-56.0, -52.0, -48.0]
        # one validated point per grid value, each at its own transmit power
        assert len(sc.points) == 3
        assert [c for _, c in sc.points] == [sc.trial] * 3
        assert sc.points[0][0].p_tx < sc.points[1][0].p_tx < sc.points[2][0].p_tx
        # the rate whose SNR threshold 2^r - 1 is 3 dB, as stated
        assert sc.trial.r_req == math.log2(1.0 + 10.0 ** 0.3)
        # untouched keys fall back to defaults
        assert sc.params.m_per_group == 20
        assert sc.params.p_tx == pytest.approx(1.0)

    def test_dbm_conversion(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("p_tx_dbm = 0\n", encoding="utf-8")
        sc = load_scenario(str(path))
        assert sc.params.p_tx == pytest.approx(1e-3)

    def test_auto_energy_requirement(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("e_req = auto\nmetric = energy\nscheme = ebgs\n")
        sc = load_scenario(str(path))
        p = sc.params
        assert sc.trial.e_req == pytest.approx(
            p.t_s * (p.m_per_group * p.p_t + p.p_ph)
        )
        # each point of a TS zeta sweep needs its own energy: its phase
        # shifters draw p_t only over the data phase, 1 - zeta of the slot
        path.write_text("e_req = auto\nmetric = energy\nscheme = ebgs\nmode = ts\n"
                        "rho_l = 0.1\nd_sr = 2\nd_rd = 3\n"
                        "sweep_variable = zeta\nsweep_grid = 0.1,0.5,0.9\n")
        sc = load_scenario(str(path))
        needs = [cfg.e_req for _, cfg in sc.points]
        assert needs == pytest.approx([6.0083e-06, 3.4785e-06, 9.4868e-07], rel=1e-4)
        assert sc.raw["e_req"] == "auto"

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mode = ps\nspeed = 3\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"bad\.cfg:2.*'speed'"):
            load_scenario(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(str(path))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "noeq.cfg"
        path.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"noeq\.cfg:1"):
            load_scenario(str(path))

    def test_invalid_physical_value_rejected(self, tmp_path):
        path = tmp_path / "neg.cfg"
        path.write_text("alpha = 1.0\n", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    @pytest.mark.parametrize("line, message", [
        ("n_trials = 1e5", "n_trials = '1e5' is not an integer"),
        ("p_tx_dbm = abc", "p_tx_dbm = 'abc' is not a finite number"),
        ("rho = nan", "rho = 'nan' is not a finite number"),
        ("seed = -3", "seed must be nonnegative"),
        ("n_draws = 0", "n_draws must be at least 1"),
        ("p_tx_dbm = 1e308", "p_tx_dbm = 1e+308 overflows on conversion from dB"),
        ("noise_dbm = 1e308", "noise_dbm = 1e+308 overflows on conversion from dB"),
        ("p_t_dbm = 1e308", "p_t_dbm = 1e+308 overflows on conversion from dB"),
        ("p_ph_dbm = 1e308", "p_ph_dbm = 1e+308 overflows on conversion from dB"),
        ("p_tx_dbm = -1e300", "p_tx_dbm = -1e+300 underflows to 0 W on conversion from dB"),
        ("noise_dbm = -1e300", "noise_dbm = -1e+300 underflows to 0 W on conversion from dB"),
        ("p_t_dbm = -1e300", "p_t_dbm = -1e+300 underflows to 0 W on conversion from dB"),
        ("p_ph_dbm = -1e300", "p_ph_dbm = -1e+300 underflows to 0 W on conversion from dB"),
        # r_req is the one threshold key: set r_req = log2(1 + 10^(G/10)) for G dB
        ("gamma_th_db = 3", "unknown key 'gamma_th_db'"),
        # the SNR per watt underflows to 0, so the snr grid has no p_tx
        ("alpha = 1e4", "no finite p_tx gives snr = 0.0 dB with this rho_l, alpha,"),
        ("e_req = abc", "e_req = 'abc' is not a finite number"),
        # d_sr^-alpha overflows a double, which a run once met as a traceback
        ("d_sr = 1e-200", "link budget overflows (p_tx_dbm=30.0, rho_l=0.0002951209226666387, "
                          "d_sr=1e-200, d_rd=20.0, alpha=2.0, noise_dbm=-104.0)"),
        # both path gains are finite, but the SNR per unit Z is not: the
        # bounds once wrote NaN on every row.  The message names the keys the
        # file sets, not the watts of SystemParams
        ("p_tx_dbm = 3000\nd_sr = 1e-5\nd_rd = 1e-5",
         "link budget overflows (p_tx_dbm=3000.0, rho_l=0.0002951209226666387, "
         "d_sr=1e-05, d_rd=1e-05, alpha=2.0, noise_dbm=-104.0)"),
        # the link at 1 W overflows, the scenario's own does not: no finite
        # p_tx reaches the snr grid
        ("rho_l = 1\nd_sr = 1e-5\nd_rd = 1e-5\nnoise_dbm = -2900\np_tx_dbm = -2900",
         "no finite p_tx gives snr = 0.0 dB with this rho_l, alpha,"),
        ("eh = foo", "unknown EH model kind 'foo'"),
        # RGS takes group 0 alone, so a k other than 1 would print on every
        # row of a run that never read it
        ("scheme = rgs\nk = 3", "RGS takes group 0 and does not read k, got k = 3"),
    ])
    def test_bad_scalar_is_a_clean_error(self, tmp_path, capsys, line, message):
        path = tmp_path / "scalar.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        # a parse error (an unknown key) also names the line
        with pytest.raises(ScenarioError, match=r"scalar\.cfg:(1:)? " + re.escape(message)):
            load_scenario(str(path))
        out = tmp_path / "x.csv"
        assert main(["run", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted(set(_DEFAULTS) - STR_KEYS)),
           value=st.text(st.characters(blacklist_categories=("Cc", "Cs"),
                                       blacklist_characters="#"), min_size=1),
           junk=st.text("bcdghjklmopqrstuvwxyz!?@", min_size=1))
    def test_numeric_key_values_never_escape(self, tmp_path, key, value, junk):
        # any text either loads or is a ScenarioError; text that is no number is the latter
        path = tmp_path / "prop.cfg"
        path.write_text(f"{key} = {value}\n", encoding="utf-8")
        try:
            load_scenario(str(path))
        except ScenarioError:
            pass
        path.write_text(f"{key} = {junk}\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match=key):
            load_scenario(str(path))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shipped=st.sampled_from(SHIPPED), sweep=st.booleans(),
           keys=st.fixed_dictionaries({}, optional={
               "p_tx_dbm": st.floats(-40.0, 60.0),
               "rho": st.floats(0.0, 1.0),
               "zeta": st.floats(0.0, 1.0),
               "k_h": st.floats(0.0, 100.0),
               "spacing": st.floats(1e-3, 1.0),
               "seed": st.integers(0, 2 ** 63),
               "n_draws": st.integers(1, 10 ** 6),
               "r_req": st.floats(0.0, 20.0),
           }))
    def test_raw_keys_round_trip(self, tmp_path, shipped, sweep, keys):
        # a scenario written back from its raw keys loads to the same points
        text = shipped.read_text(encoding="utf-8")
        kept = [l for l in text.splitlines() if l.partition("=")[0].strip() not in keys]
        first = tmp_path / "first.cfg"
        first.write_text("\n".join(kept + [f"{k} = {v!r}" for k, v in keys.items()]) + "\n",
                         encoding="utf-8")
        try:
            sc = load_scenario(str(first), sweep=sweep)
        except ScenarioError:
            assume(False)
        again = tmp_path / "again.cfg"
        again.write_text("".join(f"{k} = {v}\n" for k, v in sc.raw.items()), encoding="utf-8")
        back = load_scenario(str(again), sweep=sweep)
        assert back.points == sc.points
        assert back.sweep_grid == sc.sweep_grid
        assert back.n_draws == sc.n_draws

    @pytest.mark.parametrize("sweep, message", [
        ("sweep_variable = b\nsweep_grid = 2,8\n", "k=6 exceeds the number of groups 2"),
        ("sweep_variable = k\nsweep_grid = 6,21\n", "k=21 exceeds the number of groups 20"),
        ("sweep_variable = snr\nsweep_grid = 0,8,4\n", "strictly monotone"),
        ("sweep_variable = speed\nsweep_grid = 1\n", "unknown sweep variable"),
        ("sweep_grid = ,\n", "nonempty"),
        ("sweep_variable = b\nsweep_grid = 20,20.5\n", "b sweep values must be integers"),
        ("sweep_variable = k\nsweep_grid = 1,2.5\n", "k sweep values must be integers"),
        ("sweep_variable = p_tx\nsweep_grid = 1e400\n", "sweep value inf is not finite"),
        ("sweep_variable = spacing\nsweep_grid = 0.01,1e400\n", "sweep value inf is not finite"),
        # a factor the mode does not read would print the same row at every value
        ("mode = ts\nsweep_variable = rho\nsweep_grid = 0.1,0.5,0.9\n", "TS mode does not read rho"),
        ("mode = ps\nsweep_variable = zeta\nsweep_grid = 0.1,0.5,0.9\n", "PS mode does not read zeta"),
        # RGS takes group 0, so it reads neither the group count nor k
        ("scheme = rgs\nsweep_variable = b\nsweep_grid = 20,80,140\n",
         "RGS takes group 0 and does not read b"),
        ("scheme = rgs\nsweep_variable = k\nsweep_grid = 1,3,6\n",
         "RGS takes group 0 and does not read k"),
    ])
    def test_invalid_sweep_rejected(self, tmp_path, sweep, message):
        path = tmp_path / "sweep.cfg"
        scheme = "" if sweep.startswith("scheme = ") else "scheme = sbgs\n"  # unless the case sets it
        path.write_text(scheme + "k = 6\n" + sweep, encoding="utf-8")
        with pytest.raises(ScenarioError, match=rf"sweep\.cfg: .*{message}"):
            load_scenario(str(path))

    @pytest.mark.parametrize("grid", ["-56,,-48", "-56,-52,", ",-56", "-56, ,-48"])
    def test_empty_grid_entry_rejected(self, tmp_path, grid):
        # a stray comma is a typo, not a shorter grid; a grid of blanks
        # alone is empty
        path = tmp_path / "sweep.cfg"
        path.write_text(f"sweep_grid = {grid}\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"sweep\.cfg: sweep_grid = .* has an empty entry"):
            load_scenario(str(path))
        path.write_text("sweep_grid =\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"sweep\.cfg: sweep grid must be nonempty"):
            load_scenario(str(path))


class TestRunCommand:
    def test_csv_layout(self, scenario_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["run", scenario_file, "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        meta = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert [l for l in meta if l.startswith("# seed = ")] == ["# seed = 77"]
        assert "# r_req = 1.5826823549115563" in meta
        assert data[0] == (
            "sweep_value,analytic_outage,empirical_outage,"
            "ci_halfwidth,n_trials,scheme,k,mode"
        )
        assert len(data) == 1 + 3
        first = data[1].split(",")
        assert float(first[0]) == -56.0
        assert 0.0 <= float(first[1]) <= 1.0
        assert first[5:] == ["SBGS", "2", "PS"]

    def test_reruns_are_byte_identical(self, scenario_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", scenario_file, "-o", str(a)])
        main(["run", scenario_file, "-o", str(b), "--workers", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_output_independent_of_cwd(self, scenario_file, tmp_path, monkeypatch):
        outs = []
        for cwd in (tmp_path, ROOT):
            monkeypatch.chdir(cwd)
            out = tmp_path / f"from-{len(outs)}.csv"
            assert main(["run", scenario_file, "-o", str(out), "--trials", "256"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert f"# version = {risgroups.__version__}\n".encode() in outs[0]

    def test_overrides(self, scenario_file, tmp_path):
        out = tmp_path / "o.csv"
        main(["run", scenario_file, "-o", str(out), "--trials", "2048",
              "--seed", "5", "--k", "1"])
        text = out.read_text(encoding="utf-8")
        assert "# seed = 5" in text
        assert ",2048,SBGS,1,PS" in text

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "n_trials"),
        ("--k", "0", "k"),
        ("--k", "21", "k=21 exceeds the number of groups 20"),
        ("--workers", "0", "--workers"),
    ])
    def test_bad_override_is_an_error(self, scenario_file, tmp_path, capsys,
                                      flag, value, message):
        out = tmp_path / "x.csv"
        assert main(["run", scenario_file, "-o", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_k_override_of_an_rgs_scenario_is_an_error(self, tmp_path, capsys):
        # an RGS run reads no k, so a k of 3 would print on every row
        out = tmp_path / "x.csv"
        rgs = str(ROOT / "scenarios" / "data_snr_rgs.cfg")
        assert main(["run", rgs, "-o", str(out), "--k", "3"]) == 2
        assert "RGS takes group 0 and does not read k, got k = 3" in capsys.readouterr().err
        assert not out.exists()

    def test_rows_state_their_own_point(self, tmp_path):
        # a k sweep prints each row's own k, not the scenario's base k
        path = tmp_path / "k.cfg"
        path.write_text("scheme = sbgs\nk = 1\nmode = ts\nsweep_variable = k\n"
                        "sweep_grid = 1,2,5\nn_trials = 256\n", encoding="utf-8")
        out = tmp_path / "k.csv"
        assert main(["run", str(path), "-o", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")][1:]
        assert [row[0] for row in rows] == ["1", "2", "5"]
        assert [row[4:] for row in rows] == [
            ["256", "SBGS", k, "TS"] for k in ("1", "2", "5")]

    def test_removed_beta_gain_key_rejected(self, tmp_path, capsys):
        # the link budget carries all scaling: set rho_l to beta * rho_l instead
        path = tmp_path / "beta.cfg"
        path.write_text("beta_gain = 2\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        assert main(["run", str(path), "-o", str(out)]) == 2
        assert "unknown key 'beta_gain'" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_returns_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n", encoding="utf-8")
        assert main(["run", str(path), "-o", str(tmp_path / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [("run", ["--trials", "64"]), ("bounds", [])])
def test_unset_keys_are_not_echoed(tmp_path, command, flags):
    # every key has a value, set or default, and the header echoes each one
    # the command reads, once
    out = tmp_path / "out.csv"
    path = ROOT / "scenarios" / "bounds_ps_linear.cfg"
    assert main([command, str(path), "-o", str(out), *flags]) == 0
    meta = [l for l in out.read_text(encoding="utf-8").splitlines() if l.startswith("#")]
    keys = set(_DEFAULTS) - (set() if command == "run" else _SWEEP_KEYS)
    assert sorted(l[2:].partition(" = ")[0] for l in meta) == sorted(keys | {"version"})
    assert not [l for l in meta if l.endswith(" = None")]
    assert "# r_req = 0.5" in meta


class TestBoundsCommand:
    @pytest.mark.parametrize("flag", ["--trials", "--k", "--workers"])
    def test_takes_no_sweep_flags(self, scenario_file, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bounds", scenario_file, "-o", str(out), flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override(self, scenario_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["bounds", scenario_file, "-o", str(out), "--seed", "5"]) == 0
        assert "# seed = 5\n" in out.read_text(encoding="utf-8")

    def test_ignores_sweep_keys(self, tmp_path):
        # bounds selects no group and runs no sweep, so keys only a sweep reads
        # are neither validated nor recorded, while run still rejects them
        path = tmp_path / "b.cfg"
        text = (ROOT / "scenarios" / "bounds_ps_linear.cfg").read_text(encoding="utf-8")
        path.write_text(text + "n_trials = 0\nscheme = best\nk = 21\nmetric = latency\n"
                        "e_req = abc\nsweep_variable = speed\nsweep_grid = 2,1,x\n",
                        encoding="utf-8")
        out = tmp_path / "b.csv"
        assert main(["bounds", str(path), "-o", str(out)]) == 0
        recorded = {line[2:].partition(" = ")[0]
                    for line in out.read_text(encoding="utf-8").splitlines()
                    if line.startswith("# ")}
        assert recorded == (set(_DEFAULTS) - _SWEEP_KEYS) | {"version"}
        assert main(["run", str(path), "-o", str(tmp_path / "r.csv")]) == 2

    def test_csv_layout(self, tmp_path, capsys):
        path = tmp_path / "b.cfg"
        # at 17 dBm some of these snapshots are energy-limited
        path.write_text(
            "rho_l = 0.1\nd_sr = 2\nd_rd = 3\nnoise_dbm = 17\np_tx_dbm = 17\n"
            "mode = ps\neh = linear\nr_req = 0.5\nn_draws = 10\nseed = 3\n",
            encoding="utf-8",
        )
        out = tmp_path / "b.csv"
        assert main(["bounds", str(path), "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8").splitlines()
        meta = [l for l in text if l.startswith("#")]
        lines = [l for l in text if not l.startswith("#")]
        assert [l for l in meta if l.startswith("# seed = ")] == ["# seed = 3"]
        assert lines[0] == "channel_draw,lower,upper,feasible,cause"
        assert len(lines) == 1 + 10
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == [str(d) for d in range(10)]
        for row in rows:
            assert 0.0 <= float(row[1]) <= 1.0
            assert row[3] in ("true", "false")
            # the cause is empty exactly when the interval is feasible; an
            # energy-limited interval has its lower end clamped to 1
            assert (row[4] == "") == (row[3] == "true")
            if row[4]:
                assert row[4] == "energy-limited" and float(row[1]) == 1.0
        assert {row[3] for row in rows} == {"true", "false"}
        # some draw is feasible, so no warning
        assert "no feasible interval" not in capsys.readouterr().err

    def test_snapshots_are_columns_of_one_draw(self, tmp_path, monkeypatch):
        # one stream and one (n_draws, 1) draw, whose rows are trials, so
        # snapshot d does not depend on n_draws
        calls = collections.Counter()
        for name in ("block_rng", "sample_channels"):
            def counting(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counting)
        rows = {}
        for n_draws in (10, 25):
            calls.clear()
            scenario = load_scenario(str(ROOT / "scenarios" / "bounds_ps_linear.cfg"),
                                     {"n_draws": n_draws}, sweep=False)
            out = tmp_path / f"{n_draws}.csv"
            assert cli.run_bounds(scenario, str(out)) == 0
            assert calls == {"block_rng": 1, "sample_channels": 1}
            rows[n_draws] = [l for l in out.read_text(encoding="utf-8").splitlines()
                             if not l.startswith("#")][1:]
        assert len(rows[10]) == 10 and rows[10] == rows[25][:10]

    @pytest.mark.parametrize("seed", [{}, {"seed": 11}, {"seed": 0}],
                             ids=["shipped-seed", "seed-11", "seed-0"])
    @pytest.mark.parametrize("mode, eh", [("ps", "linear"), ("ps", "nonlinear"),
                                          ("ts", "linear"), ("ts", "nonlinear")])
    def test_rows_do_not_depend_on_n_draws(self, tmp_path, mode, eh, seed):
        # each variant reads its own snapshot fields: PS-linear the power sum
        # and z, PS-nonlinear h_min and h_max, TS-nonlinear |g_c|^2.  One draw
        # is the case BLAS would round differently as a one-row product, which
        # only the nonlinear variants form; with OpenBLAS 0.3.31 that would
        # move the first row of both of them at seed 0, and of none at seed 11
        # or the shipped seed
        rows = {}
        for n_draws in (1, 2, 500, 700):
            scenario = load_scenario(str(ROOT / "scenarios" / "bounds_ps_linear.cfg"),
                                     {"n_draws": n_draws, "mode": mode, "eh": eh, **seed},
                                     sweep=False)
            out = tmp_path / f"{n_draws}.csv"
            assert cli.run_bounds(scenario, str(out)) == 0
            rows[n_draws] = [l for l in out.read_text(encoding="utf-8").splitlines()
                             if not l.startswith("#")][1:]
        for n_draws in (1, 2, 500):
            assert rows[n_draws] == rows[700][:n_draws]

    @staticmethod
    def _bounds_snapshots(monkeypatch, name, overrides):
        """The snapshots ``run_bounds`` hands ``cli.<name>`` on the shipped
        bounds scenario, and the (z, h_sq, sum_h_sq) of the first sweep block."""
        snaps = []

        def recording(*args, _fn=getattr(cli, name)):
            snaps.append(args[-2])  # the snapshot comes just before r_req
            return _fn(*args)

        monkeypatch.setattr(cli, name, recording)
        scenario = load_scenario(str(ROOT / "scenarios" / "bounds_ps_linear.cfg"),
                                 overrides, sweep=False)
        assert cli.run_bounds(scenario, os.devnull) == 0
        assert len(snaps) == scenario.n_draws
        block = sample_channels(scenario.params, (sim.BLOCK_SIZE, scenario.params.b_groups),
                                sim.block_rng(scenario.trial.seed, 0), per_element=True)
        return snaps, (block.z, block.h_sq, block.sum_h_sq)

    @pytest.mark.parametrize("n_draws", [1, 300])
    def test_snapshot_is_group_0_of_a_sweep_block(self, monkeypatch, n_draws):
        # snapshot d is trial d of group 0 of the first sweep block, the
        # channel RGS evaluates there; the linear law reads no per-element
        # gains, so none are drawn
        snaps, (z, _, sum_h_sq) = self._bounds_snapshots(
            monkeypatch, "rho_bounds_linear", {"n_draws": n_draws})
        for d, snap in enumerate(snaps):
            assert snap.z == z[d, 0] and snap.sum_h_sq == sum_h_sq[d, 0]
            assert snap.h_sq is None

    @pytest.mark.parametrize("n_draws", [1, 300])
    def test_nonlinear_snapshot_is_group_0_of_a_sweep_block(self, monkeypatch, n_draws):
        # the nonlinear law's per-element gains are those of the sweep block too
        snaps, (z, h_sq, sum_h_sq) = self._bounds_snapshots(
            monkeypatch, "rho_bounds_nonlinear", {"n_draws": n_draws, "eh": "nonlinear"})
        for d, snap in enumerate(snaps):
            assert snap.z == z[d, 0] and snap.sum_h_sq == sum_h_sq[d, 0]
            np.testing.assert_array_equal(snap.h_sq, h_sq[d, 0])

    @pytest.mark.parametrize("mode", ["ps", "ts"])
    @pytest.mark.parametrize("eh", ["linear", "nonlinear"])
    def test_only_the_nonlinear_law_draws_per_element_gains(self, monkeypatch, mode, eh):
        asked = []

        def recording(*args, _fn=cli.sample_channels, **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            bound.apply_defaults()
            asked.append(bound.arguments["per_element"])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_channels", recording)
        scenario = load_scenario(str(ROOT / "scenarios" / "bounds_ps_linear.cfg"),
                                 {"n_draws": 3, "mode": mode, "eh": eh}, sweep=False)
        assert cli.run_bounds(scenario, os.devnull) == 0
        assert asked == [eh == "nonlinear"]


def _fmt_file(scenario, header: str, rows: list) -> str:
    """A CSV as it was written field by field through ``cli._fmt``."""
    lines = [f"# version = {risgroups.__version__}", *(
        f"# {k} = {cli._fmt(v)}" for k, v in sorted(scenario.raw.items())), header]
    return "\n".join(lines + [",".join(cli._fmt(x) for x in row) for row in rows]) + "\n"


@pytest.mark.parametrize("p_tx_dbm", [17, 30])
@pytest.mark.parametrize("mode, eh", [("ps", "linear"), ("ps", "nonlinear"),
                                      ("ts", "linear"), ("ts", "nonlinear")])
def test_bounds_csv_is_the_numpy_scalar_loop(tmp_path, mode, eh, p_tx_dbm):
    # each row formatted at once from one trial's plain floats gives the bytes
    # of bounds.* on the numpy-scalar snaps[d, 0], each field through _fmt;
    # at 17 dBm the PS rows take the feasible and the infeasible branches
    scenario = load_scenario(str(ROOT / "scenarios" / "bounds_ps_linear.cfg"),
                             {"n_draws": 300, "mode": mode, "eh": eh, "p_tx_dbm": p_tx_dbm},
                             sweep=False)
    out = tmp_path / "b.csv"
    assert cli.run_bounds(scenario, str(out)) == 0
    params, trial = scenario.params, scenario.trial
    nonlinear = eh == "nonlinear"
    interval = getattr(bounds, {"ps": "rho", "ts": "zeta"}[mode] + f"_bounds_{eh}")
    head = (params, trial.eh) if nonlinear else (params,)
    snaps = sample_channels(params, (300, 1), sim.block_rng(trial.seed, 0), per_element=nonlinear)
    rows = []
    for d in range(300):
        iv = interval(*head, snaps[d, 0], trial.r_req)
        rows.append([d, iv.lower, iv.upper, str(iv.feasible).lower(), iv.cause or ""])
    want = _fmt_file(scenario, "channel_draw,lower,upper,feasible,cause", rows)
    assert out.read_text(encoding="utf-8") == want
    if p_tx_dbm == 17 and mode == "ps":
        assert {"", "energy-limited"} <= {row[4] for row in rows}


def test_run_csv_is_each_field_through_fmt(tmp_path):
    # a sweep's rows are formatted at once, with the bytes of _fmt field by field
    scenario = load_scenario(str(ROOT / "scenarios" / "data_rho.cfg"), {"n_trials": 64})
    out = tmp_path / "r.csv"
    assert cli.run(scenario, str(out)) == 0
    rows = [[value, float(sim.analytic_outage(p, c)), est.p_hat, est.ci_halfwidth, c.n_trials,
             c.strategy.scheme, c.strategy.k, c.mode.kind]
            for value, (p, c), est in zip(scenario.sweep_grid, scenario.points,
                                          sim.estimate_outage(scenario.points))]
    header = "sweep_value,analytic_outage,empirical_outage,ci_halfwidth,n_trials,scheme,k,mode"
    assert out.read_text(encoding="utf-8") == _fmt_file(scenario, header, rows)


def _low_power_nonlinear_energy() -> str:
    # the shipped nonlinear energy sweep at 20 and 25 dBm, with e_req in the
    # bulk of the energy law: the fitted shape is 1.05e6 at 0.1 W
    text = (ROOT / "scenarios" / "energy_ptx_nonlinear.cfg").read_text(encoding="utf-8")
    text = re.sub(r"(?m)^sweep_grid = .*$", "sweep_grid = 0.1,0.3", text)
    return re.sub(r"(?m)^e_req = .*$", "e_req = 3.5e-06", text)


# strong line of sight: the Gamma fit of Z has shape 5e5
STRONG_LOS_DATA = """
k_h = 1e5
k_g = 1e5
scheme = rgs
r_req = 1.5826823549115563
sweep_variable = snr
sweep_grid = -57.66
"""


@pytest.mark.parametrize("text", [_low_power_nonlinear_energy(), STRONG_LOS_DATA],
                         ids=["energy_nonlinear_low_power", "data_strong_los"])
def test_large_shape_points_run(text, tmp_path):
    # shapes from about 1e5 up to 1e8 once exhausted a fixed iteration cap
    path = tmp_path / "large_shape.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["run", str(path), "-o", str(out), "--trials", "64"]) == 0
    rows = [l for l in out.read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")][1:]
    assert rows
    for row in rows:
        assert math.isfinite(float(row.split(",")[1]))


def _shipped_with(tmp_path, name: str, **keys) -> str:
    """Path of a copy of a shipped scenario with each given key's line replaced."""
    text = (ROOT / "scenarios" / f"{name}.cfg").read_text(encoding="utf-8")
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() not in keys]
    path = tmp_path / f"{name}.cfg"
    path.write_text("\n".join(kept + [f"{k} = {v}" for k, v in keys.items()]) + "\n",
                    encoding="utf-8")
    return str(path)


def _data_rows(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")][1:]


class TestExtremeRequirements:
    # an SNR below 2^-53 and a rate past 1024 bits/s/Hz (where 2^r overflows)
    # once ended in a ZeroDivisionError or OverflowError traceback

    def test_ts_bounds_at_tiny_snr(self, tmp_path):
        path = _shipped_with(tmp_path, "bounds_ps_linear", mode="ts", p_tx_dbm=-190)
        out = tmp_path / "b.csv"
        assert main(["bounds", path, "-o", str(out)]) == 0
        rows = _data_rows(out)
        assert len(rows) == 100
        assert all(row[3] == "false" for row in rows)

    def test_ps_bounds_at_unreachable_rate(self, tmp_path, capsys):
        path = _shipped_with(tmp_path, "bounds_ps_linear", r_req=1100)
        out = tmp_path / "b.csv"
        assert main(["bounds", path, "-o", str(out)]) == 0
        rows = _data_rows(out)
        assert len(rows) == 100
        for row in rows:
            assert float(row[2]) == 0.0 and row[3] == "false"
            assert row[4] == ("energy-limited" if float(row[1]) == 1.0 else "rate-limited")
        # no draw is feasible, and the run says so on stderr
        assert capsys.readouterr().err == "warning: no feasible interval in any channel draw\n"

    def test_run_at_unreachable_rate(self, tmp_path):
        # at zeta = 0.999 the rate needs 2^(r/(1-zeta)) with r/(1-zeta) > 2000
        path = _shipped_with(tmp_path, "data_zeta", sweep_grid="0.5,0.999")
        out = tmp_path / "z.csv"
        assert main(["run", path, "-o", str(out), "--trials", "64"]) == 0
        rows = _data_rows(out)
        assert [row[0] for row in rows] == ["0.5", "0.999"]
        assert float(rows[0][1]) < 1.0
        assert float(rows[1][1]) == 1.0 and float(rows[1][2]) == 1.0


# a finite link budget (SystemParams checks it) whose per-element incident
# power w_p |h_j|^2 overflows a double at the one grid point
OVERFLOWING_HARVEST = """
rho_l = 1
d_sr = 1
d_rd = 1
noise_dbm = 30
mode = ps
scheme = ebgs
metric = energy
eh = nonlinear
e_req = 1
sweep_variable = p_tx
sweep_grid = 1.7e308
n_trials = 64
"""


@pytest.mark.parametrize("flags", [["--workers", "1"], ["--workers", "2", "--trials", "4100"]],
                         ids=["one-worker", "two-workers"])
def test_overflowing_incident_power_is_an_error(tmp_path, capsys, flags):
    # once a harvest_rate traceback (exit 1) after a numpy overflow warning.
    # 64 trials are one block, which runs in-process, so two workers take
    # 4100 trials: two blocks, one per worker process
    path = tmp_path / "overflow.cfg"
    path.write_text(OVERFLOWING_HARVEST, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["run", str(path), "-o", str(out), *flags]) == 2
    assert capsys.readouterr().err == ("error: at p_tx = 1.7e+308 W: incident powers must be "
                                       "nonnegative, finite and not NaN\n")
    assert not out.exists()


# a finite link budget at which incident_power * sum_h_sq and * h_max_sq overflow
OVERFLOWING_BOUNDS = """
rho_l = 30
d_sr = 0.3
d_rd = 3.3333333333333335
p_tx_dbm = 3082
noise_dbm = 3000
r_req = 0.5
n_draws = 200
"""


@pytest.mark.parametrize("mode, eh", [("ps", "linear"), ("ps", "nonlinear"),
                                      ("ts", "linear"), ("ts", "nonlinear")])
def test_overflowing_incident_power_is_a_bounds_error(tmp_path, capsys, mode, eh):
    # once 0,0,0,true on every PS row, and a harvest_rate traceback for TS-nonlinear
    path = tmp_path / "overflow.cfg"
    path.write_text(OVERFLOWING_BOUNDS + f"mode = {mode}\neh = {eh}\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["bounds", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == ("error: at p_tx = 1.5848931924610721e+305 W: "
                                       "the incident power overflows a double\n")
    assert not out.exists()


@pytest.mark.parametrize("mode, eh", [("ps", "linear"), ("ps", "nonlinear"),
                                      ("ts", "linear"), ("ts", "nonlinear")])
def test_overflowing_snr_term_is_its_limit(tmp_path, capsys, mode, eh):
    # the incident power is finite but the PS SNR term lower * psi * z
    # overflows: once 1,nan,false,energy-limited on every PS row
    path = _shipped_with(tmp_path, "bounds_ps_linear", noise_dbm=-3080, p_tx_dbm=-3000,
                         d_rd=1, mode=mode, eh=eh)
    out = tmp_path / "b.csv"
    assert main(["bounds", path, "-o", str(out)]) == 0
    assert capsys.readouterr().err == "warning: no feasible interval in any channel draw\n"
    assert "nan" not in out.read_text(encoding="utf-8")
    rows = _data_rows(out)
    assert len(rows) == 100
    for row in rows:
        if mode == "ps":
            assert row[1:] == ["1", "1", "false", "energy-limited"]
        else:
            assert 0.0 < float(row[2]) < 1.0 and row[3:] == ["false", "energy-limited"]


# a drive far beyond any link, at which the nonlinear energy fit once divided
# 0 by 0 (1e16 W), overflowed a product of two nodes (1e160 W) and, past
# 1e300 W, ended in a NaN shape; a 1 W noise keeps the link budget finite
STRONG_DRIVE = """
rho_l = 1
d_sr = 1
d_rd = 1
noise_dbm = 30
mode = ps
rho = 0.5
scheme = ebgs
metric = energy
eh = nonlinear
e_req = 9e-4
sweep_variable = p_tx
n_trials = 64
"""


@pytest.mark.parametrize("p_tx", ["1e16", "1e160", "1e300", "1e306", "1e307"])
def test_strong_drive_energy_fit_is_finite(tmp_path, capsys, p_tx):
    # a numpy warning fails the suite, so a clean exit is a fit without NaN.
    # From 1e306 W the fit's nodes or its integrand overflow a double, which
    # stops the run as the simulator's overflow does: one line, no CSV
    path = tmp_path / "strong.cfg"
    path.write_text(STRONG_DRIVE + f"sweep_grid = {p_tx}\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    code = main(["run", str(path), "-o", str(out)])
    if float(p_tx) > 1e300:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: at p_tx = {float(p_tx)!r} W: nonlinear energy fit: ")
        assert err.count("\n") == 1
        assert not out.exists()
    else:
        assert code == 0
        (row,) = _data_rows(out)
        assert float(row[0]) == float(p_tx)
        assert math.isfinite(float(row[1]))


def _fields_match(ref: str, new: str) -> bool:
    """A field matches its reference exactly, or, where both read as floats,
    within 1e-12 relative (NaN matches NaN); an integer field below 1e12 can
    only match exactly."""
    if ref == new:
        return True
    try:
        a, b = float(ref), float(new)
    except ValueError:
        return False
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_scenario_runs(path, tmp_path):
    # each shipped scenario writes its committed reference output: the sweeps
    # at 4100 trials, the bounds at the shipped n_draws; README gives the
    # command that regenerates reference/
    out = tmp_path / "out.csv"
    if path.stem.startswith("bounds"):
        code = main(["bounds", str(path), "-o", str(out)])
    else:
        code = main(["run", str(path), "-o", str(out), "--trials", "4100"])
    assert code == 0
    reference = ROOT / "reference" / f"{path.stem}.csv"
    want, got = (
        [line for line in p.read_text(encoding="utf-8").splitlines()
         if not line.startswith("# version = ")]
        for p in (reference, out))
    same = len(want) == len(got) and all(
        a == b if a.startswith("#") else
        len(a.split(",")) == len(b.split(",")) and all(map(_fields_match, a.split(","), b.split(",")))
        for a, b in zip(want, got))
    if not same:
        diff = "\n".join(difflib.unified_diff(want, got, str(reference), "output", lineterm=""))
        pytest.fail(f"output differs from {reference.name} (numpy {np.__version__}):\n{diff}")

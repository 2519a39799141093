"""Acceptance suite: analytic-vs-Monte-Carlo equivalence and trend properties.

Each test covers one numbered criterion and prints a single PASS line with
the tolerance it enforced (visible with pytest -s or on failure).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special as sp

from risgroups.bounds import (
    rho_bounds_linear,
    rho_bounds_nonlinear,
    zeta_bounds_linear,
    zeta_bounds_nonlinear,
)
from risgroups.channel import (
    SystemParams,
    build_correlation_matrix,
    fit_gamma_product,
    gamma_cdf,
    sample_channels,
)
from risgroups.energy import (
    LINEAR_DEFAULT,
    NONLINEAR_DEFAULT,
    PowerBudget,
    harvest_rate,
    required_energy_ps,
    required_energy_ts,
)
from risgroups.evt import normalizing_constants, outage_evt
from risgroups.selection import (
    RisMode,
    SelectionStrategy,
    fit_energy_distribution,
    mean_snr_scale,
    outage_sbgs,
)
from risgroups.sim import TrialConfig, analytic_outage, estimate_outage
from risgroups.specfun import bessel_i, reg_incomplete_beta, reg_lower_incomplete_gamma

DEFAULTS = SystemParams()
BUDGET = PowerBudget(
    p_t=10.0 ** (5.0 / 10.0) / 1000.0, p_ph=10.0 ** (5.0 / 10.0) / 1000.0
)


def _report(num: int, detail: str) -> None:
    print(f"PASS criterion {num}: {detail}", flush=True)


def _psi_db_to_p_tx(params: SystemParams, psi_db: float) -> float:
    return (
        10.0 ** (psi_db / 10.0) * params.noise_power
        / (params.rho_l ** 2 * (params.d_sr * params.d_rd) ** -params.alpha)
    )


def _harvest(model, incident_powers, duration: float) -> float:
    return duration * float(np.sum(harvest_rate(model, incident_powers)))


def test_criterion_01_special_function_oracles():
    rng = np.random.default_rng(101)
    worst_g = worst_b = worst_i = 0.0
    for _ in range(1000):
        s = float(rng.uniform(0.05, 60.0))
        x = float(rng.uniform(0.0, 150.0))
        worst_g = max(worst_g, abs(
            reg_lower_incomplete_gamma(s, x) - float(sp.gammainc(s, x))
        ))
        a = float(rng.uniform(0.1, 40.0))
        b = float(rng.uniform(0.1, 40.0))
        u = float(rng.uniform(0.0, 1.0))
        worst_b = max(worst_b, abs(
            reg_incomplete_beta(u, a, b) - float(sp.betainc(a, b, u))
        ))
        nu = float(rng.uniform(-1.0, 8.0))
        xb = float(rng.uniform(1e-6, 60.0))
        ref = float(sp.iv(nu, xb))
        worst_i = max(worst_i, abs(bessel_i(nu, xb) - ref) / max(abs(ref), 1.0))
    assert worst_g <= 1e-10
    assert worst_b <= 1e-10
    assert worst_i <= 1e-10
    _report(1, f"specfun vs scipy on 3x1000 points, worst errors "
               f"gamma={worst_g:.2e} beta={worst_b:.2e} bessel={worst_i:.2e} "
               f"(tol 1e-10)")


def test_criterion_02_gamma_fit_kolmogorov_distance():
    params = DEFAULTS  # M=20, K=1, lambda/8
    fit = fit_gamma_product(params)
    corr = build_correlation_matrix(
        params.m_per_group, params.spacing, params.wavelength
    )
    n = 10 ** 6
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(102)))
    z = sample_channels(params, corr, (n,), rng).z
    z.sort()
    analytic = sp.gammainc(fit.shape, z / fit.scale)
    steps = np.arange(1, n + 1) / n
    ks = max(
        float(np.max(np.abs(analytic - steps))),
        float(np.max(np.abs(analytic - (steps - 1.0 / n)))),
    )
    assert ks <= 0.02
    _report(2, f"Kolmogorov distance of the Z gamma fit = {ks:.4f} over 1e6 "
               f"samples (tol 0.02)")


def test_criterion_03_data_outage_cross_validation():
    psi_grid = [-58.0, -56.0, -54.0, -52.0, -50.0, -48.0, -46.0, -44.0]
    r_reqs = [math.log2(1.0 + 10.0 ** (g / 10.0)) for g in (3.0, 6.0, 9.0)]
    mode = RisMode("PS", rho=0.5)
    n_trials = 100_000
    worst = 0.0
    analytic_rows = [[] for _ in r_reqs]
    # all 24 points share one channel law, so each block is drawn once
    points = [
        (replace(DEFAULTS, p_tx=_psi_db_to_p_tx(DEFAULTS, psi_db)), TrialConfig(
            n_trials=n_trials, seed=103, strategy=SelectionStrategy("RGS", k=1),
            mode=mode, r_req=r_req, metric="data",
        ))
        for psi_db in psi_grid for r_req in r_reqs
    ]
    for i, ((p, cfg), est) in enumerate(zip(points, estimate_outage(points))):
        ana = analytic_outage(p, cfg)
        emp = est.p_hat
        gap = abs(ana - emp)
        assert gap <= max(0.03, 3.0 * est.ci_halfwidth)
        worst = max(worst, gap)
        analytic_rows[i % len(r_reqs)].append(ana)
    for row in analytic_rows:
        # strictly decreasing in SNR
        assert all(a > b for a, b in zip(row, row[1:]))
    # strictly increasing in the SNR threshold at every grid point
    for lo, hi in zip(analytic_rows, analytic_rows[1:]):
        assert all(a < b for a, b in zip(lo, hi))
    _report(3, f"analytic vs 1e5-trial MC on 8x3 grid, worst gap {worst:.4f} "
               f"(tol max(0.03, 3*CI)); monotone in SNR and threshold")


def test_criterion_04_spacing_and_correlation_trends():
    lam = DEFAULTS.wavelength
    spacings = [lam / 2, lam / 3, lam / 4, lam / 6, lam / 8]
    p_op = replace(DEFAULTS, p_tx=_psi_db_to_p_tx(DEFAULTS, -48.0))
    psi = mean_snr_scale(p_op)
    for g_db in (2.0, 4.0, 6.0):
        g = 10.0 ** (g_db / 10.0)
        vals = [
            gamma_cdf(fit_gamma_product(replace(p_op, spacing=s)), g / (0.5 * psi))
            for s in spacings
        ]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    # independent-element baseline below the correlated curve at equal M when
    # both run at the same normalized mean SNR (threshold as a fraction of it)
    fit_c = fit_gamma_product(replace(DEFAULTS, spacing=lam / 8))
    fit_i = fit_gamma_product(replace(DEFAULTS, spacing=lam / 2))
    for u in (0.01, 0.05, 0.1, 0.3, 0.5, 0.8, 1.0):
        assert gamma_cdf(fit_i, u * fit_i.mean) <= gamma_cdf(fit_c, u * fit_c.mean)
    _report(4, "analytic outage nonincreasing over spacing lambda/2 -> lambda/8 "
               "for 3 thresholds; identity baseline below correlated curve at "
               "equal normalized SNR (exact inequalities)")


def test_criterion_05_feasibility_boundary_equalities():
    params = SystemParams(rho_l=0.1, d_sr=2.0, d_rd=3.0, noise_power=0.05)
    m = params.m_per_group
    corr = build_correlation_matrix(m, params.spacing, params.wavelength)
    e_ps = required_energy_ps(m, BUDGET, params.t_s)
    w = m * BUDGET.p_t + BUDGET.p_ph
    nl = NONLINEAR_DEFAULT
    headroom = nl.a - w / m - nl.b / nl.c
    worst = 0.0
    rng = np.random.default_rng(105)
    for _ in range(100):
        snap = sample_channels(params, corr, (), rng)
        pl_sr = params.p_tx * params.rho_l * params.d_sr ** -params.alpha

        iv = rho_bounds_linear(params, BUDGET, snap, r_req=0.5)
        assert iv.feasible
        harvested = params.t_s * iv.lower * pl_sr * snap.sum_h_sq
        worst = max(worst, abs(harvested / e_ps - 1.0))
        eta = (
            params.rho_l * e_ps * params.d_rd ** -params.alpha * snap.z
            / (params.t_s * params.noise_power * snap.sum_h_sq)
        )
        rate = math.log2(1.0 + (1.0 / iv.upper - 1.0) * eta)
        worst = max(worst, abs(rate / 0.5 - 1.0))

        iv = rho_bounds_nonlinear(params, BUDGET, nl, snap, r_req=0.25)
        assert iv.feasible
        harvested = _harvest(nl, [iv.lower * pl_sr * snap.h_max_sq] * m, params.t_s)
        worst = max(worst, abs(harvested / e_ps - 1.0))
        kappa = (
            nl.c * e_ps * params.rho_l * params.d_rd ** -params.alpha * snap.z
            / (m * params.t_s * snap.h_min_sq * headroom * params.noise_power)
        )
        rate = math.log2(1.0 + (1.0 / iv.upper - 1.0) * kappa)
        worst = max(worst, abs(rate / 0.25 - 1.0))

        iv = zeta_bounds_linear(params, BUDGET, snap, r_req=2.0)
        assert iv.feasible
        harvested = iv.lower * params.t_s * pl_sr * snap.sum_h_sq
        e_ts = required_energy_ts(m, BUDGET, params.t_s, iv.lower)
        worst = max(worst, abs(harvested / e_ts - 1.0))
        gamma = (
            params.p_tx * params.rho_l ** 2
            * (params.d_sr * params.d_rd) ** -params.alpha * snap.z
            / params.noise_power
        )
        rate = (1.0 - iv.upper) * math.log2(1.0 + gamma)
        worst = max(worst, abs(rate / 2.0 - 1.0))

        iv = zeta_bounds_nonlinear(params, BUDGET, nl, snap, r_req=1.5)
        assert iv.feasible
        harvested = _harvest(nl, [pl_sr * snap.h_max_sq] * m, iv.lower * params.t_s)
        e_ts = required_energy_ts(m, BUDGET, params.t_s, iv.lower)
        worst = max(worst, abs(harvested / e_ts - 1.0))
        gamma_min = (
            params.p_tx * params.rho_l ** 2
            * (params.d_sr * params.d_rd) ** -params.alpha
            * m ** 2 * snap.h_min_sq * snap.g_c_sq / params.noise_power
        )
        rate = (1.0 - iv.upper) * math.log2(1.0 + gamma_min)
        worst = max(worst, abs(rate / 1.5 - 1.0))
    assert worst <= 1e-9
    _report(5, f"harvested-energy / rate equalities at all four interval "
               f"endpoints on 100 snapshots, worst relative error {worst:.2e} "
               f"(tol 1e-9)")


def test_criterion_06_order_statistics_exactness():
    n_draws = 10 ** 6
    rng = np.random.default_rng(106)
    u = rng.random((n_draws, 12))
    thresholds = rng.random(50)
    worst = 0.0
    for n in range(1, 13):
        s = np.sort(u[:, :n], axis=1)
        prev_emp = None
        for k in range(1, n + 1):
            kth = s[:, n - k]  # k-th largest
            counts = np.searchsorted(np.sort(kth), thresholds, side="left")
            emp = counts / n_draws
            exact = np.array(
                [reg_incomplete_beta(float(t), n - k + 1, k) for t in thresholds]
            )
            ci = 1.96 * np.sqrt(emp * (1.0 - emp) / n_draws)
            gaps = np.abs(emp - exact)
            assert np.all(gaps <= np.maximum(3.0 * ci, 5.0 / n_draws))
            worst = max(worst, float(np.max(gaps)))
            if prev_emp is not None:
                # nested failure events: exact monotonicity in k per draw
                assert np.all(prev_emp <= emp)
            prev_emp = emp
    _report(6, f"I_F(n-k+1,k) vs brute-force order statistics for n<=12, "
               f"50 thresholds, 1e6 draws, worst gap {worst:.2e} (tol 3*CI); "
               f"outage(k) <= outage(k+1) exact")


def test_criterion_07_rgs_vs_sbgs_ordering():
    psi_grid = [-58.0, -55.0, -52.0, -49.0, -46.0]
    r_req = math.log2(1.0 + 10.0 ** 0.3)
    mode = RisMode("PS", rho=0.5)
    n_trials = 100_000
    points = [
        (replace(DEFAULTS, p_tx=_psi_db_to_p_tx(DEFAULTS, psi_db)), TrialConfig(
            n_trials=n_trials, seed=107, strategy=SelectionStrategy(scheme, k=1),
            mode=mode, r_req=r_req, metric="data",
        ))
        for psi_db in psi_grid for scheme in ("RGS", "SBGS")
    ]
    estimates = estimate_outage(points)
    for rgs, sbgs in zip(estimates[::2], estimates[1::2]):
        assert rgs.p_hat >= sbgs.p_hat
    _report(7, "empirical RGS outage >= empirical best-group outage at all 5 "
               "SNR points, 1e5 trials each (exact per-trial nesting)")


def test_criterion_08_splitting_factor_monotonicity():
    p_op = _psi_db_to_p_tx(DEFAULTS, -50.0)
    grid = np.linspace(0.1, 0.9, 9)
    for g_db in (5.0, 7.0):
        g = 10.0 ** (g_db / 10.0)
        r_req = math.log2(1.0 + g)
        curves = {}
        for k_factor in (1.0, 2.0):
            p = replace(DEFAULTS, p_tx=p_op, k_h=k_factor, k_g=k_factor)
            fit = fit_gamma_product(p)
            psi = mean_snr_scale(p)
            ps = [gamma_cdf(fit, g / ((1.0 - r) * psi)) for r in grid]
            ts = [
                gamma_cdf(fit, (2.0 ** (r_req / (1.0 - z)) - 1.0) / psi)
                for z in grid
            ]
            assert all(a <= b + 1e-15 for a, b in zip(ps, ps[1:]))
            assert all(a <= b + 1e-15 for a, b in zip(ts, ts[1:]))
            curves[k_factor] = (ps, ts)
        for i in range(len(grid)):
            assert curves[2.0][0][i] <= curves[1.0][0][i]
            assert curves[2.0][1][i] <= curves[1.0][1][i]
    _report(8, "analytic PS/TS outage nondecreasing over rho, zeta in "
               "[0.1, 0.9]; K=2 curve below K=1 at every point (exact)")


def test_criterion_09_evt_convergence():
    p10 = SystemParams(m_per_group=10, n_total=10 * DEFAULTS.b_groups)
    fit = fit_gamma_product(p10)

    def cdf(x):
        return gamma_cdf(fit, x)

    def pdf(x):
        return math.exp(
            (fit.shape - 1.0) * math.log(x) - x / fit.scale
            - fit.shape * math.log(fit.scale) - math.lgamma(fit.shape)
        )

    xs = np.geomspace(fit.mean * 0.01, fit.mean * 3.0, 40)
    bs = [20, 80, 140]
    for k in (1, 6):
        sups = []
        for b in bs:
            con = normalizing_constants(cdf, pdf, b)
            sups.append(max(
                abs(outage_evt(float(x), k, con)
                    - reg_incomplete_beta(cdf(float(x)), b - k + 1, k))
                for x in xs
            ))
        assert sups[0] > sups[1] > sups[2]
    # exact finite-B law vs simulated k-th best of B=140 i.i.d. gamma draws
    b = 140
    f_target = 1.0 - 6.0 / b
    lo, hi = 0.0, fit.mean * 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cdf(mid) < f_target else (lo, mid)
    z_th = 0.5 * (lo + hi)
    f_th = cdf(z_th)
    rng = np.random.default_rng(109)
    n = 50_000
    z = rng.gamma(fit.shape, fit.scale, size=(n, b))
    z.sort(axis=1)
    for k in (1, 6):
        emp = float(np.mean(z[:, b - k] < z_th))
        exact = outage_sbgs(f_th, b, k)
        ci = 1.96 * math.sqrt(max(emp * (1.0 - emp), 1e-12) / n)
        assert abs(emp - exact) <= 3.0 * ci
    _report(9, "EVT sup-norm distance decreases over B in {20, 80, 140} for "
               "k in {1, 6}; exact vs empirical k-th-best outage at B=140 "
               "within 3*CI at 5e4 trials")


def test_criterion_10_energy_outage_trends():
    base = SystemParams(rho_l=0.1, d_sr=2.0, d_rd=3.0)
    mode = RisMode("PS", rho=0.5)
    powers = [9.0, 11.0, 13.5, 16.5, 20.0]
    cases = [(LINEAR_DEFAULT, 7.383514e-4), (NONLINEAR_DEFAULT, 2.805012e-4)]
    n_trials = 100_000
    keys = (1, 2, 3, "RGS")
    # one pass over the 40 points of both laws and all four selections
    points = [
        (replace(base, p_tx=p_tx), TrialConfig(
            n_trials=n_trials, seed=110, mode=mode, eh=eh, e_req=e_req, metric="energy",
            strategy=(SelectionStrategy("RGS", k=1) if key == "RGS"
                      else SelectionStrategy("EBGS", k=key)),
        ))
        for eh, e_req in cases for p_tx in powers for key in keys
    ]
    # tables[case][power, selection]
    tables = np.reshape([est.p_hat for est in estimate_outage(points)],
                        (len(cases), len(powers), len(keys)))
    worst_fit = 0.0
    for (eh, e_req), table in zip(cases, tables):
        assert np.all(np.diff(table, axis=0) <= 0.0)  # nonincreasing in P_tx
        assert np.all(np.diff(table, axis=1) >= 0.0)  # k=1 <= k=2 <= k=3 <= RGS
        for p_tx, emp in zip(powers, table[:, -1]):
            fitted = fit_energy_distribution(replace(base, p_tx=p_tx), mode, eh)
            worst_fit = max(worst_fit, abs(fitted.cdf(e_req) - emp))
    assert worst_fit <= 0.03
    _report(10, f"both EH laws: empirical energy outage nonincreasing in P_tx, "
                f"k=1<=k=2<=k=3<=RGS at all 5 powers, 1e5 trials; fitted CDF "
                f"vs empirical worst gap {worst_fit:.4f} (tol 0.03)")


def test_criterion_11_reproducibility(tmp_path):
    from risgroups.cli import main

    scenario = tmp_path / "repro.cfg"
    scenario.write_text(
        "scheme = sbgs\nmetric = data\ngamma_th_db = 3\n"
        "sweep_variable = snr\nsweep_grid = -56,-52,-48\n"
        "n_trials = 8192\nseed = 424242\n",
        encoding="utf-8",
    )
    outs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "3"), ("c.csv", "1")):
        out = tmp_path / name
        assert main(["run", str(scenario), "-o", str(out),
                     "--workers", workers]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    _report(11, "scenario CSV byte-identical across repeated runs and worker "
                "counts 1 and 3 (exact)")

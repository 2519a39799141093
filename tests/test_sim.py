"""Monte Carlo engine: reproducibility, closed-form agreement, sweep points."""

import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from risgroups.channel import SystemParams, channel_law, sample_channels
from risgroups.energy import NONLINEAR_DEFAULT, EhModel, harvest_rate
from risgroups.selection import RisMode, SelectionStrategy, data_threshold, eh_wiring
from risgroups import channel, cli, sim
from risgroups.sim import (
    BLOCK_SIZE,
    TrialConfig,
    analytic_outage,
    block_rng,
    estimate_outage,
    sweep_points,
)

ROOT = Path(__file__).resolve().parents[1]
PARAMS = SystemParams()


def cfg(**kw):
    base = dict(
        n_trials=20_000,
        seed=9,
        strategy=SelectionStrategy("RGS", k=1),
        mode=RisMode("PS", rho=0.5),
        eh=EhModel(),
        r_req=22.0,
        e_req=0.0,
        metric="data",
    )
    base.update(kw)
    return TrialConfig(**base)


class TestBlockRng:
    def test_deterministic_per_block(self):
        a = block_rng(3, 0).random(4)
        b = block_rng(3, 0).random(4)
        np.testing.assert_array_equal(a, b)

    def test_blocks_differ(self):
        a = block_rng(3, 0).random(4)
        b = block_rng(3, 1).random(4)
        assert not np.array_equal(a, b)


class TestSimulateBlock:
    def test_shapes_and_signs(self):
        snap = sample_channels(PARAMS, (7, PARAMS.b_groups), block_rng(1, 0), per_element=True)
        z, h_sq, sum_h_sq = snap.z, snap.h_sq, snap.sum_h_sq
        assert z.shape == sum_h_sq.shape == (7, PARAMS.b_groups)
        assert h_sq.shape == (7, PARAMS.b_groups, PARAMS.m_per_group)
        assert np.all(z >= 0.0) and np.all(sum_h_sq >= 0.0)
        assert np.all(h_sq >= 0.0)
        assert sample_channels(PARAMS, (7, PARAMS.b_groups), block_rng(1, 0)).h_sq is None

    @pytest.mark.parametrize("n", [1, 3, 3277],
                             ids=["one-row", "three-rows", "one-column-of-3277-rows"])
    def test_stream_layout(self, n, monkeypatch):
        # a block is the sampler's draw: group by group one (n, r + 1, 2)
        # normal call whose row i is trial i's r eigen-coordinate normals u,
        # then its g_c pair, with no draw before or between the columns.  Each
        # column reduces to the bits of the coordinates c = nu + s sqrt(lambda) u,
        # nu = V^T mus and s = sqrt(cov₀₀/2): the power sum sum_i |c_i|^2, the
        # composite sum_i (V^T 1)_i c_i, each dropped coordinate counting its
        # mean, and g_c = m_c plus the g pair scaled by sqrt(var_c/2), the only
        # sample_rician_vector call of the column
        p = replace(PARAMS, b_groups=5, n_total=5 * PARAMS.m_per_group,
                    k_h=2.0, k_g=0.5)
        b = p.b_groups
        law = channel_law(p)
        r, vecs = law.rank, law.eigenvectors
        assert r == 13
        block = sample_channels(p, (n, b), block_rng(1, 0))
        z, h_sq, sum_h_sq = block.z, block.h_sq, block.sum_h_sq

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.shapes = rng, []

            def standard_normal(self, shape):
                self.shapes.append(shape)
                return self.rng.standard_normal(shape)

        laws = []

        def recording(noise, mean, var, _fn=channel.sample_rician_vector):
            laws.append((noise.shape, mean, var))
            return _fn(noise, mean, var)

        monkeypatch.setattr(channel, "sample_rician_vector", recording)
        counting = CountingRng(block_rng(1, 0))
        snap = sample_channels(p, (n, b), counting)
        np.testing.assert_array_equal(z, snap.z)
        np.testing.assert_array_equal(sum_h_sq, snap.sum_h_sq)
        assert h_sq is None and snap.h_sq is None
        assert counting.shapes == [(n, r + 1, 2)] * b

        rng = block_rng(1, 0)
        (m_c,), ((var_c,),) = law.g_c
        assert laws == [((n, 2), m_c, var_c)] * b
        # nu = V^T mus = sqrt(K/(K+1)) Lambda^(1/2) V^T 1, from the eigenpairs alone
        ones = np.sum(vecs, axis=0)
        nu = math.sqrt(p.k_h / (p.k_h + 1.0)) * np.sqrt(law.eigenvalues) * ones
        np.testing.assert_array_equal(nu, law.nu)
        np.testing.assert_allclose(nu, vecs.T @ law.mus, rtol=0.0, atol=1e-12)
        scale = math.sqrt(0.5 * law.cov[0, 0]) * np.sqrt(law.eigenvalues[:r])
        for j in range(b):
            noise = rng.standard_normal((n, r + 1, 2))
            re = noise[:, :r, 0] * scale + nu[:r]
            im = noise[:, :r, 1] * scale
            pairs = np.stack([re, im], axis=-1).reshape(n, 2 * r)
            np.testing.assert_array_equal(
                snap.sum_h_sq[:, j],
                np.einsum("ij,ij->i", pairs, pairs) + float(np.sum(nu[r:] ** 2)))
            h_c_re = (np.einsum("ij,j->i", pairs[:, 0::2], ones[:r])
                      + float(np.sum(ones[r:] * nu[r:])))
            h_c_im = np.einsum("ij,j->i", pairs[:, 1::2], ones[:r])
            np.testing.assert_array_equal(snap.h_c_sq[:, j], h_c_re * h_c_re + h_c_im * h_c_im)
            g = math.sqrt(0.5 * var_c) * noise[:, r]
            g_re = g[:, 0] + m_c
            np.testing.assert_array_equal(snap.g_c_sq[:, j], g_re * g_re + g[:, 1] * g[:, 1])

    @pytest.mark.parametrize("m", [10, 20, 100])
    @pytest.mark.parametrize("n", [2, 7, 2500])
    def test_one_column_draw_is_a_row_prefix(self, n, m):
        # rows are trials, so an (n, 1) draw, such as the bounds command's, is
        # trial by trial group 0 of a full block.  The power sum and the
        # composites are row reductions; the per-element gains hold from two
        # rows: a one-row product goes to BLAS gemv and rounds differently
        p = SystemParams(m_per_group=m, n_total=m * PARAMS.b_groups)
        block = sample_channels(p, (BLOCK_SIZE, p.b_groups), block_rng(4, 0),
                                per_element=True)[:n, 0]
        column = sample_channels(p, (n, 1), block_rng(4, 0), per_element=True)[:, 0]
        for name in ("h_sq", "sum_h_sq", "h_c_sq", "g_c_sq"):
            np.testing.assert_array_equal(getattr(column, name), getattr(block, name))

    def test_group_columns_are_contiguous(self):
        # a block is stored group-major: each group column is one slab
        snap = sample_channels(PARAMS, (300, PARAMS.b_groups), block_rng(2, 0),
                               per_element=True)
        for j in range(PARAMS.b_groups):
            for name in ("h_sq", "sum_h_sq", "h_c_sq", "g_c_sq", "z"):
                assert getattr(snap, name)[:, j].flags.c_contiguous, (name, j)


class TestGroupEnergy:
    MODE, EH = RisMode("PS", rho=0.5), NONLINEAR_DEFAULT
    P = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=20.0)

    def test_column_harvest_keeps_the_bits_of_the_block_harvest(self):
        # on a b-prefix of a block, as a b sweep evaluates it
        snap = sample_channels(self.P, (500, self.P.b_groups), block_rng(3, 0), per_element=True)
        h_sq = snap.h_sq
        dur, w_p = eh_wiring(self.P, self.MODE)
        for b in (1, 7, self.P.b_groups):
            energy = np.stack([sim._group_energy(self.P, self.MODE, self.EH, snap[:, j])
                               for j in range(b)], axis=-1)
            assert np.array_equal(energy, dur * harvest_rate(self.EH, w_p * h_sq[:, :b]).sum(-1))


def scenario_points(name, scheme=None):
    """The points of a shipped scenario, optionally under another scheme."""
    points = cli.load_scenario(str(ROOT / "scenarios" / f"{name}.cfg")).points
    if scheme is None:
        return points
    return [(p, replace(c, strategy=replace(c.strategy, scheme=scheme))) for p, c in points]


def block_reference(points, n):
    """Each point's failures on block 0 by the full-block formulas: the
    (n, size) statistics of its set's columns of one ``sample_channels`` block,
    then the count of trials with fewer than k columns at the threshold, or the
    statistic at the k-th largest index of the ranked metric."""
    params, c0 = points[0]
    width = max(c.strategy.order(p.b_groups)[0] for p, c in points)
    block = sample_channels(replace(params, b_groups=width, n_total=params.m_per_group * width),
                            (n, width), block_rng(c0.seed, 0),
                            per_element=any(c.eh.kind == "nonlinear" for _, c in points))
    failures = []
    for p, c in points:
        size, k = c.strategy.order(p.b_groups)
        own = block[:, :size]
        dur, w_p = eh_wiring(p, c.mode)
        energy = dur * (harvest_rate(c.eh, w_p * own.h_sq).sum(-1) if c.eh.kind == "nonlinear"
                        else harvest_rate(c.eh, w_p * own.sum_h_sq))
        stats = {"data": own.z, "energy": energy}
        stat = stats[c.metric]
        threshold = data_threshold(p, c.mode, c.r_req) if c.metric == "data" else c.e_req
        ranked = sim.RANKED_METRIC.get(c.strategy.scheme, c.metric)
        if ranked == c.metric:
            failures.append(int(np.count_nonzero(np.count_nonzero(stat >= threshold, axis=1) < k)))
        else:
            idx = sim._kth_largest_index(stats[ranked], k)
            failures.append(int(np.count_nonzero(stat[np.arange(n), idx] < threshold)))
    return failures


def rgs_beside_sbgs():
    # a law shared by one-column RGS points and 20-column SBGS points
    points = scenario_points("data_snr_sbgs")
    return [(p, replace(c, strategy=SelectionStrategy(scheme, k=1)))
            for p, c in points for scheme in ("RGS", "SBGS")]


FOLD_CASES = {
    "own-data": lambda: scenario_points("data_snr_sbgs"),
    "own-data-mixed-b": lambda: scenario_points("evt_groups"),
    "own-energy-linear": lambda: scenario_points("energy_ptx_linear"),
    "own-energy-nonlinear": lambda: scenario_points("energy_ptx_nonlinear"),
    "rgs-beside-sbgs": rgs_beside_sbgs,
    "cross-ebgs-data": lambda: scenario_points("data_snr_sbgs", "EBGS"),
    "cross-sbgs-energy-linear": lambda: scenario_points("energy_ptx_linear", "SBGS"),
    "cross-sbgs-energy-nonlinear": lambda: scenario_points("energy_ptx_nonlinear", "SBGS"),
}


class TestFold:
    @pytest.mark.parametrize("n", [BLOCK_SIZE, 300])
    @pytest.mark.parametrize("case", list(FOLD_CASES))
    def test_fold_equals_the_full_block_formulas(self, case, n):
        # folding a block column by column counts each point's failures as
        # the formulas on the whole stored block do
        points = FOLD_CASES[case]()
        expected = block_reference(points, n)
        assert sim._block_failures(points, n, 0) == expected
        assert any(0 < f < n for f in expected)

    @staticmethod
    def _peak(points):
        sim._block_failures(points, 8, 0)
        tracemalloc.start()
        try:
            sim._block_failures(points, BLOCK_SIZE, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_data_peak_memory_does_not_grow_with_b(self):
        # no (n, B) array: the peak is one column's normals and reductions
        c = cfg(strategy=SelectionStrategy("SBGS", k=6))
        low, high = (self._peak([(SystemParams(m_per_group=10, b_groups=b, n_total=10 * b), c)])
                     for b in (140, 560))
        assert high <= 1.1 * low
        assert high <= 4 * BLOCK_SIZE * 10 * 8  # four (n, M) columns of doubles

    def test_nonlinear_peak_memory_does_not_grow_with_b(self):
        # no (n, B, M) array: the per-element gains of one column at a time
        c = cfg(strategy=SelectionStrategy("EBGS", k=1), eh=NONLINEAR_DEFAULT,
                metric="energy", e_req=2e-4)
        low, high = (self._peak([(SystemParams(rho_l=0.1, d_sr=2.0, p_tx=20.0, b_groups=b,
                                               n_total=20 * b), c)])
                     for b in (20, 80))
        assert high <= 1.1 * low
        assert high <= 7 * BLOCK_SIZE * 20 * 8  # seven (n, M) columns of doubles


def one(params, c, workers=1):
    return estimate_outage([(params, c)], workers=workers)[0]


class TestEstimateOutage:
    def test_worker_count_does_not_change_result(self):
        c = cfg(n_trials=3 * BLOCK_SIZE + 17)
        serial = one(PARAMS, c, workers=1)
        parallel = one(PARAMS, c, workers=3)
        assert serial == parallel

    def test_pool_is_no_wider_than_the_blocks(self, monkeypatch):
        # BLOCK_SIZE + 1 trials are two blocks, so 64 workers open a pool of 2;
        # the fake pool records its width and maps in this process
        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", SerialPool)
        c = cfg(n_trials=BLOCK_SIZE + 1)
        assert one(PARAMS, c, workers=64) == one(PARAMS, c, workers=1)
        assert widths == [2]

    def test_matches_closed_form_rgs_data(self):
        c = cfg(n_trials=40_000)
        est = one(PARAMS, c)
        ana = analytic_outage(PARAMS, c)
        assert abs(est.p_hat - ana) <= max(0.02, 3.0 * est.ci_halfwidth)

    def test_matches_closed_form_sbgs_data(self):
        c = cfg(n_trials=40_000, strategy=SelectionStrategy("SBGS", k=3), r_req=23.3)
        est = one(PARAMS, c)
        ana = analytic_outage(PARAMS, c)
        assert abs(est.p_hat - ana) <= max(0.02, 3.0 * est.ci_halfwidth)

    def test_matches_closed_form_ebgs_energy(self):
        p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=10.0)
        c = cfg(
            n_trials=40_000,
            strategy=SelectionStrategy("EBGS", k=2),
            eh=NONLINEAR_DEFAULT,
            metric="energy",
            e_req=2.35e-4,
        )
        est = one(p, c)
        ana = analytic_outage(p, c)
        assert abs(est.p_hat - ana) <= max(0.03, 3.0 * est.ci_halfwidth)

    def test_no_points_give_no_estimates(self, monkeypatch):
        forbid_work(monkeypatch)
        assert estimate_outage([]) == []
        assert estimate_outage([], workers=2) == []

    def test_k_exceeding_groups_rejected(self):
        with pytest.raises(ValueError):
            one(PARAMS, cfg(strategy=SelectionStrategy("SBGS", k=21)))

    def test_rgs_reads_no_k(self):
        # RGS selects from a set of one group, whatever k says
        p = SystemParams(b_groups=1, n_total=20)
        rgs = [cfg(n_trials=BLOCK_SIZE + 100, strategy=SelectionStrategy("RGS", k=k))
               for k in (1, 2)]
        assert one(p, rgs[1]) == one(p, rgs[0])
        assert analytic_outage(p, rgs[1]) == analytic_outage(p, rgs[0])

    def test_k_checked_before_any_block_or_pool(self, monkeypatch):
        forbid_work(monkeypatch)
        ok = cfg(n_trials=2 * BLOCK_SIZE)
        bad = cfg(n_trials=2 * BLOCK_SIZE, strategy=SelectionStrategy("SBGS", k=21))
        with pytest.raises(ValueError, match="k=21"):
            estimate_outage([(PARAMS, ok), (PARAMS, bad)], workers=2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cfg(n_trials=0)
        with pytest.raises(ValueError):
            cfg(metric="latency")
        with pytest.raises(ValueError, match="seed"):
            cfg(seed=-1)

    @pytest.mark.parametrize("field, value, word", [
        ("n_trials", 5000.0, "positive"), ("seed", 1.5, "nonnegative"),
        ("seed", 7.0, "nonnegative"), ("n_trials", True, "positive"),
    ])
    def test_non_integer_count_rejected(self, field, value, word):
        # numpy cannot size a block by, or seed a stream from, a float
        with pytest.raises(ValueError, match=f"{field} must be {word} and integral, got"):
            cfg(**{field: value})

    def test_negative_rate_requirement_rejected(self):
        with pytest.raises(ValueError, match="r_req"):
            cfg(r_req=-0.5)

    def test_negative_energy_requirement_rejected(self):
        with pytest.raises(ValueError, match="e_req"):
            cfg(e_req=-1e-6)

    @pytest.mark.parametrize("field", ["r_req", "e_req"])
    def test_nan_requirement_rejected(self, field):
        # a NaN e_req lies below no harvest, so every trial would pass
        with pytest.raises(ValueError, match="NaN"):
            cfg(**{field: math.nan})

    def test_infinite_incident_power_rejected(self):
        # w_p |h|^2 overflows to inf here; its NaN nonlinear harvest would lie
        # below no e_req, so a true outage of 1 would read 0.  An infinite
        # incident power per unit |h|^2 fails the link budget check at once
        c = cfg(n_trials=64, strategy=SelectionStrategy("EBGS", k=1), eh=NONLINEAR_DEFAULT,
                metric="energy", e_req=1e3)
        with pytest.raises(ValueError, match="link budget overflows"):
            one(SystemParams(p_tx=1e308, rho_l=1.0, d_sr=0.5), c)


class TestLinearHarvest:
    @pytest.mark.parametrize("scheme", ["EBGS", "RGS"])
    def test_power_sum_counts_as_per_element_harvest(self, scheme):
        # the linear law harvests each group's power sum, reduced once per block;
        # the counts must be those of the per-element harvest summed per group
        scenario = cli.load_scenario(str(ROOT / "scenarios" / "energy_ptx_linear.cfg"))
        points = [(p, replace(c, strategy=replace(c.strategy, scheme=scheme)))
                  for p, c in scenario.points]
        params, c0 = points[0]
        n = 1500
        block = sample_channels(params, (n, params.b_groups), block_rng(c0.seed, 0),
                                per_element=True)
        z, h_sq, sum_h_sq = block.z, block.h_sq, block.sum_h_sq
        expected = []
        for p, c in points:
            dur, w_p = eh_wiring(p, c.mode)
            energy = dur * harvest_rate(c.eh, w_p * h_sq).sum(-1)
            if scheme == "EBGS":
                idx = np.argsort(-energy, axis=1)[:, c.strategy.k - 1]
            else:
                idx = 0
            expected.append(int(np.sum(energy[np.arange(n), idx] < c.e_req)))
            assert sim._block_failures([(p, c)], n, 0) == expected[-1:]
        assert sim._block_failures(points, n, 0) == expected
        assert len(set(expected)) > 1

    def test_data_or_linear_block_forms_no_per_element_gains(self, monkeypatch):
        # only the nonlinear law reads |h_j|^2, so only a block whose law has a
        # nonlinear point forms the per-element gains, one (n, M) column at a time
        seen = []

        def recording(params, mode, eh, column, _fn=sim._group_energy):
            seen.append(column.h_sq)
            return _fn(params, mode, eh, column)

        monkeypatch.setattr(sim, "_group_energy", recording)
        nonlinear = cfg(eh=NONLINEAR_DEFAULT, metric="energy",
                        strategy=SelectionStrategy("EBGS", k=1))
        sim._block_failures(sweep_points(PARAMS, nonlinear, "p_tx", [1.0, 2.0]), 8, 0)
        assert [h_sq.shape for h_sq in seen] == [(8, PARAMS.m_per_group)] * 2 * PARAMS.b_groups
        seen.clear()
        monkeypatch.setattr(channel, "_element_gains", forbidden)
        for c in (cfg(), replace(nonlinear, eh=EhModel())):
            sim._block_failures(sweep_points(PARAMS, c, "p_tx", [1.0, 2.0]), 8, 0)
        # the two RGS points read column 0, the two EBGS points every column
        assert seen == [None] * (2 + 2 * PARAMS.b_groups)


def forbidden(*args, **kwargs):
    raise AssertionError("started work before validating k")


def forbid_work(monkeypatch):
    monkeypatch.setattr(sim, "simulate_block", forbidden)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", forbidden)


# (mode, metric, requirement, ranking scheme): the data phase has no SNR or no
# time, or the group harvests nothing; a zero need is met, any other missed
NO_DATA_PHASE = {"PS-rho=1": RisMode("PS", rho=1.0), "TS-zeta=1": RisMode("TS", zeta=1.0)}
EDGES = [
    *[pytest.param(mode, "data", r_req, "SBGS", id=f"{name}-r_req={r_req:g}")
      for name, mode in NO_DATA_PHASE.items() for r_req in (0.0, 1.0)],
    *[pytest.param(RisMode("PS", rho=0.0), "energy", e_req, "EBGS", id=f"PS-rho=0-e_req={e_req:g}")
      for e_req in (0.0, 1e-9)],
]


class TestCrossCells:
    # a scheme that ranks by the other metric is the one user of
    # _kth_largest_index; its counts must be those of a full argsort
    @pytest.mark.parametrize("name, scheme", [("data_snr_sbgs", "EBGS"),
                                              ("energy_ptx_linear", "SBGS"),
                                              ("energy_ptx_nonlinear", "SBGS")])
    def test_failures_match_an_argsort_reference(self, name, scheme):
        n = 1500
        scenario = cli.load_scenario(str(ROOT / "scenarios" / f"{name}.cfg"))
        points = [(p, replace(c, n_trials=n, strategy=replace(c.strategy, scheme=scheme)))
                  for p, c in scenario.points]
        params, c0 = points[0]
        nonlinear = c0.eh.kind == "nonlinear"
        block = sample_channels(params, (n, params.b_groups), block_rng(c0.seed, 0),
                                per_element=nonlinear)
        z, h_sq, sum_h_sq = block.z, block.h_sq, block.sum_h_sq
        assert z.T.flags.c_contiguous and sum_h_sq.T.flags.c_contiguous
        expected = []
        for p, c in points:
            dur, w_p = eh_wiring(p, c.mode)
            energy = dur * (harvest_rate(c.eh, w_p * h_sq).sum(-1) if nonlinear
                            else harvest_rate(c.eh, w_p * sum_h_sq))
            stats = {"data": z, "energy": energy}
            ranked = sim.RANKED_METRIC[scheme]
            assert ranked != c.metric
            idx = np.argsort(-stats[ranked], axis=1)[:, c.strategy.k - 1]
            threshold = (data_threshold(p, c.mode, c.r_req) if c.metric == "data"
                         else c.e_req)
            expected.append(int(np.sum(stats[c.metric][np.arange(n), idx] < threshold)))
            assert sim._block_failures([(p, c)], n, 0) == expected[-1:]
        assert [e.p_hat for e in estimate_outage(points)] == [f / n for f in expected]
        assert len(set(expected)) > 1


class TestAnalyticOutage:
    def test_unsupported_combinations_are_nan(self, monkeypatch):
        # the cross cells return before any law is fitted
        monkeypatch.setattr(sim, "fit_gamma_product", forbidden)
        monkeypatch.setattr(sim, "fit_energy_distribution", forbidden)
        assert math.isnan(
            analytic_outage(PARAMS, cfg(strategy=SelectionStrategy("EBGS", k=1)))
        )
        assert math.isnan(
            analytic_outage(
                PARAMS, cfg(strategy=SelectionStrategy("SBGS", k=1), metric="energy")
            )
        )

    @pytest.mark.parametrize("scheme", ["RGS", "ranked"])
    @pytest.mark.parametrize("mode, metric, need, ranked", EDGES)
    def test_edges_equal_the_estimate(self, mode, metric, need, ranked, scheme):
        c = cfg(n_trials=500, mode=mode, metric=metric, r_req=need, e_req=need,
                strategy=SelectionStrategy(ranked if scheme == "ranked" else "RGS", k=2))
        expected = 1.0 if need > 0 else 0.0
        assert analytic_outage(PARAMS, c) == expected
        assert one(PARAMS, c).p_hat == expected


def evaluate(variable, grid, c, workers=1):
    """The closed form and the estimate of each point of a sweep."""
    points = sweep_points(PARAMS, c, variable, grid)
    return [analytic_outage(p, pc) for p, pc in points], estimate_outage(points, workers)


class TestSweep:
    def test_snr_sweep_monotone(self):
        c = cfg(n_trials=8_192, r_req=math.log2(1.0 + 10.0 ** 0.3))
        ana, estimates = evaluate("snr", [-56.0, -52.0, -48.0, -44.0], c)
        assert all(a >= b for a, b in zip(ana, ana[1:]))
        emp = [e.p_hat for e in estimates]
        # common random numbers make the empirical curve monotone too
        assert all(a >= b for a, b in zip(emp, emp[1:]))

    def test_rho_sweep_increases_outage(self):
        c = cfg(n_trials=4_096)
        ana, _ = evaluate("rho", [0.1, 0.5, 0.9], c)
        assert all(a <= b for a, b in zip(ana, ana[1:]))

    def test_group_count_sweep_monotone(self):
        c = cfg(n_trials=4_096, strategy=SelectionStrategy("SBGS", k=2), r_req=23.3)
        _, estimates = evaluate("b", [3, 5, 10, 20], c)
        emp = [e.p_hat for e in estimates]
        # each b evaluates the first b groups of one shared draw, and the k-th
        # best of more groups is never worse
        assert all(a >= b for a, b in zip(emp, emp[1:]))
        assert emp[0] > emp[-1]

    def test_group_count_sweep_updates_n_total(self):
        c = cfg(n_trials=4_096, strategy=SelectionStrategy("SBGS", k=1), r_req=23.3)
        points = sweep_points(PARAMS, c, "b", [10, 20, 40])
        assert [p.n_total for p, _ in points] == [200, 400, 800]
        ana = [analytic_outage(p, pc) for p, pc in points]
        assert all(a >= b for a, b in zip(ana, ana[1:]))

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_points(PARAMS, cfg(n_trials=1024), "snr", [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            sweep_points(PARAMS, cfg(n_trials=1024), "snr", [])

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            sweep_points(PARAMS, cfg(n_trials=1024), "temperature", [1.0, 2.0])

    def test_whole_grid_validated_before_any_work(self, monkeypatch, tmp_path, capsys):
        # the CLI gets the points load_scenario validated, so a bad grid value
        # stops it before any closed form, block or worker pool
        forbid_work(monkeypatch)
        monkeypatch.setattr(cli, "analytic_outage", forbidden)
        path = tmp_path / "k.cfg"
        path.write_text("scheme = sbgs\nk = 1\nsweep_variable = k\nsweep_grid = 1,5,21\n"
                        f"n_trials = {2 * BLOCK_SIZE}\n", encoding="utf-8")
        out = tmp_path / "k.csv"
        for workers in ("1", "2"):
            assert cli.main(["run", str(path), "-o", str(out), "--workers", workers]) == 2
            assert "k=21" in capsys.readouterr().err
            assert not out.exists()


# (variable, grid, scheme, metric, threshold) for sweeps that keep the channel
# law; a b sweep shares the draw at its widest b
SHARED_LAW_SWEEPS = [
    ("snr", [-56.0, -52.0, -48.0], "SBGS", "data", math.log2(1.0 + 10.0 ** 0.3)),
    ("snr", [-56.0, -52.0, -48.0], "RGS", "data", math.log2(1.0 + 10.0 ** 0.3)),
    ("p_tx", [9.0, 13.5, 20.0], "EBGS", "energy", 4e-4),
    ("p_tx", [9.0, 13.5, 20.0], "RGS", "energy", 2.5e-4),
    ("rho", [0.2, 0.5, 0.8], "SBGS", "data", 23.0),
    ("rho", [0.2, 0.5, 0.8], "EBGS", "energy", 3e-4),
    ("zeta", [0.2, 0.5, 0.8], "RGS", "data", 11.5),
    ("zeta", [0.2, 0.5, 0.8], "EBGS", "energy", 2e-4),
    ("k", [1, 2, 4], "SBGS", "data", 23.0),
    ("k", [1, 2, 4], "EBGS", "energy", 3e-4),
    ("b", [2, 4, 6], "SBGS", "data", 23.0),
    ("b", [2, 4, 6], "RGS", "data", 23.0),
    ("b", [6, 4, 2], "EBGS", "energy", 3e-4),
]
SMALL = SystemParams(b_groups=6, n_total=120)
SMALL_ENERGY = replace(SMALL, rho_l=0.1, d_sr=2.0, d_rd=3.0, p_tx=13.5)

# SystemParams fields a block's draw depends on; every other field, apart
# from the derived n_total, must leave the draw bit-identical (a narrower
# b_groups draws the first columns of the wider draw)
LAW_FIELDS = {
    "m_per_group": 10, "spacing": 0.1 / 6.0, "wavelength": 0.12,
    "k_h": 2.0, "k_g": 3.0,
}
OTHER_FIELDS = {
    "p_tx": 3.0, "rho_l": 0.1, "alpha": 3.0, "t_s": 1e-3, "noise_power": 1e-9,
    "d_sr": 2.0, "d_rd": 3.0, "b_groups": 10, "p_t": 0.0, "p_ph": 0.02,
}


def shared_law_points(variable, grid, scheme, metric, threshold):
    kind = "TS" if variable == "zeta" else "PS"
    c = cfg(
        n_trials=BLOCK_SIZE + 100,
        strategy=SelectionStrategy(scheme, k=2),
        mode=RisMode(kind, rho=0.5, zeta=0.5),
        eh=NONLINEAR_DEFAULT,
        r_req=threshold if metric == "data" else 0.0,
        e_req=threshold if metric == "energy" else 0.0,
        metric=metric,
    )
    base = SMALL_ENERGY if metric == "energy" else SMALL
    if variable == "b" and scheme == "RGS":  # flat, so sweep_points rejects it
        return [(with_field(base, "b_groups", b), c) for b in grid]
    return sweep_points(base, c, variable, grid)


def with_field(params, name, value):
    changed = {"m_per_group": params.m_per_group, "b_groups": params.b_groups, name: value}
    return replace(params, **changed, n_total=changed["m_per_group"] * changed["b_groups"])


def draw(params):
    return sample_channels(params, (3, params.b_groups), block_rng(4, 0), per_element=True)


class TestDrawReuse:
    @pytest.mark.parametrize("sweep_case", SHARED_LAW_SWEEPS)
    def test_batched_equals_one_at_a_time(self, sweep_case):
        points = shared_law_points(*sweep_case)
        batched = estimate_outage(points)
        assert batched == [estimate_outage([pt])[0] for pt in points]
        variable, _, scheme, _, _ = sweep_case
        # RGS takes group 0, which every b of a shared draw has in common
        flat = variable == "b" and scheme == "RGS"
        assert (len({e.p_hat for e in batched}) == 1) == flat

    @pytest.mark.parametrize("variable, grid, calls", [
        ("snr", [-56.0, -52.0, -48.0, -44.0], 3),
        ("b", [10, 20, 40], 3),
    ])
    def test_one_draw_per_block_and_law(self, monkeypatch, variable, grid, calls):
        seen = []
        original = sim.simulate_block

        def counting(params, n, rng, **kwargs):
            seen.append(params.b_groups)
            return original(params, n, rng, **kwargs)

        monkeypatch.setattr(sim, "simulate_block", counting)
        c = cfg(n_trials=3 * BLOCK_SIZE, strategy=SelectionStrategy("SBGS", k=1))
        points = sweep_points(PARAMS, c, variable, grid)
        estimate_outage(points)
        # every block is drawn at the widest b of the sweep
        assert seen == [max(p.b_groups for p, _ in points)] * calls

    @pytest.mark.parametrize("schemes, width", [(("RGS",), 1),
                                                (("RGS", "SBGS"), PARAMS.b_groups)])
    def test_block_is_as_wide_as_the_widest_set(self, monkeypatch, schemes, width):
        # RGS's set is group 0 alone, so an all-RGS law draws one column; a law
        # it shares with SBGS (criterion 07's mix) draws SBGS's b, and RGS
        # estimates the same from either block
        seen = []
        original = sim.simulate_block

        def recording(params, n, rng, **kwargs):
            seen.append(params.b_groups)
            return original(params, n, rng, **kwargs)

        monkeypatch.setattr(sim, "simulate_block", recording)
        c = cfg(n_trials=BLOCK_SIZE + 100, r_req=math.log2(1.0 + 10.0 ** 0.3))
        points = sweep_points(PARAMS, c, "snr", [-58.0, -52.0, -46.0])
        mixed = [(p, replace(pc, strategy=SelectionStrategy(scheme, k=1)))
                 for p, pc in points for scheme in schemes]
        estimates = estimate_outage(mixed)
        assert seen == [width] * 2
        seen.clear()
        assert estimates[::len(schemes)] == estimate_outage(points)
        assert seen == [1] * 2

    def test_law_key_covers_every_field(self):
        names = {f.name for f in fields(SystemParams)}
        assert names == set(LAW_FIELDS) | set(OTHER_FIELDS) | {"n_total"}
        key = channel_law(PARAMS).key
        for name in LAW_FIELDS:
            assert channel_law(with_field(PARAMS, name, LAW_FIELDS[name])).key != key
        for name in OTHER_FIELDS:
            assert channel_law(with_field(PARAMS, name, OTHER_FIELDS[name])).key == key

    def test_fields_outside_the_key_leave_the_draw_unchanged(self):
        ref = draw(PARAMS)
        for name, value in OTHER_FIELDS.items():
            snap = draw(with_field(PARAMS, name, value))
            b = snap.h_c_sq.shape[-1]
            np.testing.assert_array_equal(snap.h_sq, ref.h_sq[:, :b])
            np.testing.assert_array_equal(snap.sum_h_sq, ref.sum_h_sq[:, :b])
            np.testing.assert_array_equal(snap.h_c_sq, ref.h_c_sq[:, :b])
            np.testing.assert_array_equal(snap.g_c_sq, ref.g_c_sq[:, :b])

    def test_fields_in_the_key_change_the_draw(self):
        ref = draw(PARAMS)
        for name, value in LAW_FIELDS.items():
            snap = draw(with_field(PARAMS, name, value))
            same = (snap.h_sq.shape == ref.h_sq.shape
                    and np.array_equal(snap.h_sq, ref.h_sq)
                    and np.array_equal(snap.h_c_sq, ref.h_c_sq)
                    and np.array_equal(snap.g_c_sq, ref.g_c_sq))
            assert not same, name

    def test_worker_count_does_not_change_sweep(self):
        c = cfg(n_trials=2 * BLOCK_SIZE + 5, strategy=SelectionStrategy("SBGS", k=2))
        for variable, grid in (("snr", [-56.0, -52.0, -48.0]), ("b", [5, 10, 20])):
            points = sweep_points(PARAMS, c, variable, grid)
            assert estimate_outage(points, workers=1) == estimate_outage(points, workers=2)


class TestRgsTakesGroupZero:
    def test_estimate_is_that_of_one_group_at_any_b(self):
        # group 0 of a block is the same draw at every b (the prefix property),
        # so RGS at any b estimates exactly the outage of a single group
        c = cfg(n_trials=BLOCK_SIZE + 100)
        rgs = [one(with_field(PARAMS, "b_groups", b), c) for b in (1, 5, 20)]
        single = one(with_field(PARAMS, "b_groups", 1),
                     replace(c, strategy=SelectionStrategy("SBGS", k=1)))
        assert rgs == [single] * 3
        assert 0.0 < single.p_hat < 1.0

    @pytest.mark.parametrize("metric", ["data", "energy"])
    def test_failures_are_those_of_column_zero(self, metric):
        n = 1000
        p = SMALL if metric == "data" else SMALL_ENERGY
        c = cfg(metric=metric, r_req=23.0, e_req=3e-4, seed=4)
        block = sample_channels(p, (n, p.b_groups), block_rng(c.seed, 0), per_element=True)
        z, h_sq, sum_h_sq = block.z, block.h_sq, block.sum_h_sq
        if metric == "data":
            stat, threshold = z, data_threshold(p, c.mode, c.r_req)
        else:
            dur, w_p = eh_wiring(p, c.mode)
            stat, threshold = dur * harvest_rate(c.eh, w_p * h_sq).sum(-1), c.e_req
        expected = int(np.sum(stat[:, 0] < threshold))
        assert sim._block_failures([(p, c)], n, 0) == [expected]
        assert 0 < expected < n

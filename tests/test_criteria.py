"""Tests for the criterion checkers."""

import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from shiftlab import criteria, weights
from shiftlab.cli import run
from shiftlab.covering import Cell, Covering, GradedParams, build_graded_covering
from shiftlab.criteria import (
    CaracParams,
    UnifParams,
    check_basic_criterion,
    check_carac_conditions,
    check_corollary_hypotheses,
    check_unif_hypotheses,
)
from shiftlab.seqspace import L1, SUP, ProductKind, SeqVec, SpaceNorm, basis, norm, power
from shiftlab.weights import (
    LipschitzProfile,
    WeightFamily,
    apply_backward_power,
    apply_forward_root_power,
)

AFF0 = WeightFamily.affine(0.0)
PP = WeightFamily.pure_power()
GEO = WeightFamily.geometric()
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def single_cell_cov():
    p = GradedParams(alpha=0.3, beta=0.7, D=1.0, tau=1.0, eta=0.5, N=10, d=2)
    K = ((1.0, 1.05), (1.0, 1.05))
    return build_graded_covering(K, p), K


def graded_instance():
    p = GradedParams(alpha=0.3, beta=0.7, D=0.3, tau=0.055, eta=2.0, N=150, d=2)
    K = ((1.0, 1.02), (1.0, 1.02))
    return build_graded_covering(K, p), K


class TestBasicCriterion:
    def test_single_cell_anchor_identity_d1(self):
        p = GradedParams(alpha=0.3, beta=0.7, D=1.0, tau=1.0, eta=0.5, N=10, d=1)
        K = ((1.0, 1.05),)
        cov = build_graded_covering(K, p)
        assert cov.q == 1
        rep = check_basic_criterion((AFF0,), cov, (basis(0),), 1, 1,
                                    eps=0.5, samples_per_axis=1)
        assert rep.conditions["IV"].achieved <= 1e-12
        assert rep.conditions["III"].evaluations == 0

    def test_single_cell_anchor_identity(self):
        cov, K = single_cell_cov()
        rep = check_basic_criterion((AFF0, AFF0), cov, (basis(0), basis(0)),
                                    1, 1, eps=0.5, samples_per_axis=1)
        assert rep.conditions["IV"].achieved <= 1e-12
        assert rep.conditions["III"].evaluations == 0
        assert "vacuous" in rep.conditions["III"].note

    def test_eps_zero_fails_with_positive_value(self):
        cov, K = single_cell_cov()
        rep = check_basic_criterion((AFF0, AFF0), cov, (basis(0), basis(0)),
                                    1, 1, eps=0.0, samples_per_axis=1)
        assert not rep.overall
        assert rep.conditions["II.a"].achieved > 0.0

    def test_graded_two_dim_instance_passes(self):
        cov, K = graded_instance()
        rep = check_basic_criterion((AFF0, AFF0), cov, (basis(0), basis(0)),
                                    1, 2, eps=0.1, samples_per_axis=3, region=K)
        assert rep.overall, {k: (c.passed, c.achieved) for k, c in rep.conditions.items()}
        assert rep.conditions["III"].evaluations > 0

    def test_coordinatewise_only(self):
        cov, K = single_cell_cov()
        with pytest.raises(ValueError, match="coordinatewise"):
            check_basic_criterion((AFF0, AFF0), cov, (basis(0), basis(0)), 1, 1, 0.5,
                                  product_kind=ProductKind.CONVOLUTION)

    def test_negative_target_rejected(self):
        cov, K = single_cell_cov()
        with pytest.raises(ValueError, match="negative"):
            check_basic_criterion((AFF0, AFF0), cov, (-1.0 * basis(0), basis(0)), 1, 1, 0.5)

    def test_region_cover_reported(self):
        cov, K = single_cell_cov()
        rep = check_basic_criterion((AFF0, AFF0), cov, (basis(0), basis(0)),
                                    1, 1, eps=0.5, samples_per_axis=1,
                                    region=((0.0, 2.0), (0.0, 2.0)))
        assert not rep.conditions["I"].passed

    def test_monotone_in_eps(self):
        cov, K = graded_instance()
        args = ((AFF0, AFF0), cov, (basis(0), basis(0)), 1, 2)
        loose = check_basic_criterion(*args, eps=10.0, samples_per_axis=2)
        tight = check_basic_criterion(*args, eps=1e-6, samples_per_axis=2)
        for name in ("II.a", "II.b", "III", "IV"):
            if tight.conditions[name].passed:
                assert loose.conditions[name].passed


def basic_criterion_oracle(fams, cov, v, m_lo, m_hi, samples_per_axis, space_norm):
    """Worst (achieved, witness) per display, rebuilt from the sparse operators."""
    cw = ProductKind.COORDINATEWISE
    roots = [SeqVec({k: c ** (1.0 / m_lo) for k, c in x.items()}) for x in v]

    def forward(ax, j):
        cell = cov.cells[j]
        return apply_forward_root_power(fams[ax], cell.anchor[ax], m_lo, cell.n, roots[ax])

    def total(vecs):
        return math.fsum(norm(x, space_norm) for x in vecs)

    def sums(terms):
        acc = SeqVec()
        for x in terms:
            acc = acc + x
        return acc

    d, q = cov.d, cov.q
    out = {"II.a": (total(sums(forward(ax, j) for j in range(q)) for ax in range(d)), None)}
    worst = {"II.b": (0.0, None), "III": (0.0, None), "IV": (0.0, None)}
    for i, cell in enumerate(cov.cells):
        grids = [np.linspace(lo, hi, samples_per_axis).tolist() for lo, hi in cell.box]
        for lam in itertools.product(*grids):
            def back(ax, x):
                return apply_backward_power(fams[ax], lam[ax], cell.n, x)

            for m in range(m_lo, m_hi + 1):
                found = {"II.b": total(
                    sums(back(ax, power(forward(ax, j), m, cw)) for j in range(q) if j != i)
                    for ax in range(d))}
                own = [back(ax, power(forward(ax, i), m, cw)) for ax in range(d)]
                if m == m_lo:
                    found["IV"] = total(x - v[ax] for ax, x in enumerate(own))
                else:
                    found["III"] = total(own)
                for name, val in found.items():
                    if val > worst[name][0]:
                        witness = {"cell": i, "lambda": list(lam)}
                        if name != "IV":
                            witness["m"] = m
                        worst[name] = (val, witness)
    out.update(worst)
    return out


class TestBasicCriterionOracle:
    """The displays against the sparse shift operators, with colliding indices."""

    def instance(self):
        # consecutive powers with support {0, 1}: index l = 1 of cell j meets
        # index l = 0 of cell j + 1 in II.a and II.b
        cells = [Cell(n, (1.2 + 0.04 * n, 1.1 + 0.02 * n),
                      ((1.18 + 0.04 * n, 1.22 + 0.04 * n), (1.08 + 0.02 * n, 1.12 + 0.02 * n)))
                 for n in (3, 4, 5, 6)]
        v = (SeqVec({0: 0.9, 1: 0.5}), SeqVec({0: 1.0, 1: 0.3}))
        return (PP, GEO), Covering(tuple(cells)), v

    @pytest.mark.parametrize("space_norm,samples", [
        (L1, 2), (SUP, 2), (SpaceNorm.lp(2), 2),
        (L1, 3), (SUP, 3), (SpaceNorm.lp(2), 3),
    ], ids=["l1", "sup", "lp2", "l1-s3", "sup-s3", "lp2-s3"])
    def test_displays_match_sparse_operators(self, space_norm, samples, monkeypatch):
        fams, cov, v = self.instance()
        calls = []
        windows = criteria.log_cum_windows

        def counted(*args):
            calls.append(args)
            return windows(*args)

        monkeypatch.setattr(criteria, "log_cum_windows", counted)
        rep = check_basic_criterion(fams, cov, v, 2, 4, eps=0.1, samples_per_axis=samples,
                                    space_norm=space_norm)
        oracle = basic_criterion_oracle(fams, cov, v, 2, 4, samples, space_norm)
        for name, (achieved, witness) in oracle.items():
            cond = rep.conditions[name]
            assert cond.achieved == pytest.approx(achieved, rel=1e-12), name
            assert cond.witness == witness, name
        q, d = cov.q, cov.d
        assert rep.conditions["III"].evaluations == q * samples**d * (4 - 2)
        # q*d anchor windows, then one per cell, axis and sampled value of that
        # axis: the s**d grid points share them
        assert len(calls) == q * d + q * d * samples

    def test_overflowing_coefficient_exits_two(self, capsys):
        # lambda = 0.5: the forward coefficient 0.5**(-2100) is not a double
        cells = [{"n": n, "anchor": [0.5], "box": [[0.5, 0.5]]} for n in (100, 1000, 2100)]
        job = {"command": "criterion-check", "payload": {
            "families": [{"variant": "geometric"}], "covering": {"cells": cells},
            "v": [{"entries": [[0, 1.0]]}], "m_lo": 1, "m_hi": 2, "eps": 0.1,
            "samples_per_axis": 1}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(job) == 2
        assert capsys.readouterr().err.splitlines() == [
            "shiftlab: config error: non-finite coefficient in a criterion display"]


def unif_exp_alpha_params(**over):
    base = dict(m_prime=2, alpha=0.4, C1=2.0, C2=0.4, beta=0.9, M0=50.0, N0=50,
                F=LipschitzProfile("power", 2.0, 0.4), n_max=500, k_max=2000,
                I0_lo=1.0, I0_hi=2.0, I0_points=9, d=2)
    base.update(over)
    return UnifParams(**base)


def unif_oracle(fam, p):
    """Condition (iii) on the full (a, n, k) grid: worst values, witnesses, table.

    Witnesses are the first grid point a, then the first (n, k) in n-major
    order, at the maximum; table rows hold the worst margin over the grid.
    """
    ns = np.arange(p.N0, p.n_max + 1)
    ks = np.arange(p.N0, p.k_max + 1)
    kf = ks.astype(np.float64)
    nk = (ns[:, None] + ks[None, :]).astype(np.float64)
    growth = p.C2 * kf**p.alpha * (p.F(nk) / nk**p.alpha)  # (n, k)
    log_rhs = math.log(p.M0) - p.beta * np.log(kf)
    grid = p.grid().tolist()
    fk = np.array([weights.log_cum_prefix(fam, a, max(p.n_max, p.k_max))[ks] for a in grid])
    m1 = (growth[None, :, :] - fk[:, None, :]) - log_rhs  # (a, n, k)
    m2 = (-fk / p.m_prime) - log_rhs  # (a, k)
    g, i, j = np.unravel_index(int(np.argmax(m1)), m1.shape)
    g2, j2 = np.unravel_index(int(np.argmax(m2)), m2.shape)
    t1, t2 = m1.max(axis=0), m2.max(axis=0)
    table = [{"n": int(n), "k": int(k), "log_margin_growth": float(t1[a, b]),
              "log_margin_root": float(t2[b])}
             for a, n in enumerate(ns) for b, k in enumerate(ks)]
    return ((float(m1[g, i, j]), {"n": int(ns[i]), "k": int(ks[j]), "a": grid[g]}),
            (float(m2[g2, j2]), {"k": int(ks[j2]), "a": grid[g2]}), table)


class TestUnifHypotheses:
    # alpha_F == alpha with D1 = 2 makes F(s)/s**alpha exactly 2: every n ties
    ORACLE_CASES = {
        "power_ties": (WeightFamily.exp_alpha(0.4), dict(N0=7, n_max=40, k_max=90)),
        "log_interior": (PP, dict(alpha=0.2, beta=0.45, C1=2.0, N0=3, n_max=200,
                                  k_max=150, F=LipschitzProfile("log", 1.05))),
        "tiny_m0": (WeightFamily.affine(0.4), dict(M0=1e-30, N0=5, n_max=30, k_max=80)),
        "geometric": (GEO, dict(N0=2, n_max=25, k_max=60, I0_lo=0.5, I0_hi=1.5,
                                I0_points=4, F=LipschitzProfile("power", 1.3, 0.25))),
    }

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_tail_displays_match_full_grid_oracle(self, name):
        fam, over = self.ORACLE_CASES[name]
        p = unif_exp_alpha_params(**over)
        rep = check_unif_hypotheses(fam, p, collect_table=True)
        growth, root, table = unif_oracle(fam, p)
        for cond, (achieved, witness) in (("iii.growth", growth), ("iii.root", root)):
            assert rep.conditions[cond].achieved == achieved, cond
            assert rep.conditions[cond].witness == witness, cond
            assert rep.conditions[cond].passed == (achieved <= 0.0), cond
        assert rep.meta["table"] == table
        n = growth[1]["n"]
        if name == "power_ties":
            assert n == p.N0
        if name == "log_interior":  # h(s) = log(s)/s**0.2 peaks at s = e**5
            assert p.N0 < n < p.n_max
        if name == "tiny_m0":
            assert not rep.conditions["iii.growth"].passed

    def test_growth_display_allocates_no_pair_grid(self):
        p = unif_exp_alpha_params(n_max=500, k_max=5000)
        pair_grid_bytes = (p.n_max - p.N0 + 1) * (p.k_max - p.N0 + 1) * 8
        tracemalloc.start()
        try:
            check_unif_hypotheses(WeightFamily.exp_alpha(0.4), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pair_grid_bytes

    def test_pair_grid_guard_allocates_nothing(self):
        # the (n, k) grid size comes from the integers, before any array exists
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid too large"):
                unif_exp_alpha_params(n_max=2 * 10**6, k_max=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_exp_alpha_passes(self):
        rep = check_unif_hypotheses(WeightFamily.exp_alpha(0.4), unif_exp_alpha_params())
        assert rep.overall, {k: c.passed for k, c in rep.conditions.items()}

    def test_pure_power_log_profile_passes(self):
        p = UnifParams(m_prime=2, alpha=0.2, C1=2.0, C2=0.3, beta=0.45, M0=1.0, N0=150,
                       F=LipschitzProfile("log", 1.05), n_max=400, k_max=2000,
                       I0_lo=1.0, I0_hi=2.0, I0_points=9, d=2,
                       divergence_threshold=1000.0)
        rep = check_unif_hypotheses(PP, p)
        assert rep.overall

    def test_tiny_m0_fails_with_witness(self):
        rep = check_unif_hypotheses(WeightFamily.exp_alpha(0.4),
                                    unif_exp_alpha_params(M0=1e-30))
        cond = rep.conditions["iii.growth"]
        assert not cond.passed
        assert set(cond.witness) == {"n", "k", "a"}

    def test_divergence_probe_labelled(self):
        rep = check_unif_hypotheses(WeightFamily.exp_alpha(0.4), unif_exp_alpha_params())
        assert "probe" in rep.conditions["ii"].note

    def test_monotone_in_m0(self):
        fam = WeightFamily.exp_alpha(0.4)
        tight = check_unif_hypotheses(fam, unif_exp_alpha_params(M0=1e-6))
        loose = check_unif_hypotheses(fam, unif_exp_alpha_params(M0=1e6))
        for name in ("iii.growth", "iii.root"):
            if tight.conditions[name].passed:
                assert loose.conditions[name].passed

    def test_profile_cap_invariant(self):
        with pytest.raises(ValueError, match="C1"):
            unif_exp_alpha_params(F=LipschitzProfile("power", 5.0, 0.4))

    def test_beta_invariant(self):
        with pytest.raises(ValueError, match="beta"):
            unif_exp_alpha_params(beta=0.5)

    def test_one_prefix_per_grid_point(self, monkeypatch):
        # 9 grid points; each prefix serves (i) to n_max and (iii) to k_max
        p = unif_exp_alpha_params()
        calls = []
        prefix = weights.log_cum_prefix

        def counted(fam, lam, upto):
            calls.append((lam, upto))
            return prefix(fam, lam, upto)

        monkeypatch.setattr(weights, "log_cum_prefix", counted)
        monkeypatch.setattr(criteria, "log_cum_prefix", counted)
        check_unif_hypotheses(WeightFamily.affine(0.4), p)
        assert sorted(calls) == [(a, p.k_max) for a in p.grid().tolist()]

    def test_needs_two_distinct_grid_points(self):
        with pytest.raises(ValueError, match="2 distinct grid points"):
            check_unif_hypotheses(WeightFamily.exp_alpha(0.4),
                                  unif_exp_alpha_params(I0_lo=1.5, I0_hi=1.5))

    def test_margin_table_per_nk(self):
        rep = check_unif_hypotheses(
            WeightFamily.exp_alpha(0.4),
            unif_exp_alpha_params(n_max=60, k_max=60, N0=50, I0_points=3),
            collect_table=True)
        table = rep.meta["table"]
        assert len(table) == 11 * 11  # one row per (n, k) pair
        assert {"n", "k", "log_margin_growth", "log_margin_root"} == set(table[0])
        # table margins are worst-case over the grid: all below zero iff pass
        assert max(r["log_margin_growth"] for r in table) == pytest.approx(
            rep.conditions["iii.growth"].achieved)


class TestCorollaryHypotheses:
    GRID_12 = np.linspace(1.0, 2.0, 9).tolist()
    GRID_23 = np.linspace(2.0, 3.0, 9).tolist()

    def test_affine_half_variant1_passes(self):
        rep = check_corollary_hypotheses(
            WeightFamily.affine(0.5), self.GRID_12, 1,
            {"D1": 2.1, "D2": 0.5, "D3": 1.0, "alpha": 0.5}, N=25, n_max=2000)
        assert rep.overall

    def test_pure_power_variant2_passes(self):
        rep = check_corollary_hypotheses(
            PP, self.GRID_12, 2, {"D1": 1.000001, "D2": 1.0, "gamma": 1.0},
            N=2, n_max=5000)
        assert rep.overall

    def test_affine0_variant2_passes(self):
        rep = check_corollary_hypotheses(
            AFF0, self.GRID_12, 2, {"D1": 1.0, "D2": 1.0, "gamma": 1.0},
            N=5, n_max=10_000)
        assert rep.overall

    def test_geometric_fails_lipschitz_bullet(self):
        rep = check_corollary_hypotheses(
            GEO, self.GRID_23, 2, {"D1": 1.0, "D2": 1.0, "gamma": 1.0},
            N=5, n_max=10_000)
        assert not rep.conditions["lipschitz"].passed
        # linear-scale ratio versus a log bound: enormous violation
        assert rep.conditions["lipschitz"].achieved > 100 * rep.conditions["lipschitz"].bound

    def test_variant1_needs_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            check_corollary_hypotheses(PP, self.GRID_12, 1,
                                       {"D1": 1.0, "D2": 1.0, "D3": 1.0}, 5, 100)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            check_corollary_hypotheses(PP, self.GRID_12, 3,
                                       {"D1": 1.0, "D2": 1.0}, 5, 100)

    def test_one_prefix_per_grid_point(self, monkeypatch):
        # the shipped example: 9 grid points, each prefix serves both bullets
        ex = json.loads((EXAMPLES / "corollary_check.json").read_text())
        grid = np.linspace(ex["I0"]["lo"], ex["I0"]["hi"], ex["I0"]["points"]).tolist()
        calls = []
        prefix = weights.log_cum_prefix

        def counted(fam, lam, upto):
            calls.append(lam)
            return prefix(fam, lam, upto)

        monkeypatch.setattr(weights, "log_cum_prefix", counted)
        monkeypatch.setattr(criteria, "log_cum_prefix", counted)
        rep = check_corollary_hypotheses(
            WeightFamily.from_json_dict(ex["family"]), grid, ex["variant"],
            ex["constants"], ex["N"], ex["n_max"])
        assert rep.overall
        assert sorted(calls) == grid

    def test_holds_two_prefixes_not_one_per_grid_point(self):
        # holding all 9 prefixes at once peaked at 17 prefix sizes
        n_max = 200_000
        prefix_bytes = 8 * (n_max + 1)
        tracemalloc.start()
        try:
            check_corollary_hypotheses(
                WeightFamily.affine(0.4), self.GRID_12, 1,
                {"D1": 5.0, "D2": 0.5, "D3": 1.0}, N=5, n_max=n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * prefix_bytes


class TestCaracConditions:
    def exp_alpha_setup(self, m=3, q=20, eps=1.0):
        fam = WeightFamily.exp_alpha(0.5)
        sched = [(100 * k, (1.5,)) for k in range(1, q + 1)]
        p = CaracParams(m=m, tau=1.0, N=50, eps=eps, K=((1.5, 1.5),),
                        F=LipschitzProfile("power", 1.0, 0.5), c=0.5, C=2.0)
        return fam, sched, p

    def test_ii_matches_direct_sum(self):
        fam, sched, p = self.exp_alpha_setup()
        rep = check_carac_conditions((fam,), sched, p)
        direct = math.fsum(math.exp(-1.5 * (100 * k) ** 0.5 / 3) for k in range(1, 21))
        assert rep.conditions["ii"].achieved == pytest.approx(direct, rel=1e-12)

    def test_singleton_box_covered_for_any_tau(self):
        fam, sched, p = self.exp_alpha_setup(q=1)
        for tau in (1e-6, 1.0, 1e6):
            p2 = CaracParams(m=p.m, tau=tau, N=p.N, eps=p.eps, K=p.K, F=p.F,
                             c=p.c, C=p.C)
            rep = check_carac_conditions((fam,), sched[:1], p2)
            assert rep.conditions["i"].passed

    def test_huge_eps_passes_tails(self):
        fam, sched, p = self.exp_alpha_setup(eps=1e6)
        rep = check_carac_conditions((fam,), sched, p)
        assert rep.conditions["ii"].passed and rep.conditions["iii"].passed

    def test_spacing_violation_reported_as_zero(self):
        fam = WeightFamily.exp_alpha(0.5)
        sched = [(10, (1.5,)), (15, (1.5,))]
        p = CaracParams(m=2, tau=1.0, N=50, eps=1.0, K=((1.5, 1.5),),
                        F=LipschitzProfile("power", 1.0, 0.5), c=0.5, C=2.0)
        rep = check_carac_conditions((fam,), sched, p)
        assert not rep.conditions["0"].passed
        assert rep.conditions["0"].achieved == 5.0

    def test_two_dim_pure_power(self):
        fams = (PP, PP)
        sched = [(200 * k, (1.2 + 0.01 * k, 1.3 - 0.01 * k)) for k in range(1, 11)]
        p = CaracParams(m=2, tau=2.0, N=100, eps=1.0, K=((1.21, 1.22), (1.21, 1.22)),
                        F=LipschitzProfile("log", 1.0), c=0.5, C=1.5)
        rep = check_carac_conditions(fams, sched, p)
        assert rep.conditions["ii"].passed
        assert rep.conditions["iii"].evaluations == 10 * 2 * (p.N + 1)

    def test_ii_pure_power_matches_rational_oracle(self):
        # lambda = 2, m = 2: the coefficients are exactly 1/n_k, so the sum
        # has an exact rational value via Fraction
        from fractions import Fraction

        ns = [137, 300, 451, 964, 2111, 5000, 9999]
        sched = [(n, (2.0,)) for n in ns]
        p = CaracParams(m=2, tau=1.0, N=100, eps=1.0, K=((2.0, 2.0),),
                        F=LipschitzProfile("log", 1.0), c=0.5, C=2.0)
        rep = check_carac_conditions((PP,), sched, p)
        oracle = float(sum(Fraction(1, n) for n in ns))
        assert rep.conditions["ii"].achieved == pytest.approx(oracle, rel=1e-12)

    def test_monotone_in_eps(self):
        fam, sched, _ = self.exp_alpha_setup()
        for eps1, eps2 in ((1e-9, 1e-3), (1e-3, 1e3)):
            p1 = CaracParams(m=3, tau=1.0, N=50, eps=eps1, K=((1.5, 1.5),),
                             F=LipschitzProfile("power", 1.0, 0.5), c=0.5, C=2.0)
            p2 = CaracParams(m=3, tau=1.0, N=50, eps=eps2, K=((1.5, 1.5),),
                             F=LipschitzProfile("power", 1.0, 0.5), c=0.5, C=2.0)
            r1 = check_carac_conditions((fam,), sched, p1)
            r2 = check_carac_conditions((fam,), sched, p2)
            for name in ("ii", "iii"):
                if r1.conditions[name].passed:
                    assert r2.conditions[name].passed


def affine_window_bruteforce(alpha, lam, l, n):
    return math.fsum(math.log1p(lam / i ** (1.0 - alpha)) for i in range(l + 1, l + n + 1))


def carac_iii_bruteforce(alphas, sched, N):
    """Largest l1 tail sum of condition (iii) and its (k, axis, l), term by term."""
    best, witness = -math.inf, None
    for k, (n_k, lam_k) in enumerate(sched):
        for ax, alpha in enumerate(alphas):
            for l in range(N + 1):
                logcs = [affine_window_bruteforce(alpha, lam_k[ax], n_j - n_k + l, n_k)
                         - affine_window_bruteforce(alpha, lam_j[ax], l, n_j)
                         for n_j, lam_j in sched[k + 1:]]
                if not logcs:
                    continue
                top = max(logcs)
                val = math.exp(top + math.log(math.fsum(math.exp(c - top) for c in logcs)))
                if val > best:
                    best, witness = val, {"k": k, "axis": ax, "l": l}
    return best, witness


class TestCaracAffineTails:
    Q, N = 8, 12

    def instance(self):
        # distinct lambda_k on each axis, uneven gaps
        sched = [(45 * k + 7 * (k % 3), (1.1 + 0.05 * k, 0.6 + 0.11 * k))
                 for k in range(1, self.Q + 1)]
        p = CaracParams(m=2, tau=1.0, N=self.N, eps=1.0, K=((1.15, 1.5), (0.7, 1.4)),
                        F=LipschitzProfile("power", 1.0, 0.5), c=0.5, C=2.0)
        return sched, p

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_iii_matches_bruteforce(self, alpha):
        sched, p = self.instance()
        fam = WeightFamily.affine(alpha)
        rep = check_carac_conditions((fam, fam), sched, p)
        achieved, witness = carac_iii_bruteforce((alpha, alpha), sched, self.N)
        assert rep.conditions["iii"].achieved == pytest.approx(achieved, rel=1e-12)
        assert rep.conditions["iii"].witness == witness

    def test_iii_window_calls_are_hoisted(self, monkeypatch):
        sched, p = self.instance()
        calls = []
        window = criteria.log_cum_window

        def counted(fam, lam, l, n):
            calls.append((l, n))
            return window(fam, lam, l, n)

        monkeypatch.setattr(criteria, "log_cum_window", counted)
        rep = check_carac_conditions((AFF0, AFF0), sched, p)
        d, q, N = 2, self.Q, self.N
        others = rep.conditions["ii"].evaluations + 2 * rep.conditions["H"].evaluations
        assert len(calls) - others <= d * (N + 1) * (q * (q - 1) // 2 + q)
        assert all(isinstance(l, int) and isinstance(n, int) for l, n in calls)


class TestReportDeterminism:
    def test_bitwise_identical_json(self):
        cov, K = graded_instance()
        args = ((AFF0, AFF0), cov, (basis(0), basis(0)), 1, 2)
        a = check_basic_criterion(*args, eps=0.1, samples_per_axis=2, region=K)
        b = check_basic_criterion(*args, eps=0.1, samples_per_axis=2, region=K)
        ja = json.dumps(a.to_json_dict(), sort_keys=True)
        jb = json.dumps(b.to_json_dict(), sort_keys=True)
        assert ja == jb

    def test_rows_export(self):
        rep = check_corollary_hypotheses(
            PP, np.linspace(1, 2, 5).tolist(), 2,
            {"D1": 1.01, "D2": 1.0, "gamma": 1.0}, N=2, n_max=100)
        rows = rep.rows()
        assert [r["condition"] for r in rows] == ["lipschitz", "growth"]
        assert all({"pass", "achieved", "bound", "margin"} <= set(r) for r in rows)

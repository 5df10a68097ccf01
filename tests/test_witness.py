"""Tests for witness construction and its two evaluation paths."""

import math
import random
import tracemalloc
from dataclasses import replace

import pytest

from shiftlab import witness
from shiftlab.covering import Covering, LogCoveringParams, build_log_covering
from shiftlab.seqspace import SeqVec, basis
from shiftlab.weights import WeightFamily, lipschitz_ratio, log_cum_window
from shiftlab.witness import (
    BruteForceBudgetError,
    SupportCollisionError,
    WitnessConfig,
    build_witness,
    eval_analytic,
    eval_bruteforce,
    sweep_sigma,
)

BOX = ((1.2, 1.3), (1.2, 1.3))
PP = WeightFamily.pure_power()


def zero_pair():
    return (SeqVec(), SeqVec())


def override_config(v=(None, None), m=2, base=100, q=4, u=None, eta=0.1, box=BOX, fams=None):
    p = LogCoveringParams(box=box, m=m, r=1, base=base)
    cov = build_log_covering(p, q_override=q)
    v = tuple(x if x is not None else basis(0) for x in v)
    u = u if u is not None else zero_pair()
    return WitnessConfig(log_cov=p, u=u, v=v, eta=eta, fams=fams, cov_override=cov)


class TestBuild:
    def test_eps_closed_form(self):
        # what_{m*sigma}(a') = (2*16)**1 for the power family at a' = 1
        p = LogCoveringParams(box=((1.0, 1.3), (1.0, 1.3)), m=2, r=2, base=4)
        cfg = WitnessConfig(log_cov=p, u=zero_pair(), v=zero_pair(), eta=0.1)
        w = build_witness(cfg)
        assert w.eps[0] == pytest.approx(32 ** -0.5, rel=1e-14)
        assert w.eps[1] == w.eps[0]

    def test_zero_targets_leave_only_separator(self):
        p = LogCoveringParams(box=((1.0, 1.3), (1.0, 1.3)), m=2, r=2, base=4)
        cfg = WitnessConfig(log_cov=p, u=zero_pair(), v=zero_pair(), eta=0.1)
        w = build_witness(cfg)
        for ax in range(2):
            assert w.vectors[ax].support() == [16]
            assert w.vectors[ax].coeff(16) == pytest.approx(w.eps[ax])

    def test_d_coefficient_formula(self):
        cfg = override_config()
        w = build_witness(cfg)
        cov = w.covering
        assert w.powers[0] == 10**4 + 100 * 2 == 10200
        lam1 = cov.cells[0].anchor[0]
        expected = 1.0 / (2.0 * w.eps[0]
                          * math.exp(log_cum_window(PP, lam1, 0, w.powers[0])))
        assert w.coeffs[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_support_layout(self):
        cfg = override_config(v=(basis(0) + 0.5 * basis(1), basis(0)))
        w = build_witness(cfg)
        sigma = cfg.sigma
        expect = sorted([n - sigma + l for n in w.powers for l in (0, 1)] + [sigma])
        assert w.vectors[0].support() == expect

    def test_collision_listed(self):
        # base 4, q >= 3: d-block index 4*(j+1) hits sigma = 16 at j = 3
        p = LogCoveringParams(box=BOX, m=2, r=1, base=4)
        cov = build_log_covering(p, q_override=4)
        cfg = WitnessConfig(log_cov=p, u=zero_pair(), v=(basis(0), basis(0)),
                            eta=0.1, cov_override=cov)
        with pytest.raises(SupportCollisionError) as exc:
            build_witness(cfg)
        assert 16 in exc.value.indices

    def test_collision_merge_mode(self):
        p = LogCoveringParams(box=BOX, m=2, r=1, base=4)
        cov = build_log_covering(p, q_override=4)
        cfg = WitnessConfig(log_cov=p, u=zero_pair(), v=(basis(0), basis(0)),
                            eta=0.1, cov_override=cov)
        w = build_witness(cfg, on_collision="merge")
        assert w.collision_indices == (16,)
        ev = eval_analytic(w, (1.25, 1.25))
        assert not ev.separation_ok

    def test_cprime(self):
        cfg = override_config()
        w = build_witness(cfg)
        assert w.cprime == pytest.approx(1.2 / 1.3 - 0.5, rel=1e-15)
        assert w.cprime > 0


class TestAnalytic:
    def test_anchor_exactness(self):
        cfg = override_config(v=(basis(0) + 0.5 * basis(1), basis(0)))
        w = build_witness(cfg)
        for i in range(w.q):
            ev = eval_analytic(w, w.covering.cells[i].anchor)
            assert ev.cell_index == i
            assert all(e <= 1e-12 for e in ev.p1_err)

    def test_p3_closed_form(self):
        cfg = override_config()
        w = build_witness(cfg)
        lam = (1.25, 1.25)
        ev = eval_analytic(w, lam)
        n_i = w.powers[ev.cell_index]
        m, sigma = 2, cfg.sigma
        a_lo = 1.2
        expected = math.exp(-a_lo * math.log(m * sigma)
                            + 1.25 * (math.log(m * sigma) - math.log(m * sigma - n_i)))
        assert ev.p3_norm[0] == pytest.approx(expected, rel=1e-12)
        assert ev.p3_norm[0] < 0.1

    def test_small_sigma_not_separated(self):
        # (m-1)*sigma + p >= N_1 cannot happen here, but m*sigma < N_q can:
        # force it with an override carrying a huge power
        p = LogCoveringParams(box=BOX, m=2, r=1, base=100)
        cov = build_log_covering(p, q_override=4)
        big = [c.to_json_dict() for c in cov.cells]
        big[-1]["n"] = 2 * 10**4 + 7  # beyond m*sigma
        from shiftlab.covering import Covering
        cov2 = Covering.from_json_dict({"cells": big})
        cfg = WitnessConfig(log_cov=p, u=zero_pair(), v=(basis(0), basis(0)),
                            eta=0.1, cov_override=cov2)
        w = build_witness(cfg)
        lam = cov2.cells[-1].anchor
        ev = eval_analytic(w, lam)
        assert not ev.separation_ok
        assert ev.p3_norm[0] == 0.0  # the separator is annihilated, not reflected

    def test_outside_box_rejected(self):
        cfg = override_config()
        w = build_witness(cfg)
        with pytest.raises(ValueError, match="outside"):
            eval_analytic(w, (0.5, 0.5))

    def test_dominant_branch_reported(self):
        cfg = override_config()
        w = build_witness(cfg)
        ev = eval_analytic(w, (1.2, 1.2))  # first cell, below later anchors
        assert ev.cell_index == 0
        assert set(ev.dominant_branch) <= {-1, 0, 1}


V2 = (basis(0) + 0.5 * basis(1), basis(0))


def merged_collision_config():
    # base 4, q = 4: the d-block of cell 3 meets the separator index 16
    p = LogCoveringParams(box=BOX, m=2, r=1, base=4)
    cov = build_log_covering(p, q_override=4)
    return WitnessConfig(log_cov=p, u=zero_pair(), v=V2, eta=0.1, cov_override=cov)


def past_separator_config():
    # the last cell's power exceeds m*sigma, so its P3 needs no window
    p = LogCoveringParams(box=BOX, m=2, r=1, base=100)
    cells = [c.to_json_dict() for c in build_log_covering(p, q_override=4).cells]
    cells[-1]["n"] = 2 * 10**4 + 7
    cov = Covering.from_json_dict({"cells": cells})
    return WitnessConfig(log_cov=p, u=zero_pair(), v=V2, eta=0.1, cov_override=cov)


@pytest.fixture
def window_calls(monkeypatch):
    """Arguments of every log_cum_window call made from the witness module."""
    calls = []
    window = witness.log_cum_window
    monkeypatch.setattr(witness, "log_cum_window",
                        lambda *args: calls.append(args) or window(*args))
    return calls


@pytest.fixture
def offsets_calls(monkeypatch):
    """Arguments of every log_cum_window_offsets call made from the witness module."""
    calls = []
    offsets = witness.log_cum_window_offsets
    monkeypatch.setattr(witness, "log_cum_window_offsets",
                        lambda *args: calls.append(args) or offsets(*args))
    return calls


class TestAnchorWindows:
    @pytest.mark.parametrize("cfg, mode", [
        (override_config(v=V2), "error"),
        (merged_collision_config(), "merge"),
    ])
    def test_one_window_per_coefficient(self, cfg, mode):
        w = build_witness(cfg, on_collision=mode)
        for ax in range(cfg.d):
            ls = cfg.v[ax].support()
            assert w.anchor_windows[ax].shape == w.coeffs[ax].shape == (w.q, len(ls))
            for j, cell in enumerate(w.covering.cells):
                for col, l in enumerate(ls):
                    assert w.anchor_windows[ax][j, col] == log_cum_window(
                        cfg.fams[ax], cell.anchor[ax], l, w.powers[j])

    @pytest.mark.parametrize("cfg", [override_config(v=V2, q=9), past_separator_config()])
    def test_eval_reads_anchor_windows(self, cfg, window_calls, offsets_calls):
        # per axis: one array call for the (q - i) x |supp v| windows of P1
        # and P2, all at (lam, N_i), and one scalar window for P3 when
        # m*sigma >= N_i; no anchor window is recomputed
        w = build_witness(cfg)
        for i in range(w.q):
            window_calls.clear()
            offsets_calls.clear()
            lam = w.covering.cells[i].anchor
            assert eval_analytic(w, lam).cell_index == i
            n_i = w.powers[i]
            assert len(offsets_calls) == cfg.d
            for ax, (fam, x, offs, n) in enumerate(offsets_calls):
                assert (fam, x, n) == (cfg.fams[ax], lam[ax], n_i)
                want = [[n_j - n_i + l for l in cfg.v[ax].support()] for n_j in w.powers[i:]]
                assert offs.tolist() == want
            tail = cfg.m * cfg.sigma >= n_i
            assert window_calls == [(cfg.fams[ax], lam[ax], cfg.m * cfg.sigma - n_i, n_i)
                                    for ax in range(cfg.d)] * tail


def scalar_p1_p2(w, lam):
    """(P1, P2, dominant branch) per axis from one log_cum_window call per
    (cell j >= i, support index l) and a first-maximum scan: the loop whose
    bits the array path must keep."""
    i = witness.locate_cell(w.covering, lam)
    n_i = w.powers[i]
    out = []
    for ax, fam in enumerate(w.cfg.fams):
        err, terms, branch, worst = [], [], 0, -math.inf
        for j in range(i, w.q):
            anchor = w.covering.cells[j].anchor[ax]
            for l, vl in w.cfg.v[ax].items_sorted():
                dw = (log_cum_window(fam, lam[ax], w.powers[j] - n_i + l, n_i)
                      - log_cum_window(fam, anchor, l, w.powers[j]))
                if j == i:
                    err.append(abs(vl) * abs(math.expm1(dw)))
                    continue
                terms.append(abs(vl) * math.exp(dw))
                if terms[-1] > worst:
                    worst = terms[-1]
                    branch = 1 if lam[ax] > anchor else (-1 if lam[ax] < anchor else 0)
        out.append((math.fsum(err), math.fsum(terms), branch))
    return out


class TestArrayPath:
    @pytest.mark.parametrize("fam", [
        PP, WeightFamily.affine(0.0), WeightFamily.affine(0.4), WeightFamily.exp_alpha(0.5),
        WeightFamily.power_ratio(), WeightFamily.geometric()])
    def test_bits_of_the_scalar_loop(self, fam):
        v = (basis(0) + 0.5 * basis(1) - 0.25 * basis(3), SeqVec())  # axis 1 without target
        for cfg, mode in [(override_config(v=v, q=9, fams=(fam, fam)), "error"),
                          (replace(merged_collision_config(), fams=(fam, fam)), "merge")]:
            w = build_witness(cfg, on_collision=mode)
            rng = random.Random(3)
            for lam in [c.anchor for c in w.covering.cells] + [
                    (rng.uniform(1.2, 1.3), rng.uniform(1.2, 1.3)) for _ in range(10)]:
                ev = eval_analytic(w, lam)
                assert list(zip(ev.p1_err, ev.p2_norm, ev.dominant_branch)) == \
                    scalar_p1_p2(w, lam)


class TestOracleEquivalence:
    def test_twenty_random_points(self):
        # pure_power, and the paper's affine(0) and affine(0.4), whose windows
        # the analytic path reads from the prefix table in one gather per axis
        for fam in (PP, WeightFamily.affine(0.0), WeightFamily.affine(0.4)):
            cfg = override_config(v=(basis(0) + 0.5 * basis(1), basis(0)), fams=(fam, fam))
            w = build_witness(cfg)
            rng = random.Random(42)
            for _ in range(20):
                lam = (rng.uniform(1.2, 1.3), rng.uniform(1.2, 1.3))
                ea = eval_analytic(w, lam)
                eb = eval_bruteforce(w, lam, w.powers[ea.cell_index])
                assert ea.separation_ok and eb.separation_ok
                for a, b in zip(ea.p1_err + ea.p2_norm + ea.p3_norm,
                                eb.p1_err + eb.p2_norm + eb.p3_norm):
                    assert a == pytest.approx(b, rel=1e-9), fam
                assert ea.premature_max == 0.0
                assert eb.premature_max == 0.0

    def test_random_configs_over_every_family(self):
        # m = 2 and 3, d = 1 and 2, zero or one-entry u, q = g**d with g <= 3.
        # Geometric at m = 3 is left out: the main coefficient 3*d*eps**2 of
        # (u')**3 falls below the least double there (about 1e-363 at base
        # 12), SeqVec drops it, and eval_bruteforce is no oracle
        fams = [WeightFamily.affine(0.0), WeightFamily.affine(0.4), PP,
                WeightFamily.exp_alpha(0.5), WeightFamily.power_ratio(),
                WeightFamily.geometric()]
        rng = random.Random(18)
        separated = 0
        for _ in range(300):
            d, m = rng.randint(1, 2), rng.randint(2, 3)
            fam = tuple(rng.choice(fams[:-1] if m == 3 else fams) for _ in range(d))
            p = LogCoveringParams(box=((1.2, 1.3),) * d, m=m, r=1,
                                  base=rng.randint(4, 30 if m == 2 else 12))
            cfg = WitnessConfig(
                log_cov=p, eta=0.1, fams=fam,
                u=tuple(rng.choice([SeqVec(), rng.uniform(-1.0, 1.0) * basis(0)])
                        for _ in range(d)),
                v=tuple(rng.choice([basis(0), basis(0) + 0.5 * basis(1)]) for _ in range(d)),
                cov_override=build_log_covering(p, q_override=rng.randint(1, 3) ** d))
            try:
                w = build_witness(cfg)
            except SupportCollisionError:
                continue
            lam = tuple(rng.uniform(1.2, 1.3) for _ in range(d))
            ea = eval_analytic(w, lam)
            if not ea.separation_ok:
                continue
            eb = eval_bruteforce(w, lam, w.powers[ea.cell_index])
            for a, b in zip(ea.p1_err + ea.p2_norm + ea.p3_norm,
                            eb.p1_err + eb.p2_norm + eb.p3_norm):
                assert a == pytest.approx(b, rel=1e-9), cfg
            assert ea.premature_max == eb.premature_max, cfg
            separated += 1
        assert separated > 200

    def test_cubic_power(self):
        p = LogCoveringParams(box=BOX, m=3, r=1, base=22)
        cov = build_log_covering(p, q_override=4)
        cfg = WitnessConfig(log_cov=p, u=zero_pair(), v=(basis(0), basis(1)),
                            eta=0.1, cov_override=cov)
        w = build_witness(cfg)
        rng = random.Random(7)
        for _ in range(5):
            lam = (rng.uniform(1.2, 1.3), rng.uniform(1.2, 1.3))
            ea = eval_analytic(w, lam)
            eb = eval_bruteforce(w, lam, w.powers[ea.cell_index])
            assert ea.separation_ok
            for a, b in zip(ea.p1_err + ea.p2_norm + ea.p3_norm,
                            eb.p1_err + eb.p2_norm + eb.p3_norm):
                assert a == pytest.approx(b, rel=1e-9)

    def test_nonzero_u_cross_terms(self):
        u = (0.3 * basis(0), 0.2 * basis(1))
        cfg = override_config(u=u, v=(basis(0) + 0.5 * basis(1), basis(0)))
        w = build_witness(cfg)
        lam = (1.27, 1.22)
        ea = eval_analytic(w, lam)
        eb = eval_bruteforce(w, lam, w.powers[ea.cell_index])
        assert ea.separation_ok
        for a, b in zip(ea.p1_err + ea.p2_norm + ea.p3_norm,
                        eb.p1_err + eb.p2_norm + eb.p3_norm):
            assert a == pytest.approx(b, rel=1e-9)

    def test_premature_vanishes_exactly(self):
        cfg = override_config(m=3, base=22, v=(basis(0), basis(0)))
        w = build_witness(cfg)
        lam = (1.24, 1.28)
        eb = eval_bruteforce(w, lam, w.powers[eval_analytic(w, lam).cell_index])
        assert eb.separation_ok
        assert eb.premature_max == 0.0

    def test_an_overflowing_shift_is_named(self):
        p = LogCoveringParams(box=((1.2, 1.3),), m=2, r=1, base=40)
        cfg = WitnessConfig(log_cov=p, u=(SeqVec(),), v=(basis(0),), eta=0.1,
                            fams=(WeightFamily.geometric(),),
                            cov_override=build_log_covering(p, q_override=1))
        w = build_witness(cfg)
        # the entry e_3200 of (u')**2 takes the factor 1.25**3200 = exp(714)
        with pytest.raises(ValueError, match=r"^the brute-force shift B\^3200 on axis 0 at "
                                             r"lambda = 1\.25 overflows the double range$"):
            eval_bruteforce(w, (1.25,), 3200)

    def test_budget_guard(self):
        v = (SeqVec({k: 1.0 for k in range(12)}), basis(0))
        cfg = override_config(v=v, base=200, q=100)
        w = build_witness(cfg)
        with pytest.raises(BruteForceBudgetError, match="analytic"):
            eval_bruteforce(w, (1.25, 1.25), w.powers[0], budget=10_000)


class TestLipschitzControl:
    def test_p1_bracket_bound(self):
        cfg = override_config(v=(basis(0) + 0.5 * basis(1), basis(0)))
        w = build_witness(cfg)
        p = cfg.p_support
        rng = random.Random(5)
        grid = [1.2 + 0.025 * k for k in range(5)]
        for _ in range(15):
            lam = (rng.uniform(1.2, 1.3), rng.uniform(1.2, 1.3))
            ev = eval_analytic(w, lam)
            i = ev.cell_index
            n_i = w.powers[i]
            for ax in range(2):
                vmax = max((abs(c) for _, c in cfg.v[ax].items()), default=0.0)
                if vmax == 0.0:
                    continue
                c_v = max(lipschitz_ratio(cfg.fams[ax], grid, l, n_i)
                          for l in range(p + 1)) / math.log(n_i)
                dist = abs(lam[ax] - w.covering.cells[i].anchor[ax])
                bracket = c_v * math.log(n_i + p) * dist
                if bracket < 1.0:
                    bound = 2.0 * vmax * (p + 1) * bracket
                    assert ev.p1_err[ax] <= bound * (1 + 1e-12)


class TestSymmetry:
    def test_axis_swap_invariance(self):
        # with symmetric box, u, v and families, swapping the two axes
        # reproduces the identical witness, and on cells with equal anchor
        # coordinates the per-axis quantities agree
        v = (basis(0) + 0.5 * basis(1), basis(0) + 0.5 * basis(1))
        one = override_config(v=v, q=1)
        w1 = build_witness(one)
        swapped = WitnessConfig(
            log_cov=LogCoveringParams(box=one.log_cov.box[::-1], m=one.log_cov.m,
                                      r=one.log_cov.r, base=one.log_cov.base),
            u=one.u[::-1], v=one.v[::-1], eta=one.eta, fams=one.fams[::-1],
            cov_override=one.cov_override)
        w1s = build_witness(swapped)
        assert w1s.eps == w1.eps[::-1]
        assert w1s.vectors == w1.vectors[::-1]

        cfg = override_config(v=v)
        w = build_witness(cfg)
        assert w.eps[0] == w.eps[1]
        for j, cell in enumerate(w.covering.cells):
            if cell.anchor[0] == cell.anchor[1]:
                assert w.coeffs[0][j].tolist() == w.coeffs[1][j].tolist()
        lam = (1.26, 1.26)
        ev = eval_analytic(w, lam)
        assert ev.p1_err[0] == pytest.approx(ev.p1_err[1], rel=1e-12)
        assert ev.p3_norm[0] == pytest.approx(ev.p3_norm[1], rel=1e-12)


class TestSweep:
    def test_single_base_single_row(self):
        p = LogCoveringParams(box=BOX, m=2, r=1, base=128)
        cfg = WitnessConfig(log_cov=p, u=zero_pair(), v=(basis(0), basis(0)), eta=0.05)
        rows = sweep_sigma(cfg, [128], grid_per_axis=2)
        assert len(rows) == 1
        assert rows[0]["sigma"] == 128**2
        assert rows[0]["q"] == 900

    def test_bases_must_increase(self):
        p = LogCoveringParams(box=BOX, m=2, r=1, base=128)
        cfg = WitnessConfig(log_cov=p, u=zero_pair(), v=(basis(0), basis(0)), eta=0.05)
        with pytest.raises(ValueError, match="increasing"):
            sweep_sigma(cfg, [256, 128])

    def test_previous_row_is_freed_before_next_row(self):
        # a row's witness and evaluations must not be alive while the next
        # row's witness is built: the peak of two rows is that of the larger
        p = LogCoveringParams(box=BOX, m=2, r=1, base=17)
        cfg = WitnessConfig(log_cov=p, u=zero_pair(), v=(basis(0), basis(0)), eta=0.05)
        sweep_sigma(cfg, [16, 17], grid_per_axis=2)  # fill the window caches

        def peak(bases):
            tracemalloc.start()
            try:
                sweep_sigma(cfg, bases, grid_per_axis=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak([16, 17]) < 1.25 * peak([17])

    def test_lambda_grid_ends_at_the_upper_bound(self):
        # 0.598 + 3 * ((1.373 - 0.598) / 3) lands one ulp above 1.373
        grid = witness._lambda_grid(((0.598, 1.373),), 4)
        step = (1.373 - 0.598) / 3
        assert grid == [(0.598,), (0.598 + step,), (0.598 + 2 * step,), (1.373,)]

    def test_predicted_slope_column(self):
        cfg = override_config()
        rows = sweep_sigma(replace(cfg, cov_override=None), [100], grid_per_axis=2)
        assert rows[0]["predicted_p2_slope"] == pytest.approx(-(1.2 / 1.3 - 0.5) * 1.2)


class TestConfigJson:
    def test_roundtrip(self):
        cfg = override_config(v=(basis(0) + 0.5 * basis(1), basis(0)))
        back = WitnessConfig.from_json_dict(cfg.to_json_dict())
        assert back.log_cov == cfg.log_cov
        assert back.u == cfg.u and back.v == cfg.v
        assert back.fams == cfg.fams
        assert back.cov_override.cells == cfg.cov_override.cells
        w1 = build_witness(cfg)
        w2 = build_witness(back)
        assert w1.vectors == w2.vectors

    def test_empty_families_are_not_the_default(self):
        # an empty list is d = 0 families, not "pure_power on every axis"
        obj = override_config().to_json_dict()
        obj["families"] = []
        with pytest.raises(ValueError, match="need 2 weight families"):
            WitnessConfig.from_json_dict(obj)
        del obj["families"]
        assert WitnessConfig.from_json_dict(obj).fams == (PP, PP)

    def test_empty_cov_override_is_not_the_log_covering(self):
        # an empty object is a covering without cells, not "no override"
        obj = override_config().to_json_dict()
        obj["cov_override"] = {}
        with pytest.raises(KeyError, match="cells"):
            WitnessConfig.from_json_dict(obj)
        del obj["cov_override"]
        assert WitnessConfig.from_json_dict(obj).cov_override is None

    def test_eta_positive(self):
        p = LogCoveringParams(box=BOX, m=2, r=1, base=100)
        with pytest.raises(ValueError, match="eta"):
            WitnessConfig(log_cov=p, u=zero_pair(), v=zero_pair(), eta=0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_eta_finite(self, eta):
        p = LogCoveringParams(box=BOX, m=2, r=1, base=100)
        with pytest.raises(ValueError, match="finite and positive; got eta = "):
            WitnessConfig(log_cov=p, u=zero_pair(), v=zero_pair(), eta=eta)

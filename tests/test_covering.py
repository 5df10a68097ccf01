"""Tests for log-grid and graded coverings and their verifier."""

import math
import random
import tracemalloc

import pytest

from shiftlab import covering
from shiftlab.covering import (
    Cell,
    Covering,
    CoveringInfeasibleError,
    GradedParams,
    LogCoveringParams,
    box_union_covers,
    build_graded_covering,
    build_log_covering,
    verify_graded,
)

BOX_1213 = ((1.2, 1.3), (1.2, 1.3))


def oracle_cell_count(sigma: int) -> int:
    """Independent arithmetic: largest perfect square <= floor((log s)^3 + 1)."""
    raw = math.floor(math.log(sigma) ** 3 + 1.0)
    g = math.isqrt(raw)
    return g * g


def oracle_power(m: int, base: int, r: int, j: int) -> int:
    sigma = base**m
    return (m - 1) * sigma + base ** (m - 1) * (j + r) ** r


class TestLogCoveringArithmetic:
    def test_base4_schedule(self):
        p = LogCoveringParams(box=BOX_1213, m=2, r=1, base=4)
        cov = build_log_covering(p)
        assert cov.q == 16 == oracle_cell_count(16)
        assert cov.powers[0] == 24 == oracle_power(2, 4, 1, 1)
        assert cov.powers[15] == 84 == oracle_power(2, 4, 1, 16)

    def test_base100_r2_schedule(self):
        p = LogCoveringParams(box=BOX_1213, m=2, r=2, base=100)
        cov = build_log_covering(p)
        assert cov.q == 729 == oracle_cell_count(10**4)
        assert cov.powers[0] == 10900 == oracle_power(2, 100, 2, 1)

    def test_powers_positive_increasing_integers(self):
        for base, r in ((3, 2), (7, 1), (12, 3)):
            p = LogCoveringParams(box=BOX_1213, m=2, r=r, base=base)
            cov = build_log_covering(p)
            ns = cov.powers
            assert all(isinstance(n, int) and n > 0 for n in ns)
            assert all(b > a for a, b in zip(ns, ns[1:]))

    def test_power_gaps_formula(self):
        p = LogCoveringParams(box=BOX_1213, m=3, r=2, base=5)
        cov = build_log_covering(p)
        b = 5**2
        for j, (n1, n2) in enumerate(zip(cov.powers, cov.powers[1:]), start=1):
            assert n2 - n1 == b * ((j + 1 + p.r) ** p.r - (j + p.r) ** p.r)

    def test_q_bracketing(self):
        for base in (4, 9, 30, 100):
            sigma = base**2
            raw = math.floor(math.log(sigma) ** 3 + 1.0)
            q = oracle_cell_count(sigma)
            assert q <= raw
            assert (math.isqrt(q) + 1) ** 2 > raw

    def test_q_override_grid(self):
        p = LogCoveringParams(box=BOX_1213, m=2, r=1, base=100)
        cov = build_log_covering(p, q_override=4)
        assert cov.q == 4
        assert cov.powers == [10200, 10300, 10400, 10500]
        with pytest.raises(ValueError):
            build_log_covering(p, q_override=5)  # not a perfect square in d=2

    def test_q_past_the_cell_cap_is_over_budget(self, monkeypatch):
        # the cap reads q from the integers: no cell and no grid edge is built
        monkeypatch.setattr(covering, "_grid_boxes", None)
        p = LogCoveringParams(box=BOX_1213, m=2, r=1, base=100)
        with pytest.raises(CoveringInfeasibleError) as exc:
            build_log_covering(p, q_override=(math.isqrt(covering._MAX_LOG_CELLS) + 1) ** 2)
        assert exc.value.reason == "budget"


class TestLogCoveringGeometry:
    def test_every_point_covered(self):
        p = LogCoveringParams(box=((1.2, 1.3), (1.4, 1.5)), m=2, r=1, base=6)
        cov = build_log_covering(p)
        a = 1.2
        b = 1.5
        covered, missing, _ = box_union_covers([c.box for c in cov.cells],
                                               ((a, b), (a, b)))
        assert covered, missing
        # anchors sit at the centers of their boxes
        for c in cov.cells:
            for x, (lo, hi) in zip(c.anchor, c.box):
                assert x == pytest.approx((lo + hi) / 2.0, abs=1e-15)

    def test_row_major_order(self):
        p = LogCoveringParams(box=BOX_1213, m=2, r=1, base=4)
        cov = build_log_covering(p)
        g = 4
        side = (1.3 - 1.2) / g
        for j, c in enumerate(cov.cells):
            row, col = divmod(j, g)
            assert c.box[0][0] == pytest.approx(1.2 + row * side)
            assert c.box[1][0] == pytest.approx(1.2 + col * side)

    def test_d1_grid(self):
        p = LogCoveringParams(box=((1.5, 1.6),), m=2, r=1, base=4)
        cov = build_log_covering(p)
        assert cov.q == 22  # largest first power <= floor((log 16)^3 + 1)
        covered, _, _ = box_union_covers([c.box for c in cov.cells], ((1.5, 1.6),))
        assert covered

    def test_d3_grid(self):
        box = ((1.2, 1.3), (1.25, 1.35), (1.4, 1.5))
        p = LogCoveringParams(box=box, m=2, r=1, base=4)
        cov = build_log_covering(p)
        assert cov.q == 8  # largest cube <= 22
        covered, _, _ = box_union_covers(
            [c.box for c in cov.cells], ((1.2, 1.5),) * 3)
        assert covered

    @pytest.mark.parametrize("g", [11, 13, 22, 25, 26])
    def test_last_edge_is_the_upper_bound(self, g):
        # 1.011 + g * ((1.833 - 1.011) / g) misses 1.833 by one ulp for these g
        boxes = list(covering._grid_boxes(((1.011, 1.833),), g))
        assert boxes[-1][0][1] == 1.833
        side = (1.833 - 1.011) / g
        assert [b[0][0] for b in boxes] == [1.011 + i * side for i in range(g)]
        assert [b[0][1] for b in boxes[:-1]] == [b[0][0] for b in boxes[1:]]


class TestLogCoveringValidation:
    def test_box_doubling_invariant(self):
        with pytest.raises(ValueError):
            LogCoveringParams(box=((1.0, 2.5),), m=2, r=2, base=4)

    def test_r_floor(self):
        with pytest.raises(ValueError):
            LogCoveringParams(box=((0.4, 0.7), (0.4, 0.7)), m=2, r=2, base=4)
        LogCoveringParams(box=((0.4, 0.7), (0.4, 0.7)), m=2, r=3, base=4)

    def test_r1_allowed_above_one(self):
        LogCoveringParams(box=BOX_1213, m=2, r=1, base=4)
        with pytest.raises(ValueError):
            LogCoveringParams(box=((1.0, 1.3), (1.0, 1.3)), m=2, r=1, base=4)

    def test_m_and_base_floors(self):
        with pytest.raises(ValueError):
            LogCoveringParams(box=BOX_1213, m=1, r=1, base=4)
        with pytest.raises(ValueError):
            LogCoveringParams(box=BOX_1213, m=2, r=1, base=1)


class TestGradedSingleCell:
    def test_trivial_single_cell(self):
        # one cell of side tau/N**alpha covers K and 1/N**beta <= eta
        p = GradedParams(alpha=0.3, beta=0.7, D=1.0, tau=1.0, eta=0.5, N=10, d=2)
        K = ((1.0, 1.05), (1.0, 1.05))
        cov = build_graded_covering(K, p)
        assert cov.q == 1
        assert cov.cells[0].n == 10
        rep = verify_graded(cov, K, p)
        assert rep.overall
        assert rep.conditions["c"].passed and rep.conditions["e"].passed

    def test_diam_precondition(self):
        p = GradedParams(alpha=0.3, beta=0.7, D=1.0, tau=1.0, eta=0.5, N=10, d=2)
        with pytest.raises(CoveringInfeasibleError) as exc:
            build_graded_covering(((0.0, 1.0), (0.0, 1.0)), p)
        assert exc.value.reason == "diam"

    def test_budget_exhaustion_distinguished(self):
        # tau far too small for the spacing floor: no grid size works
        p = GradedParams(alpha=0.45, beta=1.0, D=10.0, tau=1e-4, eta=0.05,
                         N=1000, d=2, c=1.0)
        with pytest.raises(CoveringInfeasibleError) as exc:
            build_graded_covering(((1.0, 1.4), (1.0, 1.4)), p, g_max=8)
        assert exc.value.reason == "budget"


class TestGradedSearchScreens:
    # parameters on which a (c) screen against diam(K) and the last power
    # rejected every candidate, yet g = 8 gives a covering the verifier passes
    C_CASE = dict(alpha=0.4223357779753852, beta=2.821241501316106, D=11.30182194462629,
                  tau=4.147049991199737, eta=1.7214165621808513, N=11, c=0.9860704462189254,
                  d=2)
    C_K = ((1.8581040375163715, 3.9042565630540196),) * 2
    # a d = 3 search whose pairwise (e) screen once allocated a q x q matrix
    # per candidate; no grid passes the screens
    D3_CASE = dict(alpha=0.04066875673171047, beta=1.254353715116986, D=4.528077126400416,
                   tau=2.8302724471542264, eta=0.09314123964677223, N=9, c=0.7937843409536883,
                   d=3)
    D3_K = ((1.1507412581827623, 4.122297985099194),) * 3

    def test_wrap_pair_screen_keeps_a_covering_the_verifier_passes(self):
        p = GradedParams(**self.C_CASE)
        cov = build_graded_covering(self.C_K, p)
        assert (cov.q, cov.powers[0], cov.powers[-1]) == (64, 11, 704)
        assert verify_graded(cov, self.C_K, p).overall

    def test_every_screen_rejection_is_a_verifier_rejection(self):
        rng = random.Random(2024)
        rejected = {"c": 0, "d": 0}
        for _ in range(400):
            d = rng.randint(1, 3)
            g = rng.randint(2, {1: 12, 2: 6, 3: 4}[d])
            alpha = rng.uniform(0.02, 0.95 / d)
            side = rng.uniform(0.01, 2.0)
            K = ((1.0, 1.0 + side),) * d
            p = GradedParams(alpha=alpha, beta=rng.uniform(alpha * d + 0.01, 3.0),
                             D=side * rng.uniform(0.5, 4.0), tau=side * 100.0,
                             eta=rng.uniform(0.01, 2.0), N=1, c=1.0, d=d)
            n0, delta = rng.randint(1, 50), rng.randint(1, 10**rng.randint(1, 4))
            powers = [n0 + j * delta for j in range(g**d)]
            boxes = list(covering._grid_boxes(K, g))
            if covering._screen(powers, boxes, g, p):
                continue
            cov = Covering(tuple(Cell(n, tuple(lo for lo, _ in b), b)
                                 for n, b in zip(powers, boxes)))
            rep = verify_graded(cov, K, p)
            name = "d" if math.fsum(1.0 / n**p.beta for n in powers) > p.eta else "c"
            assert not rep.conditions[name].passed
            rejected[name] += 1
        assert rejected["c"] > 20 and rejected["d"] > 20

    def test_schedules_past_2_53_are_skipped(self):
        # the only arithmetic schedule the search finds runs from 1.7e22 to
        # 3.4e22, past the float64 powers the verifier reads
        p = GradedParams(alpha=0.028359302877698236, beta=0.10733547317877498,
                         D=17.761260562317197, tau=1.1247145062026216,
                         eta=0.21814885439877787, N=13, c=0.07801595462099026, d=2)
        with pytest.raises(CoveringInfeasibleError) as exc:
            build_graded_covering(((1.3081920973944416, 2.5849327393357715),) * 2, p)
        assert exc.value.reason == "budget"

    def test_d3_search_allocates_no_pair_matrix(self):
        p = GradedParams(**self.D3_CASE)
        tracemalloc.start()
        try:
            with pytest.raises(CoveringInfeasibleError):
                build_graded_covering(self.D3_K, p, g_max=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_search_stops_at_the_pair_guard(self):
        # 19**3 cells have at most 5e7 ordered pairs and 20**3 more
        assert (19**3) ** 2 <= covering._MAX_PAIR_GRID < (20**3) ** 2
        with pytest.raises(CoveringInfeasibleError, match="up to 19 per axis; 20 per axis"):
            build_graded_covering(self.D3_K, GradedParams(**self.D3_CASE))


class TestVerifier:
    def test_hand_built_d_violation_margin(self):
        cells = tuple(Cell(n=100 * 2**j, anchor=(0.0, 0.0),
                           box=((0.0, 1.0), (0.0, 1.0))) for j in range(4))
        cov = Covering(cells=cells)
        K = ((0.0, 1.0), (0.0, 1.0))
        base = dict(alpha=0.3, beta=1.0, D=100.0, tau=1000.0, N=1, d=2)
        rep = verify_graded(cov, K, GradedParams(eta=0.01, **base))
        expected = math.fsum([1 / 100, 1 / 200, 1 / 400, 1 / 800])
        assert rep.conditions["d"].achieved == expected
        assert rep.conditions["d"].achieved == pytest.approx(0.01875, rel=1e-15)
        assert not rep.conditions["d"].passed
        assert verify_graded(cov, K, GradedParams(eta=0.02, **base)).conditions["d"].passed

    @staticmethod
    def grid_covering(K, g, n0, delta):
        return Covering(cells=tuple(
            Cell(n=n0 + delta * j, anchor=tuple(lo for lo, _ in box), box=box)
            for j, box in enumerate(covering._grid_boxes(K, g))))

    def test_pair_checks_hold_bounded_memory(self):
        # q = 12**3 in d = 3: unblocked, (c) built three (q, q, 3) float64
        # temporaries of 68 MiB each and peaked at 205 MiB
        K = ((1.0, 1.02),) * 3
        cov = self.grid_covering(K, 12, 1000, 500)
        p = GradedParams(alpha=0.3, beta=1.2, D=1.0, tau=1.0, eta=10.0, N=100, d=3)
        tracemalloc.start()
        try:
            rep = verify_graded(cov, K, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert set(rep.conditions) == {"a", "b_containment", "b_cover", "c", "d", "e"}

    def test_row_blocks_keep_the_one_block_report(self, monkeypatch):
        # the first least (c) slack in row-major (j, l) order and the first
        # largest (e) row sum, whatever the block size; equal boxes tie
        rng = random.Random(4)
        for _ in range(30):
            d = rng.randint(1, 3)
            K = tuple((a, a + rng.choice([0.0, 0.01, rng.uniform(0.0, 0.3)]))
                      for a in (rng.uniform(0.5, 2.0) for _ in range(d)))
            cov = self.grid_covering(K, rng.randint(2, 5), rng.randint(1, 10**6),
                                     rng.randint(1, 10**4))
            p = GradedParams(alpha=0.9 / (3 * d), beta=1.0, D=rng.uniform(0.01, 1.0),
                             tau=1.0, eta=10.0, N=1, d=d)
            want = verify_graded(cov, K, p).to_json_dict()
            for block in (1, 7, 64):
                monkeypatch.setattr(covering, "_ROW_BLOCK", block)
                assert verify_graded(cov, K, p).to_json_dict() == want
            monkeypatch.undo()
        # D = 5e-324 rounds every (c) bound to 0 and one repeated box gives
        # every pair the same slack, so the witness is the first pair
        K = ((1.0, 1.5),)
        cov = Covering(cells=tuple(Cell(n=10**6 + 10 * j, anchor=(1.0,), box=K)
                                   for j in range(5)))
        p = GradedParams(alpha=0.5, beta=1.0, D=5e-324, tau=1.0, eta=10.0, N=1, d=1)
        for block in (1, 2, 64):
            monkeypatch.setattr(covering, "_ROW_BLOCK", block)
            c = verify_graded(cov, K, p).conditions["c"]
            assert (c.witness, c.bound, c.achieved) == ({"pair": [0, 1]}, 0.0, 0.5)

    def test_spacing_violation_detected(self):
        cells = (Cell(n=5, anchor=(0.0,), box=((0.0, 1.0),)),
                 Cell(n=7, anchor=(0.0,), box=((0.0, 1.0),)))
        cov = Covering(cells=cells)
        p = GradedParams(alpha=0.3, beta=0.7, D=100.0, tau=100.0, eta=10.0, N=4, d=1)
        rep = verify_graded(cov, ((0.0, 1.0),), p)
        assert not rep.conditions["a"].passed
        assert rep.conditions["a"].achieved == 2.0  # the gap 7 - 5

    def test_proximity_checked_on_corners(self):
        # two unit boxes 10 apart: sup distance 11, bound tiny -> (c) fails
        cells = (Cell(n=100, anchor=(0.0,), box=((0.0, 1.0),)),
                 Cell(n=200, anchor=(10.0,), box=((10.0, 11.0),)))
        cov = Covering(cells=cells)
        p = GradedParams(alpha=0.4, beta=0.9, D=1.0, tau=1000.0, eta=10.0, N=10, d=1)
        rep = verify_graded(cov, ((0.0, 11.0),), p)
        c = rep.conditions["c"]
        assert not c.passed
        assert c.achieved == pytest.approx(11.0)  # corner-exact sup distance
        assert c.bound == pytest.approx(1.0 * (100 / 200) ** 0.4)

    def test_cover_gap_detected(self):
        cells = (Cell(n=10, anchor=(0.0,), box=((0.0, 0.4),)),
                 Cell(n=20, anchor=(0.6,), box=((0.6, 1.0),)))
        cov = Covering(cells=cells)
        p = GradedParams(alpha=0.3, beta=0.7, D=100.0, tau=100.0, eta=10.0, N=5, d=1)
        rep = verify_graded(cov, ((0.0, 1.0),), p)
        assert not rep.conditions["b_cover"].passed
        pt = rep.conditions["b_cover"].witness["uncovered_point"][0]
        assert 0.4 < pt < 0.6

    def test_constructed_covering_roundtrip(self):
        p = GradedParams(alpha=0.3, beta=0.7, D=0.3, tau=0.055, eta=2.0, N=150, d=2)
        K = ((1.0, 1.02), (1.0, 1.02))
        cov = build_graded_covering(K, p)
        assert cov.q > 1
        assert verify_graded(cov, K, p).overall


class TestGradedFuzzRoundTrip:
    def test_fuzzed_feasible_parameters(self):
        rng = random.Random(97)
        for trial in range(25):
            alpha = rng.uniform(0.05, 0.45)
            beta = rng.uniform(2 * alpha + 0.05, 1.5)
            side = rng.uniform(0.01, 0.05)
            lo = rng.uniform(0.5, 3.0)
            K = ((lo, lo + side), (lo, lo + side))
            if trial % 5 == 0:
                alpha = rng.uniform(0.25, 0.42)
                beta = rng.uniform(2 * alpha + 0.05, 1.5)
                tau = rng.uniform(2.2, 3.0) * side
                N = rng.randint(20, 40)
            else:
                tau = rng.uniform(5, 40) * side
                N = rng.randint(2, 30)
            eta = rng.uniform(0.4, 1.2)
            D = side / (0.1 * rng.uniform(0.3, 0.9))
            p = GradedParams(alpha=alpha, beta=beta, D=D, tau=tau, eta=eta, N=N, d=2)
            cov = build_graded_covering(K, p)
            assert verify_graded(cov, K, p).overall

    def test_d1_roundtrip(self):
        p = GradedParams(alpha=0.4, beta=0.95, D=1.0, tau=0.5, eta=0.8, N=12, d=1)
        K = ((2.0, 2.08),)
        cov = build_graded_covering(K, p)
        assert verify_graded(cov, K, p).overall


class TestParamsValidation:
    def test_beta_must_exceed_alpha_d(self):
        with pytest.raises(ValueError, match="beta"):
            GradedParams(alpha=0.4, beta=0.7, D=1.0, tau=1.0, eta=0.5, N=5, d=2)

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            GradedParams(alpha=0.6, beta=1.4, D=1.0, tau=1.0, eta=0.5, N=5, d=2)

    def test_positivity(self):
        with pytest.raises(ValueError):
            GradedParams(alpha=0.3, beta=0.7, D=-1.0, tau=1.0, eta=0.5, N=5, d=2)

    @pytest.mark.parametrize("name", ["D", "tau", "eta", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_constants_must_be_finite_and_positive(self, name, value):
        kw = dict(alpha=0.3, beta=0.7, D=1.0, tau=1.0, eta=0.5, N=5, d=2)
        kw[name] = value
        with pytest.raises(ValueError, match=f"finite and positive; got {name} = "):
            GradedParams(**kw)


class TestSerialization:
    def test_log_roundtrip(self):
        p = LogCoveringParams(box=BOX_1213, m=2, r=1, base=4)
        cov = build_log_covering(p)
        back = Covering.from_json_dict(cov.to_json_dict())
        assert back.powers == cov.powers
        assert back.kind == "log"
        assert back.params == p
        assert back.cells == cov.cells

    def test_graded_roundtrip(self):
        p = GradedParams(alpha=0.3, beta=0.7, D=1.0, tau=1.0, eta=0.5, N=10, d=2)
        K = ((1.0, 1.05), (1.0, 1.05))
        cov = build_graded_covering(K, p)
        back = Covering.from_json_dict(cov.to_json_dict())
        assert back.params == p
        assert back.cells == cov.cells

    def test_decreasing_powers_rejected(self):
        cells = (Cell(n=10, anchor=(0.0,), box=((0.0, 1.0),)),
                 Cell(n=10, anchor=(0.0,), box=((0.0, 1.0),)))
        with pytest.raises(ValueError):
            Covering(cells=cells)


class TestMarginSignConsistency:
    def test_pass_iff_margin_nonnegative(self):
        # every property's margin sign must agree with its pass flag
        rng = random.Random(500)
        for _ in range(15):
            side = rng.uniform(0.01, 0.05)
            K = ((1.0, 1.0 + side), (1.0, 1.0 + side))
            p = GradedParams(alpha=0.3, beta=0.8, D=side / 0.05,
                             tau=rng.uniform(3, 30) * side,
                             eta=rng.uniform(0.1, 1.0), N=rng.randint(2, 20), d=2)
            try:
                cov = build_graded_covering(K, p)
            except CoveringInfeasibleError:
                continue
            # re-verify against perturbed bounds to exercise failures too
            for eta in (p.eta, p.eta / 100.0):
                q = GradedParams(alpha=p.alpha, beta=p.beta, D=p.D, tau=p.tau,
                                 eta=eta, N=p.N, d=2)
                rep = verify_graded(cov, K, q)
                for name, prop in rep.conditions.items():
                    assert prop.passed == (prop.margin >= 0.0), name

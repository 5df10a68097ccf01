"""Tests for weight families, log-domain windows and shift application."""

import itertools
import math
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import weights
from shiftlab.seqspace import SeqVec, basis
from shiftlab.weights import (
    InadmissibleParameterError,
    LipschitzProfile,
    WeightFamily,
    apply_backward_power,
    apply_forward_root_power,
    lipschitz_ratio,
    lipschitz_ratio_profile,
    log_cum_prefix,
    log_cum_window,
    log_cum_window_offsets,
    log_cum_windows,
    log_weight,
)

AFFINE0 = WeightFamily.affine(0.0)
PP = WeightFamily.pure_power()
GEO = WeightFamily.geometric()

FAMILIES = [
    WeightFamily.affine(0.0),
    WeightFamily.affine(0.4),
    WeightFamily.pure_power(),
    WeightFamily.exp_alpha(0.5),
    WeightFamily.power_ratio(),
    WeightFamily.geometric(),
]


def affine0_product_oracle(lam_num, lam_den, l, n):
    """Exact rational product of (1 + lam/i) over the window, via Fraction."""
    lam = Fraction(lam_num, lam_den)
    acc = Fraction(1)
    for i in range(l + 1, l + n + 1):
        acc *= 1 + lam / i
    return acc


class TestWindowExamples:
    def test_pure_power_closed_form(self):
        got = log_cum_window(PP, 1.5, 0, 10)
        assert got == pytest.approx(1.5 * math.log(10), rel=1e-15)

    def test_affine0_telescoping_window(self):
        # direct product oracle: prod_{k=1}^{9} (1 + 1/k) = 10 exactly
        assert affine0_product_oracle(1, 1, 0, 9) == 10
        got = log_cum_window(AFFINE0, 1.0, 0, 9)
        assert got == pytest.approx(math.log(10), rel=1e-14)

    def test_geometric_constant_weight(self):
        got = log_cum_window(GEO, 2.0, 5, 3)
        assert got == pytest.approx(3 * math.log(2), rel=1e-15)

    def test_zero_length_window(self):
        for fam in FAMILIES:
            assert log_cum_window(fam, 1.3, 7, 0) == 0.0

    def test_inadmissible_parameter(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(InadmissibleParameterError):
                log_cum_window(PP, bad, 0, 5)

    def test_window_against_single_weights(self):
        # fsum of per-index logs is an independent route for small windows
        rng = random.Random(3)
        for fam in FAMILIES:
            lam = rng.uniform(0.5, 3.0)
            l, n = rng.randint(0, 20), rng.randint(1, 40)
            direct = math.fsum(log_weight(fam, lam, i) for i in range(l + 1, l + n + 1))
            assert log_cum_window(fam, lam, l, n) == pytest.approx(direct, rel=1e-12, abs=1e-13)


class TestTelescopingExactness:
    @pytest.mark.parametrize("n", [10, 1000, 10**6])
    def test_affine0_lambda1(self, n):
        got = math.exp(log_cum_window(AFFINE0, 1.0, 0, n))
        assert got == pytest.approx(n + 1, rel=1e-12)


class TestLargeWindowPaths:
    def test_affine0_stirling_matches_fsum(self):
        # window longer than the exact-summation cutoff; oracle sums directly
        lam, n = 1.37, 3_000_000
        got = log_cum_window(AFFINE0, lam, 0, n)
        idx = np.arange(1, n + 1, dtype=np.float64)
        direct = math.fsum(np.log1p(lam / idx).tolist())
        assert got == pytest.approx(direct, rel=1e-11)

    def test_affine0_stirling_with_offset(self):
        lam, l, n = 0.8, 17, 2_500_000
        got = log_cum_window(AFFINE0, lam, l, n)
        idx = np.arange(l + 1, l + n + 1, dtype=np.float64)
        direct = math.fsum(np.log1p(lam / idx).tolist())
        assert got == pytest.approx(direct, rel=1e-11)

    def test_affine0_stirling_lower_endpoint_midrange(self):
        # lower endpoint above the exact-partial threshold, window above the
        # summation cutoff: both endpoints go through the Stirling form
        lam, l, n = 2.2, 20_000, (1 << 21) + 100
        got = log_cum_window(AFFINE0, lam, l, n)
        direct = math.fsum(
            math.fsum(np.log1p(lam / np.arange(s, min(s + 10**6, l + n + 1),
                                               dtype=np.float64)).tolist())
            for s in range(l + 1, l + n + 1, 10**6))
        assert got == pytest.approx(direct, rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 0.9])
    def test_fsum_window_has_the_bits_of_whole_chunk_lists(self, alpha):
        # the terms reach fsum in slices; the reference hands it the whole
        # window's terms at once, so every length is one correctly rounded sum
        F = weights._FSUM_MAX
        for lam, l, n in ((0.7, 0, 1_500_000), (2.3, 777, F + 3), (1.1, 10**6, 5_000_000)):
            want = math.fsum(weights._affine_terms(lam, weights._affine_bases(
                alpha, np.arange(l + 1, l + n + 1, dtype=np.float64))))
            assert weights._affine_fsum_window(alpha, lam, l, n) == want, (lam, l, n)

    def test_fsum_window_holds_one_float64_chunk(self):
        n = 10**6
        tracemalloc.start()
        try:
            weights._affine_fsum_window(0.4, 1.3, 10, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n

    def test_affine0_huge_window_no_overflow(self):
        got = log_cum_window(AFFINE0, 3.0, 0, 10**8)
        assert got == pytest.approx(3.0 * math.log(10**8), rel=0.05)
        assert math.isfinite(got)


def affine_mpmath_window(alpha, lam, l, n):
    """The window summed term by term in 40-digit arithmetic."""
    with mpmath.workdps(40):
        e = 1 - mpmath.mpf(alpha)
        return float(mpmath.fsum(mpmath.log1p(mpmath.mpf(lam) / mpmath.mpf(i) ** e)
                                 for i in range(l + 1, l + n + 1)))


class TestPrefixTablePath:
    CAP = weights._TABLE_MAX
    # (l, n): first term, short and mid windows, and both sides of the cutoff
    WINDOWS = [(0, 1), (0, 50), (1000, 100), (4095, 1), (12345, 3),
               (CAP - 2, 1), (CAP - 8, 7), (CAP - 1, 1), (CAP - 9, 9)]

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 0.9])
    @pytest.mark.parametrize("lam", [1e-3, 1.5, 7.0])
    def test_within_two_ulp_of_fsum_and_mpmath(self, alpha, lam):
        fam = WeightFamily.affine(alpha)
        for l, n in self.WINDOWS:
            got = log_cum_window(fam, lam, l, n)
            for ref in (weights._affine_fsum_window(alpha, lam, l, n),
                        affine_mpmath_window(alpha, lam, l, n)):
                assert abs(got - ref) <= 2 * math.ulp(ref), (l, n, got, ref)

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_long_table_windows_match_fsum(self, alpha):
        rng = random.Random(11)
        for _ in range(40):
            l = rng.randrange(0, self.CAP - 1)
            n = rng.randrange(1, self.CAP - l)
            got = weights._affine_window(alpha, 2.3, l, n)
            ref = weights._affine_fsum_window(alpha, 2.3, l, n)
            assert abs(got - ref) <= 2 * math.ulp(ref)

    def test_cutoff_is_on_the_window_end(self):
        weights._affine_prefix_table.cache_clear()
        log_cum_window(AFFINE0, 1.25, self.CAP - 5, 5)
        assert weights._affine_prefix_table.cache_info().currsize == 0
        log_cum_window(AFFINE0, 1.25, self.CAP - 6, 5)
        assert weights._affine_prefix_table.cache_info().currsize == 1

    def test_entries_do_not_depend_on_table_size(self):
        small = weights._affine_prefix_table(0.4, 1.5, weights._TABLE_MIN)
        big = weights._affine_prefix_table(0.4, 1.5, self.CAP)
        for a, b in zip(small, big):
            assert a.tolist() == b[:weights._TABLE_MIN].tolist()

    def test_memo_stays_bounded(self):
        info = weights._affine_prefix_table.cache_info()
        for i in range(info.maxsize + 5):
            log_cum_window(AFFINE0, 1.0 + i / 64, 3, 100)
        assert weights._affine_prefix_table.cache_info().currsize <= info.maxsize

    def test_threads_see_the_same_windows(self):
        jobs = [(fam, 0.5 + i / 8, 7 * i, 500 + 911 * i)
                for i in range(12) for fam in (AFFINE0, WeightFamily.affine(0.4))]

        def window(job):
            return log_cum_window(*job)

        weights._affine_prefix_table.cache_clear()
        serial = [window(j) for j in jobs]
        weights._affine_prefix_table.cache_clear()
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(window, jobs))
        assert threaded == serial


class TestWindowAdditivity:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(FAMILIES), st.floats(0.2, 3.0),
           st.integers(0, 50), st.integers(0, 300), st.integers(0, 300))
    def test_split_window(self, fam, lam, l, n1, n2):
        whole = log_cum_window(fam, lam, l, n1 + n2)
        split = log_cum_window(fam, lam, l, n1) + log_cum_window(fam, lam, l + n1, n2)
        assert whole == pytest.approx(split, abs=1e-10, rel=1e-10)

    def test_split_across_summation_cutoff(self):
        lam, l = 1.1, 5
        n1, n2 = 2**21 + 17, 2**20
        whole = log_cum_window(AFFINE0, lam, l, n1 + n2)
        split = log_cum_window(AFFINE0, lam, l, n1) + log_cum_window(AFFINE0, lam, l + n1, n2)
        assert whole == pytest.approx(split, rel=1e-10)


MONOTONE_FAMILIES = [
    AFFINE0, WeightFamily.affine(0.4), WeightFamily.affine(0.9), PP,
    WeightFamily.exp_alpha(0.4), WeightFamily.exp_alpha(1.0), WeightFamily.power_ratio(), GEO]
# 9-point grids of relative width 1, 1e-6 and 1e-12
NARROW_GRIDS = [np.linspace(lo, lo * (1.0 + rel), 9).tolist()
                for lo in (0.3, 1.0, 2.7) for rel in (1.0, 1e-6, 1e-12)]


# log cumulative products strictly concave in lam
CONCAVE_FAMILIES = [AFFINE0, WeightFamily.affine(0.4), WeightFamily.affine(0.9), GEO]


def family_id(fam):
    return f"{fam.variant}{'' if fam.alpha is None else fam.alpha}"


class TestMonotonicity:
    # the checkers read floors and tail displays at I0's least point only
    @pytest.mark.parametrize("fam", [AFFINE0, WeightFamily.affine(0.3), PP,
                                     WeightFamily.exp_alpha(0.7), WeightFamily.power_ratio()])
    def test_nondecreasing_in_lambda(self, fam):
        lams = np.linspace(0.2, 4.0, 25)
        vals = [log_cum_window(fam, a, 3, 200) for a in lams]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("fam", MONOTONE_FAMILIES, ids=family_id)
    def test_prefix_nondecreasing_on_narrow_grids(self, fam):
        for grid in NARROW_GRIDS:
            rows = [log_cum_prefix(fam, a, 5000) for a in grid]
            assert all((b >= a).all() for a, b in zip(rows, rows[1:])), grid

    # window (offset, length) pairs on both sides of the affine table's 2**16 end
    WINDOWS = ((0, 1), (0, 300), (7, 5000), (0, 70_000), (40_000, 30_000))

    @pytest.mark.parametrize("fam", MONOTONE_FAMILIES, ids=family_id)
    def test_windows_nondecreasing_on_narrow_grids(self, fam):
        # affine windows ending below 2**16 read the prefix table, the others fsum
        for grid, (l, n) in itertools.product(NARROW_GRIDS, self.WINDOWS):
            vals = [log_cum_window(fam, a, l, n) for a in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:])), (grid, l, n)

    @pytest.mark.parametrize("fam", MONOTONE_FAMILIES, ids=family_id)
    def test_array_windows_nondecreasing_on_narrow_grids(self, fam):
        # log_cum_windows with a scalar lam per call and with one array lam over
        # the grid, and log_cum_window_offsets, at offsets l, l + 1 and l + 17;
        # each row holds one grid point's windows
        for grid, (l, n) in itertools.product(NARROW_GRIDS, self.WINDOWS):
            offs = np.array([l, l + 1, l + 17])
            lens = np.full(3, n)
            rows = {
                "scalar lam": [log_cum_windows(fam, a, offs, lens) for a in grid],
                "array lam": log_cum_windows(
                    fam, np.repeat(grid, 3), np.tile(offs, len(grid)),
                    np.full(3 * len(grid), n)).reshape(len(grid), 3),
                "offsets": [log_cum_window_offsets(fam, a, offs, n) for a in grid],
            }
            for form, vals in rows.items():
                assert (np.diff(vals, axis=0) >= 0.0).all(), (form, grid, l, n)

    def test_affine0_stirling_nondecreasing_at_1e12_spacing(self):
        # not monotone one ulp apart: at lam = 0.34135186674448575, l = 0 and
        # n = 3e6 it reads 5.205178984193148, and 5.2051789841931475 at the next double
        for lo, rel, l in itertools.product(
                (0.3, 0.34135186674448575, 1.0, 2.7), (8e-12, 8e-6, 1.0), (0, 1000)):
            grid = np.linspace(lo, lo * (1.0 + rel), 9).tolist()
            vals = [log_cum_window(AFFINE0, a, l, 3 * 10**6) for a in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:])), (lo, rel, l)


class TestShifts:
    def test_backward_annihilates_e0(self):
        for fam in FAMILIES:
            assert apply_backward_power(fam, 1.5, 1, basis(0)) == SeqVec()

    def test_pure_power_b2_e5(self):
        got = apply_backward_power(PP, 1.0, 2, basis(5))
        assert got.support() == [3]
        assert got.coeff(3) == pytest.approx(5.0 / 3.0, rel=1e-14)

    def test_affine0_b3_e3(self):
        # direct-product oracle: w1*w2*w3 = 2 * 3/2 * 4/3 = 4
        assert affine0_product_oracle(1, 1, 0, 3) == 4
        got = apply_backward_power(AFFINE0, 1.0, 3, basis(3))
        assert got.support() == [0]
        assert got.coeff(0) == pytest.approx(4.0, rel=1e-13)

    def test_forward_pure_power_quarter(self):
        got = apply_forward_root_power(PP, 1.0, 1, 4, basis(0))
        assert got.coeff(4) == pytest.approx(0.25, rel=1e-14)

    def test_forward_root_halves_log(self):
        got = apply_forward_root_power(PP, 1.0, 2, 4, basis(0))
        assert got.coeff(4) == pytest.approx(0.5, rel=1e-14)

    def test_backward_equals_single_steps(self):
        rng = random.Random(11)
        for fam in FAMILIES:
            lam = rng.uniform(0.5, 2.5)
            x = SeqVec({rng.randrange(40): rng.uniform(-2, 2) for _ in range(6)})
            n = rng.randint(1, 7)
            stepped = x
            for _ in range(n):
                stepped = apply_backward_power(fam, lam, 1, stepped)
            closed = apply_backward_power(fam, lam, n, x)
            assert closed.support() == stepped.support()
            for k, c in closed.items():
                assert c == pytest.approx(stepped.coeff(k), rel=1e-12)

    def test_right_inverse_identity(self):
        rng = random.Random(23)
        for fam in FAMILIES:
            for _ in range(20):
                lam = rng.uniform(0.3, 3.0)
                x = SeqVec({rng.randrange(100): rng.uniform(-5, 5) for _ in range(8)})
                n = rng.randint(0, 200)
                back = apply_backward_power(
                    fam, lam, n, apply_forward_root_power(fam, lam, 1, n, x))
                assert back.support() == x.support()
                for k, c in x.items():
                    assert back.coeff(k) == pytest.approx(c, rel=1e-12)


class TestLipschitzRatio:
    def test_pure_power_is_exactly_log_n(self):
        for n in (10, 100, 10_000):
            got = lipschitz_ratio(PP, [1.0, 1.3, 1.7, 2.0], 0, n)
            assert got == pytest.approx(math.log(n), rel=1e-12)

    def test_affine0_bounded_by_log(self):
        got = lipschitz_ratio(AFFINE0, np.linspace(1, 2, 9), 0, 100)
        assert 0.0 < got <= math.log(100)

    def test_geometric_mean_value_bounds(self):
        got = lipschitz_ratio(GEO, np.linspace(2, 3, 7), 0, 50)
        assert 50.0 / 3.0 <= got <= 50.0 / 2.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            lipschitz_ratio(PP, [1.0], 0, 10)
        with pytest.raises(ValueError):
            lipschitz_ratio(PP, [1.0, 1.0], 0, 10)

    @staticmethod
    def all_pairs_max(pts, rows):
        best = np.zeros(len(rows[0]))
        for i, j in itertools.combinations(range(len(pts)), 2):
            np.maximum(best, np.abs(rows[j] - rows[i]) / (pts[j] - pts[i]), out=best)
        return best

    @staticmethod
    def random_grid(rng, spread):
        lo = rng.uniform(1.0, 3.0)
        hi = lo * rng.uniform(1.0001, spread)
        inner = {rng.uniform(lo, hi) for _ in range(rng.randint(0, 10))}
        return sorted(inner | {lo, hi})

    @pytest.mark.parametrize("fam", FAMILIES[:5], ids=str)
    def test_scan_is_bit_equal_to_all_pairs_on_narrow_grids(self, fam):
        # hi <= 2*lo: every chord's subtraction is exact, so no pair chord
        # rounds above the largest neighbouring chord
        rng = random.Random(31)
        for _ in range(40):
            pts = self.random_grid(rng, 2.0)
            upto = rng.randint(1, 20_000)
            rows = [log_cum_prefix(fam, a, upto) for a in pts]
            got = weights._max_slope(pts, iter(rows))
            assert np.array_equal(got, self.all_pairs_max(pts, rows))

    @pytest.mark.parametrize("fam,spread", [(f, 60.0) for f in FAMILIES] + [(GEO, 2.0)],
                             ids=str)
    def test_scan_never_exceeds_all_pairs(self, fam, spread):
        rng = random.Random(37)
        for _ in range(40):
            pts = self.random_grid(rng, spread)
            upto = rng.randint(1, 20_000)
            rows = [log_cum_prefix(fam, a, upto) for a in pts]
            got = weights._max_slope(pts, iter(rows))
            want = self.all_pairs_max(pts, rows)
            assert (got <= want).all()
            assert (want - got <= 4 * np.finfo(float).eps * want).all()

    @pytest.mark.parametrize("fam", CONCAVE_FAMILIES, ids=family_id)
    def test_first_chord_is_the_largest_where_concave(self, fam):
        # chord_points keeps the two least points of affine and geometric
        # grids: the first computed chord must be the largest neighbouring
        # one, for windows and prefixes, from hi/lo - 1 = 1e-4 to 30
        rng = random.Random(43)
        for _ in range(60):
            lo = rng.uniform(0.1, 5.0)
            hi = lo * (1.0 + 10 ** rng.uniform(-4.0, math.log10(30.0)))
            pts = sorted({lo, hi} | {rng.uniform(lo, hi) for _ in range(rng.randint(0, 10))})
            l = rng.choice((0, rng.randrange(1, 20_001)))
            n = rng.randint(1, 20_000)
            vals = [log_cum_window(fam, a, l, n) for a in pts]
            chords = [abs(v - u) / (b - a) for a, b, u, v in zip(pts, pts[1:], vals, vals[1:])]
            assert chords[0] == max(chords), (pts, l, n)
            assert lipschitz_ratio(fam, pts, l, n) == chords[0]
            rows = [log_cum_prefix(fam, a, n) for a in pts]
            assert np.array_equal(lipschitz_ratio_profile(fam, pts, np.arange(n + 1)),
                                  weights._max_slope(pts, rows)), (pts, n)

    def test_profile_matches_scalar(self):
        grid = [1.0, 1.5, 2.0]
        ns = np.array([5, 17, 120])
        prof = lipschitz_ratio_profile(AFFINE0, grid, ns)
        for i, n in enumerate(ns):
            assert prof[i] == pytest.approx(lipschitz_ratio(AFFINE0, grid, 0, int(n)),
                                            rel=1e-9)


class TestPrefixAndVectorized:
    @pytest.mark.parametrize("fam", FAMILIES)
    def test_prefix_matches_scalar_windows(self, fam):
        lam = 1.42
        pref = log_cum_prefix(fam, lam, 300)
        for n in (0, 1, 7, 150, 300):
            assert pref[n] == pytest.approx(log_cum_window(fam, lam, 0, n),
                                            rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("lo", [0, 3, 14, 17, 60])
    @pytest.mark.parametrize("fam", FAMILIES)
    def test_chunks_of_several_lams_have_each_prefix_bits(self, fam, lo):
        # one scan for every lam, in blocks of 7 from lo (below, at and past
        # the block size), has the bits of a separate prefix per lam; affine
        # rows share buffers, so each block is copied before the next
        lams, hi = (0.7, 1.42, 2.0 + 1 / 3, 3.5), 60
        ns, rows = [], [[] for _ in lams]
        for n, block in weights.log_cum_chunks(fam, lams, lo, hi, 7):
            assert len(block) == len(lams) and all(len(r) == len(n) <= 7 for r in block)
            ns.append(n.copy())
            for acc, r in zip(rows, block):
                acc.append(r.copy())
        assert np.array_equal(np.concatenate(ns), np.arange(lo, hi + 1, dtype=np.float64))
        for lam, acc in zip(lams, rows):
            assert np.array_equal(np.concatenate(acc), log_cum_prefix(fam, lam, hi)[lo:]), lam

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_vector_windows_match_scalar(self, fam):
        rng = random.Random(5)
        offs = np.array([rng.randrange(0, 500) for _ in range(40)])
        lens = np.array([rng.randrange(0, 500) for _ in range(40)])
        got = log_cum_windows(fam, 0.9, offs, lens)
        for o, n, g in zip(offs, lens, got):
            assert g == pytest.approx(log_cum_window(fam, 0.9, int(o), int(n)),
                                      rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_array_lam_windows_match_scalar_lam(self, fam):
        # neighbouring cells share box endpoints, so array lams repeat
        rng = random.Random(6)
        pool = [0.9, 1.0, 1.0 + 1 / 3, 1.1, 2.5]
        lams = np.array([rng.choice(pool) for _ in range(60)])
        offs = np.array([rng.randrange(0, 500) for _ in range(60)])
        lens = np.array([rng.randrange(0, 500) for _ in range(60)])
        want = np.empty(60)
        for lam in pool:
            sel = lams == lam
            want[sel] = log_cum_windows(fam, lam, offs[sel], lens[sel])
        assert np.array_equal(log_cum_windows(fam, lams, offs, lens), want)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("fam", FAMILIES)
    def test_array_lam_rejects_inadmissible(self, fam, bad):
        with pytest.raises(InadmissibleParameterError) as scalar:
            log_cum_windows(fam, bad, np.array([0]), np.array([3]))
        lams = np.array([1.1, 0.9, bad, 2.0, bad])
        with pytest.raises(InadmissibleParameterError) as array:
            log_cum_windows(fam, lams, np.arange(5), np.full(5, 3))
        assert str(array.value) == str(scalar.value)

    def test_large_offset_stability(self):
        # windows far out in the sequence keep relative accuracy
        got = log_cum_window(PP, 1.2, 10**7, 13)
        assert got == pytest.approx(1.2 * math.log1p(13 / 10**7), rel=1e-12)


OFFSET_FAMILIES = [
    WeightFamily.affine(0.0),
    WeightFamily.affine(0.4),
    WeightFamily.affine(0.9),
    WeightFamily.pure_power(),
    WeightFamily.exp_alpha(0.5),
    WeightFamily.power_ratio(),
    WeightFamily.geometric(),
]


class TestWindowOffsets:
    @pytest.mark.parametrize("fam", OFFSET_FAMILIES)
    @pytest.mark.parametrize("n", [0, 1, 37, 4000, 2**12, 2**16 - 5])
    def test_matches_scalar_bit_for_bit(self, fam, n):
        # offset 0, ends at 2**12 - 1, 2**12 and 2**16 - 1 (the last table
        # entry), ends past 2**16 (the scalar fallback) and random offsets
        rng = random.Random(n)
        ends = [2**12 - 1, 2**12, 2**16 - 1, 2**16, 2**16 + 3]
        offs = ([0, 1] + [e - n for e in ends if e >= n]
                + [rng.randrange(0, 2**16) for _ in range(12)])
        lam = 1.37
        got = log_cum_window_offsets(fam, lam, np.array(offs), n)
        want = np.array([log_cum_window(fam, lam, l, n) for l in offs])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fam", OFFSET_FAMILIES)
    def test_shape_and_table_size_independence(self, fam):
        # a 2-d offset array keeps its shape; a short window read alone (a
        # small table) has the bits it has beside a long one (a large table)
        offs = np.array([[3, 2**15], [0, 2**16 - 9]])
        got = log_cum_window_offsets(fam, 0.8, offs, 8)
        assert got.shape == (2, 2)
        alone = log_cum_window_offsets(fam, 0.8, np.array([3]), 8)
        assert got[0, 0].tobytes() == alone[0].tobytes()

    def test_offsets_beyond_int64_loop_the_scalar_path(self):
        offs = np.array([2**70, 2**63], dtype=object)
        got = log_cum_window_offsets(PP, 1.2, offs, 10**20)
        want = [log_cum_window(PP, 1.2, l, 10**20) for l in offs.tolist()]
        assert got.tolist() == want

    @pytest.mark.parametrize("fam", OFFSET_FAMILIES)
    def test_validation(self, fam):
        with pytest.raises(InadmissibleParameterError) as scalar:
            log_cum_window(fam, 0.0, 0, 3)
        with pytest.raises(InadmissibleParameterError) as array:
            log_cum_window_offsets(fam, 0.0, np.arange(3), 3)
        assert str(array.value) == str(scalar.value)
        with pytest.raises(ValueError, match="nonnegative"):
            log_cum_window_offsets(fam, 1.0, np.array([2, -1]), 3)
        with pytest.raises(ValueError, match="nonnegative"):
            log_cum_window_offsets(fam, 1.0, np.arange(3), -1)


class TestAffinePurePowerCrossCheck:
    def test_cumulative_ratio_converges(self):
        # prod(1 + a/k) / n**a approaches a constant; differences shrink
        a = 1.3
        diffs = [log_cum_window(AFFINE0, a, 0, n) - a * math.log(n)
                 for n in (10**2, 10**4, 10**6)]
        assert abs(diffs[1] - diffs[0]) > abs(diffs[2] - diffs[1])
        assert abs(diffs[2] - diffs[1]) < 1e-3


class TestValidationAndJson:
    def test_a_math_overflow_in_double_range_is_named(self):
        with pytest.raises(ValueError, match=r"^T\^N x at N = 647 overflows the double range$"):
            with weights._in_double_range("T^N x at N = 647"):
                math.exp(647 * math.log(3.0))

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            WeightFamily("affine", None)
        with pytest.raises(ValueError):
            WeightFamily("exp_alpha", 1.5)
        with pytest.raises(ValueError):
            WeightFamily("pure_power", 0.3)
        with pytest.raises(ValueError):
            WeightFamily("unknown")

    def test_family_json_roundtrip(self):
        for fam in FAMILIES:
            assert WeightFamily.from_json_dict(fam.to_json_dict()) == fam

    def test_profile_json_roundtrip(self):
        for prof in (LipschitzProfile("power", 2.0, 0.4), LipschitzProfile("log", 1.5)):
            assert LipschitzProfile.from_json_dict(prof.to_json_dict()) == prof

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            LipschitzProfile("power", 1.0, None)
        with pytest.raises(ValueError):
            LipschitzProfile("log", -1.0)

    @pytest.mark.parametrize("kind,alpha", [("power", 0.5), ("log", None)])
    @pytest.mark.parametrize("D1", [math.nan, math.inf, -math.inf, 0.0])
    def test_profile_scale_must_be_finite_and_positive(self, kind, alpha, D1):
        with pytest.raises(ValueError, match="finite and positive; got D1 = "):
            LipschitzProfile(kind, D1, alpha)

    def test_profile_values(self):
        assert LipschitzProfile("power", 2.0, 0.5)(4) == pytest.approx(4.0)
        assert LipschitzProfile("log", 3.0)(math.e) == pytest.approx(3.0)

"""Tests for the criterion checkers."""

import itertools
import json
import math
import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from shiftlab import criteria, weights
from shiftlab.cli import run
from shiftlab.covering import (
    Cell,
    CheckResult,
    Covering,
    CriterionReport,
    GradedParams,
    build_graded_covering,
)
from shiftlab.criteria import (
    CaracParams,
    UnifParams,
    check_basic_criterion,
    check_carac_conditions,
    check_corollary_hypotheses,
    check_unif_hypotheses,
)
from shiftlab.lognum import logsumexp
from shiftlab.seqspace import L1, SUP, ProductKind, SeqVec, SpaceNorm, basis, norm, power
from shiftlab.weights import (
    LipschitzProfile,
    WeightFamily,
    apply_backward_power,
    apply_forward_root_power,
    log_cum_window,
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

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0])
    def test_eps_must_be_finite_and_nonnegative(self, eps):
        cov, K = single_cell_cov()
        with pytest.raises(ValueError, match="finite and nonnegative; got eps = "):
            check_basic_criterion((AFF0, AFF0), cov, (basis(0), basis(0)),
                                  1, 1, eps=eps, samples_per_axis=1)

    def test_graded_two_dim_instance_passes(self):
        cov, K = graded_instance()
        rep = check_basic_criterion((AFF0, AFF0), cov, (basis(0), basis(0)),
                                    1, 2, eps=0.1, samples_per_axis=3, region=K)
        assert rep.overall, {k: (c.passed, c.achieved) for k, c in rep.conditions.items()}
        assert rep.conditions["III"].evaluations > 0

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

    # per axis: family, anchor (c + step*n), box (lo + step*n, hi + step*n), target
    AXES = ((PP, 1.2, 0.04, 1.18, 1.22, SeqVec({0: 0.9, 1: 0.5})),
            (GEO, 1.1, 0.02, 1.08, 1.12, SeqVec({0: 1.0, 1: 0.3})),
            (WeightFamily.affine(0.4), 1.3, 0.03, 1.27, 1.33, SeqVec({0: 0.7, 1: 0.4})))

    def instance(self, d, powers=(3, 4, 5, 6)):
        # consecutive powers with support {0, 1}: index l = 1 of cell j meets
        # index l = 0 of cell j + 1 in II.a and II.b
        axes = self.AXES[:d]
        cells = [Cell(n, tuple(c + s * n for _, c, s, *_ in axes),
                      tuple((lo + s * n, hi + s * n) for _, _, s, lo, hi, _ in axes))
                 for n in powers]
        return tuple(ax[0] for ax in axes), Covering(tuple(cells)), tuple(ax[5] for ax in axes)

    @pytest.mark.parametrize("space_norm,samples,d,m_lo,m_hi", [
        (L1, 2, 2, 2, 4), (SUP, 2, 2, 2, 4), (SpaceNorm.lp(2), 2, 2, 2, 4),
        (L1, 3, 2, 2, 4), (SUP, 3, 2, 2, 4), (SpaceNorm.lp(2), 3, 2, 2, 4),
        (SUP, 4, 1, 2, 2), (SpaceNorm.lp(2), 2, 3, 1, 3),
    ], ids=["l1", "sup", "lp2", "l1-s3", "sup-s3", "lp2-s3", "sup-d1-s4-m2", "lp2-d3"])
    def test_displays_match_sparse_operators(self, space_norm, samples, d, m_lo, m_hi,
                                             monkeypatch):
        fams, cov, v = self.instance(d)
        calls = []
        windows = criteria.log_cum_windows

        def counted(*args):
            calls.append(args)
            return windows(*args)

        monkeypatch.setattr(criteria, "log_cum_windows", counted)
        rep = check_basic_criterion(fams, cov, v, m_lo, m_hi, eps=0.1,
                                    samples_per_axis=samples, space_norm=space_norm)
        oracle = basic_criterion_oracle(fams, cov, v, m_lo, m_hi, samples, space_norm)
        for name, (achieved, witness) in oracle.items():
            cond = rep.conditions[name]
            assert cond.achieved == pytest.approx(achieved, rel=1e-12), name
            assert cond.witness == witness, name
        q = cov.q
        assert rep.conditions["III"].evaluations == q * samples**d * (m_hi - m_lo)
        # d anchor windows, then two per block of cells and axis: the upper
        # corner for every entry, then the other samples of the own entries
        # (j = i), and the s**d grid points share them.  The 4 cells fit one
        # block.  Then two per axis for the one cell whose II.b value at its
        # upper corner is the largest, evaluated again at every sample point:
        # no other cell's is within _CORNER_SLACK of it.
        assert len(calls) == d + 2 * d + 2 * d
        # cell i's entries are the pairs (j, l) with l + n_j >= n_i
        entries = sum(j.n + l >= i.n for i in cov.cells for j in cov.cells for l in (0, 1))
        assert [len(a[2]) for a in calls[d:3 * d]] == [entries, 2 * q * (samples - 1)] * d

    @pytest.mark.parametrize("cells_per_block", [4, 2, 1])
    @pytest.mark.parametrize("space_norm,samples,d,m_lo,m_hi", [
        (L1, 2, 2, 2, 4), (SUP, 3, 2, 1, 2), (SpaceNorm.lp(2), 2, 3, 1, 3),
    ], ids=["l1", "sup-s3", "lp2-d3"])
    def test_blocks_of_cells_give_default_reports(self, space_norm, samples, d, m_lo, m_hi,
                                                  cells_per_block, monkeypatch):
        fams, cov, v = self.instance(d)
        args = (fams, cov, v, m_lo, m_hi, 0.1, samples, space_norm)
        want = json.dumps(check_basic_criterion(*args).to_json_dict())
        # a block takes cells while their sizes sum to at most _BLOCK; here a
        # cell's size is its s**d * M display values, which is more than its
        # at most q * 2 entries per axis
        size = samples**d * (m_hi - m_lo + 1)
        assert size > cov.q * 2
        monkeypatch.setattr(criteria, "_BLOCK", cells_per_block * size)
        calls = []
        windows = criteria.log_cum_windows
        monkeypatch.setattr(criteria, "log_cum_windows",
                            lambda *a: calls.append(a) or windows(*a))
        assert json.dumps(check_basic_criterion(*args).to_json_dict()) == want
        # d anchor windows, two per block and axis and two per axis for the
        # one cell whose II.b corner value is evaluated again at every sample
        assert len(calls) == d + 2 * d * (cov.q // cells_per_block) + 2 * d

    # axis 0: support {0, 1} on consecutive powers, so keys l + n_j collide
    # (1 + 3 = 0 + 4); axis 1: support {0, 10}, whose keys are all distinct
    MIXED_POWERS = (3, 4, 5, 6, 8)
    MIXED_V = (SeqVec({0: 0.9, 1: 0.5}), SeqVec({0: 1.0, 10: 0.2}))

    def mixed_entries(self, ax, n):
        """The (j, l) pairs of the mixed instance's cell at power n on axis ax."""
        supp = self.MIXED_V[ax].support()
        return sum(l + nj >= n for nj in self.MIXED_POWERS for l in supp)

    @pytest.mark.parametrize("space_norm", [L1, SUP, SpaceNorm.lp(2)], ids=["l1", "sup", "lp2"])
    def test_colliding_and_distinct_keys_match_the_oracle(self, space_norm):
        fams, cov, _ = self.instance(2, self.MIXED_POWERS)
        v = self.MIXED_V
        keys = [[l + n for n in cov.powers for l in x.support()] for x in v]
        assert len(set(keys[0])) < len(keys[0]) and len(set(keys[1])) == len(keys[1])
        rep = check_basic_criterion(fams, cov, v, 1, 2, eps=0.1, samples_per_axis=3,
                                    space_norm=space_norm)
        oracle = basic_criterion_oracle(fams, cov, v, 1, 2, 3, space_norm)
        for name, (achieved, witness) in oracle.items():
            assert rep.conditions[name].achieved == pytest.approx(achieved, rel=1e-12), name
            assert rep.conditions[name].witness == witness, name

    @pytest.mark.parametrize("block,cells", [
        (1, [1, 1, 1, 1, 1]), (18, [1, 2, 2]), (19, [2, 2, 1]), (27, [3, 2])])
    @pytest.mark.parametrize("space_norm", [L1, SUP, SpaceNorm.lp(2)], ids=["l1", "sup", "lp2"])
    def test_uneven_blocks_give_one_block_reports(self, space_norm, block, cells, monkeypatch):
        # s = 2, d = 2 and M = 2: a cell's size is the larger of 8 display
        # values and its most entries on an axis, 10, 9, 8, 8 and 8 here
        fams, cov, v = *self.instance(2, self.MIXED_POWERS)[:2], self.MIXED_V
        args = (fams, cov, v, 1, 2, 0.1, 2, space_norm)
        assert [max(8, *(self.mixed_entries(ax, n) for ax in (0, 1))) for n in cov.powers] == [
            10, 9, 8, 8, 8]
        monkeypatch.setattr(criteria, "_BLOCK", 10**9)
        want = json.dumps(check_basic_criterion(*args).to_json_dict())
        monkeypatch.setattr(criteria, "_BLOCK", block)
        calls = []
        windows = criteria.log_cum_windows
        monkeypatch.setattr(criteria, "log_cum_windows",
                            lambda *a: calls.append(a) or windows(*a))
        assert json.dumps(check_basic_criterion(*args).to_json_dict()) == want
        # after d anchor calls, two per block (then per re-evaluated cell) and
        # axis: the corner holds every entry of its cells, the other one the
        # other sample of some of them
        got = []
        for c in range(2, len(calls), 2):
            (_, _, _, n_corner), (_, _, _, n_rest) = calls[c:c + 2]
            ax, powers = (c // 2 - 1) % 2, sorted(set(n_corner.tolist()))
            assert len(n_corner) == sum(self.mixed_entries(ax, n) for n in powers)
            assert len(n_corner) <= block or len(powers) == 1
            assert len(n_rest) <= len(n_corner)
            got.append(len(powers))
        assert got[:2 * len(cells):2] == got[1:2 * len(cells):2] == cells
        assert set(got[2 * len(cells):]) <= {1}

    @pytest.mark.parametrize("space_norm", [L1, SUP, SpaceNorm.lp(2)], ids=["l1", "sup", "lp2"])
    @pytest.mark.parametrize("flat_axis", ["zero-width", "underflow"])
    def test_samples_that_tie_the_corner_give_the_first_sample(self, flat_axis, space_norm):
        # II.b does not move along axis 1, so every sample there ties the
        # upper corner and the witness is the first one, as in the oracle.
        # zero-width: axis 1's box is a point.  underflow: every axis-1 forward
        # coefficient 2**-n is 0.0 at n >= 1103, so axis 1 adds 0.0 at the
        # distinct sampled lambdas 1.7, 1.75 and 1.8, where 1.8**1106 is a double.
        fams, cov, v = self.instance(2)
        if flat_axis == "zero-width":
            cells = [Cell(c.n, c.anchor, (c.box[0], (c.anchor[1],) * 2)) for c in cov.cells]
        else:
            fams = (fams[0], GEO)
            cells = [Cell(c.n + 1100, (c.anchor[0], 2.0), (c.box[0], (1.7, 1.8)))
                     for c in cov.cells]
        cov = Covering(tuple(cells))
        rep = check_basic_criterion(fams, cov, v, 1, 2, eps=0.1, samples_per_axis=3,
                                    space_norm=space_norm)
        oracle = basic_criterion_oracle(fams, cov, v, 1, 2, 3, space_norm)
        for name, (achieved, witness) in oracle.items():
            assert rep.conditions[name].achieved == pytest.approx(achieved, rel=1e-12), name
            assert rep.conditions[name].witness == witness, name
        witness = rep.conditions["II.b"].witness
        assert witness["lambda"][1] == cov.cells[witness["cell"]].box[1][0]

    def test_benchmark_sized_check_memory_is_blocked(self):
        # the q = 256 log covering of the benchmark's criterion job: 16 x 16
        # cells tiling [1.2, 1.3]^2 with powers 100**2 + 100 * (j + 1)
        side = 0.1 / 16
        cells = [Cell(10_000 + 100 * (j + 1), ((1.2 + (r + 0.5) * side), (1.2 + (c + 0.5) * side)),
                      ((1.2 + r * side, 1.2 + (r + 1) * side),
                       (1.2 + c * side, 1.2 + (c + 1) * side)))
                 for j, (r, c) in enumerate(itertools.product(range(16), repeat=2))]
        args = ((PP, PP), Covering(tuple(cells)), (SeqVec({0: 1.0, 1: 0.5}), SeqVec({0: 1.0})),
                1, 2, 0.2, 3)
        tracemalloc.start()
        try:
            rep = check_basic_criterion(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.conditions["II.b"].evaluations == 256 * 9 * 2
        # blocks of 2**13 entries peak at about 1.1 MiB; all 256 cells at once, 8.3 MiB
        assert peak < 3 * 2**20, peak

    @pytest.mark.parametrize("s", [1, 3, 4])
    def test_sampled_lambdas_have_linspace_bits(self, s, monkeypatch):
        # d = 3: axis 1 has zero-width sides; cell 0's axis-2 side is one
        # subnormal wide, so at s = 4 its step rounds to 0.0 and linspace
        # scales (k / 3) * width instead, giving lo, lo, hi, hi
        sides = [((1.2 + 0.01 * j, 1.21 + 0.01 * j), (1.1, 1.1),
                  (5e-324, 1e-323) if j == 0 else (0.3 + 0.1 * j, 0.35 + 0.1 * j))
                 for j in range(5)]
        cov = Covering(tuple(Cell(10 * (j + 1), tuple(hi for _, hi in box), box)
                             for j, box in enumerate(sides)))
        calls = []
        windows = criteria.log_cum_windows
        monkeypatch.setattr(criteria, "log_cum_windows",
                            lambda *a: calls.append((a[1], a[3])) or windows(*a))
        v = (SeqVec({0: 1.0, 1: 0.5}), basis(0), basis(1))
        check_basic_criterion((PP, PP, PP), cov, v, 1, 2, 0.2, s)
        cell_of = {n: j for j, n in enumerate(cov.powers)}

        def sample(j, ax, k):
            lo, hi = sides[j][ax]
            return cov.cells[j].anchor[ax] if s == 1 else np.linspace(lo, hi, s)[k]

        # d calls at the anchors, then per block or re-evaluated cell, per
        # axis, one call at sample s - 1 and, if s > 1, one more that holds
        # samples 0..s-2 of each of its entries in turn
        d, per = 3, min(s, 2)
        assert len(calls) > d and (len(calls) - d) % (d * per) == 0
        for c, (lam, ns) in enumerate(calls[d:]):
            ax, rest = c // per % d, c % per
            ks = np.arange(len(ns)) % (s - 1) if rest else [s - 1] * len(ns)
            want = [float(sample(cell_of[n], ax, k)).hex() for n, k in zip(ns.tolist(), ks)]
            assert [x.hex() for x in lam.tolist()] == want, (ax, rest)
        assert np.linspace(5e-324, 1e-323, 4).tolist() == [5e-324, 5e-324, 1e-323, 1e-323]

    @pytest.mark.parametrize("family,cells,m_hi", [
        # the forward coefficient 0.5**(-1000) is a double, its square is not
        ("geometric", [{"n": 1000, "anchor": [0.5], "box": [[0.5, 1.5]]}], 2),
        # at the sample lambda = 150 the display window 150*log(1000) exceeds 709
        ("pure_power", [{"n": 1000, "anchor": [110.0], "box": [[100.0, 150.0]]}], 1),
    ], ids=["power", "exp"])
    def test_overflowing_float_op_exits_two(self, family, cells, m_hi, capsys):
        job = {"command": "criterion-check", "payload": {
            "families": [{"variant": family}], "covering": {"cells": cells},
            "v": [{"entries": [[0, 1.0]]}], "m_lo": 1, "m_hi": m_hi, "eps": 0.1,
            "samples_per_axis": 2}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(job) == 2
        assert capsys.readouterr().err.splitlines() == [
            "shiftlab: config error: non-finite coefficient in a criterion display"]

    def test_display_grid_guard_exits_two_before_any_window(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(criteria, "log_cum_windows", lambda *args: calls.append(args))
        # s**d * (m_hi - m_lo + 1) = 50,000,001 display values per cell
        job = {"command": "criterion-check", "payload": {
            "families": [{"variant": "pure_power"}],
            "covering": {"cells": [{"n": 5, "anchor": [1.0], "box": [[1.0, 1.1]]}]},
            "v": [{"entries": [[0, 1.0]]}], "m_lo": 1, "m_hi": 1, "eps": 0.1,
            "samples_per_axis": criteria._MAX_PAIR_GRID + 1}}
        assert run(job) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("shiftlab: config error: samples_per_axis**d * (m_hi - m_lo + 1)")

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

    def test_overflowing_display_coefficient_exits_two(self, capsys):
        # the forward coefficient 0.5**(-1000) is a double; at the sample
        # lambda = 1.5 the display coefficient 3**1000 is not
        cells = [{"n": 1000, "anchor": [0.5], "box": [[0.5, 1.5]]}]
        job = {"command": "criterion-check", "payload": {
            "families": [{"variant": "geometric"}], "covering": {"cells": cells},
            "v": [{"entries": [[0, 1.0]]}], "m_lo": 1, "m_hi": 1, "eps": 0.1,
            "samples_per_axis": 2}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(job) == 2
        assert capsys.readouterr().err.splitlines() == [
            "shiftlab: config error: non-finite coefficient in a criterion display"]

    def test_every_lambda_is_checked_before_any_display(self, capsys):
        # cell 0's display window 2000*log(1.5) overflows exp; cell 1 samples
        # lambda = -0.1.  The inadmissible lambda is reported, wherever its cell.
        cells = [{"n": 2000, "anchor": [1.5], "box": [[1.5, 1.6]]},
                 {"n": 2100, "anchor": [1.0], "box": [[-0.1, 1.0]]}]
        job = {"command": "criterion-check", "payload": {
            "families": [{"variant": "geometric"}], "covering": {"cells": cells},
            "v": [{"entries": [[0, 1.0]]}], "m_lo": 1, "m_hi": 1, "eps": 1.0,
            "samples_per_axis": 2}}
        assert run(job) == 2
        assert capsys.readouterr().err.splitlines() == [
            "shiftlab: config error: parameter -0.1 not admissible for geometric (need lam > 0)"]
        cells[1]["box"] = [[0.9, 1.0]]
        assert run(job) == 2
        assert capsys.readouterr().err.splitlines() == [
            "shiftlab: config error: non-finite coefficient in a criterion display"]

    def test_first_bad_lambda_in_cell_axis_sample_order(self):
        # cell 0 samples -0.2 on axis 1, cell 1 samples -0.3 on axis 0
        cells = (Cell(10, (1.0, 1.0), ((1.0, 1.1), (-0.2, 1.0))),
                 Cell(20, (1.0, 1.0), ((-0.3, 1.0), (1.0, 1.1))))
        with pytest.raises(ValueError, match=r"^parameter -0\.2 not admissible for geometric"):
            check_basic_criterion((PP, GEO), Covering(cells), (basis(0), basis(0)), 1, 1, 1.0, 2)


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
        # 9 grid points: (i) reads each chord point to n_max (the two least for
        # affine, every one for exp_alpha), (iii) reads I0's least point to k_max
        p = unif_exp_alpha_params()
        calls = []
        prefix = weights.log_cum_prefix

        def counted(fam, lam, upto):
            calls.append((lam, upto))
            return prefix(fam, lam, upto)

        monkeypatch.setattr(weights, "log_cum_prefix", counted)
        monkeypatch.setattr(criteria, "log_cum_prefix", counted)
        grid = p.grid().tolist()
        for fam, pts in ((WeightFamily.affine(0.4), grid[:2]),
                         (WeightFamily.exp_alpha(0.4), grid)):
            calls.clear()
            check_unif_hypotheses(fam, p)
            assert calls == [(a, p.n_max) for a in pts] + [(p.I0_lo, p.k_max)]

    def test_memory_is_a_few_floats_per_index(self):
        # one prefix at I0's least point, to k_max, plus arrays of n_max + k_max
        # values; a prefix per grid point to k_max would take 9 of them
        p = unif_exp_alpha_params(N0=50, n_max=59, k_max=200_000)
        tracemalloc.start()
        try:
            check_unif_hypotheses(WeightFamily.affine(0.4), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * (p.n_max + p.k_max)

    @pytest.mark.parametrize("name", ["C1", "C2", "M0", "divergence_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_constants_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"finite and positive; got {name} = "):
            unif_exp_alpha_params(**{name: value})

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


def corollary_oracle(fam, grid, variant, constants, N, n_max):
    """Both corollary bullets from whole prefixes to n_max, all held at once."""
    grid = sorted(grid)
    rows = [weights.log_cum_prefix(fam, a, n_max)[N:] for a in grid]
    ns = np.arange(N, n_max + 1, dtype=np.float64)
    if variant == 1:
        g, c = ns ** constants["alpha"], constants["D3"]
    else:
        g, c = np.log(ns), constants["gamma"]
    lip_bound = constants["D1"] * g
    floor = math.log(constants["D2"]) + c * g
    ratios = weights._max_slope(grid, rows)
    fmin = np.min(rows, axis=0)
    w = int(np.argmax(ratios - lip_bound))
    v = int(np.argmin(fmin - floor))
    return {
        "lipschitz": (bool(ratios[w] - lip_bound[w] <= 0.0), float(ratios[w]),
                      float(lip_bound[w]), {"n": N + w}, len(ns)),
        "growth": (bool(fmin[v] - floor[v] >= 0.0), float(fmin[v]), float(floor[v]),
                   {"n": N + v}, len(grid) * len(ns)),
    }


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
        # the shipped example: 9 grid points, each prefix scan serves both
        # bullets; affine(0) scans the two least, pure_power every point
        ex = json.loads((EXAMPLES / "corollary_check.json").read_text())
        grid = np.linspace(ex["I0"]["lo"], ex["I0"]["hi"], ex["I0"]["points"]).tolist()
        calls, blocks = [], []
        chunks = weights.log_cum_chunks

        def counted(fam, lams, lo, hi):
            calls.append(list(lams))
            for ns, rows in chunks(fam, lams, lo, hi):
                blocks.append(len(rows))
                yield ns, rows

        monkeypatch.setattr(criteria, "log_cum_chunks", counted)
        for fam, pts in ((WeightFamily.from_json_dict(ex["family"]), grid[:2]), (PP, grid)):
            calls.clear()
            blocks.clear()
            rep = check_corollary_hypotheses(
                fam, grid, ex["variant"], ex["constants"], ex["N"], ex["n_max"])
            # one scan, whose every block holds one prefix row per chord point
            assert calls == [pts]
            assert blocks and set(blocks) == {len(pts)}
            assert rep.overall or fam == PP  # pure_power meets D1 * log(n) up to rounding

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

    def test_memory_does_not_grow_with_the_grid(self):
        # affine reads its two least grid points: 33 points peak as 2 do
        # (one block per grid point would add 31 blocks)
        peaks = []
        for points in (2, 33):
            tracemalloc.start()
            try:
                check_corollary_hypotheses(
                    WeightFamily.affine(0.4), np.linspace(1.0, 2.0, points).tolist(), 1,
                    {"D1": 5.0, "D2": 0.5, "D3": 1.0}, N=5, n_max=200_000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 8 * weights._CHUNK / 10

    def test_memory_does_not_grow_with_n_max(self):
        # one block per grid point plus block-sized temporaries, for any n_max
        # and N; whole prefixes to 2e6 would take 9 x 16 MB
        block_bytes = 8 * weights._CHUNK
        for N, n_max in ((5, 2_000_000), (1_000_000, 1_000_010)):
            tracemalloc.start()
            try:
                check_corollary_hypotheses(
                    AFF0, self.GRID_12, 2, {"D1": 1.0, "D2": 1.0, "gamma": 1.0}, N, n_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * len(self.GRID_12) * block_bytes

    @pytest.mark.parametrize("name", ["D1", "D2", "D3", "alpha", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_constants_must_be_finite_and_positive(self, name, value):
        variant = 2 if name == "gamma" else 1
        constants = ({"D1": 1.0, "D2": 1.0, "D3": 1.0, "alpha": 0.5} if variant == 1
                     else {"D1": 1.0, "D2": 1.0, "gamma": 1.0})
        constants[name] = value
        with pytest.raises(ValueError, match=f"finite and positive; got {name} = "):
            check_corollary_hypotheses(PP, self.GRID_12, variant, constants, 5, 100)

    @pytest.mark.parametrize("variant", [1, 2])
    @pytest.mark.parametrize("fam", [
        AFF0, WeightFamily.affine(0.4), PP, WeightFamily.exp_alpha(0.5),
        WeightFamily.power_ratio(), GEO],
        ids=lambda f: f"{f.variant}{'' if f.alpha is None else f.alpha}")
    def test_blocks_match_the_full_prefix(self, fam, variant):
        # scans of block - 1, block, block + 1 and 3 * block + 7 entries, from
        # N in the first block and above it; pure_power meets D1 * log(n) up to
        # rounding, so its worst n lies inside a block
        B = weights._CHUNK
        constants = ({"D1": 1.0, "D2": 1.0, "D3": 0.5, "alpha": 0.5} if variant == 1
                     else {"D1": 1.0, "D2": 1.0, "gamma": 1.0})
        for points, N, span in itertools.product(
                (2, 12), (1, 5, B + 3), (B - 1, B, B + 1, 3 * B + 7)):
            grid = np.linspace(1.0, 2.0, points).tolist()
            n_max = N + span - 1
            rep = check_corollary_hypotheses(fam, grid, variant, constants, N, n_max)
            want = corollary_oracle(fam, grid, variant, constants, N, n_max)
            for name, c in rep.conditions.items():
                got = (c.passed, c.achieved, c.bound, c.witness, c.evaluations)
                assert got == want[name], (name, points, N, n_max)

    @pytest.mark.parametrize("fam", [AFF0, WeightFamily.affine(0.4), WeightFamily.affine(0.9), GEO],
                             ids=lambda f: f"{f.variant}{'' if f.alpha is None else f.alpha}")
    def test_first_chord_matches_every_chord_where_concave(self, fam):
        # the Lipschitz bullet reads the two least grid points of a concave
        # family; from relative width 1e-4 up the report has the bits of every
        # chord.  On narrower grids rounding can outweigh the concavity gap:
        # the ratio at each n is never above the largest chord, so neither is
        # the worst margin (the ratio at the worst n may be, since n can move)
        B = weights._CHUNK
        rng = random.Random(53)
        for _ in range(12):
            variant = rng.choice((1, 2))
            constants = ({"D1": 1.0, "D2": 1.0, "D3": 0.5, "alpha": 0.5} if variant == 1
                         else {"D1": 1.0, "D2": 1.0, "gamma": 1.0})
            points, lo = rng.randint(2, 12), rng.uniform(0.2, 4.0)
            N = rng.choice((rng.randint(1, B), rng.randint(B + 1, 2 * B)))
            n_max = N + rng.randint(0, 2 * B)
            for rel in (10 ** rng.uniform(-4.0, math.log10(30.0)), 10 ** rng.uniform(-12.0, -6.0)):
                grid = np.linspace(lo, lo * (1.0 + rel), points).tolist()
                rep = check_corollary_hypotheses(fam, grid, variant, constants, N, n_max)
                want = corollary_oracle(fam, grid, variant, constants, N, n_max)
                got = {name: (c.passed, c.achieved, c.bound, c.witness, c.evaluations)
                       for name, c in rep.conditions.items()}
                case = (points, lo, rel, variant, N, n_max)
                assert got["growth"] == want["growth"], case
                if rel >= 1e-4:
                    assert got["lipschitz"] == want["lipschitz"], case
                else:
                    (_, a, b, *_), (_, wa, wb, *_) = got["lipschitz"], want["lipschitz"]
                    assert a - b <= wa - wb, case


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

    @pytest.mark.parametrize("name", ["tau", "eps", "c", "C"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_constants_must_be_finite_and_positive(self, name, value):
        fam, sched, p = self.exp_alpha_setup()
        kw = dict(m=p.m, tau=p.tau, N=p.N, eps=p.eps, K=p.K, F=p.F, c=p.c, C=p.C)
        kw[name] = value
        with pytest.raises(ValueError, match=f"finite and positive; got {name} = "):
            CaracParams(**kw)

    def test_c_must_not_exceed_C(self):
        fam, sched, p = self.exp_alpha_setup()
        with pytest.raises(ValueError, match="need 0 < c <= C"):
            CaracParams(m=p.m, tau=p.tau, N=p.N, eps=p.eps, K=p.K, F=p.F, c=3.0, C=2.0)

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

    def test_iii_witness_is_the_first_of_tied_tails(self):
        # geometric windows n*log(lambda) do not depend on the offset l, and
        # both axes share the family and lambda_k, so the tails at each k tie
        # across every (axis, l); the largest is at k = 2, whose n_k*log(lambda_k)
        # exceeds those of the later points
        lams = (1.5, 1.3, 1.25, 1.1, 1.1)
        sched = [(100 * (k + 1), (lam, lam)) for k, lam in enumerate(lams)]
        p = CaracParams(m=2, tau=1.0, N=50, eps=1.0, K=((1.1, 1.5), (1.1, 1.5)),
                        F=LipschitzProfile("power", 1.0, 0.5), c=0.5, C=2.0)
        iii = check_carac_conditions((GEO, GEO), sched, p).conditions["iii"]
        assert iii.witness == {"k": 2, "axis": 0, "l": 0}
        assert iii.witness == carac_tails_scalar((GEO, GEO), sched, p)[1].witness
        last = [log_cum_window(GEO, lams[2], n_j - 300 + p.N, 300)
                - log_cum_window(GEO, lam_j[1], p.N, n_j) for n_j, lam_j in sched[3:]]
        assert scalar_norm_from_logcoeffs(last, L1) == iii.achieved

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

    def test_iii_makes_one_array_call_per_point_and_axis(self, monkeypatch):
        sched, p = self.instance()
        calls, scalar = [], []
        offsets, window = criteria.log_cum_window_offsets, criteria.log_cum_window
        monkeypatch.setattr(criteria, "log_cum_window_offsets",
                            lambda *a: calls.append(a) or offsets(*a))
        monkeypatch.setattr(criteria, "log_cum_window", lambda *a: scalar.append(a) or window(*a))
        rep = check_carac_conditions((AFF0, AFF0), sched, p)
        d, q = 2, self.Q
        # one table per point k and axis, its first column the denominators;
        # (ii) reads those tables and (iii) makes no scalar window call
        assert len(calls) == d * q
        assert len(scalar) == 2 * rep.conditions["H"].evaluations

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


def scalar_norm_from_logcoeffs(logcs, n):
    """The norm of one vector from the logs of its coefficients, value by value."""
    logcs = [c for c in logcs if c != -math.inf]
    if not logcs:
        return 0.0
    if n.kind == "sup":
        return math.exp(max(logcs))
    return math.exp(logsumexp([n.p * c for c in logcs]) / n.p)


def carac_tails_scalar(fams, sched, p):
    """Conditions (ii) and (iii) with one scalar window call per coefficient."""
    q, d = len(sched), len(fams)
    worst_ii = (-math.inf, None)
    for ax in range(d):
        logcs = [-log_cum_window(fams[ax], lam[ax], 0, n_k) / p.m for n_k, lam in sched]
        val = scalar_norm_from_logcoeffs(logcs, p.space_norm)
        if val > worst_ii[0]:
            worst_ii = (val, {"axis": ax})
    ii = CheckResult(worst_ii[0] < p.eps, worst_ii[0], p.eps, witness=worst_ii[1],
                     evaluations=d * q)
    dens = [[None] + [[log_cum_window(fams[ax], lam_j[ax], l, n_j) for l in range(p.N + 1)]
                      for n_j, lam_j in sched[1:]]
            for ax in range(d)]
    worst, evals = (-math.inf, None), 0
    for k in range(q):
        n_k, lam_k = sched[k]
        for ax in range(d):
            for l in range(p.N + 1):
                logcs = [log_cum_window(fams[ax], lam_k[ax], sched[j][0] - n_k + l, n_k)
                         - dens[ax][j][l] for j in range(k + 1, q)]
                evals += 1
                if not logcs:
                    continue
                val = scalar_norm_from_logcoeffs(logcs, p.space_norm)
                if val > worst[0]:
                    worst = (val, {"k": k, "axis": ax, "l": l})
    if worst[0] == -math.inf:
        worst = (0.0, None)
    iii = CheckResult(worst[0] < p.eps, worst[0], p.eps, witness=worst[1], evaluations=evals)
    return ii, iii


@pytest.mark.parametrize("space_norm", [L1, SUP, SpaceNorm.lp(2.5)], ids=["l1", "sup", "lp2.5"])
def test_row_norms_match_scalar_norms(space_norm):
    # -inf entries are zero coefficients; a row of them, or no entries, has
    # norm 0.0; an infinite log gives an infinite norm
    rows = [[0.3, -math.inf, -3.0, 1e-17], [-math.inf] * 4, [math.inf, 1.0, -math.inf, 2.0],
            [-700.0, -701.5, -745.0, -800.0]]
    got = criteria._norm_from_logcoeffs(rows, space_norm)
    assert got == [scalar_norm_from_logcoeffs(r, space_norm) for r in rows]
    assert criteria._norm_from_logcoeffs(np.empty((2, 0)), space_norm) == [0.0, 0.0]


class TestCaracTailsOracle:
    """Whole carac reports against (ii) and (iii) from scalar window calls."""

    # (powers n_k, N, lambda_k on axis 0 at k = 0 and its step); lambda_k on
    # axis 1 is 0.6 + 0.11 k
    SCHEDULES = {
        # distinct lambda_k on each axis, uneven gaps, all in the smallest table
        "small": ([45 * k + 7 * (k % 3) for k in range(1, 9)], 12, 1.1, 0.05),
        # close powers and small lambda_k: the tail terms are of one size, so
        # numpy's exp in place of math.exp moves the lp(2.5) exp_alpha report
        "dense": ([1000 + 3 * k for k in range(12)], 12, 0.05, 0.01),
        # numerator windows end on both sides of 2**12: the scalar reference
        # reads tables of 2**12 and 2**13 entries, the array path one of 2**13
        "2^12": ([1000, 2500, 4050, 4090, 4200], 20, 1.1, 0.05),
        # windows end on both sides of 2**16, past it on the scalar fallback
        "2^16": ([20000, 40000, 65530], 12, 1.1, 0.05),
    }

    @pytest.mark.parametrize("space_norm", [L1, SUP, SpaceNorm.lp(2.5)], ids=["l1", "sup", "lp2.5"])
    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("fams", [
        (AFF0,), (WeightFamily.affine(0.4),), (WeightFamily.exp_alpha(0.5),),
        (AFF0, WeightFamily.affine(0.4)), (WeightFamily.exp_alpha(0.5), AFF0),
    ], ids=["aff0", "aff0.4", "exp0.5", "aff0-aff0.4", "exp0.5-aff0"])
    def test_reports_match_scalar_tails(self, fams, schedule, space_norm):
        ns, N, lam0, step = self.SCHEDULES[schedule]
        lams = [(lam0 + step * k, 0.6 + 0.11 * k) for k in range(len(ns))]
        sched = [(n, lam[:len(fams)]) for n, lam in zip(ns, lams)]
        K = ((1.15, 1.3), (0.7, 0.9))[:len(fams)]
        p = CaracParams(m=2, tau=1.0, N=N, eps=1.0, K=K, F=LipschitzProfile("power", 1.0, 0.5),
                        c=0.5, C=2.0, space_norm=space_norm)
        rep = check_carac_conditions(fams, sched, p)
        ii, iii = carac_tails_scalar(fams, sched, p)
        want = CriterionReport(conditions={**rep.conditions, "ii": ii, "iii": iii},
                               meta=rep.meta)
        assert (json.dumps(rep.to_json_dict(), sort_keys=True)
                == json.dumps(want.to_json_dict(), sort_keys=True))


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


# a shipped example with constants past the double range: (example, {key
# path: value}, the quantity named on stderr)
OVERFLOWS = {
    "unif-C2": ("unif_check", {("params", "C2"): 1e308}, "C2*k**alpha"),
    "unif-F-C1": ("unif_check", {("params", "F", "D1"): 1e307, ("params", "C1"): 1e308},
                  "C1*n**alpha"),
    "unif-C1": ("unif_check", {("params", "C1"): 1e308}, "C1*n**alpha"),
    "unif-growth": ("unif_check", {("params", "C2"): 1e300, ("params", "F", "D1"): 1e10,
                                   ("params", "C1"): 1e11},
                    "C2*k**alpha*F(n + k)/(n + k)**alpha"),
    "corollary-gamma": ("corollary_check", {("constants", "gamma"): 1e308},
                        "log(D2) + gamma*log(n)"),
    "corollary-alpha": ("corollary_check", {("variant",): 1, ("constants",): {
        "D1": 1.0, "D2": 1.0, "D3": 1.0, "alpha": 1000.0}}, "n**alpha"),
    "corollary-D1": ("corollary_check", {("constants", "D1"): 1e308}, "D1*log(n)"),
    "carac-F": ("carac_check", {("params", "F", "D1"): 1e308}, "F(n) = D1*n**alpha"),
}


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_a_constant_past_the_double_range_is_named(case, capsys):
    name, edits, what = OVERFLOWS[case]
    payload = json.loads((EXAMPLES / f"{name}.json").read_text())
    for (*keys, last), value in edits.items():
        obj = payload
        for key in keys:
            obj = obj[key]
        obj[last] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run({"command": name.replace("_", "-"), "payload": payload}) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"shiftlab: config error: {what} overflows the double range\n")

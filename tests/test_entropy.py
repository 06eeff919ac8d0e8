import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import make_prices, make_returns, make_symbols, pair_te, symbol_panel
from oracles import te_bruteforce, te_log2_exponents

from infoflow import entropy
from infoflow.entropy import dai_matrix, te_matrix
from infoflow.network import build_network
from infoflow.symbolize import encode, make_partition
from infoflow.synth import generate_coupled_binary
from infoflow.timeseries import returns_panel

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def effective_transfer_entropy(*args, **kwargs):
    """The surrogate-corrected estimate, which lives in demo 01."""
    spec = importlib.util.spec_from_file_location(
        "estimator_calibration", DEMOS / "01_estimator_calibration.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo.effective_transfer_entropy(*args, **kwargs)


def random_symbol_pair(rng, max_len=12, max_q=3, min_len=2):
    q = int(rng.integers(2, max_q + 1))
    n = int(rng.integers(min_len, max_len + 1))
    a = rng.integers(1, q + 1, size=n)
    b = rng.integers(1, q + 1, size=n)
    return make_symbols(a, q, "900001"), make_symbols(b, q, "900002"), q


class TestTransferEntropy:
    """A pair's estimate: te[0, 1] of its 2-row panel (source, then target)."""

    def test_self_transfer_is_zero(self, rng):
        for _ in range(10):
            x, _, _ = random_symbol_pair(rng, max_len=40, max_q=4)
            assert abs(pair_te(x, x)) < 1e-12

    def test_deterministic_copy_near_one_bit(self):
        te = te_matrix(generate_coupled_binary(1.0, 100_000, seed=5)).te
        assert 0.97 <= te[0, 1] <= 1.0
        # Asymmetry: the reverse direction carries almost nothing.
        assert te[1, 0] < 0.03

    def test_independent_streams_near_zero(self):
        assert te_matrix(generate_coupled_binary(0.0, 100_000, seed=11)).te[0, 1] < 0.001

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(200):
            src, tgt, q = random_symbol_pair(rng)
            got = pair_te(src, tgt)
            want = te_bruteforce(src[0].tolist(), tgt[0].tolist(), q)
            assert got == pytest.approx(want, abs=1e-12)

    def test_nonnegative_and_bounded(self, rng):
        for _ in range(300):
            src, tgt, q = random_symbol_pair(rng, max_len=25, max_q=5)
            te = pair_te(src, tgt)
            assert te >= -1e-12
            assert te <= math.log2(q) + 1e-12

    def test_misaligned_dates_rejected(self):
        from datetime import date

        # te_matrix takes one panel; the panel's one alignment check is here.
        a = make_prices([1.0, 2.0, 1.5], "900001")
        b = make_prices([1.0, 2.0, 1.5], "900002", start=date(2001, 1, 1))
        with pytest.raises(ValueError, match="aligned"):
            returns_panel([a, b])

    def test_length_mismatch_rejected(self):
        # A shorter price series fails the panel's one alignment check.
        a = make_prices([1.0, 2.0, 1.5], "900001")
        b = make_prices([1.0, 2.0], "900002")
        with pytest.raises(ValueError, match="aligned"):
            returns_panel([a, b])

    def test_effective_te_reduces_copy_bias(self):
        pair = generate_coupled_binary(0.0, 2_000, seed=3)
        raw = te_matrix(pair).te[0, 1]
        eff = effective_transfer_entropy(pair, n_surrogates=50, seed=0)
        assert abs(eff) < raw  # surrogate mean removes most of the plug-in bias

    def test_effective_te_matches_a_loop_over_surrogates(self):
        pair = generate_coupled_binary(0.3, 500, seed=4)
        target = make_symbols(pair[1], 2, "900002")
        rng = np.random.default_rng(9)
        shuffled = pair[0].copy()
        surrogates = []
        for _ in range(20):
            rng.shuffle(shuffled)
            surrogates.append(pair_te(make_symbols(shuffled, 2, "900001"), target))
        want = te_matrix(pair).te[0, 1] - math.fsum(surrogates) / len(surrogates)
        got = effective_transfer_entropy(pair, n_surrogates=20, seed=9)
        assert got == pytest.approx(want, abs=1e-12)


class TestTeMatrix:
    def test_pairwise_consistency(self, rng):
        a, b, q = random_symbol_pair(rng, max_len=40)
        m = te_matrix(symbol_panel([a, b]))
        swapped = te_matrix(symbol_panel([b, a]))
        assert m.te[0, 1] == swapped.te[1, 0]
        assert m.te[1, 0] == swapped.te[0, 1]
        assert m.te[0, 0] == 0.0 and m.te[1, 1] == 0.0

    @pytest.mark.parametrize("length", [60, 3000])
    def test_every_entry_equals_its_single_pair_value(self, rng, length):
        # Series use different sub-alphabets, so each source's block of count
        # rows differs in width and position from one call to the other.
        series = []
        for k in range(6):
            lo = int(rng.integers(1, 4))
            vals = rng.integers(lo, lo + int(rng.integers(2, 6)), size=length)
            series.append(make_symbols(vals, 8, f"90000{k + 1}"))
        m = te_matrix(symbol_panel(series))
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert m.te[i, j] == pair_te(series[i], series[j])

    @pytest.mark.parametrize("n, length", [(30, 101), (4, 20001)])
    def test_entries_equal_pair_values_across_target_blocks(self, rng, n, length):
        # The matrix kernel counts its targets in blocks; these panels need
        # more than one block, of several targets (30 x 101) or of one.
        assert n * n * (length - 1) > entropy._BLOCK_CELLS
        rows = [rng.integers(1, 5, size=length)]
        for k in range(1, n):
            row = rng.integers(1, int(rng.integers(3, 6)), size=length)
            copy = rng.random(length) < 0.5  # half the time, a lagged copy
            row[1:][copy[1:]] = rows[int(rng.integers(k))][:-1][copy[1:]]
            rows.append(row)
        series = [make_symbols(row, 5, f"{900001 + k}") for k, row in enumerate(rows)]
        m = te_matrix(symbol_panel(series))
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert m.te[i, j] == pair_te(series[i], series[j])

    @pytest.mark.parametrize("length", [260, 4400])
    def test_matches_bruteforce_oracle_at_panel_size(self, rng, length):
        q = 15
        returns = [make_returns(rng.standard_t(3, size=length), f"{900001 + k}")
                   for k in range(28)]
        series = [encode(r, make_partition(r, q)) for r in returns]
        m = te_matrix(symbol_panel(series))
        for _ in range(20):
            i, j = rng.choice(28, size=2, replace=False)
            want = te_bruteforce(series[i][0].tolist(), series[j][0].tolist(), q)
            assert m.te[i, j] == pytest.approx(want, abs=1e-12)


class TestDaiMatrix:
    def test_sign_rule(self):
        a = make_symbols([1, 2, 1, 2, 2, 1], 2, "900001")
        b = make_symbols([2, 1, 2, 2, 1, 1], 2, "900002")
        m = te_matrix(symbol_panel([a, b]))
        d = dai_matrix(m)
        assert d.dai[0, 1] == m.te[0, 1] - m.te[1, 0]
        assert d.dai[1, 0] == -d.dai[0, 1]

    def test_antisymmetric_exactly(self, rng):
        series = [
            make_symbols(rng.integers(1, 4, size=150), 3, f"90000{k + 1}")
            for k in range(5)
        ]
        d = dai_matrix(te_matrix(symbol_panel(series)))
        assert np.array_equal(d.dai, -d.dai.T)
        assert np.all(np.diag(d.dai) == 0.0)

    def test_symmetric_te_gives_zero_dai(self):
        from infoflow.entropy import TeMatrix
        from infoflow.timeseries import SectorMeta

        sectors = (SectorMeta("900001"), SectorMeta("900002"))
        te = TeMatrix(sectors, np.array([[0.0, 0.3], [0.3, 0.0]]))
        d = dai_matrix(te)
        assert np.all(d.dai == 0.0)

    def test_zeros_and_ties_are_exact(self, rng):
        # Short windows, where many estimates are exactly zero or exactly
        # equal both ways; rounding must neither hide nor invent either.
        for _ in range(40):
            series = [
                make_symbols(rng.integers(1, 4, size=12), 3, f"90000{k + 1}")
                for k in range(6)
            ]
            m = te_matrix(symbol_panel(series))
            d = dai_matrix(m)
            symbols = [s[0].tolist() for s in series]
            exact = {
                (i, j): te_log2_exponents(symbols[i], symbols[j])
                for i in range(6) for j in range(6) if i != j
            }
            for (i, j), exponents in exact.items():
                assert (m.te[i, j] == 0.0) == (not exponents)
                assert (d.dai[i, j] == 0.0) == (exponents == exact[j, i])

    def test_identical_sectors_tie_exactly(self, rng):
        vals = [rng.integers(1, 6, size=260) for _ in range(5)]
        vals.append(vals[1].copy())
        series = [make_symbols(v, 5, f"90000{k + 1}") for k, v in enumerate(vals)]
        d = dai_matrix(te_matrix(symbol_panel(series)))
        assert d.dai[1, 5] == 0.0 and d.dai[5, 1] == 0.0
        with pytest.warns(UserWarning, match="tied pair"):
            net = build_network(d)
        assert (1, 5) in net.ties

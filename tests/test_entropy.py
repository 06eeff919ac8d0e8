import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import make_prices, make_returns, pair_te
from oracles import te_bruteforce, te_log2_exponents

from infoflow import entropy
from infoflow.entropy import dai_matrix, te_matrix
from infoflow.network import build_network
from infoflow.symbolize import encode, make_partition
from infoflow.synth import generate_coupled_binary
from infoflow.timeseries import SectorMeta, returns_panel

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
    return a, b, q


class TestTransferEntropy:
    """A pair's estimate: te[0, 1] of its 2-row matrix (source, then target)."""

    def test_self_transfer_is_zero(self, rng):
        for _ in range(10):
            x, _, _ = random_symbol_pair(rng, max_len=40, max_q=4)
            assert abs(pair_te(x, x)) < 1e-12

    def test_deterministic_copy_near_one_bit(self):
        te = te_matrix(generate_coupled_binary(1.0, 100_000, seed=5))
        assert 0.97 <= te[0, 1] <= 1.0
        # Asymmetry: the reverse direction carries almost nothing.
        assert te[1, 0] < 0.03

    def test_independent_streams_near_zero(self):
        assert te_matrix(generate_coupled_binary(0.0, 100_000, seed=11))[0, 1] < 0.001

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(200):
            src, tgt, q = random_symbol_pair(rng)
            got = pair_te(src, tgt)
            want = te_bruteforce(src.tolist(), tgt.tolist(), q)
            assert got == pytest.approx(want, abs=1e-12)

    def test_nonnegative_and_bounded(self, rng):
        for _ in range(300):
            src, tgt, q = random_symbol_pair(rng, max_len=25, max_q=5)
            te = pair_te(src, tgt)
            assert te >= -1e-12
            assert te <= math.log2(q) + 1e-12

    def test_misaligned_dates_rejected(self):
        from datetime import date

        # te_matrix takes one symbol matrix, encoded from one panel; the
        # panel's one alignment check is here.
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
        raw = te_matrix(pair)[0, 1]
        eff = effective_transfer_entropy(pair, n_surrogates=50, seed=0)
        assert abs(eff) < raw  # surrogate mean removes most of the plug-in bias

    def test_effective_te_matches_a_loop_over_surrogates(self):
        pair = generate_coupled_binary(0.3, 500, seed=4)
        rng = np.random.default_rng(9)
        shuffled = pair[0].copy()
        surrogates = []
        for _ in range(20):
            rng.shuffle(shuffled)
            surrogates.append(pair_te(shuffled, pair[1]))
        want = te_matrix(pair)[0, 1] - math.fsum(surrogates) / len(surrogates)
        got = effective_transfer_entropy(pair, n_surrogates=20, seed=9)
        assert got == pytest.approx(want, abs=1e-12)


class TestTeMatrix:
    def test_pairwise_consistency(self, rng):
        a, b, q = random_symbol_pair(rng, max_len=40)
        m = te_matrix(np.stack([a, b]))
        swapped = te_matrix(np.stack([b, a]))
        assert m[0, 1] == swapped[1, 0]
        assert m[1, 0] == swapped[0, 1]
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0

    @pytest.mark.parametrize("length", [60, 3000])
    def test_every_entry_equals_its_single_pair_value(self, rng, length):
        # Series use different sub-alphabets, so each source's block of count
        # rows differs in width and position from one call to the other, and
        # a pair's alphabet is smaller than the whole matrix's.
        series = []
        for k in range(6):
            lo = int(rng.integers(1, 4))
            series.append(rng.integers(lo, lo + int(rng.integers(2, 6)), size=length))
        m = te_matrix(np.stack(series))
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert m[i, j] == pair_te(series[i], series[j])

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
        m = te_matrix(np.stack(rows))
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert m[i, j] == pair_te(rows[i], rows[j])

    @pytest.mark.parametrize("length", [260, 4400])
    def test_matches_bruteforce_oracle_at_panel_size(self, rng, length):
        q = 15
        returns = [make_returns(rng.standard_t(3, size=length), f"{900001 + k}")
                   for k in range(28)]
        symbols = np.concatenate([encode(r, make_partition(r, q)) for r in returns])
        m = te_matrix(symbols)
        for _ in range(20):
            i, j = rng.choice(28, size=2, replace=False)
            want = te_bruteforce(symbols[i].tolist(), symbols[j].tolist(), q)
            assert m[i, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("symbols, message", [
        ([1, 2, 1], "symbols must be an n x L matrix"),
        ([[1, 2, 1]], "need at least 2 sectors"),
        ([[1], [2]], "need at least 2 aligned samples"),
        ([[1, 2, 1], [2, 0, 1]], "symbol below 1"),
        ([[1, 2, 4097], [2, 1, 1]], "alphabet of 4097 symbols is too large for 2 sectors"),
    ])
    def test_refuses_malformed_symbols(self, symbols, message):
        with pytest.raises(ValueError, match=message):
            te_matrix(symbols)

    def test_alphabet_limit_is_inclusive(self, monkeypatch):
        # n * u^2 cells at the limit are counted; one more symbol is refused.
        monkeypatch.setattr(entropy, "_MAX_COUNT_CELLS", 2 * 5**2)
        assert te_matrix([[1, 5, 1, 2], [2, 1, 5, 1]]).shape == (2, 2)
        with pytest.raises(ValueError, match="6 symbols is too large for 2 sectors"):
            te_matrix([[1, 6, 1, 2], [2, 1, 6, 1]])


class TestDaiMatrix:
    def test_sign_rule(self):
        m = te_matrix([[1, 2, 1, 2, 2, 1], [2, 1, 2, 2, 1, 1]])
        d = dai_matrix(m)
        assert d[0, 1] == m[0, 1] - m[1, 0]
        assert d[1, 0] == -d[0, 1]

    def test_antisymmetric_exactly(self, rng):
        d = dai_matrix(te_matrix(np.stack([rng.integers(1, 4, size=150) for _ in range(5)])))
        assert np.array_equal(d, -d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_symmetric_te_gives_zero_dai(self):
        d = dai_matrix(np.array([[0.0, 0.3], [0.3, 0.0]]))
        assert np.all(d == 0.0)

    def test_zeros_and_ties_are_exact(self, rng):
        # Short windows, where many estimates are exactly zero or exactly
        # equal both ways; rounding must neither hide nor invent either.
        for _ in range(40):
            symbols = np.stack([rng.integers(1, 4, size=12) for _ in range(6)])
            m = te_matrix(symbols)
            d = dai_matrix(m)
            symbols = symbols.tolist()
            exact = {
                (i, j): te_log2_exponents(symbols[i], symbols[j])
                for i in range(6) for j in range(6) if i != j
            }
            for (i, j), exponents in exact.items():
                assert (m[i, j] == 0.0) == (not exponents)
                assert (d[i, j] == 0.0) == (exponents == exact[j, i])

    def test_identical_sectors_tie_exactly(self, rng):
        vals = [rng.integers(1, 6, size=260) for _ in range(5)]
        vals.append(vals[1].copy())
        d = dai_matrix(te_matrix(np.stack(vals)))
        assert d[1, 5] == 0.0 and d[5, 1] == 0.0
        sectors = tuple(SectorMeta(f"90000{k + 1}") for k in range(6))
        with pytest.warns(UserWarning, match="tied pair"):
            net = build_network(sectors, d)
        assert (1, 5) in net.ties

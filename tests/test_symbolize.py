import numpy as np
import pytest

from conftest import make_returns

from infoflow.symbolize import encode, make_partition


def symbolize(r, q):
    """Encode the 1-row panel ``r`` against its own range."""
    return encode(r, make_partition(r, q))


class TestMakePartition:
    def test_unit_range_two_bins(self):
        p = make_partition(make_returns([0.0, 0.3, 1.0]), q=2)
        assert p.x_min == 0.0 and p.x_max == 1.0
        assert p.width == 0.5

    def test_price_limit_range_fifteen_bins(self):
        # +-10% daily moves with q=15, the default working configuration.
        p = make_partition(make_returns([-0.1, 0.02, 0.1]), q=15)
        assert p.width == pytest.approx(0.2 / 15, abs=1e-15)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            make_partition(make_returns([0.5, 0.5, 0.5]), q=4)

    def test_range_too_narrow_for_q_bins_rejected(self):
        # A subnormal range over q underflows to a zero bin width.
        with pytest.raises(ValueError, match="too narrow"):
            make_partition(make_returns([0.0, 5e-324]), q=2)

    def test_q_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="q must be"):
            make_partition(make_returns([0.0, 1.0]), q=1)


class TestEncode:
    def test_boundary_convention(self):
        # Interior bins are half-open; the maximum clamps into the top bin.
        r = make_returns([0.0, 0.5, 1.0])
        symbols = encode(r, make_partition(r, q=2))[0]
        np.testing.assert_array_equal(symbols, [1, 2, 2])

    def test_floor_formula_hand_case(self):
        # width 0.25: 0 -> bin1, 0.24 -> bin1, 0.26 -> bin2, 1.0 -> bin4.
        r = make_returns([0.0, 0.24, 0.26, 1.0])
        symbols = encode(r, make_partition(r, q=4))[0]
        np.testing.assert_array_equal(symbols, [1, 1, 2, 4])

    def test_value_outside_partition(self):
        r = make_returns([0.0, 0.5, 1.0])
        p = make_partition(make_returns([0.0, 0.5]), q=2)
        with pytest.raises(ValueError, match="outside"):
            encode(r, p)

    def test_superset_partition_allowed(self):
        r = make_returns([0.2, 0.4])
        p = make_partition(make_returns([0.0, 1.0]), q=5)
        symbols = encode(r, p)[0]
        np.testing.assert_array_equal(symbols, [2, 3])

    def test_midpoint_decode_error_below_width(self, rng):
        values = rng.uniform(-0.1, 0.1, 300)
        r = make_returns(values)
        p = make_partition(r, q=15)
        s = encode(r, p)
        decoded = p.x_min + (s[0] - 0.5) * p.width
        assert np.max(np.abs(decoded - values)) < p.width


class TestProperties:
    def test_monotone(self, rng):
        values = rng.uniform(-1, 1, 500)
        r = make_returns(values)
        s = symbolize(r, q=7)
        order = np.argsort(values)
        assert np.all(np.diff(s[0][order]) >= 0)

    def test_affine_invariance(self, rng):
        values = rng.uniform(-0.1, 0.1, 400)
        base = symbolize(make_returns(values), q=10)
        scaled = symbolize(make_returns(3.5 * values + 0.02), q=10)
        np.testing.assert_array_equal(base, scaled)

    def test_histogram_mass(self, rng):
        values = rng.uniform(-1, 1, 321)
        s = symbolize(make_returns(values), q=6)
        hist = np.bincount(s[0], minlength=7)
        assert hist.sum() == len(values)
        assert hist[0] == 0  # symbols start at 1

    def test_extremes_land_in_end_bins(self, rng):
        for q in (2, 10, 15, 20):
            values = rng.uniform(-0.1, 0.1, 250)
            s = symbolize(make_returns(values), q=q)
            assert s.min() == 1
            assert s.max() == q
            assert s[0][np.argmin(values)] == 1
            assert s[0][np.argmax(values)] == q

import numpy as np
import pytest

from infoflow.entropy import te_matrix
from infoflow.synth import (
    Coupling,
    Segment,
    SyntheticDataset,
    analytic_te_coupled_binary,
    dataset_to_csv,
    demo_dataset,
    generate_coupled_binary,
    generate_dataset,
)
from infoflow.timeseries import load_dataset


class TestCoupledBinary:
    def test_full_coupling_copies_previous_symbol(self):
        y, x = generate_coupled_binary(1.0, 500, seed=0)  # source, target
        np.testing.assert_array_equal(x[1:], y[:-1])

    def test_zero_coupling_is_independent_draws(self):
        y, x = generate_coupled_binary(0.0, 50_000, seed=1)
        # Agreement rate with the lagged source should sit near chance.
        agree = np.mean(x[1:] == y[:-1])
        assert abs(agree - 0.5) < 0.02

    def test_seed_determinism(self):
        a = generate_coupled_binary(0.5, 1000, seed=42)
        b = generate_coupled_binary(0.5, 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_coupled_binary(0.5, 1000, seed=1)
        b = generate_coupled_binary(0.5, 1000, seed=2)
        assert not np.array_equal(a[1], b[1])

    def test_invalid_coupling(self):
        with pytest.raises(ValueError, match=r"coupling must lie in \[0, 1\]"):
            generate_coupled_binary(1.5, 100, seed=0)

    def test_invalid_length(self):
        with pytest.raises(ValueError, match="length must be at least 2"):
            generate_coupled_binary(0.5, 1, seed=0)


class TestAnalyticTe:
    def test_endpoints(self):
        assert analytic_te_coupled_binary(0.0) == 0.0
        assert analytic_te_coupled_binary(1.0) == 1.0

    def test_half_coupling_closed_form(self):
        # 1 - H2(0.75) evaluated by hand.
        assert analytic_te_coupled_binary(0.5) == pytest.approx(0.1887218755408671, abs=1e-12)

    def test_estimator_converges_to_analytic(self):
        for c in (0.0, 0.25, 0.5, 0.75, 1.0):
            pair = generate_coupled_binary(c, 100_000, seed=int(c * 100) + 7)
            estimate = te_matrix(pair)[0, 1]
            assert abs(estimate - analytic_te_coupled_binary(c)) < 0.01


class TestGenerateDataset:
    def star_spec(self, length=20_000, c=0.8, seed=0, n=6):
        couplings = tuple(Coupling(0, t, c) for t in range(1, n))
        return SyntheticDataset(
            n_sectors=n, segments=(Segment(length, couplings),), seed=seed
        )

    def test_deterministic_per_seed(self):
        a = generate_dataset(self.star_spec(length=500))
        b = generate_dataset(self.star_spec(length=500))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.closes, pb.closes)
            np.testing.assert_array_equal(pa.dates, pb.dates)

    def test_prices_positive_and_aligned(self):
        series = generate_dataset(self.star_spec(length=300))
        dates = series[0].dates
        for s in series:
            assert np.all(s.closes > 0)
            np.testing.assert_array_equal(s.dates, dates)
            assert len(s) == 301

    def test_planted_star_recovered_as_root(self):
        from infoflow.analysis import msas_from_returns
        from infoflow.timeseries import returns_panel

        hits = 0
        for seed in range(5):
            series = generate_dataset(self.star_spec(length=20_000, seed=seed))
            tree = msas_from_returns(returns_panel(series), q=15).trees["outgoing"]
            root = tree.sectors[tree.root]
            hits += root.code == series[0].sector.code
        assert hits >= 4

    def test_zero_coupling_te_floor(self):
        from infoflow.symbolize import encode, make_partition
        from infoflow.timeseries import returns_panel

        spec = SyntheticDataset(
            n_sectors=3, segments=(Segment(50_000, ()),), seed=9
        )
        series = generate_dataset(spec)
        panel = returns_panel(series)
        m = te_matrix(encode(panel, make_partition(panel, q=2)))
        off_diag = m[~np.eye(3, dtype=bool)]
        assert np.all(off_diag < 0.002)

    def test_cyclic_couplings_rejected(self):
        with pytest.raises(ValueError, match="acyclic"):
            generate_dataset(SyntheticDataset(
                n_sectors=2,
                segments=(Segment(10, (Coupling(0, 1, 0.5), Coupling(1, 0, 0.5))),),
                seed=0,
            ))

    def test_csv_roundtrip_through_loader(self, tmp_path):
        series = generate_dataset(self.star_spec(length=50))
        path = tmp_path / "synth.csv"
        path.write_text(dataset_to_csv(series), encoding="utf-8")
        loaded = load_dataset(path)
        assert [s.sector.code for s in loaded] == [s.sector.code for s in series]
        for got, want in zip(loaded, series):
            np.testing.assert_array_equal(got.closes, want.closes)
            np.testing.assert_array_equal(got.dates, want.dates)


class TestDemoDataset:
    def test_shape_and_span(self):
        series = demo_dataset()
        assert len(series) == 28
        assert len(series[0]) == 1096
        years = {d.year for d in series[0].dates[1:].tolist()}
        assert years == {2001, 2002, 2003}

    def test_bit_identical_across_calls(self):
        a = demo_dataset()
        b = demo_dataset()
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.closes, pb.closes)

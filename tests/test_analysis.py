from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import turmoil_dataset
from oracles import pearson_mpmath

from infoflow.analysis import (
    degree_heatmap,
    msas_from_returns,
    pearson,
    render_degree_heatmap_csv,
    render_root_occurrences_csv,
    render_specificity_csv,
    render_turmoil_csv,
    render_yearly_csv,
    root_occurrences,
    specificity_study,
    turmoil_study,
    yearly_reports,
)
from infoflow.arborescence import degrees, maximal_information_flow_path
from infoflow.network import InfoFlowNetwork
from infoflow.synth import Coupling, Segment, SyntheticDataset, generate_dataset
from infoflow.timeseries import PriceSeries, SectorMeta, returns_panel


def hub_panel(n=6, years=3, coupling=0.75, seed=4):
    """Small multi-year panel with a persistent hub at sector 0."""
    star = tuple(Coupling(0, t, coupling) for t in range(1, n))
    spec = SyntheticDataset(
        n_sectors=n,
        segments=(Segment(365 * years, star),),
        seed=seed,
        start=date(2000, 12, 31),
    )
    return generate_dataset(spec)


class TestWholeSample:
    def test_two_sector_dataset(self):
        spec = SyntheticDataset(
            n_sectors=2,
            segments=(Segment(400, (Coupling(0, 1, 0.9),)),),
            seed=1,
        )
        w = msas_from_returns(returns_panel(generate_dataset(spec)), q=5)
        assert len(w.trees["outgoing"].edges) == 1
        assert len(w.trees["incoming"].edges) == 1
        assert w.paths["outgoing"].length == 2

    def test_bundle_paths_belong_to_trees(self):
        w = msas_from_returns(returns_panel(hub_panel()), q=10)
        for orientation in ("outgoing", "incoming"):
            arb = w.trees[orientation]
            path = w.paths[orientation]
            recomputed = maximal_information_flow_path(arb)
            assert recomputed.codes == path.codes
            assert recomputed.total_weight == path.total_weight

    def test_only_requested_orientations_are_solved(self, monkeypatch):
        # A -> C and B -> C: no root reaches every sector along the edges, but
        # every sector reaches C, so only the incoming tree exists.
        sectors = tuple(SectorMeta(code) for code in ("900001", "900002", "900003"))
        net = InfoFlowNetwork(sectors, ((0, 2, 0.5), (1, 2, 0.25)))
        monkeypatch.setattr("infoflow.analysis.build_network", lambda sectors, dai: net)
        returns = returns_panel(hub_panel(n=3, years=1))
        w = msas_from_returns(returns, q=5, orientations=("incoming",))
        assert list(w.trees) == list(w.paths) == ["incoming"]
        assert w.trees["incoming"].root_sector.code == "900003"
        assert w.interval == (returns.dates[0], returns.dates[-1])
        with pytest.raises(ValueError, match="no root reaches all nodes"):
            msas_from_returns(returns, q=5)

    @pytest.mark.parametrize("codes, edges, sector", [
        # Sectors 900005 and 900004 have no edge; the first by code is named.
        (("900005", "900001", "900004", "900002"), ((1, 3, 0.5),), "sector 900004, "),
        # Two components: every sector has an edge, so none is named.
        (("900001", "900002", "900003", "900004"), ((0, 1, 0.5), (2, 3, 0.25)), ""),
    ])
    def test_no_root_refusal_names_a_sector_left_without_edges(self, monkeypatch, codes,
                                                               edges, sector):
        net = InfoFlowNetwork(tuple(SectorMeta(code) for code in codes), edges)
        monkeypatch.setattr("infoflow.analysis.build_network", lambda sectors, dai: net)
        returns = returns_panel(hub_panel(n=4, years=1))
        with pytest.raises(ValueError) as excinfo:
            msas_from_returns(returns, q=5, orientations=("incoming",))
        assert str(excinfo.value) == (f"{sector}whole sample ({len(returns.dates)} trading "
                                      "days, 0 tied pairs): no root reaches all nodes")

    def test_orientations_keep_their_order(self):
        w = msas_from_returns(returns_panel(hub_panel(years=1)), q=10,
                              orientations=("incoming", "outgoing"))
        assert list(w.trees) == list(w.paths) == ["outgoing", "incoming"]
        with pytest.raises(ValueError, match="orientations"):
            msas_from_returns(returns_panel(hub_panel(years=1)), q=10, orientations=("in",))


class TestYearlyReports:
    def test_one_report_per_year_per_orientation(self):
        returns = returns_panel(hub_panel(years=3))
        windows = yearly_reports(returns, q=10)
        assert [w.label for w in windows] == ["2001", "2002", "2003"]
        for w in windows:
            # The interval is the year's first and last trading day.
            year = [d for d in returns.dates if d.year == int(w.label)]
            assert w.interval == (year[0], year[-1])
            for orientation in ("outgoing", "incoming"):
                assert w.trees[orientation].orientation == orientation
                assert w.paths[orientation].total_weight > 0

    def test_short_year_skipped_with_warning(self):
        # 365 + 10 returns: the second calendar year has only 10 trading days.
        spec = SyntheticDataset(
            n_sectors=3,
            segments=(Segment(375, ()),),
            seed=2,
            start=date(2000, 12, 31),
        )
        with pytest.warns(UserWarning, match="skipping year 2002"):
            windows = yearly_reports(returns_panel(generate_dataset(spec)), q=5)
        assert [w.label for w in windows] == ["2001"]

    def test_paths_revalidate_against_trees(self):
        for w in yearly_reports(returns_panel(hub_panel(years=2)), q=10):
            for orientation in ("outgoing", "incoming"):
                again = maximal_information_flow_path(w.trees[orientation])
                assert again == w.paths[orientation]

    def test_global_partition_mode_runs(self):
        dataset = hub_panel(years=2)
        local = yearly_reports(returns_panel(dataset), q=10)
        shared = yearly_reports(returns_panel(dataset), q=10, global_partition=True)
        assert [w.interval for w in shared] == [w.interval for w in local]


class TestRootOccurrences:
    def test_counts_sum_to_reports(self):
        windows = yearly_reports(returns_panel(hub_panel(years=3)), q=10)
        for orientation in ("outgoing", "incoming"):
            counts = root_occurrences(windows, orientation)
            assert sum(counts.values()) == len(windows)

    def test_single_report(self):
        windows = yearly_reports(returns_panel(hub_panel(years=1)), q=10)
        for orientation in ("outgoing", "incoming"):
            root = windows[0].trees[orientation].root_sector.code
            assert root_occurrences(windows, orientation) == {root: 1}

    def test_persistent_hub_dominates(self):
        dataset = hub_panel(years=3, coupling=0.85)
        windows = yearly_reports(returns_panel(dataset), q=10)
        counts = root_occurrences(windows, "outgoing")
        assert counts.get(dataset[0].sector.code, 0) == 3


class TestDegreeHeatmap:
    def test_rows_sum_to_tree_degree_total(self):
        windows = yearly_reports(returns_panel(hub_panel(n=6, years=3)), q=10)
        total = degree_heatmap(windows, "outgoing")
        assert [w.label for w in windows] == ["2001", "2002", "2003"]
        assert total.shape == (3, 6) and total.dtype == np.int64
        np.testing.assert_array_equal(total.sum(axis=1), [10, 10, 10])

    def test_matches_degrees_per_year(self):
        windows = yearly_reports(returns_panel(hub_panel(years=2)), q=10)
        total = degree_heatmap(windows, "incoming")
        for row, w in enumerate(windows):
            deg = degrees(w.trees["incoming"])
            for col, sector in enumerate(w.trees["incoming"].sectors):
                assert total[row, col] == deg[sector.code][2]

    def test_csv_layout(self):
        windows = yearly_reports(returns_panel(hub_panel(years=2)), q=10)
        text = render_degree_heatmap_csv(windows, "outgoing")
        lines = text.strip().split("\n")
        assert lines[0].startswith("year,")
        assert [line.split(",")[0] for line in lines[1:]] == ["2001", "2002"]


class TestTurmoil:
    def test_window_partition(self):
        series, crash_start, crash_end = turmoil_dataset(seed=0, t_len=100, n=4)
        study = turmoil_study(returns_panel(series), q=10,
                              crash_start=crash_start, crash_end=crash_end)
        assert (study.crash_start, study.crash_end) == (crash_start, crash_end)
        assert study.crash_days == 100
        assert study.window_days == 200
        # Windows tile the index space: contiguous ranges of 2T trading days.
        assert list(study.results) == ["before", "during", "after"]
        before, during, after = (r.interval for r in study.results.values())
        assert before[1] < during[0] <= crash_start
        assert during[1] < after[0]
        for r in study.results.values():
            lo, hi = r.interval
            n_days = sum(
                1 for d in series[0].dates[1:] if lo <= d <= hi
            )
            assert n_days == study.window_days

    def test_elevated_middle_coupling_raises_root_degree(self):
        series, crash_start, crash_end = turmoil_dataset(seed=3)
        study = turmoil_study(returns_panel(series), q=15,
                              crash_start=crash_start, crash_end=crash_end)
        during = study.results["during"].root_degree["outgoing"]
        before = study.results["before"].root_degree["outgoing"]
        after = study.results["after"].root_degree["outgoing"]
        assert during > before and during > after

    def test_during_root_is_planted_hub(self):
        series, crash_start, crash_end = turmoil_dataset(seed=1)
        study = turmoil_study(returns_panel(series), q=15,
                              crash_start=crash_start, crash_end=crash_end)
        arb = study.results["during"].trees["outgoing"]
        assert arb.sectors[arb.root].code == series[0].sector.code

    def test_insufficient_coverage(self):
        series, crash_start, crash_end = turmoil_dataset(seed=0, t_len=100, n=4)
        with pytest.raises(ValueError, match="cover"):
            turmoil_study(returns_panel(series), q=10,
                          crash_start=crash_start - timedelta(days=300),
                          crash_end=crash_end)

    def test_csv_shape(self):
        series, crash_start, crash_end = turmoil_dataset(seed=0, t_len=60, n=4)
        with pytest.warns(UserWarning, match="tied pair"):
            study = turmoil_study(returns_panel(series), q=8,
                                  crash_start=crash_start, crash_end=crash_end)
        lines = render_turmoil_csv(study).strip().split("\n")
        assert lines[0].split(",")[:4] == ["window", "start", "end", "orientation"]
        assert len(lines) == 1 + 6  # 3 windows x 2 orientations


class TestPearson:
    def test_identity(self, rng):
        x = rng.normal(0, 1, 50)
        assert pearson(x, x) == 1.0

    def test_negation(self, rng):
        x = rng.normal(0, 1, 50)
        assert pearson(x, -x) == -1.0

    def test_matches_mpmath(self, rng):
        x = rng.normal(0, 1, 1000)
        y = 0.4 * x + rng.normal(0, 1, 1000)
        assert pearson(x, y) == pytest.approx(pearson_mpmath(x, y), abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSpecificity:
    def make_study(self, seed=0, samples=1):
        dataset = hub_panel(n=6, years=3, coupling=0.85)
        windows = yearly_reports(returns_panel(dataset), q=10)
        hub = dataset[0]
        index = PriceSeries(SectorMeta("000001", "composite index"), hub.dates, hub.closes)
        return dataset, windows, index, specificity_study(
            returns_panel([*dataset, index]), windows, seed=seed, samples=samples
        )

    def test_index_copy_of_root_sector_gives_unit_correlation(self):
        dataset, windows, _, result = self.make_study()
        assert result.windows == tuple(windows)
        # The planted hub is the outgoing root every year; the index is its copy.
        assert [w.interval[0].year for w in result.windows] == [2001, 2002, 2003]
        assert [w.trees["outgoing"].root_sector.code for w in result.windows] == [
            dataset[0].sector.code] * 3
        assert result.source_correlations == (1.0, 1.0, 1.0)

    def test_fixed_seed_bit_identical(self):
        _, _, _, a = self.make_study(seed=123)
        _, _, _, b = self.make_study(seed=123)
        assert a.control_sectors == b.control_sectors
        assert a.control_correlations == b.control_correlations

    def test_different_seeds_vary_controls(self):
        _, _, _, a = self.make_study(seed=1)
        draws = {self.make_study(seed=s)[3].control_sectors for s in range(2, 6)}
        assert len(draws | {a.control_sectors}) > 1

    def test_controls_exclude_roots(self):
        _, _, _, result = self.make_study(samples=3)
        for k, w in enumerate(result.windows):
            forbidden = {a.root_sector.code for a in w.trees.values()}
            assert forbidden.isdisjoint(result.control_sectors[k])
            assert len(set(result.control_sectors[k])) == 3

    def test_correlations_in_range_and_means(self):
        _, _, _, result = self.make_study(samples=2)
        everything = (
            list(result.source_correlations)
            + list(result.sink_correlations)
            + [c for year in result.control_correlations for c in year]
        )
        assert all(-1.0 <= c <= 1.0 for c in everything)
        assert -1.0 <= result.control_mean <= 1.0
        assert result.source_mean == 1.0

    def test_constant_root_names_year_and_sector(self):
        dataset, windows, index, _ = self.make_study()
        returns = returns_panel([*dataset, index])
        values = returns.values.copy()
        values[0, [d.year == 2002 for d in returns.dates]] = 0.0  # the root trades flat
        flat = replace(returns, values=values)
        with pytest.raises(ValueError) as excinfo:
            specificity_study(flat, windows, seed=0)
        assert str(excinfo.value) == "year 2002, sector 910010: zero variance"

    def test_misaligned_index_rejected(self):
        dataset = hub_panel(n=4, years=1)
        windows = yearly_reports(returns_panel(dataset), q=10)
        shifted_dates = tuple(d + timedelta(days=1) for d in dataset[0].dates)
        index = PriceSeries(SectorMeta("000001"), shifted_dates, dataset[0].closes)
        with pytest.raises(ValueError, match="aligned"):
            specificity_study(returns_panel([*dataset, index]), windows, seed=0)


class TestRenderers:
    def test_yearly_csv_columns(self):
        windows = yearly_reports(returns_panel(hub_panel(years=2)), q=10)
        text = render_yearly_csv(windows, "outgoing")
        lines = text.strip().split("\n")
        assert lines[0] == "year,root_sector,maximal_information_path,n_sectors,dai_x100"
        assert len(lines) == 3
        year, root, path, n_sectors, dai = lines[1].split(",")
        assert year == "2001"
        assert "->" in path
        assert int(n_sectors) == len(path.split("->"))
        assert float(dai) > 0

    def test_yearly_csv_report_mode_rounds(self):
        windows = yearly_reports(returns_panel(hub_panel(years=1)), q=10)
        text = render_yearly_csv(windows, "outgoing", report_mode=True)
        dai = text.strip().split("\n")[1].split(",")[-1]
        assert len(dai.split(".")[1]) == 2

    def test_root_occurrence_csv(self):
        windows = yearly_reports(returns_panel(hub_panel(years=2)), q=10)
        lines = render_root_occurrences_csv(windows).strip().split("\n")
        assert lines[0] == "orientation,sector,count"
        assert any(line.startswith("outgoing,") for line in lines[1:])

    def test_specificity_csv_records_seed(self):
        _, _, _, result = TestSpecificity().make_study(seed=77)
        text = render_specificity_csv(result)
        assert text.startswith("# seed=77 samples_per_year=1\n")
        assert "year,kind,sector,correlation" in text

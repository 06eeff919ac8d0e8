import contextlib
import hashlib
import itertools
import math
from datetime import date
from unittest import mock

import numpy as np
import pytest

from conftest import make_prices, make_returns
from oracles import log_returns_mpmath, stats_mpmath
from test_golden import run_without_avx512

from infoflow import timeseries
from infoflow.analysis import specificity_study
from infoflow.synth import Segment, SyntheticDataset, dataset_to_csv, generate_dataset
from infoflow.timeseries import (
    JB_CRITICAL_1PCT,
    DatasetError,
    Panel,
    PriceSeries,
    SectorMeta,
    load_dataset,
    load_sector_names,
    returns_panel,
    slice_returns,
    summary_stats,
)


def write_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_three_rows_two_sectors(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,801010,801020\n"
            "2000-01-04,10.0,20.0\n"
            "2000-01-05,10.5,19.5\n"
            "2000-01-06,11.0,21.0\n",
        )
        series = load_dataset(path)
        assert len(series) == 2
        assert [s.sector.code for s in series] == ["801010", "801020"]
        assert all(len(s) == 3 for s in series)
        assert np.array_equal(series[0].dates, series[1].dates)

    def test_missing_cell_drops_row_for_all(self, tmp_path):
        # An empty cell, or a NaN that float() reads through its sign.
        for cell in ("", "+nan", "-nan"):
            path = write_csv(
                tmp_path,
                "date,801010,801020\n"
                "2000-01-04,10.0,20.0\n"
                f"2000-01-05,{cell},19.5\n"
                "2000-01-06,11.0,21.0\n",
            )
            with pytest.warns(UserWarning, match="dropped 1 row") as caught:
                series = load_dataset(path)
            assert caught[0].filename == __file__  # attributed to load_dataset's caller
            assert all(len(s) == 2 for s in series)
            assert series[0].dates.tolist() == [date(2000, 1, 4), date(2000, 1, 6)]

    def test_malformed_header(self, tmp_path):
        path = write_csv(tmp_path, "day,801010\n2000-01-04,10.0\n")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(path)

    def test_code_shorter_than_3_characters(self, tmp_path):
        path = write_csv(tmp_path, "date,ab,cd\n2000-01-04,10.0,11.0\n2000-01-05,10.5,11.5\n")
        with pytest.raises(DatasetError, match=(
                r"^malformed header: sector code 'ab' is shorter than 3 characters$")):
            load_dataset(path)

    def test_duplicate_codes(self, tmp_path):
        path = write_csv(tmp_path, "date,801010,801010\n2000-01-04,10.0,11.0\n")
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(path)

    def test_codes_sharing_a_display_label(self, tmp_path):
        # Outputs name a sector by the last three characters of its code: the
        # file loads, and its returns panel refuses it.
        path = write_csv(tmp_path, "date,801010,802010,801020\n2000-01-04,10.0,11.0,12.0\n"
                                   "2000-01-05,10.5,11.5,12.5\n")
        with pytest.raises(ValueError, match=(
                r"^sector codes 801010 and 802010 share the display label '010'$")):
            returns_panel(load_dataset(path))

    def test_non_positive_price(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,801010\n2000-01-04,10.0\n2000-01-05,-1.0\n",
        )
        with pytest.raises(DatasetError, match="non-positive"):
            load_dataset(path)

    def test_non_monotone_dates(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,801010\n2000-01-05,10.0\n2000-01-04,10.5\n",
        )
        with pytest.raises(DatasetError, match="increasing"):
            load_dataset(path)

    def test_non_iso_date(self, tmp_path):
        path = write_csv(tmp_path, "date,801010\n04/01/2000,10.0\n2000-01-05,10.5\n")
        with pytest.raises(DatasetError, match="ISO-8601"):
            load_dataset(path)

    def test_too_few_rows_after_drop(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,801010,801020\n"
            "2000-01-04,10.0,20.0\n"
            "2000-01-05,,19.5\n",
        )
        with pytest.raises(DatasetError, match="fewer than 2"), pytest.warns(UserWarning):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="input not found"):
            load_dataset(tmp_path / "nope.csv")

    def test_names_metadata(self, tmp_path):
        # A blank row is skipped; the names after it still apply.
        meta = write_csv(tmp_path, "code,name\n801010,Agriculture\n\n801020,Forestry\n",
                         name="names.csv")
        path = write_csv(
            tmp_path,
            "date,801010,801020\n2000-01-04,10.0,20.0\n2000-01-05,10.5,19.5\n",
        )
        names = load_sector_names(meta)
        assert names == {"801010": "Agriculture", "801020": "Forestry"}
        series = load_dataset(path, names=names)
        assert [s.sector.name for s in series] == ["Agriculture", "Forestry"]
        assert series[0].sector.short_code == "010"

    def test_names_csv_may_carry_more_columns(self, tmp_path):
        # Only the first two columns are read; a third is ignored, header and rows alike.
        meta = write_csv(tmp_path, "code,name,extra\n801010,Agriculture,x\n801020,Forestry\n",
                         name="names.csv")
        assert load_sector_names(meta) == {"801010": "Agriculture", "801020": "Forestry"}

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Excel writes UTF-8 CSVs with a leading BOM.
        prices = "date,801010,801020\n2000-01-04,10.0,20.0\n2000-01-05,10.5,19.5\n"
        meta = "code,name\n801010,Agriculture\n"
        loaded = []
        for prefix in ("", "\ufeff"):
            names = load_sector_names(write_csv(tmp_path, prefix + meta, "names.csv"))
            loaded.append(load_dataset(write_csv(tmp_path, prefix + prices), names=names))
        plain, bom = loaded
        assert [s.sector for s in bom] == [s.sector for s in plain]
        assert bom[0].sector.name == "Agriculture"
        for a, b in zip(plain, bom):
            assert np.array_equal(a.dates, b.dates)
            np.testing.assert_array_equal(a.closes, b.closes)

    def test_large_panel_roundtrip(self, tmp_path, rng):
        n_rows, n_cols = 300, 7
        codes = [f"8010{k:02d}" for k in range(1, n_cols + 1)]
        lines = ["date," + ",".join(codes)]
        day = np.datetime64("2000-01-03")
        closes = np.exp(rng.normal(0, 0.02, size=(n_rows, n_cols)).cumsum(axis=0)) * 50
        for t in range(n_rows):
            lines.append(str(day + t) + "," + ",".join(repr(float(v)) for v in closes[t]))
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        series = load_dataset(path)
        assert len(series) == n_cols
        assert all(len(s) == n_rows for s in series)
        np.testing.assert_array_equal(series[3].closes, closes[:, 3])

    @pytest.mark.parametrize("prefix, newline", [("", "\n"), ("", "\r\n"), ("\ufeff", "\r\n")])
    def test_clean_file_takes_the_columnar_path(self, tmp_path, prefix, newline):
        text = "date,801010,801020\n2000-01-04,10.0,+2.5e1\n2000-01-05,10.5,19.50000000000000001\n"
        path = write_csv(tmp_path, prefix + text.replace("\n", newline))
        table = timeseries._read_columns(path)
        assert table is not None
        assert table.dates.tolist() == [date(2000, 1, 4), date(2000, 1, 5)]
        np.testing.assert_array_equal(table.closes, [[10.0, 25.0], [10.5, 19.5]])

    @pytest.mark.parametrize("rows", [
        "2000-01-04,,20.0\n2000-01-05,10.5,19.5\n",
        "2000-01-04,10.0,20.0\n2000-01-05,10.5,\n",
        "2000-01-04,10.0,20.0\n2000-01-05,10.5,",
        ",10.0,20.0\n2000-01-05,10.5,19.5\n",
        "",
        "\n\n",
    ])
    def test_empty_cell_or_row_is_declined_before_parsing(self, tmp_path, rows):
        # numpy refuses an empty price and an empty date fails the date
        # layout check, so the row path, the one that writes diagnostics,
        # reads such a file.  A file with no row never reaches loadtxt,
        # which would warn.
        path = write_csv(tmp_path, "date,801010,801020\n" + rows)
        no_row = not rows.strip()
        with (mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed"))
              if no_row else contextlib.nullcontext()):
            assert timeseries._read_columns(path) is None

    @pytest.mark.parametrize("rows", [
        "2000-01-04,10.0,20.0\n\n2000-01-05,10.5,19.5\n",
        "\n2000-01-04,10.0,20.0\n2000-01-05,10.5,19.5\n\n\n",
    ])
    def test_blank_rows_stay_on_the_columnar_path(self, tmp_path, rows):
        # Both paths skip a blank row, so it does not send the file row by row.
        path = write_csv(tmp_path, "date,801010,801020\n" + rows)
        fast, slow = timeseries._read_columns(path), timeseries._read_rows(path)
        assert fast is not None
        assert (fast.codes, fast.dates.tolist(), fast.dropped) == (
            slow.codes, slow.dates.tolist(), slow.dropped)
        np.testing.assert_array_equal(fast.closes, slow.closes)

    # datetime64 reads most of these as a day (two as the years 20000104 and
    # 2000001003), but none is a YYYY-MM-DD date that ``date`` can hold.  One
    # row, so that no date-order check declines the file.
    @pytest.mark.parametrize("day", ["2000-01", "+2000-01-03", "0000-01-03", "2000-01-031",
                                     "2000-1-03", "20000104", "2000001003", "+200-01-03"])
    def test_dates_numpy_reads_otherwise_go_row_by_row(self, tmp_path, day):
        path = write_csv(tmp_path, f"date,801010\n{day},10.0\n")
        assert timeseries._read_columns(path) is None

    # Each input below is one that np.loadtxt reads differently from csv and
    # float(), so each fails if the columnar path accepts it by itself.
    @pytest.mark.parametrize("rows", [
        "2000-01-04,10.0,20.0,30.0\n2000-01-05,10.5,19.5\n",
        "2000-01-04,10.0,20.0\n2000-01-05,10.5,19.5,1\n",
        "2000-01-04,10.0,20.0,30.0\n2000-01-05,10.5\n",  # the comma total adds up
    ])
    def test_extra_column_is_reported(self, tmp_path, rows):
        path = write_csv(tmp_path, "date,801010,801020\n" + rows)
        with pytest.raises(DatasetError, match=r"^row [23]: expected 3 columns$"):
            load_dataset(path)

    def test_comment_sign_is_not_a_comment(self, tmp_path):
        path = write_csv(tmp_path, "date,801010\n2000-01-04,10.0\n2000-01-05,1.5#x\n")
        with pytest.raises(DatasetError, match=r"^row 3: unparsable price '1\.5#x'$"):
            load_dataset(path)

    @pytest.mark.parametrize("separator", ["\u2028", "\x0b"])
    def test_only_lf_and_cr_end_a_row(self, tmp_path, separator):
        # str.splitlines would see two valid rows here; csv sees one of 3 cells.
        path = write_csv(tmp_path, f"date,801010\n2000-01-04,10.0{separator}2000-01-05,10.5\n")
        with pytest.raises(DatasetError, match=r"^row 2: expected 2 columns$"):
            load_dataset(path)

    def test_underscore_and_non_ascii_digits_still_load(self, tmp_path):
        path = write_csv(tmp_path, "date,801010\n2000-01-04,1_000\n2000-01-05,\u0661\u0662\n")
        np.testing.assert_array_equal(load_dataset(path)[0].closes, [1000.0, 12.0])

    @pytest.mark.parametrize("price", ["0", "0.0", "-0", "-1.5", "1e-400", "1e999", "-1e999", "inf"])
    def test_bad_price_names_row_and_sector(self, tmp_path, price):
        path = write_csv(
            tmp_path,
            f"date,801010,801020\n2000-01-04,10.0,20.0\n2000-01-05,10.5,{price}\n",
        )
        with pytest.raises(
            DatasetError, match=r"^row 3: non-positive or non-finite price for 801020$"
        ):
            load_dataset(path)


class TestLogReturns:
    """One sector's log returns: the 1-row panel of ``returns_panel``."""

    def test_constant_prices(self):
        r = returns_panel([make_prices([5.0, 5.0, 5.0])])
        np.testing.assert_array_equal(r.values, [[0.0, 0.0]])
        assert len(r.dates) == 2

    def test_unit_e_step(self):
        r = returns_panel([make_prices([1.0, math.e])])
        assert r.values[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_dates_shift_to_later_close(self):
        p = make_prices([1.0, 2.0, 3.0])
        r = returns_panel([p])
        assert np.array_equal(r.dates, p.dates[1:])

    def test_matches_high_precision_oracle(self, rng):
        closes = np.exp(rng.normal(0, 0.05, 100).cumsum()) * 30
        r = returns_panel([make_prices(closes)])
        expected = log_returns_mpmath(closes)
        np.testing.assert_allclose(r.values[0], expected, rtol=0, atol=1e-12)

    def test_roundtrip_recovers_prices(self, rng):
        closes = np.exp(rng.normal(0, 0.03, 50).cumsum()) * 10
        r = returns_panel([make_prices(closes)])
        rebuilt = closes[0] * np.exp(np.concatenate([[0.0], np.cumsum(r.values[0])]))
        np.testing.assert_allclose(rebuilt, closes, rtol=1e-9)

    def test_returns_of_17_digit_closes_do_not_depend_on_the_simd_level(self, tmp_path):
        # The generator's closes carry 17 significant digits, where float64
        # np.log gives other last bits with AVX-512.
        spec = SyntheticDataset(n_sectors=28, segments=(Segment(4400),), seed=601)
        path = write_csv(tmp_path, dataset_to_csv(generate_dataset(spec)))
        script = ("import hashlib, sys; "
                  "from infoflow.timeseries import load_dataset, returns_panel; "
                  "values = returns_panel(load_dataset(sys.argv[1])).values; "
                  "sys.stdout.write(hashlib.sha256(values.tobytes()).hexdigest())")
        without = run_without_avx512(script, str(path))
        values = returns_panel(load_dataset(path)).values
        assert without == hashlib.sha256(values.tobytes()).hexdigest()

    def test_rows_come_in_code_order(self, rng):
        codes = ["900003", "900010", "900001", "900002"]
        series = [make_prices(np.exp(rng.normal(0, 0.05, 30).cumsum()), code) for code in codes]
        r = returns_panel(series)
        assert [s.code for s in r.sectors] == sorted(codes)
        for sector, row in zip(r.sectors, r.values):
            [own] = (p for p in series if p.sector == sector)
            np.testing.assert_array_equal(row, returns_panel([own]).values[0])

    def test_rejects_a_repeated_code(self):
        with pytest.raises(ValueError, match="strictly increasing code order"):
            returns_panel([make_prices([1.0, 2.0]), make_prices([3.0, 4.0])])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_non_positive_or_non_finite_close_naming_the_sector(self, bad):
        # The loaders' rule: an infinite close would give a non-finite return.
        days = make_prices([1.0, 2.0, 3.0]).dates
        with pytest.raises(ValueError, match=(
                r"^sector 801010: non-positive or non-finite price$")):
            PriceSeries(SectorMeta("801010"), days, np.array([1.0, bad, 3.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PriceSeries(SectorMeta("801010"), make_prices([1.0, 2.0]).dates, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("order", [(0, 2, 1), (0, 1, 1)])
    def test_rejects_unsorted_dates(self, order):
        # Both date axes, given as a tuple or list of dates or as an array.
        makers = (lambda days: PriceSeries(SectorMeta("801010"), days, [1.0, 2.0, 3.0]),
                  lambda days: Panel((SectorMeta("801010"),), days, [[0.1, -0.2, 0.3]]))
        forms = (tuple, list, lambda days: np.array(days, "datetime64[D]"))
        for make, form in itertools.product(makers, forms):
            with pytest.raises(ValueError, match="strictly increasing"):
                make(form([date(2001, 1, 2 + k) for k in order]))
            # An accepted axis is kept as a read-only datetime64[D] array.
            days = [date(2001, 1, 2), date(2001, 1, 3), date(2001, 1, 9)]
            dates = make(form(days)).dates
            assert dates.dtype == np.dtype("datetime64[D]") and not dates.flags.writeable
            assert dates.tolist() == days
            with pytest.raises(ValueError, match="read-only"):
                dates[0] = dates[-1]


class TestSectorCodes:
    def test_code_shorter_than_3_characters(self):
        with pytest.raises(ValueError, match=r"^sector code 'ab' is shorter than 3 characters$"):
            SectorMeta("ab")

    @pytest.mark.parametrize("code", ["a,bc", 'ab"c', "ab\\c", "ab\tc"])
    def test_code_that_outputs_cannot_carry(self, code):
        # CSV cells and DOT node names carry codes unquoted.
        with pytest.raises(ValueError) as excinfo:
            SectorMeta(code)
        assert str(excinfo.value) == (f"sector code {code!r} holds a comma, double quote, "
                                      f"backslash or unprintable character")

    def test_panel_refuses_codes_sharing_a_display_label(self):
        # Outputs could not tell 910010 from 920010: a tree could read 010 -> 030 -> 010.
        codes = ("910010", "910020", "920010", "930030")
        days = (date(2001, 1, 2), date(2001, 1, 3))
        with pytest.raises(ValueError) as excinfo:
            Panel(tuple(SectorMeta(c) for c in codes), days, np.zeros((len(codes), 2)))
        assert str(excinfo.value) == "sector codes 910010 and 920010 share the display label '010'"


def one_day_apart(make):
    """Two sectors' series whose date axes are one day apart."""
    return [make([1.0, 2.0, 3.0], "900001"),
            make([1.0, 2.0, 3.0], "900002", start=date(2000, 1, 4))]


@pytest.mark.parametrize("call, args, message", [
    (returns_panel, ([],), "need at least 1 sector"),
    (dataset_to_csv, ([],), "need at least 1 sector"),
    (returns_panel, (one_day_apart(make_prices),), "price series are not date-aligned"),
    (dataset_to_csv, (one_day_apart(make_prices),), "price series are not date-aligned"),
    (lambda returns, index: specificity_study(returns, index, q=2, seed=0),
     one_day_apart(make_returns), "price series are not date-aligned"),
], ids=["returns_panel-empty", "dataset_to_csv-empty", "returns_panel-misaligned",
        "dataset_to_csv-misaligned", "specificity_study-misaligned"])
def test_every_caller_refuses_by_the_one_date_axis_rule(call, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(*args)


class TestSummaryStats:
    def test_zero_variance_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate series"):
            summary_stats(np.zeros(4))

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 4"):
            summary_stats(np.array([0.1, 0.2, 0.3]))

    def test_matches_mpmath_oracle(self, rng):
        values = rng.normal(0.0003, 0.02, 500)
        s = summary_stats(values)
        mean, vmax, vmin, std, skew, kurt, jb = stats_mpmath(values)
        assert s.mean == pytest.approx(mean, abs=1e-12)
        assert s.max == vmax and s.min == vmin
        assert s.std == pytest.approx(std, abs=1e-12)
        assert s.skewness == pytest.approx(skew, abs=1e-12)
        assert s.kurtosis == pytest.approx(kurt, abs=1e-12)
        assert s.jb_statistic == pytest.approx(jb, rel=1e-12)

    def test_normal_sample_moments(self):
        # Kurtosis near 3 and JB below the 1% critical value for most seeds.
        rejections = 0
        kurts = []
        for seed in range(100):
            values = np.random.default_rng(seed).standard_normal(4000)
            s = summary_stats(values)
            kurts.append(s.kurtosis)
            rejections += s.jb_reject_at_1pct
        assert rejections <= 5
        assert abs(np.mean(kurts) - 3.0) < 0.2

    def test_reorder_invariance(self, rng):
        values = rng.normal(0, 0.01, 200)
        s1 = summary_stats(values)
        s2 = summary_stats(values[::-1].copy())
        for field in ("mean", "std", "skewness", "kurtosis", "jb_statistic"):
            assert getattr(s1, field) == pytest.approx(getattr(s2, field), abs=1e-13)

    def test_jb_threshold_constant(self):
        assert JB_CRITICAL_1PCT == 9.442


class TestSlice:
    def test_full_range_identity(self):
        r = make_returns([0.1, -0.2, 0.3])
        out = slice_returns(r, (r.dates[0], r.dates[-1]))
        assert np.array_equal(out.dates, r.dates)
        np.testing.assert_array_equal(out.values, r.values)
        assert out.sectors == r.sectors

    def test_interior_window(self):
        r = make_returns([0.1, -0.2, 0.3, 0.4])
        out = slice_returns(r, (r.dates[1], r.dates[2]))
        assert np.array_equal(out.dates, r.dates[1:3])

    def test_disjoint_window(self):
        r = make_returns([0.1, -0.2])
        with pytest.raises(ValueError, match="empty result"):
            slice_returns(r, (date(1990, 1, 1), date(1990, 12, 31)))

    def test_inverted_window(self):
        r = make_returns([0.1, -0.2])
        with pytest.raises(ValueError, match="empty interval"):
            slice_returns(r, (r.dates[1], r.dates[0]))

    @pytest.mark.parametrize("codes", [("900002", "900001"), ("900001", "900001"),
                                       ("900001", "900003", "900002"), ("90002", "900010")])
    def test_panel_rejects_codes_out_of_order_or_repeated(self, codes):
        # Codes compare as text: "90002" comes after "900010".
        days = (date(2001, 1, 2), date(2001, 1, 3))
        with pytest.raises(ValueError, match="^sectors not in strictly increasing code order$"):
            Panel(tuple(SectorMeta(c) for c in codes), days, np.zeros((len(codes), 2)))

    @pytest.mark.parametrize("order", [(0, 2, 1), (0, 1, 1)])
    def test_return_series_rejects_unsorted_dates(self, order):
        # One sector's returns are a 1-row panel.
        days = tuple(date(2001, 1, 2 + k) for k in order)
        with pytest.raises(ValueError, match="strictly increasing"):
            Panel((SectorMeta("900001"),), days, [[0.1, -0.2, 0.3]])

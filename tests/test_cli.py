import contextlib
import csv
import json
import re
import shlex
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import turmoil_dataset

from infoflow.cli import build_parser, main
from infoflow.synth import (
    Coupling,
    Segment,
    SyntheticDataset,
    dataset_to_csv,
    demo_dataset,
    generate_dataset,
)


@pytest.fixture
def panel_csv(tmp_path):
    from datetime import date

    spec = SyntheticDataset(
        n_sectors=5,
        segments=(Segment(730, (Coupling(0, 1, 0.8), Coupling(0, 2, 0.8))),),
        seed=6,
        start=date(1999, 12, 31),  # returns span exactly calendar 2000-2001
    )
    series = generate_dataset(spec)
    path = tmp_path / "panel.csv"
    path.write_text(dataset_to_csv(series), encoding="utf-8")
    return path, series


def run(args):
    return main([str(a) for a in args])


def copy_as_index(series, tmp_path):
    """An index price CSV holding the closes of one sector's series."""
    index_csv = tmp_path / "index.csv"
    lines = ["date,000001"]
    for t, day in enumerate(series.dates.tolist()):
        lines.append(f"{day.isoformat()},{float(series.closes[t])!r}")
    index_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return index_csv


def one_sector_csv(path, tmp_path):
    """The first sector column of the price CSV at ``path``, as a file of its own."""
    one = tmp_path / "one.csv"
    one.write_text("".join(",".join(line.split(",")[:2]) + "\n"
                           for line in path.read_text().splitlines()), encoding="utf-8")
    return one


def freeze_column(path, code, year=None):
    """Hold sector ``code`` of the price CSV at ``path`` flat, in place.

    From the last close before ``year`` on, so that its returns in ``year``
    and after are all zero; with no ``year``, through the whole file.
    """
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(code)
    frozen = None
    for k in range(1, len(lines)):
        cells = lines[k].split(",")
        if frozen is None and (year is None or (
                k + 1 < len(lines) and lines[k + 1].startswith(str(year)))):
            frozen = cells[col]
        if frozen is not None:
            cells[col] = frozen
            lines[k] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestStats:
    def test_writes_csv_and_json(self, panel_csv, tmp_path):
        path, series = panel_csv
        out = tmp_path / "out"
        assert run(["stats", "--input", path, "--out-dir", out]) == 0
        csv_lines = (out / "summary_stats.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + len(series)
        assert csv_lines[0].startswith("symbol,sector,mean,")
        payload = json.loads((out / "summary_stats.json").read_text())
        assert len(payload) == len(series)
        assert all("jb_statistic" in row for row in payload)

    def test_report_mode_rounds(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        assert run(["stats", "--input", path, "--out-dir", out,
                    "--format", "csv", "--report"]) == 0
        header = (out / "summary_stats.csv").read_text().split("\n")[0]
        assert "mean_x1000" in header

    def test_one_sector_file(self, panel_csv, tmp_path):
        # Its one row is byte for byte the first row of the full panel's tables.
        path, _ = panel_csv
        one = one_sector_csv(path, tmp_path)
        assert run(["stats", "--input", path, "--out-dir", tmp_path / "all"]) == 0
        assert run(["stats", "--input", one, "--out-dir", tmp_path / "one"]) == 0
        full_csv = (tmp_path / "all" / "summary_stats.csv").read_text().split("\n")
        full_json = json.loads((tmp_path / "all" / "summary_stats.json").read_text())
        assert ((tmp_path / "one" / "summary_stats.csv").read_text()
                == "\n".join(full_csv[:2]) + "\n")
        assert ((tmp_path / "one" / "summary_stats.json").read_text()
                == json.dumps(full_json[:1], indent=2) + "\n")

    def test_four_character_codes_are_labelled_by_their_last_three(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,8010,8020\n" + "".join(
            f"2000-01-{day:02d},{10.0 + day % 3},{20.0 - day % 4}\n" for day in range(3, 20)))
        out = tmp_path / "out"
        assert run(["stats", "--input", path, "--out-dir", out, "--format", "csv"]) == 0
        rows = (out / "summary_stats.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["010", "020"]

    def test_constant_sector_is_named(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        freeze_column(path, "910020")
        out = tmp_path / "out"
        assert run(["stats", "--input", path, "--out-dir", out]) == 2
        assert capsys.readouterr().err == (
            "error: sector 910020: degenerate series: zero variance\n")
        assert not out.exists()

    def test_codes_sharing_a_display_label_exit_2(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("date,801010,802010\n2000-01-04,1.0,2.0\n2000-01-05,1.5,2.5\n")
        assert run(["stats", "--input", path, "--out-dir", tmp_path / "out"]) == 2
        # The codes load; the returns panel refuses them.
        assert capsys.readouterr().err == (
            "error: sector codes 801010 and 802010 share the display label '010'\n")

    @pytest.mark.parametrize("report", [[], ["--report"]])
    def test_names_with_separators_are_quoted(self, panel_csv, tmp_path, report):
        path, series = panel_csv
        names = ["Food, Beverage", 'The "A" share', "One\rtwo\nthree", "Plain", ""]
        meta = tmp_path / "names.csv"
        with meta.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["code", "name"])
            writer.writerows(zip((s.sector.code for s in series), names))
        out = tmp_path / "out"
        assert run(["stats", "--input", path, "--names", meta, "--out-dir", out,
                    "--format", "csv", *report]) == 0
        with (out / "summary_stats.csv").open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [10 - len(report)] * (1 + len(series))
        assert [row[1] for row in rows[1:]] == names
        assert f"\n{series[3].sector.short_code},Plain," in (out / "summary_stats.csv").read_text()

    @pytest.mark.parametrize("code", ['"9100""20"', '"801,010"', "801\\010", "801\x01010", "ab"])
    def test_codes_that_outputs_cannot_carry_exit_2(self, tmp_path, capsys, code):
        path = tmp_path / "prices.csv"
        path.write_text(f"date,801020,{code}\n2000-01-04,1.0,2.0\n2000-01-05,1.5,2.5\n")
        for argv in (["stats"], ["msa", "--mode", "whole"]):
            assert run([*argv, "--input", path, "--out-dir", tmp_path / "out"]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: malformed header: sector code ")
            assert repr(next(csv.reader([code]))[0]) in lines[0]
            assert not (tmp_path / "out").exists()

    def test_repeated_code_in_names_exits_2(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        meta = tmp_path / "names.csv"
        meta.write_text("code,name\n910010,Mining\n910020,Chemicals\n910010,Steel\n")
        out = tmp_path / "out"
        assert run(["stats", "--input", path, "--names", meta, "--out-dir", out]) == 2
        assert capsys.readouterr().err == (
            "error: --names: sector-metadata CSV lists code 910010 twice\n")
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert run(["stats", "--input", tmp_path / "nope.csv"]) == 2
        assert "input not found" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["stats", "--input", "{missing}"], ""),
        (["stats", "--input", "{panel}", "--names", "{missing}"], "--names: "),
        (["specificity", "--input", "{panel}", "--index", "{missing}"], "--index: "),
    ], ids=["input", "names", "index"])
    def test_missing_file_is_named_by_its_path(self, panel_csv, tmp_path, capsys, argv, flag):
        missing, out = tmp_path / "nope.csv", tmp_path / "out"
        argv = [arg.format(panel=panel_csv[0], missing=missing) for arg in argv]
        assert run([*argv, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {flag}input not found: {missing}\n"
        assert not out.exists()

    def test_no_input_flag_exits_2(self, capsys):
        assert run(["stats"]) == 2
        assert "--input is required" in capsys.readouterr().err


class TestMsa:
    def test_whole_mode_outputs(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        assert run(["msa", "--input", path, "--out-dir", out]) == 0
        for orientation in ("outgoing", "incoming"):
            assert (out / f"msa_whole_{orientation}.json").exists()
            dot = (out / f"msa_whole_{orientation}.dot").read_text()
            assert dot.startswith("digraph")
        table = (out / "msa_whole.csv").read_text()
        assert table.startswith("window,orientation,root_sector,")

    def test_single_orientation_selection(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        assert run(["msa", "--input", path, "--out-dir", out,
                    "--orientation", "out", "--format", "json,dot"]) == 0
        assert (out / "msa_whole_outgoing.json").exists()
        assert not (out / "msa_whole_incoming.json").exists()
        assert not (out / "msa_whole.csv").exists()

    def test_yearly_mode(self, panel_csv, tmp_path):
        path, _ = panel_csv
        out = tmp_path / "out"
        assert run(["msa", "--input", path, "--out-dir", out, "--mode", "yearly"]) == 0
        for orientation in ("outgoing", "incoming"):
            lines = (out / f"yearly_{orientation}.csv").read_text().strip().split("\n")
            assert lines[0] == "year,root_sector,maximal_information_path,n_sectors,dai_x100"
            assert len(lines) == 3  # full years 2000 and 2001; stub 2002 skipped
            assert (out / f"degree_heatmap_{orientation}.csv").exists()
            assert (out / f"msa_2001_{orientation}.dot").exists()
        assert (out / "root_occurrences.csv").exists()
        payload = json.loads((out / "yearly_reports.json").read_text())
        assert len(payload["outgoing"]) == 2

    def test_yearly_mode_names_suspended_sector_and_year(self, panel_csv, tmp_path, capsys):
        # Sector 910030 trades flat from the last close of 2000 on, so its
        # 2001 returns are constant and cannot be symbolized.
        path, _ = panel_csv
        freeze_column(path, "910030", 2001)
        out = tmp_path / "out"
        assert run(["msa", "--input", path, "--out-dir", out, "--mode", "yearly"]) == 2
        err = capsys.readouterr().err.strip()
        assert err == ("error: year 2001 (364 trading days): sector 910030: degenerate series: "
                       "constant values")

    def test_range_mode(self, panel_csv, tmp_path):
        path, series = panel_csv
        out = tmp_path / "out"
        dates = series[0].dates.tolist()
        assert run(["msa", "--input", path, "--out-dir", out, "--mode", "range",
                    "--from", dates[10].isoformat(),
                    "--to", dates[400].isoformat()]) == 0
        assert (out / "msa_range_outgoing.json").exists()

    def test_short_range_failure_names_window_days_and_minimum(self, panel_csv, tmp_path,
                                                               capsys):
        path, series = panel_csv
        dates = series[0].dates.tolist()
        assert run(["msa", "--input", path, "--out-dir", tmp_path / "out", "--mode", "range",
                    "--from", dates[10].isoformat(), "--to", dates[12].isoformat()]) == 2
        err = capsys.readouterr().err.strip()
        assert err == ("error: range 2000-01-10 to 2000-01-12 (3 trading days): "
                       "fewer than the minimum of 30")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("start, end, reason", [
        ("2030-05-01", "2031-01-01", "empty result"),    # no trading day inside
    ])
    def test_empty_range_is_named(self, panel_csv, tmp_path, capsys, start, end, reason):
        path, _ = panel_csv
        assert run(["msa", "--input", path, "--out-dir", tmp_path / "out", "--mode", "range",
                    "--from", start, "--to", end]) == 2
        assert capsys.readouterr().err == f"error: range {start} to {end}: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_short_whole_sample_is_refused_up_front(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        short = tmp_path / "short.csv"
        short.write_text("\n".join(path.read_text().splitlines()[:21]) + "\n")  # 20 rows
        assert run(["msa", "--input", short, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            "error: whole sample (19 trading days): fewer than the minimum of 30\n")
        assert not (tmp_path / "out").exists()

    def test_all_pairs_tied_failure_names_window_days_and_ties(self, tmp_path, capsys):
        from datetime import date

        # Five identical sector columns: every net flow is exactly zero.
        closes = [100.0 * 1.01 ** ((t * 7) % 11) for t in range(40)]
        lines = ["date,910010,910020,910030,910040,910050"]
        lines += [f"{date(2000, 1, 1) + timedelta(days=t)},{','.join([repr(c)] * 5)}"
                  for t, c in enumerate(closes)]
        path = tmp_path / "tied.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="10 tied pair"):
            assert run(["msa", "--input", path, "--out-dir", tmp_path / "out"]) == 2
        # No sector has an edge left, so each is a part of its own.
        assert capsys.readouterr().err == (
            "error: whole sample (39 trading days): 10 tied pairs: no root reaches all nodes: "
            "the network splits into parts rooted at sectors 910010, 910020, 910030, 910040, "
            "910050\n")

    def test_no_root_refusal_names_sectors_that_only_send_flow(self, tmp_path, capsys):
        from test_golden import panel_csvs

        # One close of 910110 and one of 910120 lose a digit, so nearly all of
        # each sector's returns fall in one bin: both only send flow, and their
        # pair ties.  Each then roots a part of the outgoing network.
        lines = panel_csvs()[0].splitlines()
        header = lines[0].split(",")
        for day, code, close, damaged in (("2000-01-27", "910110", "1002.46", "102.46"),
                                          ("2000-02-12", "910120", "999.15", "99.15")):
            k = next(k for k, line in enumerate(lines) if line.startswith(day))
            cells = lines[k].split(",")
            assert cells[header.index(code)] == close
            cells[header.index(code)] = damaged
            lines[k] = ",".join(cells)
        path = tmp_path / "damaged.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="910110/910120"):
            assert run(["msa", "--input", path, "--mode", "whole", "--q", 5,
                        "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            "error: whole sample (1461 trading days): 1 tied pairs: no root reaches all nodes: "
            "the network splits into parts rooted at sectors 910110, 910120\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["whole", "yearly"])
    def test_one_sector_file_exits_2(self, panel_csv, tmp_path, capsys, mode):
        path, _ = panel_csv
        one = one_sector_csv(path, tmp_path)
        assert run(["msa", "--input", one, "--mode", mode, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: need at least 2 sectors\n"

    def test_range_mode_needs_dates(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        assert run(["msa", "--input", path, "--out-dir", tmp_path,
                    "--mode", "range"]) == 2
        assert "range mode requires" in capsys.readouterr().err

    def test_turmoil_mode(self, tmp_path):
        series, crash_start, crash_end = turmoil_dataset(seed=0, t_len=80, n=4)
        path = tmp_path / "panel.csv"
        path.write_text(dataset_to_csv(series), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["msa", "--input", path, "--out-dir", out, "--mode", "turmoil",
                    "--q", 10,
                    "--crash-start", crash_start.isoformat(),
                    "--crash-end", crash_end.isoformat()]) == 0
        payload = json.loads((out / "turmoil.json").read_text())
        assert payload["crash_trading_days"] == 80
        assert set(payload["windows"]) == {"before", "during", "after"}
        assert (out / "turmoil_during_outgoing.dot").exists()

    def test_one_day_crash_failure_names_window(self, panel_csv, tmp_path, capsys):
        path, series = panel_csv
        day = series[0].dates.tolist()[300].isoformat()
        assert run(["msa", "--input", path, "--out-dir", tmp_path, "--mode", "turmoil",
                    "--crash-start", day, "--crash-end", day]) == 2
        err = capsys.readouterr().err.strip()
        assert err == "error: before window (2 trading days): fewer than the minimum of 30"

    def test_yearly_mode_without_a_full_year_names_the_minimum(self, tmp_path, capsys):
        from datetime import date

        spec = SyntheticDataset(n_sectors=5, segments=(Segment(20, ()),), seed=6,
                                start=date(1999, 12, 1))
        path = tmp_path / "short.csv"
        path.write_text(dataset_to_csv(generate_dataset(spec)), encoding="utf-8")
        with pytest.warns(UserWarning, match="skipping year 1999"):
            assert run(["msa", "--input", path, "--out-dir", tmp_path,
                        "--mode", "yearly"]) == 2
        err = capsys.readouterr().err.strip()
        assert err == "error: no calendar year has the minimum of 30 trading days"

    def test_turmoil_mode_without_dates_exits_2(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        assert run(["msa", "--input", path, "--out-dir", tmp_path,
                    "--mode", "turmoil"]) == 2
        assert "turmoil mode requires" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, solves", [
        (["--mode", "yearly", "--orientation", "in"], ["incoming"] * 2),
        (["--mode", "whole", "--orientation", "out"], ["outgoing"]),
    ])
    def test_one_orientation_solves_only_its_trees(self, panel_csv, tmp_path, monkeypatch,
                                                   argv, solves):
        from infoflow import analysis

        calls = []

        def solve(net, orientation):
            calls.append(orientation)
            return solver(net, orientation)

        solver = analysis.max_spanning_arborescence
        monkeypatch.setattr(analysis, "max_spanning_arborescence", solve)
        path, _ = panel_csv
        assert run(["msa", "--input", path, "--out-dir", tmp_path / "out", *argv]) == 0
        assert calls == solves

    def test_deterministic_bytes_across_runs_and_workers(self, panel_csv, tmp_path):
        path, _ = panel_csv
        outputs = []
        for k, workers in enumerate((1, 1, 4)):
            out = tmp_path / f"out{k}"
            assert run(["msa", "--input", path, "--out-dir", out,
                        "--mode", "yearly", "--workers", workers]) == 0
            outputs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            })
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("argv", [
    ["msa", "--input", "{dir}"],
    ["stats", "--input", "{csv}", "--names", "{dir}"],
    ["msa", "--input", "{csv}", "--config", "{dir}"],
    ["msa", "--input", "{csv}", "--out-dir", "{file}"],
], ids=["input_dir", "names_dir", "config_dir", "out_dir_is_a_file"])
def test_file_system_errors_exit_2_on_one_line(panel_csv, tmp_path, capsys, argv):
    path, _ = panel_csv
    paths = {"{dir}": tmp_path / "a_dir", "{csv}": path, "{file}": tmp_path / "a_file"}
    paths["{dir}"].mkdir()
    paths["{file}"].write_text("")
    out = tmp_path / "out"
    argv = [str(paths.get(a, a)) for a in argv]
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(out)]
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert sorted(tmp_path.rglob("*")) == before
    assert paths["{file}"].read_text() == ""


class TestSpecificity:
    def test_outputs_and_seed_recorded(self, panel_csv, tmp_path):
        path, series = panel_csv
        index_csv = copy_as_index(series[0], tmp_path)

        out = tmp_path / "out"
        assert run(["specificity", "--input", path, "--index", index_csv,
                    "--out-dir", out, "--seed", 99]) == 0
        payload = json.loads((out / "specificity.json").read_text())
        assert payload["seed"] == 99
        assert payload["source"]["correlations"] == [1.0, 1.0]
        text = (out / "specificity.csv").read_text()
        assert text.startswith("# seed=99 ")
        # No --samples: one control sector per year.
        assert payload["samples_per_year"] == 1
        rows = list(csv.DictReader(text.splitlines()[1:]))
        assert [row["year"] for row in rows if row["kind"] == "control"] == ["2000", "2001"]

    def test_requires_index(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        assert run(["specificity", "--input", path, "--out-dir", tmp_path]) == 2
        assert "--index is required" in capsys.readouterr().err

    def test_index_with_more_than_one_column_exits_2(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        out = tmp_path / "out"
        assert run(["specificity", "--input", path, "--index", path, "--out-dir", out]) == 2
        assert capsys.readouterr().err == "error: --index must hold one price column, not 5\n"
        assert not out.exists()

    def test_misaligned_index_exits_2(self, panel_csv, tmp_path, capsys, monkeypatch):
        def no_estimate(symbols):
            raise AssertionError("a TE matrix was estimated")

        monkeypatch.setattr("infoflow.analysis.te_matrix", no_estimate)
        path, series = panel_csv
        index_csv = tmp_path / "index.csv"
        lines = ["date,000001"]
        for t, day in enumerate(series[0].dates.tolist()[1:], start=1):  # one close short
            lines.append(f"{day.isoformat()},{float(series[0].closes[t])!r}")
        index_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["specificity", "--input", path, "--index", index_csv,
                    "--out-dir", out]) == 2
        assert capsys.readouterr().err == "error: price series are not date-aligned\n"
        assert not out.exists()

    def test_unparsable_index_row_names_the_flag(self, panel_csv, tmp_path, capsys):
        path, series = panel_csv
        index_csv = copy_as_index(series[0], tmp_path)
        lines = index_csv.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",abc"
        index_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["specificity", "--input", path, "--index", index_csv,
                    "--out-dir", out]) == 2
        assert capsys.readouterr() == ("", "error: --index: row 6: unparsable price 'abc'\n")
        assert not out.exists()

    def test_constant_index_names_year_and_index(self, panel_csv, tmp_path, capsys):
        path, series = panel_csv
        index_csv = copy_as_index(series[0], tmp_path)
        freeze_column(index_csv, "000001", 2001)
        out = tmp_path / "out"
        assert run(["specificity", "--input", path, "--index", index_csv,
                    "--out-dir", out]) == 2
        assert capsys.readouterr().err == ("error: year 2001 (364 trading days): index 000001: "
                                            "zero variance\n")
        assert not out.exists()

    def test_more_samples_than_non_root_sectors_names_the_year(self, tmp_path, capsys):
        # The demos' 28 sectors: in 2001 the two roots differ, leaving 26.
        series = demo_dataset()
        path = tmp_path / "demo.csv"
        path.write_text(dataset_to_csv(series), encoding="utf-8")
        index_csv = copy_as_index(series[0], tmp_path)
        out = tmp_path / "out"
        assert run(["specificity", "--input", path, "--index", index_csv,
                    "--out-dir", out, "--samples", 27]) == 2
        assert capsys.readouterr().err == (
            "error: year 2001 (365 trading days): 27 control samples requested, "
            "but only 26 sectors are neither root\n")
        assert not out.exists()

    def test_more_samples_than_sectors_allow_are_refused_before_any_estimate(
            self, tmp_path, capsys, monkeypatch):
        def no_estimate(symbols):
            raise AssertionError("a TE matrix was estimated")

        monkeypatch.setattr("infoflow.analysis.te_matrix", no_estimate)
        series = demo_dataset()
        path = tmp_path / "demo.csv"
        path.write_text(dataset_to_csv(series), encoding="utf-8")
        index_csv = copy_as_index(series[0], tmp_path)
        out = tmp_path / "out"
        assert run(["specificity", "--input", path, "--index", index_csv,
                    "--out-dir", out, "--samples", 28]) == 2
        assert capsys.readouterr().err == (
            "error: 28 control samples requested, but at most 27 of the 28 sectors "
            "can be neither root in a year\n")
        assert not out.exists()

    def test_seed_repeatability(self, panel_csv, tmp_path):
        path, series = panel_csv
        index_csv = copy_as_index(series[0], tmp_path)
        blobs = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            assert run(["specificity", "--input", path, "--index", index_csv,
                        "--out-dir", out, "--seed", 5, "--samples", 2]) == 0
            blobs.append((out / "specificity.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, panel_csv, tmp_path):
        path, _ = panel_csv
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "input": str(path),
            "mode": "yearly",
            "q": 8,
            "format": "csv",
            "out_dir": str(tmp_path / "from_config"),
        }), encoding="utf-8")
        assert run(["msa", "--config", config]) == 0
        assert (tmp_path / "from_config" / "yearly_outgoing.csv").exists()

        # Flag overrides the config's mode.
        out = tmp_path / "override"
        assert run(["msa", "--config", config, "--mode", "whole",
                    "--out-dir", out]) == 0
        assert (out / "msa_whole.csv").exists()

    def test_bad_config_exits_2(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        config = tmp_path / "broken.json"
        config.write_text("{not json", encoding="utf-8")
        assert run(["msa", "--input", path, "--config", config]) == 2
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("values, message", [
        ({"orientaton": "out"}, "unknown config key 'orientaton'"),
        ({"denominators": "literal"}, "unknown config key 'denominators'"),
        ({"config": "other.json"}, "unknown config key 'config'"),
        ({"orientation": "outgoing"},
         'config key \'orientation\' must be one of out, in, both, not "outgoing"'),
        ({"q": [1]}, "config key 'q' must be an integer, not [1]"),
        ({"q": 8.5}, "config key 'q' must be an integer, not 8.5"),
        ({"q": "many"}, 'config key \'q\' must be an integer, not "many"'),
        ({"report": "yes"}, 'config key \'report\' must be true or false, not "yes"'),
    ])
    def test_bad_key_or_value_exits_2_naming_the_key(self, panel_csv, tmp_path, capsys,
                                                      values, message):
        path, _ = panel_csv
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values), encoding="utf-8")
        assert run(["msa", "--input", path, "--out-dir", tmp_path / "out",
                    "--config", config]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_values_parse_like_flags(self, panel_csv, tmp_path):
        # Numbers may be text, as on the command line; workers is still accepted,
        # and a key of another subcommand is allowed in a shared file.
        path, _ = panel_csv
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "q": "8", "workers": 2, "global_partition": True, "mode": "yearly",
            "format": "csv", "samples": 3,
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["msa", "--input", path, "--out-dir", out, "--config", config]) == 0
        flags = tmp_path / "flags"
        assert run(["msa", "--input", path, "--out-dir", flags, "--q", 8, "--mode", "yearly",
                    "--global-partition", "--format", "csv"]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            p.name: p.read_bytes() for p in flags.iterdir()}

    def test_unknown_format_exits_2(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        assert run(["msa", "--input", path, "--out-dir", tmp_path,
                    "--format", "csv,yaml"]) == 2
        assert "unknown format" in capsys.readouterr().err


# The flags each command takes besides -h: the ones it reads, and --workers
# on msa, which bench/run.py passes.
COMMAND_FLAGS = {
    "stats": "--input --names --out-dir --format --config --report",
    "msa": "--input --q --out-dir --format --workers --config --report --mode --from --to "
           "--crash-start --crash-end --orientation --global-partition",
    "specificity": "--input --q --seed --out-dir --format --config --index --samples",
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_only_the_flags_it_reads(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    listed = re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out)
    assert set(listed) == {"-h", "--help", *COMMAND_FLAGS[command].split()}
    for flag in sorted({"--names", "--q", "--seed", "--workers", "--report"} - set(listed)):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, "1"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, values", [
    ("msa", {"names": "names.csv"}),
    ("stats", {"q": 1, "seed": -1, "samples": 0}),
    ("specificity", {"names": "names.csv", "report": True, "workers": 0}),
])
def test_config_key_of_another_command_is_checked_then_ignored(panel_csv, tmp_path, capsys,
                                                               monkeypatch, command, values):
    path, series = panel_csv
    monkeypatch.chdir(tmp_path)
    # It repeats a code, which a command that reads --names refuses.
    (tmp_path / "names.csv").write_text("code,name\n910010,Mining\n910010,Steel\n")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    argv = [command, "--input", path]
    if command == "specificity":
        argv += ["--index", copy_as_index(series[0], tmp_path)]
    outputs = []
    for k, extra in enumerate(([], ["--config", config])):
        out = tmp_path / f"out{k}"
        assert run([*argv, *extra, "--out-dir", out]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]
    key = next(iter(values))
    config.write_text(json.dumps({key: [1]}), encoding="utf-8")
    capsys.readouterr()
    assert run([*argv, "--config", config, "--out-dir", tmp_path / "bad"]) == 2
    assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be ")


def test_readme_cli_examples_parse():
    # Each `infoflow ...` line of README's sh blocks, continuations joined,
    # names only flags its command takes.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    examples = [shlex.split(line, comments=True) for line in lines
                if line.startswith("infoflow ")]
    assert len(examples) >= 4
    for argv in examples:
        build_parser().parse_args(argv[1:])


# Every command and msa mode, as run on the ``panel_csv`` fixture; "{index}"
# stands for an index CSV.
STUDIES = {
    "stats": ["stats"],
    "stats_report": ["stats", "--report"],
    "whole": ["msa", "--mode", "whole"],
    "range": ["msa", "--mode", "range", "--from", "2000-03-01", "--to", "2000-12-29"],
    "yearly": ["msa", "--mode", "yearly"],
    "yearly_report": ["msa", "--mode", "yearly", "--report"],
    "turmoil": ["msa", "--mode", "turmoil", "--crash-start", "2000-09-01",
                "--crash-end", "2000-10-31"],
    "specificity": ["specificity", "--index", "{index}"],
}


class TestOutputFormats:
    @staticmethod
    def outputs(argv, out, capsys):
        """The names a run prints, in order, and the bytes of each named file."""
        assert run([*argv, "--out-dir", out]) == 0
        printed = [Path(line) for line in capsys.readouterr().out.splitlines()]
        assert all(p.parent == out for p in printed)
        names = [p.name for p in printed]
        assert sorted(names) == sorted(p.name for p in out.glob("*"))  # no stray files
        return names, {name: (out / name).read_bytes() for name in names}

    @pytest.mark.parametrize("study, orientation", [
        *((study, None) for study in STUDIES),
        *((study, "in") for study, argv in STUDIES.items() if argv[0] == "msa"),
    ])
    def test_a_format_subset_is_the_full_run_filtered_by_suffix(
            self, panel_csv, tmp_path, capsys, study, orientation):
        path, series = panel_csv
        index = str(copy_as_index(series[0], tmp_path))
        argv = [a.replace("{index}", index) for a in STUDIES[study]] + ["--input", path]
        if orientation:
            argv += ["--orientation", orientation]
        full_names, full_bytes = self.outputs(
            argv + ["--format", "csv,json,dot"], tmp_path / "all", capsys)
        assert full_names
        for formats in ("csv", "json", "dot", "json,dot"):
            expected = [n for n in full_names if n.rsplit(".", 1)[1] in formats.split(",")]
            if not expected:  # stats and specificity write no dot file
                assert run([*argv, "--format", formats, "--out-dir", tmp_path / formats]) == 2
                assert capsys.readouterr() == (
                    "", f"error: --format {formats} selects no output of {argv[0]}\n")
                assert not (tmp_path / formats).exists()
                continue
            names, blobs = self.outputs(
                argv + ["--format", formats], tmp_path / formats, capsys)
            assert names == expected
            assert blobs == {name: full_bytes[name] for name in expected}

    def test_unrequested_formats_are_never_rendered(self, panel_csv, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rendered a file whose format was not requested")

        monkeypatch.setattr("infoflow.cli.arborescence_to_dot", refuse)
        monkeypatch.setattr("infoflow.analysis.render_yearly_json", refuse)
        path, _ = panel_csv
        out = tmp_path / "out"
        assert run(["msa", "--input", path, "--out-dir", out, "--mode", "yearly",
                    "--format", "csv"]) == 0
        assert (out / "yearly_outgoing.csv").exists()

    @pytest.mark.parametrize("command", ["stats", "msa", "specificity"])
    def test_unknown_format_is_reported_before_missing_input(self, command, tmp_path,
                                                             capsys):
        assert run([command, "--format", "csv,yaml", "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: unknown format(s): yaml\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("study", ["range", "turmoil"])
def test_global_partition_bins_every_window_by_the_whole_panel(panel_csv, tmp_path, study):
    from datetime import date

    from infoflow import analysis
    from infoflow.arborescence import arborescence_to_dot, arborescence_to_json
    from infoflow.symbolize import make_partition
    from infoflow.timeseries import load_dataset, slice_returns

    path, _ = panel_csv
    written = {}
    for flags in ((), ("--global-partition",)):
        out = tmp_path / "-".join(("out", *flags))
        assert run([*STUDIES[study], "--input", path, "--out-dir", out, *flags]) == 0
        written[flags] = {p.name: p.read_text() for p in out.iterdir()}

    # The same windows run by the library against the whole panel's bins.
    returns = analysis.returns_panel(load_dataset(path))
    whole = make_partition(returns, 15)

    def window(interval, label):
        return analysis.msas_from_returns(slice_returns(returns, interval), 15, whole,
                                          label=label)

    if study == "range":
        w = window((date(2000, 3, 1), date(2000, 12, 29)), "msa_range")
        expected = {"msa_range.csv": analysis.render_msa_bundle_csv(w)}
        for o in w.trees:
            expected[f"msa_range_{o}.json"] = arborescence_to_json(w.trees[o], w.paths[o])
            expected[f"msa_range_{o}.dot"] = arborescence_to_dot(w.trees[o], w.paths[o],
                                                                 name="msa_range")
    else:
        crash = (date(2000, 9, 1), date(2000, 10, 31))
        own_bins = analysis.turmoil_study(returns, 15, *crash)
        results = {label: window(r.interval, label) for label, r in own_bins.results.items()}
        turmoil = analysis.TurmoilStudy(*crash, own_bins.crash_days, 15, results)
        expected = {"turmoil.csv": analysis.render_turmoil_csv(turmoil),
                    "turmoil.json": analysis.render_turmoil_json(turmoil)}
        for label, w in results.items():
            for o in w.trees:
                expected[f"turmoil_{label}_{o}.dot"] = arborescence_to_dot(
                    w.trees[o], w.paths[o], name=f"turmoil_{label}")
    assert written[("--global-partition",)] == expected
    assert written[()] != expected  # the flag changes what these windows write


CONSTANT = ("error: whole sample (730 trading days): sector 910020: degenerate series: "
            "constant values")


# (input, msa options, the skip warning it must give or None, error line).
# Inputs: the ``panel_csv`` fixture as it is, its first 20 closes, or with
# sector 910020 held flat through the whole file.
@pytest.mark.parametrize("edit, argv, warning, message", [
    pytest.param("none", ["--mode", "turmoil", "--crash-start", "2000-10-31",
                          "--crash-end", "2000-09-01"], None,
                 "error: --crash-start 2000-10-31 is after --crash-end 2000-09-01",
                 id="turmoil-reversed"),
    pytest.param("none", ["--mode", "turmoil", "--crash-start", "2030-01-01",
                          "--crash-end", "2030-01-31"], None,
                 "error: no trading days inside the crash interval", id="turmoil-no-days"),
    pytest.param("none", ["--mode", "turmoil", "--crash-start", "2000-01-10",
                          "--crash-end", "2000-02-29"], None,
                 "error: turmoil windows need 153 trading days before the crash start and 153 "
                 "from it; the dataset has 9 and 721", id="turmoil-uncovered"),
    pytest.param("none", ["--mode", "range", "--from", "2031-01-01", "--to", "2030-05-01"],
                 None, "error: --from 2031-01-01 is after --to 2030-05-01",
                 id="range-empty-interval"),
    pytest.param("none", ["--mode", "range", "--from", "2030-05-01", "--to", "2031-01-01"],
                 None, "error: range 2030-05-01 to 2031-01-01: empty result",
                 id="range-empty-result"),
    pytest.param("none", ["--mode", "range", "--from", "2000-01-10", "--to", "2000-01-12"],
                 None, "error: range 2000-01-10 to 2000-01-12 (3 trading days): "
                 "fewer than the minimum of 30", id="range-short"),
    pytest.param("20 closes", ["--mode", "yearly"], "skipping year 2000: only 19 trading day",
                 "error: no calendar year has the minimum of 30 trading days",
                 id="yearly-no-full-year"),
    pytest.param("constant", ["--mode", "whole", "--global-partition"], None, CONSTANT,
                 id="whole-global-constant"),
    pytest.param("constant", ["--mode", "range", "--from", "2000-03-01", "--to", "2000-12-29",
                              "--global-partition"], None, CONSTANT,
                 id="range-global-constant"),
    pytest.param("constant", ["--mode", "yearly", "--global-partition"], None, CONSTANT,
                 id="yearly-global-constant"),
    pytest.param("constant", ["--mode", "turmoil", "--crash-start", "2000-09-01",
                              "--crash-end", "2000-10-31", "--global-partition"], None,
                 CONSTANT, id="turmoil-global-constant"),
])
def test_window_selection_refusals(panel_csv, tmp_path, capsys, edit, argv, warning,
                                   message):
    path, _ = panel_csv
    if edit == "constant":
        freeze_column(path, "910020")
    elif edit == "20 closes":
        path.write_text("\n".join(path.read_text().splitlines()[:21]) + "\n")
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match=warning) if warning else contextlib.nullcontext():
        assert run(["msa", "--input", path, "--out-dir", out, *argv]) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--mode", "range", "--from", "2000/03/01", "--to", "2000-12-29"],
     "--from must be an ISO-8601 date"),
    (["--mode", "turmoil", "--crash-start", "2000-09-01", "--crash-end", "2000/10/31"],
     "--crash-end must be an ISO-8601 date"),
])
def test_bad_date_is_reported_before_a_constant_sector(panel_csv, tmp_path, capsys, argv,
                                                       message):
    # Both faults at once: the dates are parsed before the whole panel's
    # bins are cut.
    path, _ = panel_csv
    freeze_column(path, "910020")
    assert run(["msa", "--input", path, "--out-dir", tmp_path / "out", *argv,
                "--global-partition"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_failed_write_leaves_no_file(panel_csv, tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk refused the rename")

    monkeypatch.setattr("infoflow.cli.os.replace", refuse)
    path, _ = panel_csv
    out = tmp_path / "out"
    assert run(["stats", "--input", path, "--out-dir", out]) == 2
    assert capsys.readouterr().err == "error: disk refused the rename\n"
    assert list(out.iterdir()) == []  # neither the temp file nor the target


@pytest.mark.parametrize("config, message", [
    (None, "config file not found"),
    ("[1, 2]", "config file must hold a JSON object"),
])
def test_config_file_missing_or_not_an_object_exits_2(panel_csv, tmp_path, capsys,
                                                      config, message):
    path, _ = panel_csv
    config_path = tmp_path / "run.json"
    if config is not None:
        config_path.write_text(config, encoding="utf-8")
    assert run(["msa", "--input", path, "--out-dir", tmp_path / "out",
                "--config", config_path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


_FIELD_LIMIT = 131072  # csv's default field size limit
_OVER_LIMIT = "error: row {line}: field larger than field limit (131072)\n"


def _stray_quote(lines):
    # A quote that opens a price cell runs it over every later row.
    lines[100] = lines[100].replace(",", ',"', 1)
    lines += lines[101:] * (1 + _FIELD_LIMIT // len("\n".join(lines[101:])))


def _long_price(lines):
    lines[100] = lines[100].rsplit(",", 1)[0] + "," + "1" * (_FIELD_LIMIT + 1)


def _long_code(lines):
    lines[0] += "1" * _FIELD_LIMIT


@pytest.mark.parametrize("command", ["stats", "msa"])
@pytest.mark.parametrize("edit, line", [
    (_stray_quote, 101), (_long_price, 101), (_long_code, 1),
], ids=["stray_quote", "long_price", "long_code"])
def test_unreadable_csv_record_exits_2_naming_its_first_line(panel_csv, tmp_path, capsys,
                                                            command, edit, line):
    path, _ = panel_csv
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    assert run([command, "--input", path, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr() == ("", _OVER_LIMIT.format(line=line))
    assert not (tmp_path / "out").exists()


def test_unreadable_names_record_exits_2_naming_its_first_line(panel_csv, tmp_path, capsys):
    path, series = panel_csv
    names = tmp_path / "names.csv"
    names.write_text(f"code,name\n{series[0].sector.code},{'x' * (_FIELD_LIMIT + 1)}\n")
    assert run(["stats", "--input", path, "--names", names, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr() == (
        "", "error: --names: row 2: field larger than field limit (131072)\n")
    assert not (tmp_path / "out").exists()


def test_deeply_nested_config_exits_2(panel_csv, tmp_path, capsys):
    path, _ = panel_csv
    config = tmp_path / "run.json"
    config.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert run(["msa", "--input", path, "--out-dir", tmp_path / "out", "--config", config]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and err.startswith("error: invalid config file: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_price_row_that_is_not_utf8_exits_2_naming_its_line(panel_csv, tmp_path, capsys,
                                                            newline):
    path, _ = panel_csv
    lines = path.read_bytes().splitlines()
    lines[100] = b"\xbb\xbf" + lines[100]  # a BOM without its first byte
    path.write_bytes(newline.join(lines) + newline)
    assert run(["stats", "--input", path, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr() == ("", "error: row 101: not UTF-8 text\n")
    assert not (tmp_path / "out").exists()


def test_names_row_that_is_not_utf8_exits_2_naming_its_line(panel_csv, tmp_path, capsys):
    path, series = panel_csv
    names = tmp_path / "names.csv"
    names.write_bytes(f"code,name\n{series[0].sector.code},Caf".encode() + b"\xe9\n")
    assert run(["stats", "--input", path, "--names", names, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr() == ("", "error: --names: row 2: not UTF-8 text\n")
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_exits_2(panel_csv, tmp_path, capsys):
    path, _ = panel_csv
    config = tmp_path / "run.json"
    config.write_bytes(b'{"mode": "yearly\xff"}')
    assert run(["msa", "--input", path, "--out-dir", tmp_path / "out", "--config", config]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and err.startswith("error: invalid config file: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--mode", "range", "--from", "2000/03/01", "--to", "2000-12-29"],
     "--from must be an ISO-8601 date"),
    (["--format", ","], "no output format selected"),
])
def test_bad_date_or_empty_format_exits_2(panel_csv, tmp_path, capsys, flags, message):
    path, _ = panel_csv
    assert run(["msa", "--input", path, "--out-dir", tmp_path / "out", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# 2000-01-05 in ISO 8601's basic, week and extended week forms, which
# date.fromisoformat reads from Python 3.11 on.
@pytest.mark.parametrize("text", ["20000105", "2000W013", "2000-W01-3"])
def test_only_yyyy_mm_dd_is_a_date(panel_csv, tmp_path, capsys, text):
    path, _ = panel_csv
    prices = tmp_path / "prices.csv"
    prices.write_text(f"date,801010\n2000-01-04,1.0\n{text},1.5\n2000-01-06,2.0\n")
    for argv, message in [
        (["stats", "--input", prices], f"row 3: invalid ISO-8601 date '{text}'"),
        (["msa", "--input", path, "--mode", "range", "--from", text, "--to", "2000-12-29"],
         "--from must be an ISO-8601 date"),
        (["msa", "--input", path, "--mode", "turmoil", "--crash-start", text,
          "--crash-end", "2000-10-31"], "--crash-start must be an ISO-8601 date"),
    ]:
        assert run([*argv, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


def test_repeated_date_in_a_clean_file_names_its_row(tmp_path, capsys):
    # A file the one-call loader would parse: only its date check declines
    # it, so the refusal and its row come from the row-by-row reader.
    prices = tmp_path / "prices.csv"
    prices.write_text("date,801010,801020\n2000-01-04,1.0,2.0\n2000-01-05,1.5,2.5\n"
                      "2000-01-05,2.0,3.0\n2000-01-06,2.5,3.5\n")
    assert run(["stats", "--input", prices, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr() == ("", "error: row 4: dates not strictly increasing\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["msa", "--q", "1"], "--q must be at least 2", id="whole-q"),
    pytest.param(["msa", "--mode", "yearly", "--q", "1"], "--q must be at least 2",
                 id="yearly-q"),
    pytest.param(["msa", "--mode", "turmoil", "--crash-start", "2000-09-01",
                  "--crash-end", "2000-10-31", "--q", "-3"], "--q must be at least 2",
                 id="turmoil-q"),
    pytest.param(["specificity", "--q", "1", "--samples", "2"], "--q must be at least 2",
                 id="specificity-q"),
    pytest.param(["specificity", "--samples", "0"], "--samples must be at least 1",
                 id="specificity-samples"),
    pytest.param(["specificity", "--seed", "-1"], "--seed must be at least 0",
                 id="specificity-seed"),
    pytest.param(["msa", "--mode", "range", "--from", "2001-01-01", "--to", "2000-12-31"],
                 "--from 2001-01-01 is after --to 2000-12-31", id="range-reversed"),
    pytest.param(["msa", "--mode", "turmoil", "--crash-start", "2000-10-31",
                  "--crash-end", "2000-09-01"],
                 "--crash-start 2000-10-31 is after --crash-end 2000-09-01",
                 id="turmoil-reversed"),
    pytest.param(["msa", "--mode", "range", "--from", "2000-03-01", "--to", "2000/12/29"],
                 "--to must be an ISO-8601 date", id="range-date"),
    pytest.param(["msa", "--mode", "turmoil", "--crash-start", "2000-09-31",
                  "--crash-end", "2000-10-31"], "--crash-start must be an ISO-8601 date",
                 id="turmoil-date"),
])
def test_q_and_samples_are_checked_before_the_input_is_read(panel_csv, tmp_path, capsys,
                                                            argv, message):
    # Each flag is refused the same way with a valid input and a missing one.
    path, series = panel_csv
    index = ["--index", copy_as_index(series[0], tmp_path)] if argv[0] == "specificity" else []
    out = tmp_path / "out"
    for source in (path, tmp_path / "missing.csv"):
        assert run([*argv, *index, "--input", source, "--out-dir", out]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("mode, q, window", [
    ("whole", 2**63, "whole sample (730 trading days)"),
    ("yearly", 2**63 - 1, "year 2000 (366 trading days)"),
], ids=["whole-2**63", "yearly-2**63-1"])
def test_q_above_2_pow_53_is_refused_on_one_line(panel_csv, tmp_path, capsys, via, mode, q,
                                                  window):
    # Both lie past 2**53, where float64 no longer counts bins exactly; 2**63
    # does not even fit an int64.
    path, _ = panel_csv
    out = tmp_path / "out"
    argv = ["msa", "--input", path, "--out-dir", out, "--mode", mode]
    if via == "flag":
        argv += ["--q", q]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"q": q}), encoding="utf-8")
        argv += ["--config", config]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {window}: q must be at most 2**53, not {q}\n")
    assert not out.exists()


def test_oversized_alphabet_is_refused_on_one_line(panel_csv, tmp_path, capsys):
    # 5 sectors over 2000 symbols need 2 * 10**7 count cells, above 2**24.
    path, _ = panel_csv
    out = tmp_path / "out"
    assert run(["msa", "--input", path, "--out-dir", out, "--q", "2000"]) == 2
    assert capsys.readouterr() == ("", "error: whole sample (730 trading days): alphabet of "
                                       "2000 symbols is too large for 5 sectors: 5 x 2000^2 "
                                       "count cells exceed 16777216\n")
    assert not out.exists()


def test_oversized_alphabet_names_the_window_that_reaches_it(tmp_path, capsys, monkeypatch):
    # Whole-sample bins leave 2000's top bin empty: each sector's one jump, the top of
    # its range, comes in 2001.  So 2000 is estimated on fewer symbols, and 2001 is
    # the first window whose alphabet outgrows the (lowered) limit.
    from datetime import date

    from infoflow import entropy

    monkeypatch.setattr(entropy, "_MAX_COUNT_CELLS", 3 * 4**2)
    returns = np.random.default_rng(3).uniform(-0.01, 0.01, size=(731, 3))
    returns[[0, 400, 500, 600], [0, 0, 1, 2]] = [0.0, 0.05, 0.05, 0.05]
    closes = 100.0 * np.exp(np.cumsum(returns, axis=0))
    lines = ["date,910010,910020,910030"]
    lines += [f"{date(2000, 1, 1) + timedelta(days=t)}," + ",".join(map(repr, row))
              for t, row in enumerate(closes.tolist())]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["msa", "--input", path, "--out-dir", out, "--q", 5, "--mode", "yearly",
                "--global-partition"]) == 2
    assert capsys.readouterr() == ("", "error: year 2001 (365 trading days): alphabet of 5 "
                                       "symbols is too large for 3 sectors: 3 x 5^2 count "
                                       "cells exceed 48\n")
    assert not out.exists()

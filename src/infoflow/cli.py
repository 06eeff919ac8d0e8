"""Command-line entry point: datasets in, report files out.

Three subcommands cover the studies: ``stats`` (per-sector summary table),
``msa`` (whole-sample / yearly / date-range / turmoil arborescences), and
``specificity`` (root-vs-index correlation study); each takes only the
options it reads.  A JSON config file holds long-form options keyed by
dest; values pass the flags' own types and choices, an unknown key is an
error, another command's key is ignored, and explicit flags win.

Each command runs its study and returns every file it can produce as an
ordered ``{filename: renderer}`` mapping of zero-argument callables.
``main`` is the one writer: before any command runs it checks ``--format``,
and ``--q``, ``--seed`` and ``--samples`` where the command takes them
(``msa`` checks its date flags and their order before it reads the input);
it renders only the files whose suffix is a requested format, in order, and
writes each atomically (temp file + rename); a format that selects none of
the command's files is an error.  Every command is deterministic given input
bytes, configuration, and seed.

``--orientation`` selects the trees a command writes, and ``whole``,
``range`` and ``yearly`` solve only those; ``turmoil`` and ``specificity``
always solve both, because ``turmoil.csv``/``turmoil.json`` and the
specificity study read both.  A configuration, input or file-system error
(say, an input path that is a directory) is one ``error:`` line on stderr,
exit status 2; an error in the ``--names`` or ``--index`` file names its flag.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from collections.abc import Callable
from dataclasses import asdict
from datetime import date
from functools import partial
from pathlib import Path

from . import analysis
from .arborescence import ORIENTATIONS, arborescence_to_dot, arborescence_to_json
from .timeseries import (
    DatasetError,
    PriceSeries,
    load_dataset,
    load_sector_names,
    parse_date,
    slice_returns,  # unused here; bench/tracer.py still wraps it under this name
    summary_stats,
)

_DEFAULTS = {
    "q": 15,
    "seed": 0,
    "out_dir": ".",
    "format": "csv,json,dot",
    "mode": "whole",
    "orientation": "both",
    "samples": 1,
    "report": False,
    "global_partition": False,
}

_FORMATS = ("csv", "json", "dot")

# Output file name -> zero-argument renderer of its text, in output order.
Files = dict[str, Callable[[], str]]


class CliError(Exception):
    """Configuration or input problem; maps to exit status 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoflow",
        description="Information-flow network studies over sector price panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="wide-format price CSV (date,<code>,...)")
    common.add_argument("--out-dir", dest="out_dir", help="output directory")
    common.add_argument("--format", help="comma list out of csv,json,dot")
    common.add_argument("--config", help="JSON config file; flags override its values")
    binned = argparse.ArgumentParser(add_help=False)
    binned.add_argument("--q", type=int,
                        help=f"number of discretization bins (default {_DEFAULTS['q']})")
    rounded = argparse.ArgumentParser(add_help=False)
    rounded.add_argument("--report", action="store_true",
                         help="round tables to display precision")

    stats = sub.add_parser("stats", parents=[common, rounded],
                           help="per-sector return summary statistics")
    stats.add_argument("--names", help="optional code,name sector metadata CSV")

    msa = sub.add_parser("msa", parents=[common, binned, rounded],
                         help="maximum spanning arborescences and flow paths")
    msa.add_argument("--workers", type=int,
                     help="has no effect; kept because bench/run.py passes it")
    msa.add_argument("--mode", choices=["whole", "yearly", "range", "turmoil"])
    msa.add_argument("--from", dest="date_from", help="range mode start date (YYYY-MM-DD)")
    msa.add_argument("--to", dest="date_to", help="range mode end date (YYYY-MM-DD)")
    msa.add_argument("--crash-start", dest="crash_start", help="turmoil crash start (YYYY-MM-DD)")
    msa.add_argument("--crash-end", dest="crash_end", help="turmoil crash end (YYYY-MM-DD)")
    msa.add_argument("--orientation", choices=["out", "in", "both"])
    msa.add_argument("--global-partition", dest="global_partition", action="store_true",
                     help="reuse whole-sample bin edges in every window")

    spc = sub.add_parser("specificity", parents=[common, binned],
                         help="root-sector vs index correlation study")
    spc.add_argument("--seed", type=int, help="seed for any randomized step")
    spc.add_argument("--index", help="index price CSV aligned with the dataset")
    spc.add_argument("--samples", type=int, help="control draws per year (default 1)")

    return parser


def _config_options() -> dict[str, argparse.Action]:
    """The option behind each config key: any subcommand's long-form dest."""
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    return {a.dest: a for command in commands.values() for a in command._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _config_value(key: str, value, option: argparse.Action):
    """A config file value, parsed by its option's own type and choices."""
    if option.nargs == 0:  # an on/off flag
        expected = "true or false"
        if isinstance(value, bool):
            return value
    else:
        expected = (f"one of {', '.join(option.choices)}" if option.choices
                    else "an integer" if option.type is int else "a string")
        if isinstance(value, (str, int)) and not isinstance(value, bool):
            with contextlib.suppress(ValueError):
                parsed = (option.type or str)(value)
                if option.choices is None or parsed in option.choices:
                    return parsed
    raise CliError(f"config key {key!r} must be {expected}, not {json.dumps(value)}")


def _merge_config(args: argparse.Namespace) -> dict:
    """The command's own options: hard defaults, then config file, then explicit flags."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise CliError("config file not found")
        try:  # a RecursionError is a file nested too deep
            file_values = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise CliError(f"invalid config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise CliError("config file must hold a JSON object")
        options = _config_options()
        for key, value in file_values.items():
            if key not in options:
                raise CliError(f"unknown config key {key!r}")
            merged[key] = _config_value(key, value, options[key])
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None and value is not False:
            merged[key] = value
    return {key: value for key, value in merged.items() if key in vars(args)}


def _parse_date(value: str, flag: str) -> date:
    try:
        return parse_date(value)
    except ValueError as exc:
        raise CliError(f"{flag} must be an ISO-8601 date") from exc


def _formats(cfg: dict) -> set[str]:
    requested = {f.strip() for f in str(cfg["format"]).split(",") if f.strip()}
    unknown = requested - set(_FORMATS)
    if unknown:
        raise CliError(f"unknown format(s): {', '.join(sorted(unknown))}")
    if not requested:
        raise CliError("no output format selected")
    return requested


def _orientations(cfg: dict) -> tuple[str, ...]:
    return {"out": ("outgoing",), "in": ("incoming",), "both": ORIENTATIONS}[cfg["orientation"]]


@contextlib.contextmanager
def _file_of(flag: str):
    """An input error raised inside names the flag whose file was being read."""
    try:
        yield
    except DatasetError as exc:
        raise DatasetError(f"{flag}: {exc}") from None


def _load_input(cfg: dict) -> list[PriceSeries]:
    if not cfg.get("input"):
        raise CliError("--input is required")
    with _file_of("--names"):
        names = load_sector_names(cfg["names"]) if cfg.get("names") else None
    return load_dataset(cfg["input"], names=names)


def _write(out_dir: Path, filename: str, text: str) -> Path:
    """Atomic write: publish the file only once its contents are complete."""
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / filename
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{filename}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


def _cmd_stats(cfg: dict) -> Files:
    returns = analysis.returns_panel(_load_input(cfg))
    rows = []
    for sector, row in zip(returns.sectors, returns.values):
        try:
            rows.append((sector, summary_stats(row)))
        except ValueError as exc:
            raise ValueError(f"sector {sector.code}: {exc}") from None
    return {
        "summary_stats.csv": partial(_render_stats_csv, rows, cfg["report"]),
        "summary_stats.json": partial(_render_stats_json, rows),
    }


def _render_stats_csv(rows, report_mode: bool) -> str:
    if report_mode:
        lines = ["symbol,sector,mean_x1000,max,min,std,skewness,kurtosis,jb"]
    else:
        lines = ["symbol,sector,mean,max,min,std,skewness,kurtosis,jb,jb_reject_1pct"]
    for sector, s in rows:
        name = sector.name
        if any(c in name for c in ',"\r\n'):  # quoted as by the csv module's minimal quoting
            name = '"' + name.replace('"', '""') + '"'
        if report_mode:
            values = (f"{s.mean * 1e3:.3f},{s.max:.3f},{s.min:.3f},{s.std:.3f},"
                      f"{s.skewness:.3f},{s.kurtosis:.3f},{s.jb_statistic:.1f}")
        else:
            values = (f"{s.mean!r},{s.max!r},{s.min!r},{s.std!r},{s.skewness!r},"
                      f"{s.kurtosis!r},{s.jb_statistic!r},{str(s.jb_reject_at_1pct).lower()}")
        lines.append(f"{sector.short_code},{name},{values}")
    return "\n".join(lines) + "\n"


def _render_stats_json(rows) -> str:
    payload = [{"code": sector.code, "symbol": sector.short_code, "name": sector.name,
                **asdict(s)} for sector, s in rows]
    return json.dumps(payload, indent=2) + "\n"


def _dot(stem: str, window: analysis.WindowResult, orientation: str) -> Files:
    return {f"{stem}_{orientation}.dot": partial(
        arborescence_to_dot, window.trees[orientation], window.paths[orientation], name=stem)}


def _cmd_msa(cfg: dict) -> Files:
    mode = cfg["mode"]
    orientations = _orientations(cfg)
    report = cfg["report"]
    q = int(cfg["q"])

    # The mode's two date flags, checked before the input is read.
    flags = {"range": (("date_from", "--from"), ("date_to", "--to")),
             "turmoil": (("crash_start", "--crash-start"), ("crash_end", "--crash-end"))
             }.get(mode, ())
    if not all(cfg.get(key) for key, _ in flags):
        raise CliError(f"{mode} mode requires {flags[0][1]} and {flags[1][1]}")
    dates = tuple(_parse_date(cfg[key], flag) for key, flag in flags)
    if dates and dates[0] > dates[1]:
        raise CliError(f"{flags[0][1]} {dates[0]} is after {flags[1][1]} {dates[1]}")

    returns = analysis.returns_panel(_load_input(cfg))

    if mode in ("whole", "range"):
        if mode == "whole":
            stem, name, span = "msa_whole", "whole sample", returns.dates[[0, -1]].tolist()
        else:
            stem, name, span = "msa_range", f"range {dates[0]} to {dates[1]}", dates
        [result] = analysis.run_windows(returns, q, [(stem, name, span)],
                                        cfg["global_partition"], orientations)
        files = {f"{stem}.csv": partial(analysis.render_msa_bundle_csv, result, report)}
        for orientation, arb in result.trees.items():
            files[f"{stem}_{orientation}.json"] = partial(arborescence_to_json, arb,
                                                          result.paths[orientation])
            files |= _dot(stem, result, orientation)
        return files

    if mode == "yearly":
        windows = analysis.yearly_reports(returns, q,
                                          global_partition=cfg["global_partition"],
                                          orientations=orientations)
        files = {}
        for orientation in orientations:
            files[f"yearly_{orientation}.csv"] = partial(
                analysis.render_yearly_csv, windows, orientation, report)
            files[f"degree_heatmap_{orientation}.csv"] = partial(
                analysis.render_degree_heatmap_csv, windows, orientation)
            for w in windows:
                files |= _dot(f"msa_{w.label}", w, orientation)
        files["root_occurrences.csv"] = partial(analysis.render_root_occurrences_csv,
                                                windows)
        files["yearly_reports.json"] = partial(analysis.render_yearly_json, windows)
        return files

    study = analysis.turmoil_study(returns, q, *dates, global_partition=cfg["global_partition"])
    files = {"turmoil.csv": partial(analysis.render_turmoil_csv, study, report),
             "turmoil.json": partial(analysis.render_turmoil_json, study)}
    for result in study.results.values():
        for orientation in orientations:
            files |= _dot(f"turmoil_{result.label}", result, orientation)
    return files


def _cmd_specificity(cfg: dict) -> Files:
    if not cfg.get("index"):
        raise CliError("--index is required for the specificity study")
    dataset = _load_input(cfg)
    with _file_of("--index"):
        index = load_dataset(cfg["index"])
    if len(index) != 1:
        raise CliError(f"--index must hold one price column, not {len(index)}")
    returns, index = analysis.returns_panel(dataset), analysis.returns_panel(index)
    result = analysis.specificity_study(returns, index, cfg["q"], cfg["seed"], cfg["samples"])
    return {"specificity.csv": partial(analysis.render_specificity_csv, result),
            "specificity.json": partial(analysis.render_specificity_json, result)}


_COMMANDS = {"stats": _cmd_stats, "msa": _cmd_msa, "specificity": _cmd_specificity}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        requested = _formats(cfg)
        for key, floor in (("q", 2), ("seed", 0), ("samples", 1)):
            if key in cfg and cfg[key] < floor:
                raise CliError(f"--{key} must be at least {floor}")
        files = _COMMANDS[args.command](cfg)
        selected = [name for name in files if name.rsplit(".", 1)[1] in requested]
        if not selected:
            raise CliError(f"--format {cfg['format']} selects no output of {args.command}")
        out_dir = Path(cfg["out_dir"])
        # Renderers run here, in file order, and only for requested formats.
        written = [_write(out_dir, name, files[name]()) for name in selected]
    except (CliError, DatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

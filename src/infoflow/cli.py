"""Command-line entry point: datasets in, report files out.

Three subcommands cover the studies: ``stats`` (per-sector summary table),
``msa`` (whole-sample / yearly / date-range / turmoil arborescences), and
``specificity`` (root-vs-index correlation study).  A JSON config file can
hold any long-form option, keyed by its dest; its values pass the flags'
own types and choices, an unknown key is an error, and explicit flags
override file values.  All
outputs are written atomically (temp file + rename) and every command is
deterministic given input bytes, configuration, and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from datetime import date
from pathlib import Path

from . import analysis
from .arborescence import ORIENTATIONS, arborescence_to_dot, arborescence_to_json
from .timeseries import (
    DatasetError,
    PriceSeries,
    load_dataset,
    load_sector_names,
    slice_returns,
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
}

_FORMATS = ("csv", "json", "dot")

# Config keys whose feature is gone, with what to tell a user who sets one.
_REMOVED_KEYS = {"denominators": "was removed with the literal TE mode"}


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
    common.add_argument("--names", help="optional code,name sector metadata CSV")
    common.add_argument("--q", type=int,
                        help=f"number of discretization bins (default {_DEFAULTS['q']})")
    common.add_argument("--seed", type=int, help="seed for any randomized step")
    common.add_argument("--out-dir", dest="out_dir", help="output directory")
    common.add_argument("--format", help="comma list out of csv,json,dot")
    common.add_argument("--workers", type=int,
                        help="accepted for compatibility; has no effect")
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--report", action="store_true",
                        help="round tables to display precision")

    sub.add_parser("stats", parents=[common],
                   help="per-sector return summary statistics")

    msa = sub.add_parser("msa", parents=[common],
                         help="maximum spanning arborescences and flow paths")
    msa.add_argument("--mode", choices=["whole", "yearly", "range", "turmoil"])
    msa.add_argument("--from", dest="date_from", help="range mode start date (ISO)")
    msa.add_argument("--to", dest="date_to", help="range mode end date (ISO)")
    msa.add_argument("--crash-start", dest="crash_start", help="turmoil crash start (ISO)")
    msa.add_argument("--crash-end", dest="crash_end", help="turmoil crash end (ISO)")
    msa.add_argument("--orientation", choices=["out", "in", "both"])
    msa.add_argument("--global-partition", dest="global_partition", action="store_true",
                     help="reuse whole-sample bin edges in every window")

    spc = sub.add_parser("specificity", parents=[common],
                         help="root-sector vs index correlation study")
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
    """Layer resolution: hard defaults, then config file, then explicit flags."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise CliError("config file not found")
        try:
            file_values = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise CliError("config file must hold a JSON object")
        options = _config_options()
        for key, value in file_values.items():
            if key in _REMOVED_KEYS:
                raise CliError(f"config key {key!r} {_REMOVED_KEYS[key]}")
            if key not in options:
                raise CliError(f"unknown config key {key!r}")
            merged[key] = _config_value(key, value, options[key])
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None and value is not False:
            merged[key] = value
    return merged


def _parse_date(value: str, flag: str) -> date:
    try:
        return date.fromisoformat(value)
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


def _orientations(cfg: dict) -> list[str]:
    return {
        "out": ["outgoing"],
        "in": ["incoming"],
        "both": list(ORIENTATIONS),
    }[cfg["orientation"]]


def _load_input(cfg: dict) -> list[PriceSeries]:
    if not cfg.get("input"):
        raise CliError("--input is required")
    names = None
    if cfg.get("names"):
        names = load_sector_names(cfg["names"])
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


def _cmd_stats(cfg: dict) -> list[Path]:
    returns = analysis.returns_panel(_load_input(cfg))
    formats = _formats(cfg)
    out_dir = Path(cfg["out_dir"])
    report = bool(cfg.get("report"))
    rows = [(sector, summary_stats(row)) for sector, row in zip(returns.sectors, returns.values)]

    written = []
    if "csv" in formats:
        written.append(_write(out_dir, "summary_stats.csv",
                              _render_stats_csv(rows, report)))
    if "json" in formats:
        written.append(_write(out_dir, "summary_stats.json", _render_stats_json(rows)))
    return written


def _render_stats_csv(rows, report_mode: bool) -> str:
    if report_mode:
        lines = ["symbol,sector,mean_x1000,max,min,std,skewness,kurtosis,jb"]
        for sector, s in rows:
            lines.append(
                f"{sector.short_code},{sector.name},{s.mean * 1e3:.3f},{s.max:.3f},"
                f"{s.min:.3f},{s.std:.3f},{s.skewness:.3f},{s.kurtosis:.3f},"
                f"{s.jb_statistic:.1f}"
            )
    else:
        lines = ["symbol,sector,mean,max,min,std,skewness,kurtosis,jb,jb_reject_1pct"]
        for sector, s in rows:
            lines.append(
                f"{sector.short_code},{sector.name},{s.mean!r},{s.max!r},{s.min!r},"
                f"{s.std!r},{s.skewness!r},{s.kurtosis!r},{s.jb_statistic!r},"
                f"{str(s.jb_reject_at_1pct).lower()}"
            )
    return "\n".join(lines) + "\n"


def _render_stats_json(rows) -> str:
    payload = [
        {
            "code": sector.code,
            "symbol": sector.short_code,
            "name": sector.name,
            "mean": s.mean,
            "max": s.max,
            "min": s.min,
            "std": s.std,
            "skewness": s.skewness,
            "kurtosis": s.kurtosis,
            "jb_statistic": s.jb_statistic,
            "jb_reject_at_1pct": s.jb_reject_at_1pct,
        }
        for sector, s in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _emit_bundle(
    out_dir: Path,
    formats: set[str],
    orientations: list[str],
    bundle: analysis.MsaBundle,
    stem: str,
    report: bool,
) -> list[Path]:
    written = []
    if "csv" in formats:
        written.append(_write(out_dir, f"{stem}.csv",
                              analysis.render_msa_bundle_csv(
                                  bundle, stem, report, tuple(orientations))))
    for orientation in orientations:
        arb = bundle.arborescence(orientation)
        path = bundle.path(orientation)
        if "json" in formats:
            written.append(_write(out_dir, f"{stem}_{orientation}.json",
                                  arborescence_to_json(arb, path)))
        if "dot" in formats:
            written.append(_write(out_dir, f"{stem}_{orientation}.dot",
                                  arborescence_to_dot(arb, path, name=stem)))
    return written


def _cmd_msa(cfg: dict) -> list[Path]:
    mode = cfg["mode"]
    formats = _formats(cfg)
    orientations = _orientations(cfg)
    out_dir = Path(cfg["out_dir"])
    report = bool(cfg.get("report"))
    q = int(cfg["q"])

    if mode == "turmoil" and not (cfg.get("crash_start") and cfg.get("crash_end")):
        raise CliError("turmoil mode requires --crash-start and --crash-end")
    if mode == "range" and not (cfg.get("date_from") and cfg.get("date_to")):
        raise CliError("range mode requires --from and --to")

    returns = analysis.returns_panel(_load_input(cfg))
    written: list[Path] = []

    if mode in ("whole", "range"):
        stem = "msa_whole"
        label = "whole sample"
        if mode == "range":
            window = (
                _parse_date(cfg["date_from"], "--from"),
                _parse_date(cfg["date_to"], "--to"),
            )
            returns = slice_returns(returns, window)
            stem = "msa_range"
            label = f"range {window[0]} to {window[1]}"
        bundle = analysis.msas_from_returns(returns, q, window=label)
        written += _emit_bundle(out_dir, formats, orientations, bundle, stem, report)

    elif mode == "yearly":
        reports = analysis.yearly_reports(
            returns, q,
            global_partition=bool(cfg.get("global_partition")),
        )
        for orientation in orientations:
            if "csv" in formats:
                written.append(_write(
                    out_dir, f"yearly_{orientation}.csv",
                    analysis.render_yearly_csv(reports[orientation], report),
                ))
                heatmap = analysis.degree_heatmap(reports[orientation])
                written.append(_write(
                    out_dir, f"degree_heatmap_{orientation}.csv",
                    analysis.render_degree_heatmap_csv(heatmap, kind="total"),
                ))
            if "dot" in formats:
                for r in reports[orientation]:
                    written.append(_write(
                        out_dir, f"msa_{r.year}_{orientation}.dot",
                        arborescence_to_dot(r.arborescence, r.path,
                                            name=f"msa_{r.year}"),
                    ))
        if "csv" in formats:
            written.append(_write(out_dir, "root_occurrences.csv",
                                  analysis.render_root_occurrences_csv(
                                      reports, tuple(orientations))))
        if "json" in formats:
            written.append(_write(out_dir, "yearly_reports.json",
                                  analysis.render_yearly_json(
                                      reports, tuple(orientations))))

    else:  # turmoil
        study = analysis.turmoil_study(
            returns, q,
            _parse_date(cfg["crash_start"], "--crash-start"),
            _parse_date(cfg["crash_end"], "--crash-end"),
        )
        if "csv" in formats:
            written.append(_write(out_dir, "turmoil.csv",
                                  analysis.render_turmoil_csv(study, report)))
        if "json" in formats:
            written.append(_write(out_dir, "turmoil.json",
                                  analysis.render_turmoil_json(study)))
        if "dot" in formats:
            for result in study.results:
                for orientation in orientations:
                    written.append(_write(
                        out_dir, f"turmoil_{result.label}_{orientation}.dot",
                        arborescence_to_dot(
                            result.msas.arborescence(orientation),
                            result.msas.path(orientation),
                            name=f"turmoil_{result.label}",
                        ),
                    ))
    return written


def _cmd_specificity(cfg: dict) -> list[Path]:
    if not cfg.get("index"):
        raise CliError("--index is required for the specificity study")
    formats = _formats(cfg)
    out_dir = Path(cfg["out_dir"])
    q = int(cfg["q"])

    dataset = _load_input(cfg)
    # One panel with the index as its last row; the yearly study runs on the
    # sector rows above it.
    returns = analysis.returns_panel([*dataset, load_dataset(cfg["index"])[0]])
    sectors = replace(returns, sectors=returns.sectors[:-1], values=returns.values[:-1])
    reports = analysis.yearly_reports(sectors, q)
    result = analysis.specificity_study(
        returns, reports, seed=int(cfg["seed"]), samples=int(cfg["samples"]),
    )
    written = []
    if "csv" in formats:
        written.append(_write(out_dir, "specificity.csv",
                              analysis.render_specificity_csv(result)))
    if "json" in formats:
        written.append(_write(out_dir, "specificity.json",
                              analysis.render_specificity_json(result)))
    return written


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "stats":
            written = _cmd_stats(cfg)
        elif args.command == "msa":
            written = _cmd_msa(cfg)
        else:
            written = _cmd_specificity(cfg)
    except (CliError, DatasetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

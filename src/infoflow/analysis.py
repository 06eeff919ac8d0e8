"""Windowed structural studies over the information-flow pipeline.

Every study takes one ``Panel`` of returns, built once per run by
``returns_panel``, and runs its windows through one runner,
``run_windows``.  A window is a ``(label, name, interval)`` triple: the
label its result carries, the name its errors give, and its first and
last calendar day.  A mode only makes its windows: one for the whole
sample or a date range, one per calendar year (``yearly_reports``, which
skips a year shorter than ``MIN_WINDOW_DAYS`` trading days with a
warning), or before/during/after windows around a crash
(``turmoil_study``).  The runner cuts each interval from the panel by
``slice_returns`` and runs it through the one engine,
``msas_from_returns``: symbols for all rows in one step -> transfer
entropy -> net flows -> network -> the requested arborescences -> their
maximal paths.  Partitions are recomputed per window by default so each
window's symbol alphabet covers its own observed range; with
``global_partition=True`` the runner cuts the whole-sample bin edges
(``checked_partition``) once, for every window.  Any other window shorter
than ``MIN_WINDOW_DAYS`` trading days is refused before any estimate.

The engine returns one record per window, ``WindowResult(label, interval,
trees, paths)``: its label, its first and last trading day, and its
arborescences and maximal paths, each a dict keyed by orientation.  The
dicts hold only the orientations the caller asked for, in
``ORIENTATIONS`` order, so no tree is solved that no output reads.
Renderers write every orientation a window holds; consumers that read one
orientation (root occurrences, degree heat maps, yearly tables) take the
windows and the orientation as arguments.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import date
from functools import cached_property

import numpy as np

from .arborescence import (
    ORIENTATIONS,
    Arborescence,
    InfoFlowPath,
    degrees,
    edge_list,
    max_spanning_arborescence,
    maximal_information_flow_path,
)
from .entropy import dai_matrix, te_matrix
from .network import build_network
from .symbolize import Partition, encode, make_partition
# ``returns_panel`` builds the one panel that every study takes; the CLI
# calls it from here.
from .timeseries import Panel, SectorMeta, aligned_dates, returns_panel, slice_returns

# Windows shorter than this many trading days are refused (calendar years
# are skipped): the estimator has nothing to say about a handful of samples,
# and such windows tie so often that no spanning tree is left.
MIN_WINDOW_DAYS = 30

_WINDOW_RULE = (
    "during = [crash_start - T, crash_start + T) trading days, T = crash length; "
    "before/after are adjacent windows of the same length"
)


@dataclass(frozen=True)
class WindowResult:
    """One window's label, first and last trading day, and trees and paths by orientation."""

    label: str
    interval: tuple[date, date]
    trees: dict[str, Arborescence]
    paths: dict[str, InfoFlowPath]

    @cached_property
    def root_degree(self) -> dict[str, int]:
        """Total tree degree of each orientation's root."""
        return {o: degrees(a)[a.root_sector.code][2] for o, a in self.trees.items()}


@dataclass(frozen=True)
class TurmoilStudy:
    """Before/during/after windows around a crash of ``crash_days`` trading days."""

    crash_start: date
    crash_end: date
    crash_days: int
    q: int
    results: dict[str, WindowResult]  # by label: before, during, after

    @property
    def window_days(self) -> int:
        """Trading days per window: T before the crash start plus T after."""
        return 2 * self.crash_days


@dataclass(frozen=True)
class SpecificityResult:
    """Root-vs-index correlations against a random non-root control group.

    ``windows`` are the yearly windows the study ran on; each one's year and
    outgoing (source) and incoming (sink) roots are read from it.
    """

    seed: int
    samples_per_year: int
    windows: tuple[WindowResult, ...]
    source_correlations: tuple[float, ...]
    sink_correlations: tuple[float, ...]
    control_sectors: tuple[tuple[str, ...], ...]
    control_correlations: tuple[tuple[float, ...], ...]

    @property
    def source_mean(self) -> float:
        return math.fsum(self.source_correlations) / len(self.source_correlations)

    @property
    def sink_mean(self) -> float:
        return math.fsum(self.sink_correlations) / len(self.sink_correlations)

    @property
    def control_mean(self) -> float:
        flat = [c for year in self.control_correlations for c in year]
        return math.fsum(flat) / len(flat)


def checked_partition(returns: Panel, q: int, window: str = "whole sample") -> Partition:
    """Per-row partition of ``returns``; a failure names the sector and the window."""
    try:
        return make_partition(returns, q)
    except ValueError as exc:
        # A row at fault has no positive bin width; a q Partition refuses is clamped to its bounds.
        narrow = np.flatnonzero(np.ptp(returns.values, axis=1) / min(max(q, 2), 2**53) <= 0)
        sector = f"sector {returns.sectors[narrow[0]].code}, " if len(narrow) else ""
        raise ValueError(f"{sector}{window}: {exc}") from None


def msas_from_returns(
    returns: Panel,
    q: int,
    partitions: Partition | None = None,
    window: str = "whole sample",
    label: str = "whole sample",
    orientations: tuple[str, ...] = ORIENTATIONS,
) -> WindowResult:
    """Run the estimation pipeline on one window of the returns panel.

    Every row is symbolized at once, against its own range in this window
    or against ``partitions`` (per-row bin edges, e.g. the whole sample's).
    Only the arborescences in ``orientations`` are solved, each with its
    maximal path.  The result is labelled ``label`` and spans the panel's
    first and last trading day.  ``window`` names the window in errors: one
    shorter than ``MIN_WINDOW_DAYS`` trading days, a sector whose range there
    is too narrow for q bins, or a network with so many tied pairs that no root
    reaches every sector (the message puts the window's trading days and
    tied pairs before the solver's refusal, which names a sector per part).
    """
    if not orientations or not set(orientations) <= set(ORIENTATIONS):
        raise ValueError(f"orientations must be a non-empty subset of {ORIENTATIONS}")
    days = returns.dates
    if len(days) < MIN_WINDOW_DAYS:
        raise ValueError(f"{window} ({len(days)} trading days): fewer than the "
                         f"minimum of {MIN_WINDOW_DAYS}")
    if partitions is None:
        partitions = checked_partition(returns, q, window)
    try:
        te = te_matrix(encode(returns, partitions))
    except ValueError as exc:
        if len(returns.sectors) < 2:  # one sector is the input's fault, not the window's
            raise
        raise ValueError(f"{window}: {exc}") from None
    net = build_network(returns.sectors, dai_matrix(te))
    try:
        trees = {o: max_spanning_arborescence(net, o)
                 for o in ORIENTATIONS if o in orientations}
    except ValueError as exc:
        raise ValueError(f"{window} ({len(days)} trading days, "
                         f"{len(net.ties)} tied pairs): {exc}") from None
    paths = {o: maximal_information_flow_path(a) for o, a in trees.items()}
    return WindowResult(label, (days[0].item(), days[-1].item()), trees, paths)


def run_windows(
    returns: Panel,
    q: int,
    windows: Iterable[tuple[str, str, tuple[date, date]]],
    global_partition: bool = False,
    orientations: tuple[str, ...] = ORIENTATIONS,
) -> list[WindowResult]:
    """One pipeline run per ``(label, name, interval)`` window, in order.

    Every error names the window by ``name``; ``global_partition`` bins
    every window by the whole panel's edges instead of its own.
    """
    partitions = checked_partition(returns, q) if global_partition else None
    results = []
    for label, name, interval in windows:
        try:
            window_returns = slice_returns(returns, interval)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        results.append(msas_from_returns(window_returns, q, partitions, window=name,
                                         label=label, orientations=orientations))
    return results


def yearly_reports(
    returns: Panel,
    q: int,
    global_partition: bool = False,
    orientations: tuple[str, ...] = ORIENTATIONS,
) -> list[WindowResult]:
    """One pipeline run per calendar year of the returns panel, in year order.

    Years with fewer than ``MIN_WINDOW_DAYS`` trading days are skipped with
    a warning; if every year is, the study fails.
    """
    def years():
        firsts, counts = np.unique(returns.dates.astype("datetime64[Y]"), return_counts=True)
        for year, days in zip((d.year for d in firsts.tolist()), counts.tolist()):
            if days < MIN_WINDOW_DAYS:
                # Attributed to the caller of ``yearly_reports``, past ``run_windows``.
                warnings.warn(f"skipping year {year}: only {days} trading day(s)", stacklevel=4)
                continue
            yield str(year), f"year {year}", (date(year, 1, 1), date(year, 12, 31))

    windows = run_windows(returns, q, years(), global_partition, orientations)
    if not windows:
        raise ValueError(f"no calendar year has the minimum of {MIN_WINDOW_DAYS} trading days")
    return windows


def root_occurrences(windows: list[WindowResult], orientation: str) -> dict[str, int]:
    """How often each sector is the ``orientation`` root across the windows."""
    counts: dict[str, int] = {}
    for w in windows:
        code = w.trees[orientation].root_sector.code
        counts[code] = counts.get(code, 0) + 1
    return counts


def degree_heatmap(windows: list[WindowResult], orientation: str) -> np.ndarray:
    """Total tree degree of each sector (column) in each window (row), as int64.

    Columns follow the sectors' panel order, code order; rows follow ``windows``.
    """
    if not windows:
        raise ValueError("no windows")
    return np.array([[d[2] for d in degrees(w.trees[orientation]).values()] for w in windows],
                    dtype=np.int64)


def turmoil_study(
    returns: Panel,
    q: int,
    crash_start: date,
    crash_end: date,
    global_partition: bool = False,
) -> TurmoilStudy:
    """Pipeline over the before/during/after windows of ``returns`` around one crash.

    T is the number of trading days inside [crash_start, crash_end]; the
    during window covers the 2T trading days centered on the crash start,
    with equally long adjacent control windows on both sides.
    ``global_partition`` reuses whole-sample bin edges for every window.
    """
    if crash_start > crash_end:
        raise ValueError("crash_start must not be after crash_end")
    dates = returns.dates
    i0 = int(dates.searchsorted(np.datetime64(crash_start, "D")))
    t_len = int(dates.searchsorted(np.datetime64(crash_end, "D"), "right")) - i0
    if t_len == 0:
        raise ValueError("no trading days inside the crash interval")
    if i0 - 3 * t_len < 0 or i0 + 3 * t_len > len(dates):
        raise ValueError(f"turmoil windows need {3 * t_len} trading days before the crash start "
                         f"and {3 * t_len} from it; the dataset has {i0} and {len(dates) - i0}")
    # Each window is 2T trading days and starts k*T days from the crash start.
    windows = [(label, f"{label} window",
                (dates[i0 + k * t_len].item(), dates[i0 + (k + 2) * t_len - 1].item()))
               for label, k in (("before", -3), ("during", -1), ("after", 1))]
    results = run_windows(returns, q, windows, global_partition)
    return TurmoilStudy(crash_start, crash_end, t_len, q, {w.label: w for w in results})


def pearson(x, y) -> float:
    """Pearson correlation of two equal-length, non-constant sequences."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D sequences")
    if len(xv) < 2:
        raise ValueError("need at least 2 observations")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    # Single square root of the product so that y == x yields exactly 1.0.
    den = math.sqrt(float((xc**2).sum()) * float((yc**2).sum()))
    if den == 0.0:
        raise ValueError("zero variance")
    rho = float((xc * yc).sum()) / den
    return max(-1.0, min(1.0, rho))


def specificity_study(
    returns: Panel,
    index: Panel,
    q: int,
    seed: int,
    samples: int = 1,
) -> SpecificityResult:
    """Correlate each calendar year's root sectors with the market index.

    ``index`` is the market index's returns as a 1-row panel on the dates
    of ``returns``.  For every window of ``yearly_reports(returns, q)``,
    the source and sink roots' daily returns are correlated with the
    index's, against ``samples`` non-root sectors per year drawn uniformly
    (PCG64 seeded with ``seed``).  Refused before any estimate: a misaligned
    index and ``samples`` outside 1..n-1 for n sectors.  A series constant
    within a year is refused by a line naming the year and the series.
    """
    aligned_dates((returns, index))
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n = len(returns.sectors)
    if samples > n - 1:
        raise ValueError(f"{samples} control samples requested, but at most {n - 1} of the "
                         f"{n} sectors can be neither root in a year")
    windows = yearly_reports(returns, q)

    rng = np.random.default_rng(seed)
    source_corr, sink_corr = [], []
    control_sectors, control_corr = [], []
    for w in windows:
        values = slice_returns(returns, w.interval).values
        market = slice_returns(index, w.interval).values[0]

        def year_corr(row: int) -> float:
            try:
                return pearson(values[row], market)
            except ValueError as exc:
                series = (f"index {index.sectors[0].code}" if np.ptp(market) == 0
                          else f"sector {returns.sectors[row].code}")
                raise ValueError(f"year {w.interval[0].year}, {series}: {exc}") from None

        roots = (w.trees["outgoing"].root, w.trees["incoming"].root)
        source_corr.append(year_corr(roots[0]))
        sink_corr.append(year_corr(roots[1]))

        candidates = [row for row in range(len(values)) if row not in roots]
        if samples > len(candidates):
            raise ValueError(f"year {w.interval[0].year}: {samples} control samples requested, "
                             f"but only {len(candidates)} sectors are neither root")
        picks = rng.choice(len(candidates), size=samples, replace=False)
        chosen = [candidates[k] for k in picks.tolist()]
        control_sectors.append(tuple(returns.sectors[row].code for row in chosen))
        control_corr.append(tuple(year_corr(row) for row in chosen))

    return SpecificityResult(
        seed=seed,
        samples_per_year=samples,
        windows=tuple(windows),
        source_correlations=tuple(source_corr),
        sink_correlations=tuple(sink_corr),
        control_sectors=tuple(control_sectors),
        control_correlations=tuple(control_corr),
    )


# ---------------------------------------------------------------------------
# Report rendering (plot-ready CSV and JSON; files are written by callers)

def _fmt(value: float, report_mode: bool, digits: int = 2) -> str:
    return f"{value:.{digits}f}" if report_mode else repr(float(value))


def _msa_cells(arb: Arborescence, path: InfoFlowPath, report_mode: bool) -> str:
    """Root, maximal path, its sector count and its weight x 100, as CSV cells."""
    return (f"{arb.root_sector.short_code},{'->'.join(path.codes)},{path.length},"
            f"{_fmt(path.total_weight * 100.0, report_mode)}")


def render_yearly_csv(
    windows: list[WindowResult],
    orientation: str,
    report_mode: bool = False,
) -> str:
    """Year / root / maximal path / sector count / path weight (x100) table."""
    lines = ["year,root_sector,maximal_information_path,n_sectors,dai_x100"]
    for w in windows:
        lines.append(
            f"{w.label},{_msa_cells(w.trees[orientation], w.paths[orientation], report_mode)}")
    return "\n".join(lines) + "\n"


def render_root_occurrences_csv(windows: list[WindowResult]) -> str:
    lines = ["orientation,sector,count"]
    for orientation in windows[0].trees:
        counts = root_occurrences(windows, orientation)
        for code in sorted(counts):
            lines.append(f"{orientation},{SectorMeta(code).short_code},{counts[code]}")
    return "\n".join(lines) + "\n"


def render_degree_heatmap_csv(windows: list[WindowResult], orientation: str) -> str:
    """One row per year, one column per sector; values are total tree degrees."""
    total = degree_heatmap(windows, orientation)
    lines = ["year," + ",".join(s.short_code for s in windows[0].trees[orientation].sectors)]
    for w, row in zip(windows, total):
        lines.append(f"{w.interval[0].year}," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def render_yearly_json(windows: list[WindowResult]) -> str:
    payload = {}
    for orientation in windows[0].trees:
        payload[orientation] = []
        for w in windows:
            arb, path = w.trees[orientation], w.paths[orientation]
            payload[orientation].append({
                "year": w.interval[0].year,
                "root": arb.root_sector.code,
                "path": list(path.codes),
                "n_sectors": path.length,
                "dai_bits": path.total_weight,
                "dai_x100": path.total_weight * 100.0,
                "edges": edge_list(arb),
            })
    return json.dumps(payload, indent=2) + "\n"


def render_turmoil_csv(study: TurmoilStudy, report_mode: bool = False) -> str:
    lines = [
        "window,start,end,orientation,root_sector,root_degree,"
        "path_sectors,path_weight_bits"
    ]
    for r in study.results.values():
        for orientation, arb in r.trees.items():
            path = r.paths[orientation]
            lines.append(
                f"{r.label},{r.interval[0].isoformat()},{r.interval[1].isoformat()},"
                f"{orientation},{arb.root_sector.short_code},"
                f"{r.root_degree[orientation]},{path.length},"
                f"{_fmt(path.total_weight, report_mode, digits=4)}"
            )
    return "\n".join(lines) + "\n"


def render_turmoil_json(study: TurmoilStudy) -> str:
    payload = {
        "crash_start": study.crash_start.isoformat(),
        "crash_end": study.crash_end.isoformat(),
        "crash_trading_days": study.crash_days,
        "window_trading_days": study.window_days,
        "window_rule": _WINDOW_RULE,
        "q": study.q,
        "windows": {},
    }
    for r in study.results.values():
        entry = {
            "start": r.interval[0].isoformat(),
            "end": r.interval[1].isoformat(),
        }
        for orientation, arb in r.trees.items():
            path = r.paths[orientation]
            entry[orientation] = {
                "root": arb.root_sector.code,
                "root_degree": r.root_degree[orientation],
                "total_weight_bits": arb.total_weight,
                "path": list(path.codes),
                "path_weight_bits": path.total_weight,
            }
        payload["windows"][r.label] = entry
    return json.dumps(payload, indent=2) + "\n"


def render_specificity_csv(result: SpecificityResult) -> str:
    lines = [
        f"# seed={result.seed} samples_per_year={result.samples_per_year}",
        "year,kind,sector,correlation",
    ]
    for k, w in enumerate(result.windows):
        year = w.interval[0].year
        lines.append(f"{year},source,{w.trees['outgoing'].root_sector.short_code},"
                     f"{repr(result.source_correlations[k])}")
        lines.append(f"{year},sink,{w.trees['incoming'].root_sector.short_code},"
                     f"{repr(result.sink_correlations[k])}")
        for code, rho in zip(result.control_sectors[k], result.control_correlations[k]):
            lines.append(f"{year},control,{SectorMeta(code).short_code},{repr(rho)}")
    return "\n".join(lines) + "\n"


def render_specificity_json(result: SpecificityResult) -> str:
    def roots(orientation: str) -> list[str]:
        return [w.trees[orientation].root_sector.code for w in result.windows]

    payload = {
        "seed": result.seed,
        "samples_per_year": result.samples_per_year,
        "years": [w.interval[0].year for w in result.windows],
        "source": {
            "roots": roots("outgoing"),
            "correlations": list(result.source_correlations),
            "mean": result.source_mean,
        },
        "sink": {
            "roots": roots("incoming"),
            "correlations": list(result.sink_correlations),
            "mean": result.sink_mean,
        },
        "control": {
            "sectors": [list(s) for s in result.control_sectors],
            "correlations": [list(c) for c in result.control_correlations],
            "mean": result.control_mean,
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def render_msa_bundle_csv(window: WindowResult, report_mode: bool = False) -> str:
    lines = ["window,orientation,root_sector,maximal_information_path,n_sectors,dai_x100"]
    for orientation, arb in window.trees.items():
        lines.append(f"{window.label},{orientation},"
                     f"{_msa_cells(arb, window.paths[orientation], report_mode)}")
    return "\n".join(lines) + "\n"

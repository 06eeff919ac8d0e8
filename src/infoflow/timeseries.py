"""Price ingestion, alignment, log returns, and summary statistics.

The loader consumes a wide-format CSV (``date,<code1>,<code2>,...``, one
row per trading day, dates written YYYY-MM-DD) and checks only its shape:
each code is ``SectorMeta``'s to check, and distinct output labels are
``Panel``'s. Rows with any missing price are dropped for all sectors so
that every series shares a single date axis, as pairwise estimation needs.

``load_dataset`` has two paths.  A clean file, whose data rows hold only
ISO dates, decimal prices, commas and newlines (blank rows too), is
checked by byte rules and parsed by one structured ``np.loadtxt`` call,
a date text and n prices a row.  Every other file -- a missing or padded
cell, a quote, a row of another width, a bad date or price -- goes row by
row through ``csv`` and ``float``, the only path that writes a
diagnostic.  The fast path returns a result only when it is the one the
row path would return.

``aligned_dates`` is the one check of that alignment, and ``returns_panel``
turns the whole dataset into one ``Panel``: the sectors in code order, the
return dates and an n x L matrix of log returns.  The panel is the only
return type: one sector's returns are a 1-row panel, and ``summary_stats``
takes one row of its matrix.  Every study window is a column span of that
matrix, cut by ``slice_returns``, which searches the panel's date axis:
like a ``PriceSeries``' dates, a read-only ``datetime64[D]`` array.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Critical value of the Jarque-Bera statistic at the 1% level used to
# flag non-normal return distributions.
JB_CRITICAL_1PCT = 9.442

# Cell contents treated as a missing price (row is dropped for all sectors).
_MISSING_TOKENS = {"", "na", "nan", "null", "none"}

# The bytes of a data row on ``load_dataset``'s columnar path: ISO dates,
# decimal prices, commas and newlines.
_CLEAN_BYTES = b"0123456789+-.eE,\n"


class DatasetError(ValueError):
    """Raised when an input file violates the wide-format CSV contract."""


@dataclass(frozen=True)
class SectorMeta:
    """Identity of one sector: a code that outputs can carry and label, plus a name."""

    code: str
    name: str = ""

    def __post_init__(self):
        # Outputs name a sector by the last three characters of its code.
        if len(self.code) < 3:
            raise ValueError(f"sector code {self.code!r} is shorter than 3 characters")
        # CSV cells and DOT node names carry codes unquoted.
        if not self.code.isprintable() or any(c in self.code for c in ',"\\'):
            raise ValueError(f"sector code {self.code!r} holds a comma, double quote, "
                             f"backslash or unprintable character")

    @property
    def short_code(self) -> str:
        """Last three digits of the code, used as the display label."""
        return self.code[-3:]


def parse_date(text: str) -> date:
    """The date written ``YYYY-MM-DD`` in ``text``; ValueError for any other form.

    ``date.fromisoformat`` alone also reads ``20000104`` and ``2000-W01-3`` from Python 3.11 on.
    """
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def _freeze(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


def _date_axis(dates) -> np.ndarray:
    """A read-only ``datetime64[D]`` copy of ``dates``, which must strictly increase."""
    days = _freeze(dates, "datetime64[D]")
    # Windows are cut by binary search, which needs a sorted date axis.
    if not np.all(days[1:] > days[:-1]):
        raise ValueError("dates not strictly increasing")
    return days


@dataclass(frozen=True)
class PriceSeries:
    """Daily closing prices of one sector on a strictly increasing ``datetime64[D]`` axis."""

    sector: SectorMeta
    dates: np.ndarray
    closes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dates", _date_axis(self.dates))
        object.__setattr__(self, "closes", _freeze(self.closes, np.float64))
        if len(self.dates) != len(self.closes):
            raise ValueError("dates and closes differ in length")
        if len(self.dates) < 2:
            raise ValueError("price series needs at least 2 observations")
        if not np.all((self.closes > 0) & (self.closes < np.inf)):
            raise ValueError(f"sector {self.sector.code}: non-positive or non-finite price")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class Panel:
    """Daily log returns of n sectors on one strictly increasing ``datetime64[D]`` axis.

    Row i of the n x L matrix ``values`` holds the returns of ``sectors[i]``,
    each dated by the later close, and sectors are in strictly increasing
    code order with distinct display labels.  One sector is a 1-row panel.
    """

    sectors: tuple[SectorMeta, ...]
    dates: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "dates", _date_axis(self.dates))
        object.__setattr__(self, "values", _freeze(self.values, np.float64))
        if self.values.shape != (len(self.sectors), len(self.dates)):
            raise ValueError("values do not match the sectors and dates")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite return value")
        if not all(a.code < b.code for a, b in zip(self.sectors, self.sectors[1:])):
            raise ValueError("sectors not in strictly increasing code order")
        labels: dict[str, str] = {}
        for s in self.sectors:
            if (other := labels.setdefault(s.short_code, s.code)) != s.code:
                raise ValueError(f"sector codes {other} and {s.code} "
                                 f"share the display label {s.short_code!r}")


@dataclass(frozen=True)
class SummaryStats:
    """Moment summary of a return series plus the Jarque-Bera normality test.

    ``kurtosis`` is the raw standardized fourth moment (normal = 3, not
    excess).  ``jb_statistic`` is (n/6) * (S^2 + (K-3)^2 / 4) and the
    rejection flag compares it against the 1%-level critical value 9.442.
    """

    mean: float
    max: float
    min: float
    std: float
    skewness: float
    kurtosis: float
    jb_statistic: float
    jb_reject_at_1pct: bool


def load_sector_names(source: str | Path) -> dict[str, str]:
    """Read an optional ``code,name`` metadata CSV into a code -> name map."""
    path = Path(source)
    if not path.exists():
        raise DatasetError(f"input not found: {path}")
    names: dict[str, str] = {}
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        records = _records(handle)
        _, header = next(records, (1, None))
        if header is None or [h.strip().lower() for h in header[:2]] != ["code", "name"]:
            raise DatasetError("malformed header in sector-metadata CSV")
        for _, row in records:
            if not row:
                continue
            code = row[0].strip()
            if code in names:
                raise DatasetError(f"sector-metadata CSV lists code {code} twice")
            names[code] = row[1].strip() if len(row) > 1 else ""
    return names


def load_dataset(
    source: str | Path,
    names: dict[str, str] | None = None,
) -> list[PriceSeries]:
    """Load a wide-format price CSV into one aligned PriceSeries per sector.

    Rows containing any missing cell are dropped for every sector, so all
    returned series share one date axis.  Dates must be written
    YYYY-MM-DD and strictly increase; prices must be positive numbers.

    A clean file -- only ISO dates, decimal prices, commas and newlines
    (LF or CRLF) below the header, no empty cell, blank lines allowed -- is
    parsed in one numpy call.  Any other file is read row by row, which is
    also the path every diagnostic comes from; both paths return the same
    series for every file the fast one accepts.

    Raises DatasetError on a malformed header (``SectorMeta``'s code rules
    included), unparsable or non-positive price, non-monotone dates, or
    fewer than 2 shared rows.  ``Panel`` refuses codes that share a label.
    """
    path = Path(source)
    if not path.exists():
        raise DatasetError(f"input not found: {path}")
    table = _read_columns(path)
    if table is None:
        table = _read_rows(path)
    names = names or {}
    try:
        sectors = [SectorMeta(code, names.get(code, "")) for code in table.codes]
    except ValueError as exc:
        raise DatasetError(f"malformed header: {exc}") from None
    if table.dropped:
        warnings.warn(
            f"dropped {table.dropped} row(s) with missing prices to keep all sectors aligned",
            stacklevel=2,
        )
    if len(table.dates) < 2:
        raise DatasetError("fewer than 2 shared rows after alignment")
    return [PriceSeries(sector, table.dates, table.closes[:, j])
            for j, sector in enumerate(sectors)]


class _Table(NamedTuple):
    """A parsed price file: codes, kept dates, the rows x sectors closes, rows dropped.

    Both readers check that the dates strictly increase before they return one.
    """

    codes: list[str]
    dates: np.ndarray  # datetime64[D]
    closes: np.ndarray
    dropped: int


def _sector_codes(header: list[str] | None) -> list[str]:
    if not header or header[0].strip().lower() != "date" or len(header) < 2:
        raise DatasetError("malformed header: expected 'date,<code>,...'")
    codes = [c.strip() for c in header[1:]]
    if any(not c for c in codes) or len(set(codes)) != len(codes):
        raise DatasetError("malformed header: empty or duplicate sector codes")
    return codes


def _read_columns(path: Path) -> _Table | None:
    """The table of a clean file from one ``np.loadtxt`` call, or None to read it row by row.

    Byte checks decline, before any parsing, every file that ``csv`` and
    ``float`` could read differently from ``np.loadtxt``: a quote or a lone
    CR in the header; below it, any byte but those of ``_CLEAN_BYTES`` (so a
    space, a lone CR, non-ASCII text, any letter but e/E, every ``nan`` and
    ``NA`` too, which is why this path never drops a row), or no row at all.
    Blank rows, which both paths skip, may stay.  The structured dtype, a
    date text and n prices, makes numpy refuse a row of any other width and
    an empty price.  Then only the date layout and calendar, the date order
    and the prices are left to check (an empty date fails the layout, a
    price read as NaN or 0 the price check), and a file that fails a check
    is declined, never reported: its diagnostic is the row path's.
    """
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    head, _, body = data.partition(b"\n")
    del data  # parse from the body alone, not holding the file twice
    if b'"' in head or b"\r" in head or body.translate(None, _CLEAN_BYTES):
        return None
    if not body or body.isspace():  # no row, on which loadtxt warns
        return None
    try:
        codes = _sector_codes(next(csv.reader([head.decode()])))
    except (UnicodeDecodeError, csv.Error, DatasetError):
        return None
    # A date text one character longer than YYYY-MM-DD keeps a longer cell
    # from being cut down to a valid date.
    row = np.dtype([("date", "U11"), ("close", "f8", (len(codes),))])
    try:
        table = np.loadtxt(io.BytesIO(body), dtype=row, delimiter=",", comments=None,
                           ndmin=1, encoding="ascii")
        days = table["date"].astype("datetime64[D]")
    except ValueError:
        return None
    chars = np.ascontiguousarray(table["date"]).view(np.uint32).reshape(len(table), 11)
    digits = chars[:, [0, 1, 2, 3, 5, 6, 8, 9]]
    closes = table["close"]
    if not (
        np.all((digits >= ord("0")) & (digits <= ord("9")))  # YYYY-MM-DD exactly
        and np.all(chars[:, [4, 7]] == ord("-"))
        and not chars[:, 10].any()
        and np.datetime64(date.min) <= days[0]  # no year 0
        and np.all(days[1:] > days[:-1])
        and np.all((closes > 0) & (closes < np.inf))
    ):
        return None
    return _Table(codes, days, closes, 0)


def _records(handle):
    """Yield (line it starts on, cells) for each ``csv`` record of ``handle``.

    A record ``csv`` cannot read, such as a stray quote that runs a cell
    past the field size limit, is a DatasetError naming that line, and so is
    a byte that is not UTF-8 (a lone surrogate under ``surrogateescape``).
    """
    reader = csv.reader(handle)
    while True:
        lineno = reader.line_num + 1
        try:
            row = next(reader)
            ",".join(row).encode()
        except StopIteration:
            return
        except csv.Error as exc:
            raise DatasetError(f"row {lineno}: {exc}") from exc
        except UnicodeEncodeError:
            raise DatasetError(f"row {lineno}: not UTF-8 text") from None
        yield lineno, row


def _read_rows(path: Path) -> _Table:
    """The table of any file, read and checked one row at a time."""
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        records = _records(handle)
        _, header = next(records, (1, None))
        codes = _sector_codes(header)

        kept_dates: list[date] = []
        kept_rows: list[list[float]] = []
        previous: date | None = None
        dropped = 0
        for lineno, row in records:
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(codes) + 1:
                raise DatasetError(f"row {lineno}: expected {len(codes) + 1} columns")
            try:
                day = parse_date(row[0].strip())
            except ValueError as exc:
                raise DatasetError(f"row {lineno}: invalid ISO-8601 date {row[0]!r}") from exc
            if previous is not None and day <= previous:
                raise DatasetError(f"row {lineno}: dates not strictly increasing")
            previous = day

            prices: list[float] = []
            missing = False
            for code, cell in zip(codes, row[1:]):
                text = cell.strip()
                if text.lower() in _MISSING_TOKENS:
                    missing = True
                    continue
                try:
                    value = float(text)
                except ValueError as exc:
                    raise DatasetError(f"row {lineno}: unparsable price {cell!r}") from exc
                if math.isnan(value):
                    missing = True
                    continue
                if value <= 0 or math.isinf(value):
                    raise DatasetError(
                        f"row {lineno}: non-positive or non-finite price for {code}"
                    )
                prices.append(value)
            if missing:
                dropped += 1
                continue
            kept_dates.append(day)
            kept_rows.append(prices)

    closes = np.asarray(kept_rows, dtype=np.float64)
    return _Table(codes, np.array(kept_dates, "datetime64[D]"), closes, dropped)


def aligned_dates(items) -> np.ndarray:
    """The one date axis that every item's ``dates`` holds (``PriceSeries`` or ``Panel``)."""
    if not items:
        raise ValueError("need at least 1 sector")
    dates = items[0].dates
    if any(not np.array_equal(p.dates, dates) for p in items[1:]):
        raise ValueError("price series are not date-aligned")
    return dates


def returns_panel(dataset: list[PriceSeries]) -> Panel:
    """Log returns ln(close[t+1]) - ln(close[t]) of every sector as one panel.

    Rows are in sector code order; each return is dated by the later close.
    All series must share one date axis; ``aligned_dates`` checks
    it.  The logs are taken in ``np.longdouble``, which numpy computes
    without SIMD loops, and rounded to float64, so the returns are the same
    bits at any numpy SIMD level (float64 ``np.log`` differs in last bits
    with AVX-512).  Where ``np.longdouble`` is float64 (Windows, macOS on
    arm64) this is the plain float64 log.
    """
    dataset = sorted(dataset, key=lambda p: p.sector.code)
    dates = aligned_dates(dataset)
    log_closes = np.log(np.stack([p.closes for p in dataset]).astype(np.longdouble))
    return Panel(tuple(p.sector for p in dataset), dates[1:],
                 np.diff(log_closes.astype(np.float64), axis=1))


def summary_stats(returns: np.ndarray) -> SummaryStats:
    """Moment summary and Jarque-Bera test of one row of returns.

    Standard deviation uses the 1/(n-1) normalization; skewness and
    kurtosis are the standardized third and fourth sample moments on the
    1/n central moments, which is the convention the JB statistic assumes.
    The powers are products (``np.power`` differs in last bits with
    AVX-512; a product is correctly rounded at any SIMD level).
    """
    v = np.asarray(returns, dtype=np.float64)
    n = len(v)
    if n < 4:
        raise ValueError("summary_stats needs at least 4 observations")
    mean = float(v.mean())
    centered = v - mean
    c2 = centered * centered
    m2 = float(c2.mean())
    if m2 == 0.0:
        raise ValueError("degenerate series: zero variance")
    m3 = float((c2 * centered).mean())
    m4 = float((c2 * c2).mean())
    skew = m3 / m2**1.5
    kurt = m4 / m2**2
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return SummaryStats(
        mean=mean,
        max=float(v.max()),
        min=float(v.min()),
        std=float(v.std(ddof=1)),
        skewness=skew,
        kurtosis=kurt,
        jb_statistic=jb,
        jb_reject_at_1pct=bool(jb > JB_CRITICAL_1PCT),
    )


def slice_returns(returns: Panel, window: tuple[date, date]) -> Panel:
    """Restrict a panel to the closed date interval ``window``."""
    start, end = window
    if start > end:
        raise ValueError("empty interval")
    lo = returns.dates.searchsorted(np.datetime64(start, "D"))
    hi = returns.dates.searchsorted(np.datetime64(end, "D"), "right")
    if lo >= hi:
        raise ValueError("empty result")
    return replace(returns, dates=returns.dates[lo:hi], values=returns.values[:, lo:hi])

"""Survey ingestion and best-in-class frontier extraction.

A survey is a CSV of fabricated-prototype data points for one front-end
block kind: power amplifier, oscillator, or mixer. Each row carries an
operating frequency and the block's figure of merit:

* PA        -- power added efficiency
* OSC       -- DC-to-RF efficiency
* MIXER     -- linear conversion gain per mW of DC power

CSV schema (UTF-8, header required, ``#`` lines are comments)::

    block,frequency_ghz,metric,label[,technology_node][,notes]

The four required columns come first, in that order; the optional ones may
follow in either order, each at most once.

Fitting does not use the raw cloud but its best-in-class subset; two
selection strategies are provided, and the chosen one is recorded in the
fitted model so a result can be reproduced from its inputs.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from collections.abc import Iterator

from .fileio import _sha256
from .units import FrequencyGhz, _record, _Slotted


class SurveyFormatError(ValueError):
    """A survey file or record violates the schema; message names the row."""


class BlockKind(enum.Enum):
    """The three modeled TX front-end blocks."""

    PA = "PA"
    OSCILLATOR = "OSC"
    MIXER = "MIXER"

    __hash__ = object.__hash__  # members are singletons; Enum.__hash__ costs a Python frame

    @property
    def token(self) -> str:
        """Spelling used in CSV files and on the command line."""
        return self.value

    @classmethod
    def from_token(cls, token: str) -> "BlockKind":
        try:
            return cls(token.strip().upper())
        except ValueError:
            raise ValueError(f"unknown block kind {token!r} (expected PA, OSC or MIXER)") from None


# Figure of merit per block, physical in (0, high] and finite: (high, unit, the factor that
# turns one unit into the plain number that DC power divides by, problem outside).
_METRIC_RANGE = {
    BlockKind.PA: (100.0, "%", 0.01, "is outside (0, 100]"),
    BlockKind.OSCILLATOR: (1.0, "(ratio)", 1.0, "is outside (0, 1]"),
    BlockKind.MIXER: (math.inf, "1/mW", 1.0, "must be > 0 and finite"),
}


def _check_metric(kind: BlockKind, metric: float, fit_ghz: float | None = None) -> None:
    """Raise unless ``metric``, surveyed or a fit's value at ``fit_ghz``, is physical."""
    hi, unit, _scale, problem = _METRIC_RANGE[kind]
    if not math.isfinite(metric) or metric <= 0.0 or metric > hi:
        what = "metric" if fit_ghz is None else f"fit at {fit_ghz} GHz"
        raise ValueError(f"{kind.token} {what} = {metric} {unit} {problem}")


class SurveyRecord(_record("SurveyRecord", "block frequency metric label technology_node notes")):
    """One measured prototype point from a published survey."""

    __slots__ = ()

    def __new__(cls, block: BlockKind, frequency: FrequencyGhz, metric: float, label: str,
                technology_node: str | None = None, notes: str | None = None):
        _check_metric(block, metric)
        if not label:
            raise ValueError("record label must be non-empty")
        return tuple.__new__(cls, (block, frequency, metric, label, technology_node, notes))


def _admit(kind: BlockKind, rec: SurveyRecord, seen: set) -> None:
    """The dataset rule: ``rec`` is of ``kind`` and its key is new to ``seen``, which it joins."""
    if rec.block is not kind:
        raise ValueError(f"heterogeneous block kinds: dataset is {kind.token}, "
                         f"record {rec.label!r} is {rec.block.token}")
    key = (rec.frequency.value, rec.metric, rec.label)
    if key in seen:
        raise ValueError(f"duplicate record (frequency, metric, label)={key}")
    seen.add(key)


class SurveyDataset(_Slotted):
    """An ordered, homogeneous collection of survey records."""

    __slots__ = ("kind", "records")

    def __init__(self, kind: BlockKind, records: tuple[SurveyRecord, ...]) -> None:
        records, seen = tuple(records), set()
        for rec in records:
            _admit(kind, rec, seen)
        self._set(kind, records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SurveyRecord]:
        return iter(self.records)

    def points(self) -> list[tuple[FrequencyGhz, float]]:
        """(frequency, metric) pairs in record order, as the fitter expects."""
        return [(rec.frequency, rec.metric) for rec in self.records]


# --- frontier strategies -------------------------------------------------


class ParetoUpper(_record("ParetoUpper", "")):
    """Keep records not dominated in the (frequency, metric) plane.

    A record is dominated when some other record has frequency >= its
    frequency and metric >= its metric, with at least one strict
    inequality. Exact (frequency, metric) ties keep the first record in
    input order.
    """

    __slots__ = ()
    tag = "pareto-upper"

    def _keep(self, records: tuple[SurveyRecord, ...]) -> tuple[SurveyRecord, ...]:
        # High to low frequency, and at one frequency best metric then input order
        # first: a record is kept iff it beats every metric seen before it. Two stable
        # index sorts give that order without a key tuple per record.
        freqs = [rec.frequency.value for rec in records]
        metrics = [rec.metric for rec in records]
        order = sorted(range(len(records)), key=metrics.__getitem__, reverse=True)
        order.sort(key=freqs.__getitem__, reverse=True)
        keep: list[int] = []
        best = -math.inf
        for i in order:
            if metrics[i] > best:
                keep.append(i)
                best = metrics[i]
        return tuple(records[i] for i in sorted(keep))


class BinnedMax(_record("BinnedMax", "bins")):
    """Keep the maximum-metric record of each of ``bins`` log-spaced
    frequency bins spanning [f_min, f_max] of the dataset."""

    __slots__ = ()

    def __new__(cls, bins: int):
        # Up to 2**53 a bin count is exact as a float and the bin index cannot overflow.
        if type(bins) is not int or not 1 <= bins <= 2**53:
            raise ValueError(f"bin count must be an int in [1, 2**53] (got {bins!r})")
        return tuple.__new__(cls, (bins,))

    @property
    def tag(self) -> str:
        return f"binned-max:{self.bins}"

    def _keep(self, records: tuple[SurveyRecord, ...]) -> tuple[SurveyRecord, ...]:
        # With no log span (one frequency, or frequencies too close for log10 to
        # tell apart) every record falls in bin 0. Ties keep the first record.
        bins = self.bins
        freqs = [rec.frequency.value for rec in records]
        log_lo = math.log10(min(freqs))
        log_span = math.log10(max(freqs)) - log_lo
        best: dict[int, int] = {}
        for i, f in enumerate(freqs):
            b = min(bins - 1, int(bins * (math.log10(f) - log_lo) / log_span)) if log_span else 0
            j = best.get(b)
            if j is None or records[i].metric > records[j].metric:
                best[b] = i
        return tuple(records[i] for i in sorted(best.values()))


FrontierStrategy = ParetoUpper | BinnedMax


def best_in_class(data: SurveyDataset, strategy: FrontierStrategy | None = None) -> SurveyDataset:
    """Extract the best-in-class subset used for fitting.

    Returns a dataset of the input records that ``strategy`` keeps, in their
    original order; the default strategy is :class:`ParetoUpper`. Raises on an
    empty dataset, and on a ``strategy`` that is neither frontier strategy.
    """
    if len(data) == 0:
        raise ValueError("cannot extract a frontier from an empty dataset")
    if strategy is None:
        strategy = ParetoUpper()
    elif not isinstance(strategy, FrontierStrategy):
        raise ValueError(f"strategy must be a ParetoUpper or BinnedMax (got {strategy!r})")
    return SurveyDataset(data.kind, strategy._keep(data.records))


# --- CSV parsing and serialization ---------------------------------------

_REQUIRED_COLUMNS = ("block", "frequency_ghz", "metric", "label")
_OPTIONAL_COLUMNS = ("technology_node", "notes")


def parse_survey_csv(source: str | bytes | io.IOBase) -> SurveyDataset:
    """Parse a survey CSV into a validated dataset.

    ``source`` may be text, UTF-8 bytes, or an open file in either mode, with or
    without a byte-order mark and with LF, CRLF or CR line ends. Rows are read once,
    header first. The first row in file order that is malformed, of another block kind than the
    first, or repeats a (frequency, metric, label) raises :class:`SurveyFormatError` naming it.
    """
    if hasattr(source, "read"):
        source = source.read()  # type: ignore[union-attr]
    reader = csv.reader(_lines(source), strict=True)
    rows = _records(reader)
    line, header = next(rows, (0, []))
    if not header:
        raise SurveyFormatError("survey CSV has no header row")
    header = [c.strip().lower() for c in header]
    if tuple(header[: len(_REQUIRED_COLUMNS)]) != _REQUIRED_COLUMNS:
        raise SurveyFormatError(
            f"row {line}: header must start with "
            f"{','.join(_REQUIRED_COLUMNS)} (got {','.join(header)})"
        )
    extras = header[len(_REQUIRED_COLUMNS):]
    if [c for c in extras if c not in _OPTIONAL_COLUMNS] or len(set(extras)) != len(extras):
        raise SurveyFormatError(
            f"row {line}: columns after label must be a subset of "
            f"{','.join(_OPTIONAL_COLUMNS)} (got {','.join(c or repr(c) for c in extras)})"
        )
    # The header check put the required columns at 0-3; the optional ones are found by name.
    tech, notes = (header.index(c) if c in extras else None for c in _OPTIONAL_COLUMNS)
    records: list[SurveyRecord] = []
    seen: set[tuple[float, float, str]] = set()
    shared: dict[str, str] = {}  # one string per distinct technology_node or notes value
    for line, row in rows:
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            node = None if tech is None else row[tech].strip() or None
            note = None if notes is None else row[notes].strip() or None
            record = SurveyRecord(BlockKind.from_token(row[0]),
                                  FrequencyGhz(_parse_number(row[1], "frequency_ghz")),
                                  _parse_number(row[2], "metric"), row[3].strip(),
                                  node and shared.setdefault(node, node),
                                  note and shared.setdefault(note, note))
            _admit((records[0] if records else record).block, record, seen)
        except ValueError as exc:
            raise SurveyFormatError(f"row {line}: {exc}") from None
        records.append(record)

    if not records:
        raise SurveyFormatError("survey CSV has a header but no data rows")
    # Every record passed _admit in the loop, so the constructor's second pass is skipped.
    data = object.__new__(SurveyDataset)
    data._set(records[0].block, tuple(records))
    return data


def _lines(source: str | bytes) -> io.TextIOWrapper:
    """The lines of ``source`` as ``io.StringIO(text, newline="")`` would yield them, after one
    leading byte-order mark, read from the UTF-8 bytes a chunk at a time: ``StringIO`` would
    hold the whole text at four bytes a character. Bytes are checked to be UTF-8 first."""
    if isinstance(source, bytes):
        try:
            source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SurveyFormatError(f"survey CSV is not valid UTF-8: {exc}") from None
    else:
        source = source.encode("utf-8", "surrogatepass")  # a str may hold lone surrogates
    return io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig", errors="surrogatepass",
                            newline="")


def _records(reader) -> Iterator[tuple[int, list[str]]]:
    """(line, row) of each record not blank or a comment; malformed CSV names its first row."""
    start = 1
    try:
        for row in reader:
            if any(map(str.strip, row)) and not row[0].lstrip().startswith("#"):
                yield reader.line_num, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise SurveyFormatError(f"row {start}: malformed CSV ({exc})") from None


def _parse_number(cell: str, name: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{name} is not a number (got {cell!r})") from None


def load_survey_csv(path) -> SurveyDataset:
    """Read and parse a survey CSV file from disk."""
    with open(path, "rb") as fh:
        return parse_survey_csv(fh)


def serialize_survey_csv(data: SurveyDataset) -> str:
    """Canonical CSV form of a dataset: full 6-column header, shortest
    round-trip float formatting. parse(serialize(d)) == d."""
    return "".join(_canonical_chunks(data))


# Rows per chunk of the canonical CSV: the digest hashes ~10 KB at a time, not the whole text.
_CANONICAL_CHUNK = 256


def _canonical_chunks(data: SurveyDataset) -> Iterator[str]:
    """The canonical CSV of ``data`` as consecutive texts: the header, then rows
    ``_CANONICAL_CHUNK`` at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_REQUIRED_COLUMNS + _OPTIONAL_COLUMNS)
    token, records = data.kind.token, data.records  # every record is of the dataset's kind
    for start in range(0, len(records), _CANONICAL_CHUNK):
        yield out.getvalue()
        out.seek(0)
        out.truncate()
        chunk = records[start:start + _CANONICAL_CHUNK]
        writer.writerows((token, repr(f.value), repr(metric), label, node or "", notes or "")
                         for _, f, metric, label, node, notes in chunk)
    yield out.getvalue()


def dataset_digest(data: SurveyDataset) -> str:
    """SHA-256 of the canonical CSV form; ties fitted models to their data."""
    digest = _sha256()
    for text in _canonical_chunks(data):
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()

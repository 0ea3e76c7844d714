"""Directed graph container, vertex attributes, and file I/O.

Vertices are dense integers ``0..n-1``.  Arcs are ordered pairs with set
semantics: no duplicates, no self-loops.  A graph stores its arcs once, as
the sorted unique int64 codes ``src * n + dst``, built and validated in
numpy; the arc array, the degrees and the CSR are views derived from the
codes on first use.  Codes must fit in int64, so ``n * n`` may not exceed
``2**63 - 1`` (n up to 3,037,000,499).  Graphs and attribute tables are
immutable after construction and safe to share between threads.

Edge-list format: UTF-8 lines ``src dst`` (space or tab separated),
``#`` comment lines, and an optional first line ``n=<int>`` declaring the
vertex count.  Attribute format: CSV with ``name:kind`` headers where kind
is one of ``ordinal``, ``categorical``, ``continuous``; one data row per
vertex in id order.  Both readers ignore one leading byte-order mark.

Two parsers read an edge list, and they accept the same language.  One
in the plain grammar (an optional ``n=<digits>`` header, then only
``<digits>[ \\t]+<digits>`` lines ended by LF or CRLF, each number at most
18 ASCII digits) is checked in numpy over its bytes and parsed by
``np.fromstring``, and its self-loops and declared range are checked
vectorised.  Anything else (comments, blank lines, other whitespace,
signs, underscores, longer numbers, a failed check) goes to the line loop
(``_edge_list_lines``), the only code that writes an edge-list error
message, so every message names its line.  An attribute table has one
parser, ``csv.reader``, which skips blank rows and numbers none.
``AttributeColumn`` then converts and checks each column once, into the
read-only array that every reader shares.  Only a message reads a line
number, so only a table that fails (a ``csv.Error``, a row of the wrong
length or a cell that fails that check) reaches ``_row_lines``, which reads
the text again and numbers each row by the line it starts on.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .stats import _whole

ATTRIBUTE_KINDS = ("ordinal", "categorical", "continuous")


class GraphFormatError(ValueError):
    """Raised for malformed edge-list or attribute-table input."""


# The most 8-byte cells (1 GiB) an O(n^2) array may take, checked before it
# is allocated: the Erdős–Rényi draw takes n * n and a byte mask, a training
# set 2 * p feature cells per row (p features per vertex), and numpy's tail
# shuffle of its negatives one cell per non-arc.
_CELL_BUDGET = 2**27


def _check_cells(cells: int, what: str) -> None:
    if cells > _CELL_BUDGET:
        raise ValueError(f"{what} need {cells:,} cells, over the budget of {_CELL_BUDGET:,}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Graph:
    """Immutable simple directed graph on vertices ``0..n-1``, built from any
    iterable of ``(src, dst)`` pairs or an ``(m, 2)`` integer array.  It
    stores ``n`` and ``codes``; every other attribute derives from them."""

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] | np.ndarray = ()):
        n = _whole(n, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        if n * n > 2**63 - 1:
            raise ValueError(f"vertex count n={n} is too large: arc codes need n * n <= 2**63 - 1")
        items = arcs if isinstance(arcs, np.ndarray) else list(arcs)
        given = np.asarray(items)
        if given.size and (given.ndim != 2 or given.shape[1] != 2):
            raise ValueError(f"arcs must be (src, dst) pairs, got shape {given.shape}")
        given = given.reshape(-1, 2)
        if given.dtype.kind == "f":
            # the int64 conversion truncates, so a float id must be whole
            whole = (np.isfinite(given) & (given == np.trunc(given))).all(axis=1)
            if not whole.all():
                i, j = given[whole.argmin()].tolist()
                raise ValueError(f"arc ({i}, {j}) has a non-integer vertex id")
        # Python ints past int64 may have rounded in a float `given`; convert the items
        try:
            pairs = np.asarray(given if given.dtype.kind in "iu" else items, dtype=np.int64)
        except OverflowError:
            # an id past int64 lies outside [0, n); Python ints name the first bad arc
            pairs = np.asarray(items, dtype=object)
        pairs = pairs.reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        bad = (src == dst) | (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            i, j = (int(v) for v in pairs[bad.argmax()])
            if i == j:
                raise ValueError(f"self-loop ({i}, {i}) is not allowed")
            raise ValueError(f"arc ({i}, {j}) has an endpoint outside [0, {n})")
        # sort and drop repeats: np.unique hashes unsorted ints, and is slower
        codes = np.sort(src * n + dst)
        fresh = np.ones(len(codes), dtype=bool)
        fresh[1:] = codes[1:] != codes[:-1]
        if not fresh.all():
            codes = codes[fresh]
        self.n = n
        self.codes = _frozen(codes)

    @property
    def arc_count(self) -> int:
        return len(self.codes)

    @cached_property
    def arc_array(self) -> np.ndarray:
        """Sorted arcs as an (m, 2) int array; shape (0, 2) when empty."""
        return _frozen(np.stack(np.divmod(self.codes, max(self.n, 1)), axis=1))

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return _frozen(np.bincount(self.arc_array[:, 0], minlength=self.n))

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return _frozen(np.bincount(self.arc_array[:, 1], minlength=self.n))

    @cached_property
    def total_degrees(self) -> np.ndarray:
        return _frozen(self.out_degrees + self.in_degrees)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-arcs in CSR form (starts, degrees, heads): the heads of v's
        arcs are ``heads[starts[v]:starts[v] + degrees[v]]``, in id order."""
        degrees = self.out_degrees
        return _frozen(np.cumsum(degrees) - degrees), degrees, self.arc_array[:, 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.codes, other.codes)

    def __hash__(self):
        return hash((self.n, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, arcs={self.arc_count})"


def _as_text(stream) -> str:
    if isinstance(stream, bytes):
        text = stream.decode("utf-8")
    elif isinstance(stream, str):
        text = stream
    else:
        data = stream.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    return text[1:] if text.startswith("\ufeff") else text


# The plain edge-list grammar: an optional ``n=<digits>`` header line, then
# only ``<digits>[ \t]+<digits>`` lines ended by LF or CRLF.  A number has at
# most 18 ASCII digits, so it fits in int64.
_HEADER = re.compile(r"n=([0-9]{1,18})\r?(?:\n|\Z)")


def _plain_arc_lines(body: str) -> bool:
    """Whether every line of ``body`` is ``<digits>[ \\t]+<digits>``, each
    number at most 18 ASCII digits, ended by LF, CRLF, a final CR or the end
    of the text.  A final LF ends the last line; it does not start one."""
    data = body.encode()
    if data.endswith(b"\n"):
        data = data[:-1]
    if b"\r" in data:
        # CRLF reads as LF and a final CR goes; any other CR is a bad byte below
        data = data.replace(b"\r\n", b"\n")
        if data.endswith(b"\r"):
            data = data[:-1]
    # Framed by LFs, the bytes alternate between non-digit and digit runs.
    # ``edges`` holds the last byte of every run but the last, so each line
    # takes four: its two numbers and the two runs that follow them.
    buf = np.frombuffer(b"\n" + data + b"\n", dtype=np.uint8)
    digit = buf - ord("0") < 10  # uint8 wraps below "0"
    edges = (digit[1:] != digit[:-1]).nonzero()[0]
    if not len(edges) or len(edges) % 4 or edges[0] or edges[-1] != len(buf) - 2:
        return False
    widths = np.diff(edges)  # per line: number, blanks, number, LF
    # every non-digit between lines is one LF; those within lines are then
    # all blanks exactly when the blanks count up to their widths
    return bool(
        widths[0::4].max() <= 18
        and widths[2::4].max() <= 18
        and (widths[3::4] == 1).all()
        and (buf[edges[3::4] + 1] == ord("\n")).all()
        and np.count_nonzero(buf == ord(" ")) + np.count_nonzero(buf == ord("\t")) == widths[1::4].sum()
    )


def _plain_edge_list(text: str) -> tuple[int, np.ndarray] | None:
    """``(n, (m, 2) int64 pairs)`` for text in the plain grammar whose arcs
    pass the line loop's checks; None for any other text."""
    header = _HEADER.match(text)
    body = text[header.end():] if header else text
    # a header may stand alone; otherwise the body needs at least one line
    if (body or header is None) and not _plain_arc_lines(body):
        return None
    pairs = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any():
        return None
    top = int(pairs.max()) if pairs.size else -1
    if header is None:
        return top + 1, pairs
    declared_n = int(header.group(1))
    return (declared_n, pairs) if top < declared_n else None


def _edge_list_lines(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The line loop: parses every accepted form and names the first bad line."""
    declared_n: int | None = None
    pairs: list[tuple[int, int]] = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_content and line.startswith("n="):
            saw_content = True
            try:
                declared_n = int(line[2:])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex-count header {line!r}")
            if declared_n < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count {declared_n}")
            continue
        saw_content = True
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'src dst', got {line!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id in {line!r}")
        if i < 0 or j < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id in {line!r}")
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop ({i}, {j})")
        if declared_n is not None and (i >= declared_n or j >= declared_n):
            raise GraphFormatError(
                f"line {lineno}: vertex id out of declared range n={declared_n}"
            )
        pairs.append((i, j))
    if declared_n is not None:
        return declared_n, pairs
    return (1 + max(max(i, j) for i, j in pairs) if pairs else 0), pairs


def load_edge_list(stream) -> Graph:
    """Parse an edge list into a Graph.

    ``stream`` may be text, bytes, or a file-like object.  The vertex count
    is ``1 + max id`` unless an ``n=<int>`` header line declares it.
    Duplicate arcs are collapsed; a warning reports how many.
    """
    text = _as_text(stream)
    parsed = _plain_edge_list(text)
    n, pairs = parsed if parsed is not None else _edge_list_lines(text)
    g = Graph(n, pairs)
    duplicates = len(pairs) - g.arc_count
    if duplicates:
        warnings.warn(f"{duplicates} duplicate arc(s) collapsed", stacklevel=2)
    return g


def save_edge_list(g: Graph) -> str:
    """Serialize a Graph; ``load_edge_list(save_edge_list(g))`` reproduces g.

    The ``n=`` header is emitted only when the vertex count cannot be
    inferred from the arcs.
    """
    arcs = g.arc_array
    header = "" if len(arcs) and g.n == arcs.max() + 1 else f"n={g.n}\n"
    # each arc's line gathered from a table of NUL-padded decimal ids
    width = len(str(g.n - 1))
    digits = np.arange(g.n).astype(f"S{width}").view(np.uint8).reshape(g.n, width)
    lines = np.empty((len(arcs), 2 * width + 2), dtype=np.uint8)
    lines[:, :width] = digits[arcs[:, 0]]
    lines[:, width] = ord(" ")
    lines[:, width + 1 : -1] = digits[arcs[:, 1]]
    lines[:, -1] = ord("\n")
    return header + lines[lines != 0].tobytes().decode("ascii")


@dataclass(frozen=True)
class AttributeColumn:
    """One per-vertex attribute: numeric (ordinal/continuous) or categorical.

    ``values`` keeps the cells as a tuple of floats or of label strings, and
    the column builds its array form once.  A numeric column's ``array`` is
    its values as read-only float64, and its ``labels`` are empty.  A
    categorical column's ``labels`` are its distinct labels, sorted, and its
    ``array`` is each row's index into them, as read-only int64.  Neither
    field takes part in equality, hashing or repr."""

    name: str
    kind: str
    values: tuple
    array: np.ndarray = field(init=False, repr=False, compare=False)
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ATTRIBUTE_KINDS:
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == "categorical":
            values = tuple(str(v) for v in self.values)
            labels = tuple(sorted(set(values)))
            index = {lab: k for k, lab in enumerate(labels)}
            array = np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))
        else:
            values = tuple(map(float, self.values))
            labels = ()
            array = np.array(values, dtype=np.float64)
            if not np.isfinite(array).all():
                raise ValueError(f"non-finite value in numeric column {self.name!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "array", _frozen(array))

    @property
    def is_numeric(self) -> bool:
        return self.kind != "categorical"


class AttributeTable:
    """Immutable per-vertex attribute vectors, one column per attribute.
    ``numeric_array`` checks that a column is numeric and returns the array
    that the column built; a categorical column's readers take its
    ``labels`` and ``array`` from ``column(name)``."""

    def __init__(self, columns: Sequence[AttributeColumn]):
        cols = tuple(columns)
        if len({len(c.values) for c in cols}) > 1:
            raise ValueError("attribute columns have inconsistent lengths")
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names")
        self.columns = cols
        self._by_name = {c.name: c for c in cols}

    @property
    def n(self) -> int:
        return len(self.columns[0].values) if self.columns else 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> AttributeColumn:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"no attribute named {name!r}") from None

    def numeric_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.is_numeric)

    def numeric_array(self, name: str) -> np.ndarray:
        col = self.column(name)
        if not col.is_numeric:
            raise ValueError(f"attribute {name!r} is categorical, expected numeric")
        return col.array


def _row_lines(text: str) -> list[int]:
    """The text line that each non-blank row of ``text`` starts on; a
    ``csv.Error`` raises here, naming the row that csv was reading."""
    reader = csv.reader(io.StringIO(text))
    lines = []
    start = 1  # the text line that the next row starts on
    try:
        for row in reader:
            if "".join(row).strip():
                lines.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise GraphFormatError(f"row {start}: {exc}") from None
    return lines


def _raise_bad_row(specs: list[tuple[str, str]], body: list[list[str]], text: str) -> None:
    """Name the first bad row of a table that did not convert, by the text
    line that it starts on: a row of the wrong length, or a numeric cell
    that is not a finite number."""
    for rowno, row in zip(_row_lines(text)[1:], body):
        if len(row) != len(specs):
            raise GraphFormatError(
                f"row {rowno}: {len(row)} cells for {len(specs)} columns"
            )
        for (name, kind), cell in zip(specs, row):
            if kind == "categorical":
                continue
            cell = cell.strip()
            try:
                value = float(cell)
            except ValueError:
                raise GraphFormatError(
                    f"row {rowno}, column {name!r}: non-numeric value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise GraphFormatError(
                    f"row {rowno}, column {name!r}: non-finite value {cell!r}"
                )


def load_attributes(stream, expected_n: int | None = None) -> AttributeTable:
    """Parse a CSV attribute table with ``name:kind`` headers."""
    text = _as_text(stream)
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if "".join(row).strip()]
    except csv.Error:
        _row_lines(text)  # raises, naming the row
        raise
    if not rows:
        raise GraphFormatError("attribute table has no header row")
    header = rows[0]
    specs: list[tuple[str, str]] = []
    for cell in header:
        cell = cell.strip()
        if ":" not in cell:
            raise GraphFormatError(f"header cell {cell!r} is not 'name:kind'")
        name, kind = cell.rsplit(":", 1)
        name, kind = name.strip(), kind.strip()
        if not name:
            raise GraphFormatError(f"header cell {cell!r} has an empty name")
        if kind not in ATTRIBUTE_KINDS:
            raise GraphFormatError(f"unknown attribute kind {kind!r} for column {name!r}")
        specs.append((name, kind))
    body = rows[1:]
    if expected_n is not None and len(body) != expected_n:
        raise GraphFormatError(
            f"attribute table has {len(body)} rows, expected {expected_n}"
        )
    if set(map(len, body)) - {len(specs)}:
        _raise_bad_row(specs, body, text)
    try:
        columns = [
            AttributeColumn(
                name, kind, tuple(map(str.strip, cells)) if kind == "categorical" else cells
            )
            for (name, kind), cells in zip(specs, zip(*body) if body else [()] * len(specs))
        ]
    except ValueError:
        _raise_bad_row(specs, body, text)
        raise
    return AttributeTable(columns)


def save_attributes(table: AttributeTable) -> str:
    """Serialize an AttributeTable back to the CSV format of load_attributes.
    Raises ValueError, naming the column, for a name or label that would
    load back different: load_attributes strips a name's or a label's
    surrounding whitespace, rejects an empty name, drops a byte-order mark
    that starts the text and skips a row whose cells are all blank.  A bad
    label's message names its row by vertex id."""
    for c in table.columns:
        if not c.name or c.name != c.name.strip():
            raise ValueError(f"column {c.name!r}: a name must be non-empty, with no surrounding whitespace")
    if table.columns and table.names[0].startswith("\ufeff"):
        raise ValueError(f"column {table.names[0]!r}: the first name must not start with a byte-order mark")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"{c.name}:{c.kind}" for c in table.columns])
    for row in range(table.n):
        cells = [
            c.values[row] if c.kind == "categorical" else repr(c.values[row])
            for c in table.columns
        ]
        for c, cell in zip(table.columns, cells):
            if cell != cell.strip():
                raise ValueError(
                    f"row {row}, column {c.name!r}: label {cell!r} has surrounding whitespace"
                )
        if not "".join(cells):
            raise ValueError(f"row {row}, column {table.names[0]!r}: every cell is blank")
        writer.writerow(cells)
    return out.getvalue()


def symmetrize(g: Graph) -> Graph:
    """Add the reverse of every arc; idempotent."""
    return Graph(g.n, np.vstack([g.arc_array, g.arc_array[:, ::-1]]))

"""Directed graph container, vertex attributes, and file I/O.

Vertices are dense integers ``0..n-1``.  Arcs are ordered pairs with set
semantics: no duplicates, no self-loops.  A graph stores its arcs once, as
the sorted unique int64 codes ``src * n + dst``, built and validated in
numpy; the arc array, the ``(src, dst)`` set, the degrees and the CSR are
views derived from the codes on first use.  Codes must fit in int64, so
``n * n`` may not exceed ``2**63 - 1`` (n up to 3,037,000,499).  Graphs and
attribute tables are immutable after construction and safe to share
between threads.

Edge-list format: UTF-8 lines ``src dst`` (space or tab separated),
``#`` comment lines, and an optional first line ``n=<int>`` declaring the
vertex count.  Attribute format: CSV with ``name:kind`` headers where kind
is one of ``ordinal``, ``categorical``, ``continuous``; one data row per
vertex in id order.  Both readers ignore one leading byte-order mark.

Two parsers read each format, and they accept the same language.  An edge
list in the plain grammar (an optional ``n=<digits>`` header, then only
``<digits>[ \\t]+<digits>`` lines ended by LF or CRLF, each number at most
18 ASCII digits) is parsed by a regex check and ``np.fromstring``, and its
self-loops and declared range are checked vectorised.  An attribute table
whose rows all have one cell per column is converted a column at a time
and checked by one ``np.isfinite``.  Anything else (comments, blank lines,
other whitespace, signs, underscores, longer numbers, a failed check) goes
to the line loop (``_edge_list_lines``) or the row loop
(``_attribute_rows``).  The loops are the only code that writes an
edge-list or attribute-row error message, so every message names its line
or row.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

ATTRIBUTE_KINDS = ("ordinal", "categorical", "continuous")


class GraphFormatError(ValueError):
    """Raised for malformed edge-list or attribute-table input."""


class Graph:
    """Immutable simple directed graph on vertices ``0..n-1``, built from any
    iterable of ``(src, dst)`` pairs or an ``(m, 2)`` integer array.  It
    stores ``n`` and ``codes``; every other attribute derives from them."""

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] | np.ndarray = ()):
        n = int(n)
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
        codes = np.unique(src * n + dst)
        codes.flags.writeable = False
        self.n = n
        self.codes = codes

    @property
    def arc_count(self) -> int:
        return len(self.codes)

    @cached_property
    def arc_array(self) -> np.ndarray:
        """Sorted arcs as an (m, 2) int array; shape (0, 2) when empty."""
        return np.stack(np.divmod(self.codes, max(self.n, 1)), axis=1)

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arcs as a set of ``(src, dst)`` tuples."""
        return frozenset(map(tuple, self.arc_array.tolist()))

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.arc_array[:, 0], minlength=self.n)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.arc_array[:, 1], minlength=self.n)

    @cached_property
    def total_degrees(self) -> np.ndarray:
        return self.out_degrees + self.in_degrees

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-arcs in CSR form (starts, degrees, heads): the heads of v's
        arcs are ``heads[starts[v]:starts[v] + degrees[v]]``, in id order."""
        degrees = self.out_degrees
        return np.cumsum(degrees) - degrees, degrees, self.arc_array[:, 1]

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
# most 18 ASCII digits, so it fits in int64.  Searching for the first line
# outside the grammar keeps no state per line, where a full match of the
# repeated grammar would keep a backtracking record for every line.
_HEADER = re.compile(r"n=([0-9]{1,18})\r?(?:\n|\Z)")
_NON_ARC_LINE = re.compile(r"^(?![0-9]{1,18}[ \t]+[0-9]{1,18}\r?$)", re.MULTILINE)


def _plain_edge_list(text: str) -> tuple[int, np.ndarray] | None:
    """``(n, (m, 2) int64 pairs)`` for text in the plain grammar whose arcs
    pass the line loop's checks; None for any other text."""
    header = _HEADER.match(text)
    start = header.end() if header else 0
    if _NON_ARC_LINE.search(text, start, len(text) - text.endswith("\n")):
        return None
    pairs = np.fromstring(text[start:], dtype=np.int64, sep=" ").reshape(-1, 2)
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
    return header + ("%d %d\n" * len(arcs)) % tuple(arcs.ravel().tolist())


@dataclass(frozen=True)
class AttributeColumn:
    """One per-vertex attribute: numeric (ordinal/continuous) or categorical."""

    name: str
    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in ATTRIBUTE_KINDS:
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == "categorical":
            object.__setattr__(self, "values", tuple(str(v) for v in self.values))
        else:
            vals = tuple(map(float, self.values))
            if not np.isfinite(vals).all():
                raise ValueError(f"non-finite value in numeric column {self.name!r}")
            object.__setattr__(self, "values", vals)

    @property
    def is_numeric(self) -> bool:
        return self.kind != "categorical"


class AttributeTable:
    """Immutable per-vertex attribute vectors, one column per attribute."""

    def __init__(self, columns: Sequence[AttributeColumn]):
        cols = tuple(columns)
        if cols:
            lengths = {len(c.values) for c in cols}
            if len(lengths) != 1:
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
    def m(self) -> int:
        return len(self.columns)

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

    @cached_property
    def _numeric_arrays(self) -> dict:
        return {}

    def numeric_array(self, name: str) -> np.ndarray:
        col = self.column(name)
        if not col.is_numeric:
            raise ValueError(f"attribute {name!r} is categorical, expected numeric")
        cache = self._numeric_arrays
        if name not in cache:
            cache[name] = np.array(col.values, dtype=np.float64)
        return cache[name]

    @cached_property
    def _code_arrays(self) -> dict:
        return {}

    def labels(self, name: str) -> tuple[str, ...]:
        col = self.column(name)
        if col.is_numeric:
            raise ValueError(f"attribute {name!r} is numeric, expected categorical")
        return tuple(sorted(set(col.values)))

    def codes(self, name: str) -> np.ndarray:
        """Integer label codes for a categorical column (sorted-label order)."""
        cache = self._code_arrays
        if name not in cache:
            labels = {lab: k for k, lab in enumerate(self.labels(name))}
            col = self.column(name)
            cache[name] = np.array([labels[v] for v in col.values], dtype=np.int64)
        return cache[name]


def _attribute_columns(specs: list[tuple[str, str]], body: list[list[str]]) -> list[tuple] | None:
    """Each column's values, converted by one ``map`` and validated by one
    ``np.isfinite``; None when any row or cell is bad."""
    if set(map(len, body)) - {len(specs)}:
        return None
    columns = []
    for (_, kind), cells in zip(specs, zip(*body) if body else [()] * len(specs)):
        if kind == "categorical":
            columns.append(tuple(map(str.strip, cells)))
            continue
        try:
            values = tuple(map(float, cells))
        except ValueError:
            return None
        if not np.isfinite(values).all():
            return None
        columns.append(values)
    return columns


def _attribute_rows(specs: list[tuple[str, str]], body: list[list[str]]) -> list[tuple]:
    """The row loop: converts every cell and names the first bad row."""
    raw_columns: list[list] = [[] for _ in specs]
    for rowno, row in enumerate(body, start=2):
        if len(row) != len(specs):
            raise GraphFormatError(
                f"row {rowno}: {len(row)} cells for {len(specs)} columns"
            )
        for colno, ((name, kind), cell) in enumerate(zip(specs, row)):
            cell = cell.strip()
            if kind == "categorical":
                raw_columns[colno].append(cell)
                continue
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
            raw_columns[colno].append(value)
    return [tuple(values) for values in raw_columns]


def load_attributes(stream, expected_n: int | None = None) -> AttributeTable:
    """Parse a CSV attribute table with ``name:kind`` headers."""
    text = _as_text(stream)
    rows = [row for row in csv.reader(io.StringIO(text)) if "".join(row).strip()]
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
    columns = _attribute_columns(specs, body)
    if columns is None:
        columns = _attribute_rows(specs, body)
    return AttributeTable(
        [AttributeColumn(name, kind, values) for (name, kind), values in zip(specs, columns)]
    )


def save_attributes(table: AttributeTable) -> str:
    """Serialize an AttributeTable back to the CSV format of load_attributes."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"{c.name}:{c.kind}" for c in table.columns])
    for row in range(table.n):
        writer.writerow(
            [
                c.values[row] if c.kind == "categorical" else repr(c.values[row])
                for c in table.columns
            ]
        )
    return out.getvalue()


def symmetrize(g: Graph) -> Graph:
    """Add the reverse of every arc; idempotent."""
    return Graph(g.n, np.vstack([g.arc_array, g.arc_array[:, ::-1]]))


def out_degree_sequence(g: Graph) -> np.ndarray:
    """Out-degree of every vertex, in vertex order."""
    return g.out_degrees.copy()

import re
import warnings

import numpy as np
import pytest

from priorityrank import graph as graph_mod
from priorityrank.graph import (
    AttributeColumn,
    AttributeTable,
    Graph,
    GraphFormatError,
    load_attributes,
    load_edge_list,
    out_degree_sequence,
    save_attributes,
    save_edge_list,
    symmetrize,
)


def test_load_basic():
    g = load_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.arcs == {(0, 1), (1, 2)}


def test_load_duplicates_collapse_with_warning():
    with pytest.warns(UserWarning, match="1 duplicate"):
        g = load_edge_list("0 1\n0 1")
    assert g.n == 2
    assert g.arcs == {(0, 1)}


def test_load_rejects_self_loop_with_line_number():
    with pytest.raises(GraphFormatError, match="line 1"):
        load_edge_list("3 3")


def test_load_rejects_malformed_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edge_list("0 1\n0 x")
    with pytest.raises(GraphFormatError, match="line 1"):
        load_edge_list("0 1 2")


def test_load_header_and_out_of_range():
    g = load_edge_list("n=5\n0 1")
    assert g.n == 5
    with pytest.raises(GraphFormatError, match="declared range"):
        load_edge_list("n=2\n0 3")


def test_load_comments_and_tabs():
    g = load_edge_list("# comment\n0\t1\n\n2 0\n")
    assert g.arcs == {(0, 1), (2, 0)}


def test_save_simple_and_empty():
    assert save_edge_list(Graph(2, [(1, 0)])) == "1 0\n"
    assert save_edge_list(Graph(0, [])) == "n=0\n"
    assert save_edge_list(Graph(3, [])) == "n=3\n"


def test_round_trip_random_graphs():
    gen = np.random.default_rng(7)
    for _ in range(25):
        n = int(gen.integers(0, 12))
        arcs = set()
        if n >= 2:
            for _ in range(int(gen.integers(0, 20))):
                i, j = int(gen.integers(n)), int(gen.integers(n))
                if i != j:
                    arcs.add((i, j))
        g = Graph(n, arcs)
        assert load_edge_list(save_edge_list(g)) == g


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="outside"):
        Graph(2, [(0, 5)])


def test_graph_accepts_any_form_of_the_same_arcs():
    arcs = [(3, 0), (0, 1), (2, 4), (0, 1), (4, 2), (1, 3)]
    shuffled = np.array(arcs, dtype=np.int64)[np.random.default_rng(5).permutation(len(arcs))]
    forms = [arcs, set(arcs), (pair for pair in arcs), shuffled, shuffled.astype(np.int32)]
    graphs = [Graph(5, form) for form in forms]
    for g in graphs:
        assert g == graphs[0]
        assert hash(g) == hash(graphs[0])
        assert g.arc_count == 5
        assert g.arc_array.tolist() == [list(pair) for pair in sorted(set(arcs))]
        assert g.arcs == set(arcs)
    assert Graph(5, arcs) != Graph(6, arcs)
    assert Graph(3, []) == Graph(3, np.empty((0, 2), dtype=np.int64)) == Graph(3)
    assert Graph(3).arc_array.shape == (0, 2)


def test_graph_names_the_first_bad_arc_in_input_order():
    with pytest.raises(ValueError, match=r"arc \(0, 5\) has an endpoint outside \[0, 3\)"):
        Graph(3, [(0, 5), (1, 1)])
    with pytest.raises(ValueError, match=r"self-loop \(1, 1\) is not allowed"):
        Graph(3, [(1, 1), (0, 5)])
    with pytest.raises(ValueError, match=r"arc \(-1, 2\)"):
        Graph(3, np.array([[0, 1], [-1, 2], [2, 2]]))
    huge = 10**30  # past int64
    with pytest.raises(ValueError, match=rf"arc \(0, {huge}\) has an endpoint outside"):
        Graph(3, [(0, 1), (0, huge), (2, 2)])
    with pytest.raises(ValueError, match=r"self-loop \(2, 2\)"):
        Graph(3, [(2, 2), (0, huge)])
    # a fractional or non-finite id is not truncated into another vertex
    for arcs, named in (
        ([(0, 1), (0.7, 1), (2.5, 0)], r"\(0.7, 1.0\)"),
        (np.array([[0.7, 1.9]]), r"\(0.7, 1.9\)"),
        ([(0, 1), (float("nan"), 1)], r"\(nan, 1.0\)"),
        (np.array([[0.0, 1.0], [np.inf, 1.0]]), r"\(inf, 1.0\)"),
    ):
        with pytest.raises(ValueError, match=rf"arc {named} has a non-integer vertex id"):
            Graph(3, arcs)
    assert Graph(3, [(0.0, 2.0)]) == Graph(3, [(0, 2)]) == Graph(3, np.array([[0, 2]], dtype=np.uint8))


def test_graph_rejects_arcs_that_are_not_pairs():
    with pytest.raises(ValueError):
        Graph(5, [(0, 1, 2), (2, 3, 4)])
    with pytest.raises(ValueError):
        Graph(5, [(0, 1), (2, 3, 4)])
    with pytest.raises(ValueError):
        Graph(5, np.arange(6))


def test_graph_rejects_n_whose_codes_overflow_without_allocating():
    import tracemalloc

    largest = 3_037_000_499  # the largest n with n * n <= 2**63 - 1
    assert Graph(largest, [(largest - 1, 0)]).codes.tolist() == [(largest - 1) * largest]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n=4000000000 .*2\*\*63 - 1"):
            Graph(4_000_000_000)
        with pytest.raises(ValueError, match=r"n=3037000500"):
            Graph(largest + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    with pytest.raises(ValueError, match="n=100000000000000000000000"):
        load_edge_list("0 99999999999999999999999")


def test_symmetrize_and_idempotence():
    g = Graph(2, [(0, 1)])
    s = symmetrize(g)
    assert s.arcs == {(0, 1), (1, 0)}
    assert symmetrize(s) == s
    assert symmetrize(Graph(0, [])) == Graph(0, [])


def test_out_degree_sequence():
    g = Graph(3, [(0, 1), (0, 2)])
    assert out_degree_sequence(g).tolist() == [2, 0, 0]
    complete = Graph(4, [(i, j) for i in range(4) for j in range(4) if i != j])
    assert out_degree_sequence(complete).tolist() == [3, 3, 3, 3]
    assert out_degree_sequence(Graph(3, [])).tolist() == [0, 0, 0]


def test_out_degree_sum_equals_arc_count():
    gen = np.random.default_rng(3)
    for _ in range(20):
        n = int(gen.integers(2, 15))
        arcs = {
            (int(gen.integers(n)), int(gen.integers(n))) for _ in range(int(gen.integers(0, 30)))
        }
        arcs = {(i, j) for i, j in arcs if i != j}
        g = Graph(n, arcs)
        assert int(out_degree_sequence(g).sum()) == g.arc_count


def test_load_attributes_parses_kinds():
    text = "age:continuous,sex:categorical\n30,female\n40,male\n25,male\n20,female\n35,female\n"
    table = load_attributes(text)
    assert table.m == 2 and table.n == 5
    assert table.column("age").kind == "continuous"
    assert table.labels("sex") == ("female", "male")


def test_load_attributes_empty_body_and_errors():
    assert load_attributes("a:continuous\n").n == 0
    with pytest.raises(GraphFormatError, match="non-numeric"):
        load_attributes("a:continuous\nabc\n")
    with pytest.raises(GraphFormatError, match="rows"):
        load_attributes("a:continuous\n1.0\n", expected_n=3)
    with pytest.raises(GraphFormatError, match="unknown attribute kind"):
        load_attributes("a:weird\n1\n")
    with pytest.raises(GraphFormatError, match=r"header cell ':continuous' has an empty name"):
        load_attributes("b:ordinal, :continuous\n1,2\n")
    for cell in ("nan", "inf", "-Infinity"):
        with pytest.raises(GraphFormatError) as info:
            load_attributes(f"a:continuous,b:ordinal\n1,2\n3, {cell}\n")
        assert str(info.value) == f"row 3, column 'b': non-finite value {cell!r}"


def test_attributes_round_trip():
    table = AttributeTable(
        [
            AttributeColumn("x", "continuous", (0.5, 1.25, -3.0)),
            AttributeColumn("lab", "categorical", ("a", "b", "a")),
            AttributeColumn("lvl", "ordinal", (1.0, 2.0, 3.0)),
        ]
    )
    again = load_attributes(save_attributes(table))
    assert again.names == table.names
    for name in table.names:
        assert again.column(name).kind == table.column(name).kind
        assert again.column(name).values == table.column(name).values


def test_attribute_table_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        AttributeTable(
            [
                AttributeColumn("a", "continuous", (1.0,)),
                AttributeColumn("b", "continuous", (1.0, 2.0)),
            ]
        )
    with pytest.raises(ValueError, match="non-finite"):
        AttributeColumn("a", "continuous", (float("nan"),))


def test_leading_byte_order_mark_is_ignored():
    bom = "\ufeff"
    assert load_attributes(bom + "age:continuous\n1\n").names == ("age",)
    assert load_attributes((bom + "age:continuous\n1\n").encode("utf-8")).names == ("age",)
    assert load_edge_list(bom + "0 1\n") == Graph(2, [(0, 1)])
    assert load_edge_list((bom + "# c\r\n0 1\r\n").encode("utf-8")) == Graph(2, [(0, 1)])
    # only one: a second mark is content, and the line loop names its line
    with pytest.raises(GraphFormatError, match="line 1: non-integer vertex id"):
        load_edge_list(bom + bom + "0 1\n")


def _outcome(load, text):
    """What a loader makes of text: the value and its warnings' messages, or
    the error's type and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = load(text)
        except ValueError as exc:
            return type(exc), str(exc)
    return value, [str(w.message) for w in caught]


def _line_loop_outcome(monkeypatch, load, fast_name, text):
    with monkeypatch.context() as patch:
        patch.setattr(graph_mod, fast_name, lambda *args: None)
        return _outcome(load, text)


def _table_view(outcome):
    value, rest = outcome
    if not isinstance(value, AttributeTable):
        return outcome
    return [(c.name, c.kind, c.values) for c in value.columns], rest


SEPARATORS = (" ", "\t", "  ", " \t ")


def _edge_lines(gen, n, m):
    """m random arcs on 0..n-1, duplicates likely, self-loops never."""
    lines = []
    for _ in range(m):
        i, step = int(gen.integers(n)), int(gen.integers(1, n))
        j = (i + step) % n
        lines.append(f"{i}{SEPARATORS[int(gen.integers(len(SEPARATORS)))]}{j}")
    return lines


EDGE_PERTURBATIONS = (
    "# comment",
    "",
    "   ",
    "{v} {v}",
    "{n} 0",
    "0 {big}",
    "+1 0",
    "1_0 2",
    "1\x0c2",
    "1 \x0c2",
    " 1 2",
    "1 2 ",
    "1\u20032",
    "\u0661 0",
    "-1 0",
    "0 x",
    "0 1 2",
    "n=3",
    "9999999999999999999 0",
    "99999999999999999999 0",
    "0000000000000000001 0",
    "9223372036854775808 1",
)


def _random_edge_text(gen, perturb: bool) -> str:
    n = int(gen.integers(2, 25))
    lines = _edge_lines(gen, n, int(gen.integers(1, 20)))
    if perturb:
        for _ in range(int(gen.integers(1, 3))):
            line = str(gen.choice(EDGE_PERTURBATIONS)).format(
                v=int(gen.integers(n)), n=n, big=int(gen.integers(n, 10 * n + 1))
            )
            lines.insert(int(gen.integers(len(lines) + 1)), line)
    if gen.random() < 0.5:
        lines.insert(0, f"n={n + int(gen.integers(0, 3))}")
    eol = "\r\n" if gen.random() < 0.25 else "\n"
    return eol.join(lines) + (eol if gen.random() < 0.7 else "")


EDGE_CORNER_TEXTS = (
    "", "\n", "n=5", "n=5\r", "n=5\r\n", "n=5\n\n", "n=05\n1 2", "n=2\n1 2", "0 1\r", "0 1\r2 3",
    "0 1\r\r\n", "0 1\n\r\n", "n=3\n0 1\nn=3\n", "0 1\x0b1 0", "0 1\x852 3", "0 1\u20282 3",
    "0 1 \n", "0 1\x1c\n1 0\n", "0 1\u2003\n",
)


def test_edge_list_fast_path_matches_the_line_loop(monkeypatch):
    for text in EDGE_CORNER_TEXTS:
        expected = _line_loop_outcome(monkeypatch, load_edge_list, "_plain_edge_list", text)
        assert _outcome(load_edge_list, text) == expected, repr(text)
    gen = np.random.default_rng(2024)
    fast = {False: 0, True: 0}
    for trial in range(1500):
        perturb = trial % 2 == 1
        text = _random_edge_text(gen, perturb)
        expected = _line_loop_outcome(monkeypatch, load_edge_list, "_plain_edge_list", text)
        assert _outcome(load_edge_list, text) == expected, repr(text)
        fast[perturb] += graph_mod._plain_edge_list(text) is not None
    # every plain text takes the numpy path, and so do a few perturbed ones
    # (a new id past the others with no header); the rest go to the loop
    assert fast[False] == 750
    assert 0 < fast[True] < 150


def test_edge_list_ids_past_int64_are_never_saturated():
    # np.fromstring would read 99999999999999999999 as 2**63 - 1, silently
    for text in ("99999999999999999999 1", "9223372036854775808 1\n", "n=99999999999999999999\n"):
        assert graph_mod._plain_edge_list(text) is None
    with pytest.raises(ValueError, match=r"n=100000000000000000000 is too large"):
        load_edge_list("99999999999999999999 1")
    with pytest.raises(ValueError, match=r"n=9223372036854775809 is too large"):
        load_edge_list("9223372036854775808 1")
    assert graph_mod._plain_edge_list("999999999999999999 1")[0] == 10**18


def test_duplicate_warning_names_the_callers_file():
    for text in ("0 1\n0 1\n", "# either path\n0 1\n0 1\n"):
        with pytest.warns(UserWarning, match="1 duplicate") as record:
            load_edge_list(text)
        assert [w.filename for w in record] == [__file__]


ATTRIBUTE_PERTURBATIONS = (
    "nan", "inf", "-inf", "abc", "", " 1.5 ", "1_0", "\u20032.5\u2003", "\u0661", "1e400", '"7"', "0x1",
)


def _random_attribute_text(gen, perturb: bool) -> str:
    kinds = [str(k) for k in gen.choice(graph_mod.ATTRIBUTE_KINDS, size=int(gen.integers(1, 4)))]
    rows = [",".join(f"c{k}:{kind}" for k, kind in enumerate(kinds))]
    for _ in range(int(gen.integers(0, 8))):
        cells = [
            f"lab{int(gen.integers(3))}" if kind == "categorical" else repr(float(gen.normal()))
            for kind in kinds
        ]
        if perturb and gen.random() < 0.3:
            cells[int(gen.integers(len(cells)))] = str(gen.choice(ATTRIBUTE_PERTURBATIONS))
        if perturb and gen.random() < 0.1:
            cells = cells[:-1] if gen.random() < 0.5 else cells + ["1"]
        rows.append(",".join(cells))
        if perturb and gen.random() < 0.1:
            rows.append(" , " if gen.random() < 0.5 else "")
    return "\r\n".join(rows) if gen.random() < 0.25 else "\n".join(rows) + "\n"


def test_attribute_fast_path_matches_the_row_loop(monkeypatch):
    gen = np.random.default_rng(77)
    outcomes = set()
    for trial in range(1000):
        text = _random_attribute_text(gen, perturb=trial % 2 == 1)
        expected = _line_loop_outcome(monkeypatch, load_attributes, "_attribute_columns", text)
        assert _table_view(_outcome(load_attributes, text)) == _table_view(expected), repr(text)
        outcomes.add(re.sub(r"row \d+.*: ", "", str(expected[1])) if expected[0] is GraphFormatError else "ok")
    assert {"ok", "non-finite value 'nan'", "non-numeric value 'abc'"} <= outcomes

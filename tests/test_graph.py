import csv
import io
import re
import warnings

import numpy as np
import pytest

from priorityrank import graph as graph_mod
from priorityrank.generate import DegreeSpec
from priorityrank.metrics import NetworkProfile
from priorityrank.graph import (
    AttributeColumn,
    AttributeTable,
    Graph,
    GraphFormatError,
    load_attributes,
    load_edge_list,
    save_attributes,
    save_edge_list,
    symmetrize,
)

from _oracles import arcs, edge_list_text, load_attributes_by_rows, plain_edge_list_by_regex


def test_load_basic():
    g = load_edge_list("0 1\n1 2")
    assert g.n == 3
    assert arcs(g) == {(0, 1), (1, 2)}


def test_load_duplicates_collapse_with_warning():
    with pytest.warns(UserWarning, match="1 duplicate"):
        g = load_edge_list("0 1\n0 1")
    assert g.n == 2
    assert arcs(g) == {(0, 1)}


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
    with pytest.raises(GraphFormatError, match=r"^line 1: bad vertex-count header 'n=x'$"):
        load_edge_list("n=x\n0 1\n")
    with pytest.raises(GraphFormatError, match=r"^line 1: negative vertex count -3$"):
        load_edge_list("n=-3\n0 1\n")


def test_loaders_read_text_and_byte_streams():
    edges = "\ufeffn=4\n0 1\n2 0\n"
    table = "\ufeffage:continuous,sex:categorical\n30,f\n41.5,m\n"
    for stream in (io.StringIO, lambda text: io.BytesIO(text.encode("utf-8"))):
        assert load_edge_list(stream(edges)) == load_edge_list(edges) == Graph(4, [(0, 1), (2, 0)])
        assert load_attributes(stream(table)).columns == load_attributes(table).columns
    assert load_attributes(io.BytesIO(table.encode("utf-8"))).column("age").values == (30.0, 41.5)


def test_load_comments_and_tabs():
    g = load_edge_list("# comment\n0\t1\n\n2 0\n")
    assert arcs(g) == {(0, 1), (2, 0)}


def test_save_simple_and_empty():
    assert save_edge_list(Graph(2, [(1, 0)])) == "1 0\n"
    assert save_edge_list(Graph(0, [])) == "n=0\n"
    assert save_edge_list(Graph(3, [])) == "n=3\n"


@pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 1000, 2000])
def test_save_edge_list_matches_the_format_reference(n):
    # every digit width, with the header (vertex n - 1 has no arc) and
    # without it (an arc into n - 1)
    gen = np.random.default_rng(n)
    arcs = gen.integers(0, n, (3 * n, 2))
    arcs = arcs[arcs[:, 0] != arcs[:, 1]]
    into_last = np.vstack([arcs, [[0, n - 1]]]) if n > 1 else arcs
    for g, header in ((Graph(n, arcs[(arcs < n - 1).all(axis=1)]), True), (Graph(n, into_last), n == 1)):
        assert save_edge_list(g) == edge_list_text(g)
        assert save_edge_list(g).startswith("n=") == header


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
    # a float vertex count is never truncated
    with pytest.raises(ValueError, match=r"^vertex count must be a whole number, got 10.7$"):
        Graph(10.7, [(0, 1)])
    with pytest.raises(ValueError, match=r"^vertex count must be non-negative, got -1$"):
        Graph(-1)
    assert Graph(4.0, [(0, 1)]) == Graph(4, [(0, 1)]) and type(Graph(4.0).n) is int


def test_graph_accepts_any_form_of_the_same_arcs():
    pairs = [(3, 0), (0, 1), (2, 4), (0, 1), (4, 2), (1, 3)]
    shuffled = np.array(pairs, dtype=np.int64)[np.random.default_rng(5).permutation(len(pairs))]
    forms = [pairs, set(pairs), (pair for pair in pairs), shuffled, shuffled.astype(np.int32)]
    graphs = [Graph(5, form) for form in forms]
    for g in graphs:
        assert g == graphs[0]
        assert hash(g) == hash(graphs[0])
        assert g.arc_count == 5
        assert g.arc_array.tolist() == [list(pair) for pair in sorted(set(pairs))]
        assert arcs(g) == set(pairs)
    assert Graph(5, pairs) != Graph(6, pairs)
    assert Graph(3, []) == Graph(3, np.empty((0, 2), dtype=np.int64)) == Graph(3)
    assert Graph(3).arc_array.shape == (0, 2)


def test_graph_codes_match_a_set_oracle_on_shuffled_repeats():
    # the codes are the sorted distinct src * n + dst, whatever the order
    # and the repeats of the input
    gen = np.random.default_rng(11)
    for n, m in ((2, 6), (7, 60), (50, 400), (300, 20000)):
        src = gen.integers(0, n, m)
        arcs = np.stack([src, (src + gen.integers(1, n, m)) % n], axis=1)
        arcs = np.concatenate([arcs, arcs[gen.integers(0, m, m // 2)]])[gen.permutation(m + m // 2)]
        codes = Graph(n, arcs).codes
        expected = sorted({i * n + j for i, j in arcs.tolist()})
        assert len(expected) < len(arcs)
        assert codes.dtype == np.int64 and not codes.flags.writeable
        assert codes.tolist() == expected
    assert Graph(4, arcs[:0]).codes.dtype == Graph(4).codes.dtype == np.int64


def test_graph_arrays_are_read_only():
    # a graph is shared, so a write to one of its arrays would change every
    # measure read after it
    g = Graph(3, [(0, 1), (0, 2)])
    for array in (g.codes, g.arc_array, g.out_degrees, g.in_degrees, g.total_degrees, *g.csr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    assert NetworkProfile(g).to_json_dict() == NetworkProfile(Graph(3, [(0, 1), (0, 2)])).to_json_dict()
    assert NetworkProfile(g).degree.tolist() == [2.0, 1.0, 1.0]


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
    assert arcs(s) == {(0, 1), (1, 0)}
    assert symmetrize(s) == s
    assert symmetrize(Graph(0, [])) == Graph(0, [])


def test_out_degree_sequence():
    # a resample spec reads the graph's own read-only out-degrees, no copy
    g = Graph(3, [(0, 1), (0, 2)])
    assert g.out_degrees.tolist() == [2, 0, 0]
    assert not g.out_degrees.flags.writeable
    assert DegreeSpec.resample(g.out_degrees).histogram == (2, 0, 0)
    assert g.out_degrees.tolist() == [2, 0, 0]
    complete = Graph(4, [(i, j) for i in range(4) for j in range(4) if i != j])
    assert complete.out_degrees.tolist() == [3, 3, 3, 3]
    assert Graph(3, []).out_degrees.tolist() == [0, 0, 0]


def test_out_degree_sum_equals_arc_count():
    gen = np.random.default_rng(3)
    for _ in range(20):
        n = int(gen.integers(2, 15))
        arcs = {
            (int(gen.integers(n)), int(gen.integers(n))) for _ in range(int(gen.integers(0, 30)))
        }
        arcs = {(i, j) for i, j in arcs if i != j}
        g = Graph(n, arcs)
        assert int(g.out_degrees.sum()) == g.arc_count


def test_load_attributes_parses_kinds():
    text = "age:continuous,sex:categorical\n30,female\n40,male\n25,male\n20,female\n35,female\n"
    table = load_attributes(text)
    assert len(table.columns) == 2 and table.n == 5
    assert table.column("age").kind == "continuous"
    assert table.column("sex").labels == ("female", "male")


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
    with pytest.raises(GraphFormatError, match=r"^header cell 'b' is not 'name:kind'$"):
        load_attributes("a:ordinal,b\n1,2\n")
    for cell in ("nan", "inf", "-Infinity"):
        with pytest.raises(GraphFormatError) as info:
            load_attributes(f"a:continuous,b:ordinal\n1,2\n3, {cell}\n")
        assert str(info.value) == f"row 3, column 'b': non-finite value {cell!r}"


def test_attributes_round_trip():
    for x, labels in [
        ((0.5, 1.25, -3.0), ("a", "b", "a")),
        ((-0.0, 5e-324, 1.0), ("a", 'c,"d\ne', "")),
    ]:
        table = AttributeTable(
            [
                AttributeColumn("x", "continuous", x),
                AttributeColumn("lab", "categorical", labels),
                AttributeColumn("lvl", "ordinal", (1.0, 2.0, 3.0)),
            ]
        )
        again = load_attributes(save_attributes(table))
        assert again.names == table.names
        for name in table.names:
            assert again.column(name).kind == table.column(name).kind
            # repr tells -0.0 from 0.0
            assert list(map(repr, again.column(name).values)) == list(map(repr, table.column(name).values))
    # the loader strips a label and skips a row of blank cells, so these would load back different
    for labels, message in [
        ((" x", "y "), "row 0, column 'lab': label ' x' has surrounding whitespace"),
        (("x", ""), "row 1, column 'lab': every cell is blank"),
    ]:
        with pytest.raises(ValueError) as info:
            save_attributes(AttributeTable([AttributeColumn("lab", "categorical", labels)]))
        assert str(info.value) == message
    # csv quotes a name as it quotes a label
    names = ("a:b", "x,y", 'q"r', "l\nm")
    table = AttributeTable([AttributeColumn(name, "continuous", (1.0, 2.0)) for name in names])
    assert load_attributes(save_attributes(table)).names == names
    # the loader strips a name, rejects an empty one and drops a
    # byte-order mark at the start of the text, before the first name
    names = ("b", "\ufeffb", "\ufeff")
    table = AttributeTable([AttributeColumn(name, "continuous", (1.0,)) for name in names])
    assert load_attributes(save_attributes(table)).names == names
    blank = "a name must be non-empty, with no surrounding whitespace"
    for names, bad, message in [
        (("x", " a"), " a", blank),
        (("x", "a "), "a ", blank),
        (("x", ""), "", blank),
        (("\ufeffa", "x"), "\ufeffa", "the first name must not start with a byte-order mark"),
    ]:
        table = AttributeTable([AttributeColumn(name, "continuous", (k + 1.0,)) for k, name in enumerate(names)])
        with pytest.raises(ValueError) as info:
            save_attributes(table)
        assert str(info.value) == f"column {bad!r}: {message}"


def test_column_arrays_are_read_only_and_match_their_values():
    num = AttributeColumn("x", "continuous", (3, -0.0, 2.5, 1, 0))
    cat = AttributeColumn("lab", "categorical", ("b", "a\x00", "a", "b", 7))
    assert num.array.dtype == np.float64 and np.array_equal(num.array, np.array(num.values))
    assert num.labels == ()
    assert cat.labels == ("7", "a", "a\x00", "b") == tuple(sorted(set(cat.values)))
    assert cat.array.dtype == np.int64 and cat.array.tolist() == [cat.labels.index(v) for v in cat.values]
    for col in (num, cat):
        with pytest.raises(ValueError, match="read-only"):
            col.array[0] = 1
    table = AttributeTable([num, cat])
    assert table.numeric_array("x") is num.array and table.column("lab") is cat
    with pytest.raises(ValueError, match="'lab' is categorical, expected numeric"):
        table.numeric_array("lab")
    # the arrays take no part in equality, hashing or repr
    same = AttributeColumn("x", "continuous", (3.0, 0.0, 2.5, 1.0, 0.0))
    assert same == num and hash(same) == hash(num)
    assert repr(num) == "AttributeColumn(name='x', kind='continuous', values=(3.0, -0.0, 2.5, 1.0, 0.0))"


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
    with pytest.raises(ValueError, match=r"^unknown attribute kind 'weird'$"):
        AttributeColumn("a", "weird", (1.0,))
    with pytest.raises(ValueError, match=r"^duplicate attribute names$"):
        AttributeTable([AttributeColumn("a", "continuous", (1.0,)), AttributeColumn("a", "ordinal", (2.0,))])


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


# Pieces of fuzzed edge lists; the first ``valid`` of each kind stay in the
# plain grammar.  Numbers have at most 18 digits, and 19 or 20 fall outside.
GRAMMAR_NUMBERS = ("0", "7", "12", "305", "9" * 18, "1" + "0" * 17, "1" * 19, "0" * 20, "\u0663", "+1", "")
GRAMMAR_BLANKS = (" ", "\t", "  ", " \t\t", "", "\r", "\x0b", "\u2003", "\xa0")
GRAMMAR_ENDS = ("\n", "\r\n", "\n\n", "\r", "\n\r\n", " \n", "\r\r\n", "\n#\n", "\x85")
GRAMMAR_VALID = (6, 4, 2)


def _grammar_text(picks, rare, shape) -> str:
    """One edge list from pre-drawn choices: ``picks`` and ``rare`` choose
    each piece (from the valid ones unless ``rare``), ``shape`` holds the line
    count, whether a header comes first and whether the last LF stays."""
    def piece(k, kind):
        options = (GRAMMAR_NUMBERS, GRAMMAR_BLANKS, GRAMMAR_ENDS)[kind]
        return options[picks[k] % (len(options) if rare[k] else GRAMMAR_VALID[kind])]

    lines, header, last_end = shape
    text = f"n={piece(0, 0)}{piece(1, 2)}" if header else ""
    for line in range(lines):
        k = 2 + 4 * line
        text += piece(k, 0) + piece(k + 1, 1) + piece(k + 2, 0) + piece(k + 3, 2)
    return text if last_end or not lines else text.removesuffix("\n")


def test_plain_grammar_check_matches_the_regex():
    gen = np.random.default_rng(20261019)
    count = 100_000
    picks = gen.integers(0, 2**20, size=(count, 18)).tolist()
    rare = (gen.random((count, 18)) < 0.04).tolist()
    shapes = zip(
        gen.integers(0, 5, count).tolist(),
        (gen.random(count) < 0.4).tolist(),
        (gen.random(count) < 0.6).tolist(),
    )
    accepted = {"crlf": 0, "tab": 0, "18 digits": 0, "header only": 0, "no final LF": 0}
    rejected = {"19 digits": 0, "non-ASCII digit": 0, "blank line": 0}
    for text_picks, text_rare, shape in zip(picks, rare, shapes):
        text = _grammar_text(text_picks, text_rare, shape)
        expected = plain_edge_list_by_regex(text)
        got = graph_mod._plain_edge_list(text)
        assert (got is None) == (expected is None), repr(text)
        if got is None:
            rejected["19 digits"] += "1" * 19 in text
            rejected["non-ASCII digit"] += "\u0663" in text
            rejected["blank line"] += "\n\n" in text
            continue
        assert got[0] == expected[0] and np.array_equal(got[1], expected[1]), repr(text)
        accepted["crlf"] += "\r\n" in text
        accepted["tab"] += "\t" in text
        accepted["18 digits"] += "9" * 18 in text
        accepted["header only"] += not got[1].size
        accepted["no final LF"] += not text.endswith("\n")
    # each form turns up often, among the texts that it is meant to pass or fail
    assert min(accepted.values()) > 1000, accepted
    assert min(rejected.values()) > 500, rejected


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
    texts = [_random_attribute_text(gen, perturb=trial % 2 == 1) for trial in range(1000)]
    # a cell one past csv's field limit, in a table with and without a
    # quote, and one at the limit, which loads
    limit = csv.field_size_limit()
    at_limit = f"a:categorical\n{'x' * limit}\n"
    texts += [f"a:categorical\n{'x' * (limit + 1)}\n", f'a:categorical\n"q"\n{"x" * (limit + 1)}\n', at_limit]
    outcomes = set()
    for text in texts:
        expected = _table_view(_outcome(load_attributes_by_rows, text))
        with monkeypatch.context() as patch:
            if expected[0] is not GraphFormatError:
                # a good table converts without numbering its rows
                patch.setattr(graph_mod, "_raise_bad_row", None)
                patch.setattr(graph_mod, "_row_lines", None)
            assert _table_view(_outcome(load_attributes, text)) == expected, repr(text)
        outcomes.add(re.sub(r"row \d+.*: ", "", str(expected[1])) if expected[0] is GraphFormatError else "ok")
    too_long = f"field larger than field limit ({limit})"
    assert {"ok", "non-finite value 'nan'", "non-numeric value 'abc'", too_long} <= outcomes


ATTRIBUTE_SPLIT_TEXTS = (
    "", "\n", "a:continuous", "a:continuous\n1", "a:continuous\n1\n\n", "a:continuous\n \n1\n",
    "a:continuous\n1\n \t\n", "a:categorical,b:categorical\n , \n", "a:categorical,b:categorical\n,x\n",
    "a:categorical\nx\x0by\n", "a:categorical\nx\x85y\u2028z\n", "a:categorical\n\x1c\n", "a:categorical\nx\x00y\n",
    "a:continuous,b:categorical\n1\n2,x\n", "a:continuous,b:categorical\n1,x,\n", "a:categorical\r\nx\r\n",
    'a:categorical\nx"y\n', "\ufeffa:continuous\n1\n", "a:continuous\n1\nabc",
)


def test_attribute_split_matches_the_csv_reader():
    # one csv.reader pass reads every text as the numbered row loop does:
    # the same table, or the same error on the same line
    texts = list(ATTRIBUTE_SPLIT_TEXTS)
    gen = np.random.default_rng(78)
    texts += [_random_attribute_text(gen, perturb=trial % 2 == 1) for trial in range(1000)]
    for text in texts:
        expected = _table_view(_outcome(load_attributes_by_rows, text))
        assert _table_view(_outcome(load_attributes, text)) == expected, repr(text)


ATTRIBUTE_LINE_CASES = [
    # (text, the start of the error message, or None for a good table)
    ("a:continuous\n\n\n1\nabc\n", "row 5, column 'a': non-numeric value 'abc'"),
    ("a:continuous,b:categorical\n1,x\n\n2\n", "row 4: 1 cells for 2 columns"),
    ("\n\na:continuous\n1\nnan\n", "row 5, column 'a': non-finite value 'nan'"),
    ("a:continuous\r\n\r\n1\r\n , \r\n2,3\r\n", "row 5: 2 cells for 1 columns"),
    # a quoted cell that spans lines: the next row starts two lines later
    ('a:continuous,b:categorical\n1,"x\ny"\n2,z\nabc,w\n', "row 5, column 'a': non-numeric value 'abc'"),
    ('a:continuous,b:categorical\n1,"x\n\ny"\n\n2,z\n', None),
    ("a:continuous\n\n1\n\n\n2\n", None),
    # the first bad row by text line, its length before its cells, columns left to right
    ("a:continuous,b:categorical\n1\nabc,x\n", "row 2: 1 cells for 2 columns"),
    ("a:continuous,b:categorical\nabc,x\n1\n", "row 2, column 'a': non-numeric value 'abc'"),
    ("a:continuous,b:categorical\n1,x\nabc,x,y\n", "row 3: 3 cells for 2 columns"),
    ("a:continuous,b:ordinal\n1,2\nabc,nan\n", "row 3, column 'a': non-numeric value 'abc'"),
    # csv.reader's own errors name the row that it was reading
    ("a:categorical\nx\ry\n", "row 2: new-line character seen in unquoted field"),
    pytest.param(
        'a:categorical\nx\n"' + "y" * 200_000 + '"\n', "row 3: field larger than field limit (131072)",
        id="quoted-cell-past-the-field-limit",
    ),
]


# errors found before any row is read: their messages name no row
ATTRIBUTE_HEADER_CASES = [
    ("", "attribute table has no header row"),
    ("\n \n", "attribute table has no header row"),
    ("a\n1\n", "header cell 'a' is not 'name:kind'"),
    ("a:count\n1\n", "unknown attribute kind 'count' for column 'a'"),
]


@pytest.mark.parametrize("text, message", ATTRIBUTE_LINE_CASES + ATTRIBUTE_HEADER_CASES)
def test_attribute_rows_are_numbered_by_their_text_line(monkeypatch, text, message):
    expected = _table_view(_outcome(load_attributes_by_rows, text))
    numbered = []
    row_lines = graph_mod._row_lines
    with monkeypatch.context() as patch:
        if message is None:
            # a good table converts without calling the bad-row loop
            patch.setattr(graph_mod, "_raise_bad_row", None)
        patch.setattr(graph_mod, "_row_lines", lambda text: numbered.append(text) or row_lines(text))
        assert _table_view(_outcome(load_attributes, text)) == expected
    # only a message that names a row numbers the rows, in one more pass
    assert numbered == ([text] if message and message.startswith("row ") else [])
    if message is None:
        assert len(expected[0][0][2]) == 2
    else:
        assert expected[0] is GraphFormatError and expected[1].startswith(message)

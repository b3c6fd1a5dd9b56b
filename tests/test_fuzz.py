"""Property tests: no input or flag value makes a reader or the command
line fail in any way other than an error with a JSON report."""
import io
import json
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from conftest import (
    brute_min_transversal,
    deletes_to_bipartite,
    read_biplot_csv,
    reference_heuristic_oct,
    three_order_poset,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import ordfactor as of  # noqa: E402
from ordfactor.cli import run  # noqa: E402
from ordfactor.maximal import _ExactOct, _heuristic_oct  # noqa: E402

# no example database on disk, and the same examples on every run
_FUZZ = settings(database=None, derandomize=True, deadline=None, max_examples=150)
# any character that UTF-8 can encode: text()'s default alphabet says the
# same through its codec, which takes seconds to tabulate on a cold cache
_CHAR = st.characters(exclude_categories=["Cs"])

_LINES = st.one_of(
    st.sampled_from(
        ["", " ", "B", "0", "1", "2", "²", "g", "h", "m", "X", "x", ".", "X.", ".x"]
    ),
    st.text(_CHAR, max_size=4),
)


@st.composite
def _cxt_texts(draw):
    """Mostly well-formed .cxt text with a few lines dropped in."""
    n = draw(st.integers(0, 3))
    m = draw(st.integers(0, 3))
    names = [draw(st.sampled_from("ghmnopq")) for _ in range(n + m)]
    # zero-width rows are not written
    rows = [draw(st.text("Xx.", min_size=m, max_size=m)) for _ in range(n if m else 0)]
    title = draw(st.lists(st.text(_CHAR, max_size=5), max_size=1))
    lines = ["B", *title, str(n), str(m), "", *names, *rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_LINES))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats()
_JSON = st.recursive(
    _SCALARS | st.text(_CHAR, max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["objects", "attributes", "rows", "title", "elements", "relations"]
        )
        | st.text(_CHAR, max_size=3),
        inner,
        max_size=6,
    ),
    max_leaves=16,
)
_WORDS = st.lists(st.sampled_from(["a", "b", "c", "X", "x.", ".X"]), max_size=3)
_ELEMENTS = st.lists(st.sampled_from("abcd"), max_size=4, unique=True)
# "e" is no element
_PAIRS = st.lists(st.lists(st.sampled_from("abcde"), min_size=2, max_size=2))
_SHAPED_JSON = st.fixed_dictionaries(
    {"objects": _WORDS, "attributes": _WORDS, "rows": _WORDS},
    optional={"title": st.none() | st.text(_CHAR, max_size=3) | st.integers()},
) | st.fixed_dictionaries({"elements": _ELEMENTS | _WORDS, "relations": _PAIRS | _JSON})


@_FUZZ
@given(st.text(_CHAR) | _cxt_texts())
def test_parse_cxt_raises_a_format_error_or_round_trips(text):
    try:
        ctx = of.parse_cxt(text)
    except of.FormatError:
        return
    again = of.parse_cxt(of.serialize_cxt(ctx))
    assert again == ctx
    assert again.title == ctx.title


@_FUZZ
@given(_JSON | _SHAPED_JSON)
def test_json_readers_raise_only_format_errors(value):
    text = json.dumps(value)
    for read in (of.context_from_json, of.poset_from_json):
        try:
            read(text)
        except of.FormatError:
            pass


# every code point, lone surrogates drawn often: json.dumps writes those
# as ASCII escapes, which pass the UTF-8 check on the input text
_ANY_CHAR = st.characters() | st.characters(categories=["Cs"])
_ANY_NAMES = st.lists(st.text(_ANY_CHAR, max_size=3), max_size=3)


@_FUZZ
@given(_ANY_NAMES, _ANY_NAMES)
def test_json_names_that_load_encode_as_utf8(objects, attributes):
    rows = ["X" * len(attributes)] * len(objects)
    context = {"objects": objects, "attributes": attributes, "rows": rows}
    for read, payload, names in (
        (of.context_from_json, context, lambda ctx: ctx.objects + ctx.attributes),
        (of.poset_from_json, {"elements": objects, "relations": []}, lambda p: p.elements),
    ):
        try:
            loaded = read(json.dumps(payload))
        except of.FormatError:
            continue
        # json.loads joins an escaped surrogate pair into one code point
        "".join(names(loaded)).encode("utf-8")


@_FUZZ
@given(
    st.sampled_from(["check", "dim2ext"]),
    st.text(_CHAR) | _cxt_texts() | (_JSON | _SHAPED_JSON).map(json.dumps),
)
def test_cli_always_reports_in_json(command, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)):
        with redirect_stdout(out), redirect_stderr(err):
            code = run([command, "-"])
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2)
    assert report["status"] == ("ok" if code == 0 else "error")
    assert err.getvalue() == ""


_SPECIAL = st.text(st.sampled_from('",^~<&\r\n\x01\ud800'), max_size=3)


@st.composite
def _special_name_contexts(draw):
    """JSON contexts of up to 4x3 whose names and title hold characters
    that the csv, svg and tikz writers must quote, escape or refuse."""
    objects = draw(st.lists(_SPECIAL, max_size=4, unique=True))
    attributes = draw(st.lists(_SPECIAL, max_size=3, unique=True))
    width = len(attributes)
    rows = [draw(st.text("X.", min_size=width, max_size=width)) for _ in objects]
    payload = {"objects": objects, "attributes": attributes, "rows": rows}
    payload["title"] = draw(st.none() | _SPECIAL)
    return json.dumps(payload)


@_FUZZ
@given(_special_name_contexts(), st.sampled_from(["csv", "svg", "tikz"]))
def test_biplot_writes_special_names_it_can_read_back(text, fmt):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)):
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["biplot", "-", "--format", fmt])
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2)
    assert report["status"] == ("ok" if code == 0 else "error")
    assert err.getvalue() == ""
    if code:
        return
    rendering = report["payload"]["rendering"]
    if fmt == "svg":
        ET.fromstring(rendering)
    elif fmt == "csv":
        x, y = (axis["positions"] for axis in report["payload"]["axes"])
        objects = json.loads(text)["objects"]
        assert read_biplot_csv(rendering) == [(g, x[g], y[g]) for g in objects]


@st.composite
def _search_runs(draw):
    """Stdin text and arguments for a search subcommand on a small input."""
    seed = ["--seed", str(draw(st.integers(0, 5)))]
    command = draw(st.sampled_from(["dim2ext", "maximal", "biplot"]))
    if command == "dim2ext":
        mode = draw(st.sampled_from(["heuristic", "exact"]))
        poset = three_order_poset(
            draw(st.integers(0, 12 if mode == "heuristic" else 8)),
            draw(st.integers(0, 999)),
        )
        budget = ["--budget", "1"] if mode == "exact" else []
        argv = ["dim2ext", "-", "--mode", mode, *budget, *seed]
        return of.poset_to_json(poset), argv
    spec = of.GeneratorSpec(
        draw(st.integers(0, 6)),
        draw(st.integers(0, 6)),
        draw(st.sampled_from([0.3, 0.5, 0.7])),
        draw(st.integers(0, 999)),
    )
    csv = ["--format", "csv"] if command == "biplot" else []
    argv = [command, "-", "--mode", "heuristic", *seed, *csv]
    return of.serialize_cxt(of.random_context(spec)), argv


@_FUZZ
@given(_search_runs())
def test_search_subcommands_always_report_in_json(text_and_argv):
    text, argv = text_and_argv
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)):
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2, 3)
    assert report["status"] == ("ok" if code == 0 else "error")
    assert err.getvalue() == ""


@st.composite
def _graphs(draw, max_vertices=24, layers=1):
    """A symmetric adjacency on 0 to ``max_vertices`` vertices, one
    bitmask per vertex; with ``layers`` draws ORed per vertex, an edge
    is there with probability 1 - 2**-layers."""
    n = draw(st.integers(0, max_vertices))
    adj = [0] * n
    for u in range(n):
        # u's neighbours above u, one draw per layer
        for _ in range(layers):
            adj[u] |= draw(st.integers(0, (1 << (n - u - 1)) - 1)) << (u + 1)
        for v in range(u + 1, n):
            adj[v] |= (adj[u] >> v & 1) << u
    return adj


@_FUZZ
@given(_graphs(), st.integers(0, 1000))
def test_heuristic_matches_the_reference_on_random_graphs(adj, seed):
    assert _heuristic_oct(adj, seed, None) == reference_heuristic_oct(adj, seed, None)


@settings(_FUZZ, max_examples=100)
@given(st.integers(1, 3).flatmap(lambda layers: _graphs(14, layers)))
def test_exact_matches_brute_force_on_dense_random_graphs(adj):
    """Up to 14 vertices at edge densities 1/2, 3/4 and 7/8, where
    4-cliques are common: the exact search returns a transversal as
    small as the brute-force minimum, the same one on a second run, and
    its run capped one below that size finds nothing."""
    expected = brute_min_transversal(adj, (1 << len(adj)) - 1)
    answer = _ExactOct(adj, None).run(len(adj))
    assert len(answer) == len(expected)
    assert deletes_to_bipartite(adj, answer)
    assert _ExactOct(adj, None).run(len(adj)) == answer
    assert _ExactOct(adj, None).run(len(expected) - 1) is None

"""End-to-end tests of the command line front end."""
import io
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from conftest import three_order_poset

import ordfactor as of
from ordfactor.cli import run

DATA = Path(of.__file__).parent / "data"
MONUMENTS = str(DATA / "monuments.cxt")
CONTRANOMINAL = str(DATA / "contranominal3.cxt")
FORCED = str(DATA / "forced_overlap.cxt")
PERSISTENT = str(DATA / "persistent_odd_cycle.cxt")


def _run(capsys, argv):
    code = run(argv)
    report = json.loads(capsys.readouterr().out)
    return code, report


def test_check_bipartite_context(capsys):
    code, report = _run(capsys, ["check", CONTRANOMINAL])
    assert code == 0
    assert report["status"] == "ok"
    assert report["command"] == "check"
    assert report["input_digest"].startswith("sha256:")
    payload = report["payload"]
    assert payload["bipartite"] is True
    assert payload["odd_cycle"] is None
    assert payload["vertices"] == 6
    assert payload["edges"] == 3
    assert payload["components"] == 3
    assert payload["isolated"] == []


def test_check_forced_overlap_isolated_pair(capsys):
    code, report = _run(capsys, ["check", FORCED])
    assert code == 0
    payload = report["payload"]
    assert payload["bipartite"] is True
    assert payload["components"] == 2
    assert payload["isolated"] == [["6", "f"]]


def test_check_monuments_is_not_bipartite(capsys):
    code, report = _run(capsys, ["check", MONUMENTS])
    assert code == 0
    assert report["payload"]["bipartite"] is False


def test_check_reports_odd_cycle(capsys):
    code, report = _run(capsys, ["check", PERSISTENT])
    assert code == 0
    payload = report["payload"]
    assert payload["bipartite"] is False
    assert payload["vertices"] == 273
    assert payload["edges"] == 762
    cycle = payload["odd_cycle"]
    assert cycle is not None
    assert len(cycle) % 2 == 1
    assert len(cycle) >= 3
    assert all(len(pair) == 2 for pair in cycle)


def test_factorize_contranominal(capsys):
    code, report = _run(capsys, ["factorize", CONTRANOMINAL])
    assert code == 0
    payload = report["payload"]
    assert set(payload) == {"factor1", "factor2", "shared", "removed"}
    assert payload["shared"] == []
    assert payload["removed"] == []
    covered = {tuple(p) for p in payload["factor1"]}
    covered |= {tuple(p) for p in payload["factor2"]}
    assert len(covered) == 6


def test_factorize_forced_overlap_shares_core(capsys):
    code, report = _run(capsys, ["factorize", FORCED])
    assert code == 0
    payload = report["payload"]
    assert payload["shared"] == [["6", "f"]]
    assert ["6", "f"] in payload["factor1"]
    assert ["6", "f"] in payload["factor2"]


def test_factorize_fails_on_odd_cycle(capsys):
    code, report = _run(capsys, ["factorize", PERSISTENT])
    assert code == 1
    assert report["status"] == "error"
    assert report["error"]["type"] == "NotTwoFactorizable"
    assert "payload" not in report


def test_maximal_exact_monuments(capsys):
    code, report = _run(capsys, ["maximal", MONUMENTS])
    assert code == 0
    payload = report["payload"]
    assert len(payload["removed"]) == 2
    assert payload["rounds"] == 1
    assert payload["certificate"] is True
    assert payload["mode"] == "exact"


def test_maximal_heuristic_certify_rejects_oversized(capsys):
    code, report = _run(
        capsys, ["maximal", MONUMENTS, "--mode", "heuristic", "--certify"]
    )
    assert code == 0
    payload = report["payload"]
    assert payload["mode"] == "heuristic"
    assert len(payload["removed"]) == 3
    assert payload["certificate"] is False


def test_maximal_deterministic(capsys):
    _, first = _run(capsys, ["maximal", MONUMENTS, "--mode", "heuristic"])
    _, second = _run(capsys, ["maximal", MONUMENTS, "--mode", "heuristic"])
    assert first["payload"] == second["payload"]
    assert first["input_digest"] == second["input_digest"]


def test_maximal_budget_exhaustion(capsys):
    """Exact mode needs about 0.3 s on persistent_odd_cycle, whose
    minimum is 12 and whose root bound is 9; 0.05 s runs out between
    them."""
    code, report = _run(
        capsys, ["maximal", PERSISTENT, "--budget", "0.05"]
    )
    assert code == 3
    assert report["error"]["type"] == "BudgetExceeded"
    assert 9 <= report["error"]["lower_bound"] < 12


def test_an_exhausted_budget_reports_the_proven_lower_bound(capsys):
    """A spent budget still runs the exact search's root node, whose
    bound proves 9 on persistent_odd_cycle; the exit-3 report names it
    as a number beside the message.  Exact mode holds no removal yet,
    so the best known size and the gap are null."""
    code, report = _run(capsys, ["maximal", PERSISTENT, "--budget", "0"])
    assert code == 3
    error = report["error"]
    assert error["lower_bound"] == 9
    assert error["best_known"] is None and error["gap"] is None
    assert "no transversal below 9 vertices" in error["message"]


def test_budget_ends_a_deep_exact_search_with_exit_3(capsys, tmp_path):
    """An exact search that needs hundreds of deletions runs until
    --budget ends it in a JSON report with exit code 3."""
    path = tmp_path / "random34.cxt"
    ctx = of.random_context(of.GeneratorSpec(34, 34, 0.5, 0))
    path.write_text(of.serialize_cxt(ctx), encoding="utf-8")
    code = run(["maximal", str(path), "--budget", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    error = json.loads(out)["error"]
    assert error["type"] == "BudgetExceeded"
    assert "out of time" in error["message"]


def test_maximal_certify_shares_the_budget(capsys, tmp_path):
    """The minimality proof runs under what the search left of
    --budget.  Here the heuristic removes 53 incidences in one round,
    none of which fits back, and the proof runs past 20 s without a
    budget; the exit-3 report gives those 53 as the best known size
    and their distance from the proven bound as the gap."""
    path = tmp_path / "random16.cxt"
    ctx = of.random_context(of.GeneratorSpec(16, 16, 0.5, 0))
    path.write_text(of.serialize_cxt(ctx), encoding="utf-8")
    code, report = _run(
        capsys,
        [
            "maximal", str(path), "--mode", "heuristic", "--certify",
            "--budget", "1",
        ],
    )
    assert code == 3
    assert report["status"] == "error"
    assert report["error"]["type"] == "BudgetExceeded"
    error = report["error"]
    assert 0 < error["lower_bound"] <= 53
    assert error["best_known"] == 53
    assert error["gap"] == 53 - error["lower_bound"]
    assert "payload" not in report
    assert report["elapsed_ms"] < 10_000


def test_biplot_csv_inline(capsys):
    code, report = _run(capsys, ["biplot", MONUMENTS, "--format", "csv"])
    assert code == 0
    payload = report["payload"]
    assert payload["format"] == "csv"
    assert payload["output"] is None
    assert payload["rendering"].startswith("#axis1: ")
    assert len(payload["axes"]) == 2
    assert payload["axes"][0]["positions"]["Portico of Twelve Gods"] == 3
    assert payload["axes"][1]["positions"]["Portico of Twelve Gods"] == 1


def test_biplot_svg_to_file(capsys, tmp_path):
    out = tmp_path / "plot.svg"
    code, report = _run(
        capsys, ["biplot", MONUMENTS, "--out", str(out)]
    )
    assert code == 0
    payload = report["payload"]
    assert payload["rendering"] is None
    assert payload["output"] == str(out)
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")


def test_biplot_out_with_an_escaped_lone_surrogate_exits_2(capsys, tmp_path):
    """The escape is ASCII, so the input is UTF-8; the name it decodes
    to is not, and would fail only when the rendering is written."""
    path = tmp_path / "ctx.json"
    path.write_text(
        '{"objects": ["a\\ud800", "b"], "attributes": ["x"], "rows": ["X", "X"]}',
        encoding="utf-8",
    )
    out = tmp_path / "plot.svg"
    code = run(["biplot", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["error"]["type"] == "MalformedHeader"
    assert captured.err == ""
    assert not out.exists()


def test_biplot_svg_refuses_a_control_character_with_exit_2(capsys, tmp_path):
    path = tmp_path / "ctx.json"
    path.write_text(
        '{"objects": ["a\\u0001", "b"], "attributes": ["x"], "rows": ["X", "X"]}',
        encoding="utf-8",
    )
    code, report = _run(capsys, ["biplot", str(path), "--format", "svg"])
    assert code == 2
    assert report["error"]["type"] == "MalformedHeader"
    code, report = _run(capsys, ["biplot", str(path), "--format", "csv"])
    assert code == 0
    assert report["payload"]["rendering"].splitlines()[3] == "a\x01,1,1"


def test_dim2ext_standard_example(capsys, tmp_path, s3_poset):
    path = tmp_path / "s3.json"
    path.write_text(of.poset_to_json(s3_poset), encoding="utf-8")
    code, report = _run(capsys, ["dim2ext", str(path)])
    assert code == 0
    payload = report["payload"]
    assert payload["k"] == 1
    assert len(payload["added"]) == 1
    assert payload["mode"] == "exact"
    assert len(payload["realizer"]) == 2
    assert sorted(payload["realizer"][0]) == sorted(s3_poset.elements)
    assert payload["extension_size"] == s3_poset.pair_count + 1


def test_dim2ext_chain_needs_nothing(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(
        '{"elements": ["a", "b", "c"], "relations": [["a", "b"], ["b", "c"]]}',
        encoding="utf-8",
    )
    code, report = _run(capsys, ["dim2ext", str(path)])
    assert code == 0
    assert report["payload"]["k"] == 0
    assert report["payload"]["added"] == []


def test_dim2ext_rejects_cycle(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(
        '{"elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]}',
        encoding="utf-8",
    )
    code, report = _run(capsys, ["dim2ext", str(path)])
    assert code == 2
    assert report["error"]["type"] == "NotAPartialOrder"


def test_dim2ext_heuristic_reports_without_traceback(capsys, monkeypatch):
    # its factor complements have mutual ties
    poset = three_order_poset(10, 57)
    monkeypatch.setattr("sys.stdin", io.StringIO(of.poset_to_json(poset)))
    code = run(["dim2ext", "-", "--mode", "heuristic"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0
    assert captured.err == ""
    assert report["status"] == "ok"
    assert report["payload"]["k"] == 8
    assert report["payload"]["extension_size"] == 27


def test_oracle_monuments(capsys):
    code, report = _run(capsys, ["oracle", MONUMENTS, "--kmax", "2"])
    assert code == 0
    assert report["payload"] == {"k": 2, "kmax": 2}


def test_oracle_bound_too_small(capsys):
    code, report = _run(capsys, ["oracle", MONUMENTS, "--kmax", "1"])
    assert code == 1
    assert report["error"]["type"] == "NotFound"


def test_stats_contranominal(capsys):
    code, report = _run(capsys, ["stats", CONTRANOMINAL])
    assert code == 0
    payload = report["payload"]
    assert payload["objects"] == 3
    assert payload["attributes"] == 3
    assert payload["incidences"] == 6
    assert payload["density"] == round(6 / 9, 6)
    assert payload["concepts"] == 8
    assert payload["complement_concepts"] == 5
    assert payload["title"] == "Contranominal scale of size three"
    assert payload["graph"] == {
        "bipartite": True,
        "components": 3,
        "edges": 3,
        "isolated": 0,
    }


@pytest.mark.parametrize(
    "name",
    ["monuments", "contranominal3", "forced_overlap", "persistent_odd_cycle"],
)
def test_stats_counts_match_enumerated_concepts(capsys, name):
    code, report = _run(capsys, ["stats", str(DATA / f"{name}.cxt")])
    assert code == 0
    ctx = of.load_dataset(name)
    payload = report["payload"]
    assert payload["concepts"] == len(of.enumerate_concepts(ctx, math.inf))
    assert payload["complement_concepts"] == len(
        of.enumerate_concepts(of.complement(ctx), math.inf)
    )


def test_stats_stops_past_the_concept_cap(capsys, tmp_path):
    # a 17x17 contranominal scale has 2**17 concepts
    k = 17
    names = tuple(str(i) for i in range(k))
    rows = tuple(((1 << k) - 1) & ~(1 << i) for i in range(k))
    path = tmp_path / "contranominal17.cxt"
    path.write_text(
        of.serialize_cxt(of.FormalContext(names, names, rows)),
        encoding="utf-8",
    )
    code, report = _run(capsys, ["stats", str(path)])
    assert code == 1
    assert report["status"] == "error"
    assert report["error"]["type"] == "ConceptBudgetExceeded"


def test_check_and_stats_build_no_pair_loop(capsys, monkeypatch, tmp_path):
    """Both commands build with the masked product, and report the
    graph that the pair rule gives."""
    paths = [MONUMENTS, CONTRANOMINAL, FORCED, PERSISTENT]
    for spec in ((7, 12, 0.5, 0), (13, 5, 0.6, 1)):
        path = tmp_path / f"random{spec[0]}x{spec[1]}.cxt"
        ctx = of.random_context(of.GeneratorSpec(*spec))
        path.write_text(of.serialize_cxt(ctx), encoding="utf-8")
        paths.append(str(path))
    expected = []
    for path in paths:
        ctx = of.parse_cxt(Path(path).read_text(encoding="utf-8"))
        graph = of.build_incompatibility_graph(ctx)
        cycle = of.bipartition(graph).odd_cycle
        expected.append({
            "bipartite": cycle is None,
            "vertices": graph.n,
            "edges": graph.edge_count,
            "components": len(of.components(graph)),
            "isolated": [
                [ctx.objects[g], ctx.attributes[m]]
                for g, m in sorted(of.isolated_pairs(graph))
            ],
            "odd_cycle": None if cycle is None else [
                [ctx.objects[g], ctx.attributes[m]]
                for g, m in (graph.vertices[i] for i in cycle)
            ],
        })

    def no_pair_loop(ctx):
        raise AssertionError("pair loop built")

    monkeypatch.setattr(
        "ordfactor.incompat.build_incompatibility_graph", no_pair_loop
    )
    monkeypatch.setattr(
        "ordfactor.cli.build_incompatibility_graph", no_pair_loop,
        raising=False,
    )
    for path, fields in zip(paths, expected):
        code, report = _run(capsys, ["check", path])
        assert code == 0
        assert report["payload"] == fields
        code, report = _run(capsys, ["stats", path])
        assert code == 0
        assert report["payload"]["graph"] == {
            "bipartite": fields["bipartite"],
            "edges": fields["edges"],
            "components": fields["components"],
            "isolated": len(fields["isolated"]),
        }


def test_closed_stdout_exits_1_without_traceback():
    """A reader that leaves early, like ``| head -5``: the report cannot
    be written, and the command says nothing more about it."""
    env = dict(os.environ, PYTHONPATH=str(Path(of.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ordfactor.cli", "stats", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    # the child reads all of stdin before it writes, so this comes first
    proc.stdout.close()
    _, err = proc.communicate(Path(MONUMENTS).read_bytes(), timeout=60)
    assert proc.returncode == 1
    assert err == b""


def test_missing_file_is_a_format_error(capsys):
    code, report = _run(capsys, ["check", "/no/such/file.cxt"])
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "FileNotFoundError"


def test_malformed_context_is_a_format_error(capsys, tmp_path):
    path = tmp_path / "broken.cxt"
    path.write_text("Bogus\n", encoding="utf-8")
    code, report = _run(capsys, ["check", str(path)])
    assert code == 2
    assert report["error"]["type"] == "MalformedHeader"


def test_illegal_incidence_character(capsys, tmp_path):
    path = tmp_path / "broken.cxt"
    path.write_text("B\n\n1\n1\n\ng\nm\nX?\n", encoding="utf-8")
    code, report = _run(capsys, ["check", str(path)])
    assert code == 2


def test_stdin_input(capsys, monkeypatch, contranominal3):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(of.serialize_cxt(contranominal3))
    )
    code, report = _run(capsys, ["check", "-"])
    assert code == 0
    assert report["payload"]["bipartite"] is True


def test_non_utf8_file_is_a_format_error(capsys, tmp_path):
    path = tmp_path / "latin1.cxt"
    path.write_bytes(b"B\n\n1\n1\n\n\xff\nm\nX\n")
    code, report = _run(capsys, ["check", str(path)])
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "FormatError"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_non_utf8_stdin_is_a_format_error(capsys, monkeypatch, errors):
    # a C locale reads stdin with surrogateescape, a UTF-8 one strictly
    monkeypatch.setattr(
        "sys.stdin",
        io.TextIOWrapper(io.BytesIO(b"\xff\n"), "utf-8", errors),
    )
    code, report = _run(capsys, ["check", "-"])
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "FormatError"
    assert "Traceback" not in capsys.readouterr().err


def test_json_context_input(capsys, tmp_path, forced_overlap):
    path = tmp_path / "ctx.json"
    path.write_text(of.context_to_json(forced_overlap), encoding="utf-8")
    code, report = _run(capsys, ["check", str(path)])
    assert code == 0
    assert report["payload"]["isolated"] == [["6", "f"]]


def test_oracle_budget_runs_out(capsys, monkeypatch):
    """persistent_odd_cycle needs 12 removals; without a budget, trying
    every removal of at most 2 of its 273 incidences still runs after
    20 s."""
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(PERSISTENT).read_text()))
    started = time.monotonic()
    code = run(["oracle", "-", "--kmax", "2", "--budget", "0.5"])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 3
    assert report["status"] == "error"
    assert report["error"]["type"] == "BudgetExceeded"
    assert captured.err == ""
    assert elapsed < 5


@pytest.mark.parametrize(
    "path, code, payload",
    [(FORCED, 0, {"k": 0, "kmax": 2}), (PERSISTENT, 3, None)],
    ids=["forced_overlap", "persistent_odd_cycle"],
)
def test_oracle_under_a_zero_budget(capsys, path, code, payload):
    """--budget 0 still tries the empty removal, which repairs
    forced_overlap; persistent_odd_cycle needs more and exits 3."""
    result, report = _run(capsys, ["oracle", path, "--kmax", "2", "--budget", "0"])
    assert result == code
    if payload is None:
        assert report["error"]["type"] == "BudgetExceeded"
        assert "out of time" in report["error"]["message"]
        assert report["error"]["best_known"] is None
        assert report["error"]["gap"] is None
    else:
        assert report["payload"] == payload


def test_unknown_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        run(["nonsense"])
    assert info.value.code == 2


def test_report_is_sorted_and_stable(capsys):
    code, report = _run(capsys, ["stats", FORCED])
    assert code == 0
    raw = json.dumps(report, sort_keys=True, indent=2)
    keys = list(report)
    assert keys == sorted(keys)
    assert json.loads(raw) == report


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "abc"])
def test_budget_rejects_non_finite_and_negative_values(capsys, value):
    with pytest.raises(SystemExit) as info:
        run(["maximal", PERSISTENT, "--budget", value])
    assert info.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_oracle_budget_rejects_non_finite_and_negative_values(capsys, value):
    with pytest.raises(SystemExit) as info:
        run(["oracle", MONUMENTS, "--budget", value])
    assert info.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "-3", "2.5", "abc"])
def test_kmax_rejects_negative_and_non_integer_values(capsys, value):
    with pytest.raises(SystemExit) as info:
        run(["oracle", MONUMENTS, "--kmax", value])
    assert info.value.code == 2
    assert "--kmax" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"objects": ["a"], "attributes": ["x"], "rows": [1]}',
        '{"objects": ["a"], "attributes": ["x"], "rows": "X"}',
        '{"objects": "a", "attributes": ["x"], "rows": ["X"]}',
        '{"objects": ["a"], "attributes": ["x"], "rows": ["X"], "title": 5}',
    ],
)
def test_json_context_with_wrong_field_types(capsys, tmp_path, text):
    path = tmp_path / "ctx.json"
    path.write_text(text, encoding="utf-8")
    code, report = _run(capsys, ["check", str(path)])
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "MalformedHeader"


@pytest.mark.parametrize(
    "text",
    [
        '{"elements": 5, "relations": []}',
        '{"elements": [1, 2], "relations": []}',
        '{"elements": ["a", "b"], "relations": 7}',
        '{"elements": ["a", "b"], "relations": [["a"]]}',
        '{"elements": ["a", "b"], "relations": [[["x"], "b"]]}',
    ],
)
def test_json_poset_with_wrong_field_types(capsys, tmp_path, text):
    path = tmp_path / "poset.json"
    path.write_text(text, encoding="utf-8")
    code, report = _run(capsys, ["dim2ext", str(path)])
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "MalformedHeader"


@pytest.mark.parametrize(
    "command, text",
    [
        ("check", '{"objects":' + "[" * 200_000),
        ("factorize", '{"objects":' + "[" * 200_000),
        ("dim2ext", '{"elements":' + "[" * 200_000),
        ("check", '{"objects": ' + "7" * 5_000 + "}"),
        ("dim2ext", '{"elements": ' + "7" * 5_000 + "}"),
        ("check", "B\n\n" + "7" * 5_000 + "\n1\n"),
    ],
    ids=[
        "deep-context-check",
        "deep-context-factorize",
        "deep-poset",
        "long-integer-context",
        "long-integer-poset",
        "long-count-line",
    ],
)
def test_input_past_the_reader_limits_exits_2_without_traceback(
    capsys, monkeypatch, command, text
):
    """JSON nested deeper than the decoder goes, integers longer than
    int() accepts, and such a count line in a .cxt header."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = run([command, "-"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"]["type"] == "MalformedHeader"
    assert captured.err == ""

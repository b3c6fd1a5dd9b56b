"""Command line front end.

Every subcommand reads one input (a file path or ``-`` for stdin),
prints a single JSON report to stdout and exits with 0 on success,
1 on domain failures such as a context that admits no factorization,
2 on unreadable input or bad usage, and 3 when a time budget ran out.
If the reader closes stdout first, as ``ordfactor stats x.cxt | head``
may, the exit code is 1 and no traceback is printed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from typing import Iterable

from . import __version__
from .biplot import biplot_axes, render
from .context import (
    FormalContext,
    complement,
    context_from_json,
    parse_cxt,
)
from .dimension import poset_from_json, two_dimension_extension
from .errors import (
    BudgetExceeded,
    FormatError,
    OrdfactorError,
    deadline_after,
)
from .incompat import bipartition, components, isolated_pairs, product_graph
from .lattice import concept_intents
from .maximal import certify_global_optimality, maximal_two_factorization
from .oracle import brute_force_min_removal
from .twofactor import two_factorize

_EXIT_OK = 0
_EXIT_DOMAIN = 1
_EXIT_FORMAT = 2
_EXIT_BUDGET = 3

# concept enumeration is exponential in the worst case (a k x k
# contranominal scale has 2**k concepts), so stats stops past this many
_STATS_CONCEPT_CAP = 1 << 16


def _read_input(path: str) -> tuple[str, str]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        # stdin may decode with surrogateescape, which hides bad bytes
        # until the text is encoded again
        data = text.encode("utf-8")
    except UnicodeError as exc:
        raise FormatError(f"input is not UTF-8 text: {exc}") from None
    return text, hashlib.sha256(data).hexdigest()


def _load_context(text: str) -> FormalContext:
    if text.lstrip().startswith("{"):
        return context_from_json(text)
    return parse_cxt(text)


def _pair_names(ctx: FormalContext, pairs: Iterable) -> list[list[str]]:
    """The object and attribute names of each pair, in the given order."""
    return [[ctx.objects[g], ctx.attributes[m]] for g, m in pairs]


def _factor_payload(ctx: FormalContext, result) -> dict:
    return {
        "factor1": _pair_names(ctx, sorted(result.f1.pairs)),
        "factor2": _pair_names(ctx, sorted(result.f2.pairs)),
        "shared": _pair_names(ctx, sorted(result.shared)),
        "removed": _pair_names(ctx, sorted(result.removed)),
    }


def _nonnegative(convert: type, wording: str):
    """An argparse type: a value of ``convert`` in [0, inf)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            )
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a {wording}, got {text!r}")
        return value

    return parse


def _graph_report(ctx: FormalContext) -> tuple:
    """The product graph, its bipartition, component count and isolated pairs."""
    graph = product_graph(ctx)
    return graph, bipartition(graph), len(components(graph)), isolated_pairs(graph)


def _cmd_check(args: argparse.Namespace, text: str) -> dict:
    ctx = _load_context(text)
    graph, witness, n_components, isolated = _graph_report(ctx)
    return {
        "bipartite": witness.is_bipartite,
        "vertices": len(graph.vertices),
        "edges": graph.edge_count,
        "components": n_components,
        "isolated": _pair_names(ctx, sorted(isolated)),
        "odd_cycle": (
            None
            if witness.odd_cycle is None
            else _pair_names(ctx, (graph.vertices[i] for i in witness.odd_cycle))
        ),
    }


def _cmd_factorize(args: argparse.Namespace, text: str) -> dict:
    ctx = _load_context(text)
    result = two_factorize(ctx)
    return _factor_payload(ctx, result)


def _cmd_maximal(args: argparse.Namespace, text: str) -> dict:
    ctx = _load_context(text)
    # one --budget covers both the search and the proof
    deadline = deadline_after(args.budget)
    result = maximal_two_factorization(
        ctx, mode=args.mode, budget=args.budget, seed=args.seed
    )
    payload = _factor_payload(ctx, result)
    payload.update(
        rounds=result.rounds,
        mode=args.mode,
        certificate=result.certificate,
    )
    if args.certify and not result.certificate:
        left = None if deadline is None else deadline - time.monotonic()
        payload["certificate"] = certify_global_optimality(ctx, result, left)
    return payload


def _cmd_biplot(args: argparse.Namespace, text: str) -> dict:
    ctx = _load_context(text)
    result = maximal_two_factorization(
        ctx, mode=args.mode, budget=args.budget, seed=args.seed
    )
    axes = biplot_axes(ctx, result)
    rendering = render(axes, fmt=args.format, title=ctx.title)
    payload = {
        "format": args.format,
        "removed": _pair_names(ctx, sorted(result.removed)),
        "axes": [
            {
                "labels": list(axis.labels),
                "positions": {
                    name: axis.positions[g]
                    for g, name in enumerate(axis.objects)
                },
            }
            for axis in axes
        ],
        "output": args.out,
        "rendering": None if args.out else rendering,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendering)
    return payload


def _cmd_dim2ext(args: argparse.Namespace, text: str) -> dict:
    poset = poset_from_json(text)
    result = two_dimension_extension(
        poset, mode=args.mode, budget=args.budget, seed=args.seed
    )
    added = sorted(
        (poset.elements[i], poset.elements[j])
        for i, j in result.extension
        if not poset.leq[i] >> j & 1
    )
    return {
        "k": result.k,
        "added": [list(pair) for pair in added],
        "extension_size": len(result.extension),
        "realizer": [
            [poset.elements[i] for i in sequence]
            for sequence in result.realizer
        ],
        "mode": args.mode,
    }


def _cmd_oracle(args: argparse.Namespace, text: str) -> dict:
    ctx = _load_context(text)
    k = brute_force_min_removal(ctx, k_max=args.kmax, budget=args.budget)
    return {"k": k, "kmax": args.kmax}


def _cmd_stats(args: argparse.Namespace, text: str) -> dict:
    ctx = _load_context(text)
    graph, witness, n_components, isolated = _graph_report(ctx)
    cells = ctx.n_objects * ctx.n_attributes
    return {
        "title": ctx.title,
        "objects": ctx.n_objects,
        "attributes": ctx.n_attributes,
        "incidences": ctx.incidence_count,
        "density": round(ctx.incidence_count / cells, 6) if cells else 0.0,
        "concepts": len(concept_intents(ctx, _STATS_CONCEPT_CAP)),
        "complement_concepts": len(
            concept_intents(complement(ctx), _STATS_CONCEPT_CAP)
        ),
        "graph": {
            "edges": graph.edge_count,
            "components": n_components,
            "isolated": len(isolated),
            "bipartite": witness.is_bipartite,
        },
    }


_COMMANDS = {
    "check": _cmd_check,
    "factorize": _cmd_factorize,
    "maximal": _cmd_maximal,
    "biplot": _cmd_biplot,
    "dim2ext": _cmd_dim2ext,
    "oracle": _cmd_oracle,
    "stats": _cmd_stats,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordfactor",
        description="Ordinal two-factorizations of formal contexts.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "input",
            help="input file, or - for stdin",
        )
        return cmd

    def add_budget(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--budget",
            type=_nonnegative(float, "finite, nonnegative number of seconds"),
            default=None,
            metavar="SECONDS",
            help="abort the search after this many seconds",
        )

    def add_search_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--mode",
            choices=("exact", "heuristic"),
            default="exact",
            help="incidence removal search strategy",
        )
        add_budget(cmd)
        cmd.add_argument(
            "--seed", type=int, default=0, help="heuristic random seed"
        )

    add("check", "test whether an exact two-factorization exists")
    add("factorize", "compute an exact ordinal two-factorization")
    cmd = add("maximal", "factorize after removing few incidences")
    add_search_options(cmd)
    cmd.add_argument(
        "--certify",
        action="store_true",
        help="prove with one bounded exact search that no smaller "
        "removal exists",
    )
    cmd = add("biplot", "render the factorization as a biplot")
    add_search_options(cmd)
    cmd.add_argument(
        "--format", choices=("svg", "tikz", "csv"), default="svg"
    )
    cmd.add_argument(
        "--out", default=None, help="write the rendering to this file"
    )
    cmd = add("dim2ext", "extend a poset to order dimension at most two")
    add_search_options(cmd)
    cmd = add("oracle", "brute force the minimum removal count")
    cmd.add_argument(
        "--kmax",
        type=_nonnegative(int, "nonnegative number of incidences"),
        default=4,
        help="largest removal count to try",
    )
    add_budget(cmd)
    add("stats", "summarize a context and its incompatibility graph")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report: dict = {"command": args.command}
    started = time.perf_counter()
    try:
        text, digest = _read_input(args.input)
        report["input_digest"] = "sha256:" + digest
        report["payload"] = _COMMANDS[args.command](args, text)
    except (OrdfactorError, OSError) as exc:
        report["status"] = "error"
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BudgetExceeded):
            known, bound = exc.best_known, exc.lower_bound
            report["error"].update(
                lower_bound=bound,
                best_known=known,
                gap=None if known is None or bound is None else known - bound,
            )
        _emit(report, started)
        if isinstance(exc, BudgetExceeded):
            return _EXIT_BUDGET
        if isinstance(exc, (FormatError, OSError)):
            return _EXIT_FORMAT
        return _EXIT_DOMAIN
    report["status"] = "ok"
    _emit(report, started)
    return _EXIT_OK


def _emit(report: dict, started: float) -> None:
    report["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    print(json.dumps(report, sort_keys=True, indent=2))


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull keeps that quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()

"""The ordfactor benchmark.

Runs one workload in a closed loop on one thread: each operation starts
when the previous one returns, and whole passes over the workload's
inputs repeat until ``--seconds`` have gone by.  Every result goes
through the independent checker in ``checker.py``.

    python3 bench/run.py --workload recognize_yes --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with traced replays and prints the per-layer metrics.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs every
workload on tiny inputs in both modes and checks the metric names,
units and directions against ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 25

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_max_s": ("s", "lower"),
    "decided_share": ("ratio", "higher"),
    "verified_share": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
_COUNT = ("count", "lower")
PER_LAYER = {
    "context.parse_s": ("s", "lower"),
    "context.complement_s": ("s", "lower"),
    "context.remove_incidences_s": ("s", "lower"),
    "context.incidences": _COUNT,
    "incompat.build_s": ("s", "lower"),
    "incompat.build_calls": _COUNT,
    "incompat.vertices": _COUNT,
    "incompat.edges": _COUNT,
    "incompat.bipartition_s": ("s", "lower"),
    "incompat.components_s": ("s", "lower"),
    "incompat.odd_cycle_len": _COUNT,
    "lattice.enumerate_s": ("s", "lower"),
    "lattice.concepts": _COUNT,
    "lattice.cap_hits": _COUNT,
    "lattice.order_s": ("s", "lower"),
    "lattice.orientation_s": ("s", "lower"),
    "lattice.realizer_s": ("s", "lower"),
    "twofactor.factorize_self_s": ("s", "lower"),
    "twofactor.validate_s": ("s", "lower"),
    "maximal.heuristic_round_s": ("s", "lower"),
    "maximal.exact_round_s": ("s", "lower"),
    "maximal.budget_exhausted": _COUNT,
    "maximal.rounds": _COUNT,
    "maximal.deleted": _COUNT,
    "maximal.certified": ("count", "higher"),
    "maximal.self_s": ("s", "lower"),
    "dimension.parse_s": ("s", "lower"),
    "dimension.to_context_s": ("s", "lower"),
    "dimension.extension_self_s": ("s", "lower"),
    "dimension.added_pairs": _COUNT,
    "biplot.axes_s": ("s", "lower"),
    "biplot.render_s": ("s", "lower"),
    "biplot.render_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "result.yes_s": ("s", "lower"),
    "result.no_s": ("s", "lower"),
    "result.removed_total": _COUNT,
    "result.certified_share": ("ratio", "higher"),
}


def _import_program():
    """Import the package from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ordfactor" / "__init__.py").is_file():
        raise SystemExit(f"error: no ordfactor sources under {src}")
    sys.path.insert(0, str(src))
    import checker  # noqa: F401  (bench/ is sys.path[0])
    import workloads

    return workloads


def _median(values):
    return statistics.median(values) if values else 0.0


# -- timing ------------------------------------------------------------

# Nominal duration of ``_reference`` on a 2-CPU Xeon at its usual speed.
REFERENCE_SECONDS = 0.0004
SAMPLE_INTERVAL = 0.02


def _reference() -> float:
    """Time a fixed pure-Python loop of dict updates and big-int masking."""
    start = time.perf_counter()
    x, table = 0, {}
    for i in range(1500):
        x ^= (i * 2654435761) & 0xFFFFFFFF
        table[i & 255] = x
    mask = (1 << 2000) - 1
    for i in range(75):
        mask &= ~(1 << i) | (mask >> 3)
    return time.perf_counter() - start


class Clock:
    """Times calls in host-normalized seconds.

    The host's CPU speed drifts by a fifth within seconds, which swamps
    the differences the benchmark is meant to show.  While a call runs,
    a timer signal runs the reference loop every ``SAMPLE_INTERVAL``;
    the call's duration, less those samples, is scaled by
    ``REFERENCE_SECONDS`` over the samples' median (one more is taken
    just before and just after the call).  The result is the time the
    call would take at the nominal host speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None):
        self.samples.append(_reference())

    def mark(self) -> int:
        return len(self.samples)

    def normalize(self, raw: float, mark: int) -> float:
        """Normalized seconds of a span that started at ``mark``, while
        the timer runs: its own samples, else the latest one, set the speed."""
        during = self.samples[mark:]
        speed = statistics.median(during) if during else self.samples[-1]
        return (raw - sum(during)) * REFERENCE_SECONDS / speed

    def measure(self, fn, *args):
        """``(result, normalized seconds, raw seconds)`` of one call."""
        first = self.mark()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw -= sum(self.samples[first + 1 :])
        self._sample()
        factor = REFERENCE_SECONDS / statistics.median(self.samples[first:])
        return result, raw * factor, raw


def _run_safely(wl, case, tr):
    try:
        return wl.run_case(case, tr)
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        return {"verdict": "error", "error": f"{type(exc).__name__}: {exc}"}


def _latency(outcome, seconds, raw) -> float:
    # a budget is wall-clock time, so a budget-out waits the same raw time
    return raw if outcome["verdict"] == "budget" else seconds


def _timed_pass(wl, cases, clock):
    latencies, outcomes = [], []
    for case in cases:
        outcome, seconds, raw = clock.measure(_run_safely, wl, case, wl.NULL_TRACE)
        latencies.append(_latency(outcome, seconds, raw))
        outcomes.append(outcome)
    return sum(latencies), latencies, outcomes


def _traced_pass(wl, cases, clock):
    tr = wl.Trace(clock)
    outcomes, wall = [], 0.0
    for case in cases:
        outcome, seconds, raw = clock.measure(_run_safely, wl, case, tr)
        outcomes.append(outcome)
        wall += _latency(outcome, seconds, raw)
    return wall, tr, outcomes


def _as_given(case, outcome) -> bool:
    """Whether the input was two-factorizable before any removal."""
    if outcome["verdict"] != "yes":
        return False
    if case.op == "extend":
        return outcome["k"] == 0
    return not outcome["removed"]


def run_workload(wl, workload: str, seed: int, seconds: float, trace: bool, smoke=False):
    import checker

    clock = Clock()
    setup = []
    for _ in range(SETUP_REPEATS):
        cases, took, _ = clock.measure(wl.build_cases, workload, seed, smoke)
        setup.append(took)

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(_timed_pass(wl, cases, clock))
        if trace:
            traced.append(_traced_pass(wl, cases, clock))
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = untraced[0][2]
    problems = []
    verified = []
    for case, outcome in zip(cases, reference):
        found = checker.check_outcome(case, outcome)
        problems += [f"{case.name}: {p}" for p in found]
        verified.append(not found)
    failed = attempted = 0
    passes = [outcomes for _, _, outcomes in untraced + traced]
    for outcomes in passes:
        for i, outcome in enumerate(outcomes):
            attempted += 1
            if outcome != reference[i]:
                problems.append(f"{cases[i].name}: result differs between passes")
                failed += 1
            elif not verified[i]:
                failed += 1
    others = [m for _, tr, _ in traced for m in tr.mismatches]
    others += cli_parity(checker, cases, reference)
    problems += others
    failed += len(others)

    decided = sum(
        o["verdict"] not in ("budget", "error") for outcomes in passes for o in outcomes
    )
    if trace:
        metrics = _per_layer(cases, reference, untraced, traced)
    else:
        groups: dict[str, list[float]] = {}
        for i, case in enumerate(cases):
            groups.setdefault(case.group, []).append(_median([p[1][i] for p in untraced]))
        by_group = [statistics.mean(v) for v in groups.values()]
        metrics = {
            "setup_s": _median(setup),
            "wall_s": _median([p[0] for p in untraced]),
            "op_p50_s": _median(by_group),
            "op_max_s": max(by_group),
            "decided_share": decided / attempted,
            "verified_share": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }, problems


def _per_layer(cases, reference, untraced, traced):
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        source = "seconds" if unit == "s" else "counts"
        metrics[name] = _median([getattr(tr, source).get(name, 0) for _, tr, _ in traced])
    metrics["trace.overhead_s"] = _median([w for w, _, _ in traced]) - _median(
        [w for w, _, _ in untraced]
    )
    given = [_as_given(c, o) for c, o in zip(cases, reference)]
    metrics["result.yes_s"] = _median(
        [sum(t for t, g in zip(lat, given) if g) for _, lat, _ in untraced]
    )
    metrics["result.no_s"] = _median(
        [sum(t for t, g in zip(lat, given) if not g) for _, lat, _ in untraced]
    )
    metrics["result.removed_total"] = sum(
        len(o.get("removed", ())) + o.get("k", 0) for o in reference
    )
    repairs = [o for c, o in zip(cases, reference) if c.op == "repair"]
    metrics["result.certified_share"] = (
        sum(bool(o.get("certificate")) for o in repairs) / len(repairs) if repairs else 0.0
    )
    return metrics


# -- command line parity -----------------------------------------------


def _cli(argv, text):
    from ordfactor import cli

    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
    finally:
        sys.stdin = stdin
    return code, json.loads(out.getvalue())


def cli_parity(checker, cases, reference) -> list[str]:
    """Untimed: the CLI must agree with the library on representative inputs.

    Covers the first input of the workload and, where the workload has
    them, its first poset and its budget probe.
    """
    picks = {0}
    for op_filter in (lambda c: c.op == "extend", lambda c: c.probe):
        picks.update([i for i, c in enumerate(cases) if op_filter(c)][:1])
    problems = []
    for i in sorted(picks):
        case, outcome = cases[i], reference[i]
        if outcome["verdict"] == "error":
            continue
        for label, (code, want_code, got, want) in _parity_pairs(checker, case, outcome):
            if code != want_code or got != want:
                problems.append(
                    f"{case.name}: cli {label} gave exit {code} and {got!r}, "
                    f"library implies exit {want_code} and {want!r}"
                )
    return problems


def _parity_pairs(checker, case, outcome):
    """(label, (exit code, expected exit code, CLI value, library value))."""
    search = ["--mode", case.mode, "--seed", str(case.seed)]
    if case.budget is not None:
        search += ["--budget", repr(case.budget)]
    if case.op == "extend":
        elements, _ = checker.parse_poset(case.text)
        code, report = _cli(["dim2ext", "-"] + search, case.text)
        payload = report.get("payload", {})
        if outcome["verdict"] == "budget":
            return [("dim2ext", (code, 3, None, None))]
        got = (payload.get("k"), payload.get("realizer"))
        want = (outcome["k"], [[elements[v] for v in s] for s in outcome["realizer"]])
        return [("dim2ext", (code, 0, got, want))]
    table = checker.parse_table(case.text)

    def names(pairs):
        return [[table.objects[g], table.attributes[m]] for g, m in pairs]

    if case.op == "repair":
        code, report = _cli(["maximal", "-"] + search, case.text)
        payload = report.get("payload", {})
        if outcome["verdict"] == "budget":
            return [("maximal", (code, 3, report["error"]["type"], "BudgetExceeded"))]
        keys = ("factor1", "factor2", "removed", "rounds", "certificate")
        got = tuple(payload.get(k) for k in keys)
        want = (
            names(outcome["f1"]),
            names(outcome["f2"]),
            names(outcome["removed"]),
            outcome["rounds"],
            outcome["certificate"],
        )
        return [("maximal", (code, 0, got, want))]

    out = []
    code, report = _cli(["check", "-"], case.text)
    payload = report.get("payload", {})
    got = (payload.get("bipartite"), payload.get("components"), payload.get("isolated"),
           payload.get("odd_cycle"))
    want = (
        outcome["witness"] is None,
        outcome["components"],
        names(outcome["isolated"]),
        None if outcome["witness"] is None else names(outcome["witness"]),
    )
    out.append(("check", (code, 0, got, want)))
    code, report = _cli(["factorize", "-"], case.text)
    if outcome["verdict"] == "no":
        out.append(("factorize", (code, 1, report["error"]["type"], "NotTwoFactorizable")))
        return out
    payload = report.get("payload", {})
    got = (payload.get("factor1"), payload.get("factor2"))
    out.append(("factorize", (code, 0, got, (names(outcome["f1"]), names(outcome["f2"])))))
    code, report = _cli(["biplot", "-", "--format", "svg"], case.text)
    payload = report.get("payload", {})
    got = (
        [a["positions"] for a in payload.get("axes", [])],
        len(payload.get("rendering", "").encode()),
    )
    want = (
        [dict(zip(table.objects, a["positions"])) for a in outcome["axes"]],
        outcome["render_bytes"],
    )
    out.append(("biplot", (code, 0, got, want)))
    return out


# -- entry points ------------------------------------------------------


def _print_report(report, problems, trace):
    table = PER_LAYER if trace else END_TO_END
    for name, metric in report["metrics"].items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']:6s} ({table[name][1]} is better)")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps(report))


def smoke(seed: int) -> int:
    """Tiny inputs through every workload and mode; checks the metric table."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = _import_program()
    declared = {w["name"] for w in spec["workloads"]}
    failures = []
    if declared != set(wl.WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {sorted(declared)} differ from the code")
    for trace, key, table in ((False, "end_to_end", END_TO_END), (True, "per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != table:
            failures.append(f"BENCHMARK.json {key} differs from the code's metric table")
        for workload in wl.WORKLOADS:
            report, problems = run_workload(wl, workload, seed, 0, trace, smoke=True)
            failures += [f"{workload}: {p}" for p in problems]
            if set(report["metrics"]) != set(table):
                failures.append(f"{workload}: emitted metrics differ from {key}")
            if not trace and report["metrics"]["verified_share"]["value"] != 1.0:
                failures.append(f"{workload}: verified_share below 1.0")
            print(f"smoke {workload} trace={int(trace)}: {len(report['metrics'])} metrics")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke ok" if not failures else "smoke failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, all workloads")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    wl = _import_program()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    report, problems = run_workload(
        wl, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    _print_report(report, problems, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

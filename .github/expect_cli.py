"""Run ``ordfactor SUBCOMMAND ARGS...`` once and check how it ended.

Its stdin is this script's, or ``--input EXPR`` evaluated with the package
as ``of``: a FormalContext is written as .cxt, a string as it is.  Its
report and stderr are printed.  Exit 1 unless its exit code is ``--exit``
(default 0), its stderr is empty, it ends within ``--timeout`` seconds and
every ``--check EXPR`` holds of the report ``r``, its payload ``p`` and
its error ``e``.  Run by path, so that ``import ordfactor`` is the wheel.
"""
import argparse
import json
import subprocess
import sys

import ordfactor as of


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", metavar="EXPR")
    parser.add_argument("--exit", type=int, default=0)
    parser.add_argument("--timeout", type=float, metavar="SECONDS")
    parser.add_argument("--check", action="append", default=[], metavar="EXPR")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    text = None if args.input is None else eval(args.input, {"of": of})
    if isinstance(text, of.FormalContext):
        text = of.serialize_cxt(text)
    try:
        done = subprocess.run(
            ["ordfactor", *args.command], input=text, capture_output=True,
            encoding="utf-8", timeout=args.timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"FAIL: ran past {args.timeout} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    failures = []
    if done.returncode != args.exit:
        failures.append(f"exit code {done.returncode}, expected {args.exit}")
    if done.stderr:
        failures.append("stderr is not empty")
    if args.check and not failures:
        r = json.loads(done.stdout)
        names = {"r": r, "p": r.get("payload"), "e": r.get("error")}
        failures = [check for check in args.check if not eval(check, names)]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

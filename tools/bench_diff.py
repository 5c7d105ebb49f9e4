#!/usr/bin/env python3
"""Compare two perfbench results: a parent run and a change run.

Usage:

    bench_diff.py PARENT CHANGE

Each argument is either a file whose last non-empty line is the JSON
result line `perfbench/run.py` prints (the whole run output may be
passed), or a committed BENCH_*.json file: one JSON document that
holds that result under "result".
Prints one row per metric. Deterministic metrics must be equal: every
metric with unit "count", plus `store_mb`, whose bytes a change must
not move. Any other metric (times, sizes, rates) prints as a
change/parent ratio and never fails. Exits 1 when a deterministic
metric differs or is missing on one side, or when either run reports
"correct": false; exits 0 otherwise.
"""

import json
import sys

EXACT_NAMES = {"store_mb"}


def load(path):
    with open(path) as f:
        text = f.read()
    try:
        document = json.loads(text)  # a committed BENCH_*.json
    except json.JSONDecodeError:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            sys.exit("bench_diff: %s is empty" % path)
        try:
            document = json.loads(lines[-1])  # a run's output
        except json.JSONDecodeError as e:
            sys.exit("bench_diff: %s: last line is not JSON (%s)"
                     % (path, e))
    result = (document.get("result", document)
              if isinstance(document, dict) else None)
    if not isinstance(result, dict) or "metrics" not in result:
        sys.exit("bench_diff: %s: no perfbench result in it" % path)
    return result


def exact(name, unit):
    return unit == "count" or name in EXACT_NAMES


def fmt(value, exact_value):
    if value is None:
        return "-"
    if exact_value:
        return "%d" % value if value == int(value) else repr(value)
    return "%.6g" % value


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: bench_diff.py PARENT CHANGE")
    parent, change = load(argv[1]), load(argv[2])
    pm, cm = parent.get("metrics", {}), change.get("metrics", {})

    failures = []
    for side, result in (("parent", parent), ("change", change)):
        if not result.get("correct", False):
            failures.append("%s run is not correct" % side)

    names = list(pm) + [n for n in cm if n not in pm]
    width = max([len(n) for n in names] + [6])
    print("%-*s  %-5s  %12s  %12s  %s"
          % (width, "metric", "unit", "parent", "change", "change/parent"))
    for name in names:
        p, c = pm.get(name), cm.get(name)
        unit = (p or c)["unit"]
        pv = p["value"] if p else None
        cv = c["value"] if c else None
        is_exact = exact(name, unit)
        if is_exact:
            verdict = "equal" if pv == cv and p and c else "DIFFERS"
            if verdict != "equal":
                failures.append("%s: parent %s, change %s"
                                % (name, fmt(pv, True), fmt(cv, True)))
        elif pv is None or cv is None:
            verdict = "missing"
        elif pv == 0:
            verdict = "equal" if cv == 0 else "n/a (parent 0)"
        else:
            verdict = "%.3f" % (cv / pv)
        print("%-*s  %-5s  %12s  %12s  %s"
              % (width, name, unit, fmt(pv, is_exact), fmt(cv, is_exact),
                 verdict))

    for failure in failures:
        print("bench_diff: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

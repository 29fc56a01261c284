#!/usr/bin/env python3
"""Compare two benchmark result files.

Usage:

    python3 perfbench/compare.py BASE.json NEW.json

Both files are written by a run under perfbench/results/ (one per workload,
seed and trace mode). For each metric the two files share:

* an exact count (marked "exact" by the run) is reported as `same` or
  `DIFFERENT`: counts repeat exactly for one seed, so any change is real;
* a timing is reported as the ratio NEW / BASE of its medians, with each
  side's quartile spread (q3 - q1) / median when the run recorded samples.
  A ratio inside both spreads is noise, not a change.

Provenance fields that differ (commit, source hash, nproc, wire, ...) are
listed first, so a comparison across hosts or settings is never silent.
Exit status: 0, or 1 when an exact count differs.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def spread(m):
    if "median" not in m or not m["median"]:
        return None
    return (m["q3"] - m["q1"]) / m["median"]


def fmt_spread(s):
    return "      -" if s is None else f"{s:7.3f}"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])

    pb, pn = base.get("provenance", {}), new.get("provenance", {})
    for key in sorted(set(pb) | set(pn)):
        if pb.get(key) != pn.get(key):
            print(f"provenance {key}: {pb.get(key)!r} -> {pn.get(key)!r}")
    for side, r in (("base", base), ("new", new)):
        print(
            f"{side}: correct={r.get('correct')} attempted={r.get('attempted')} "
            f"failed={r.get('failed')}"
        )

    mb, mn = base.get("metrics", {}), new.get("metrics", {})
    differs = False
    print(f"{'metric':36s} {'unit':7s} {'base':>14s} {'new':>14s} {'new/base':>9s} "
          f"{'spread b':>8s} {'spread n':>8s}")
    for name in mb:
        if name not in mn:
            print(f"{name:36s} only in base")
            continue
        b, n = mb[name], mn[name]
        unit = b.get("unit", "")
        if b.get("exact") and n.get("exact"):
            same = b["value"] == n["value"]
            differs |= not same
            verdict = "same" if same else "DIFFERENT"
            print(f"{name:36s} {unit:7s} {b['value']:14.6g} {n['value']:14.6g} {verdict:>9s}")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        print(
            f"{name:36s} {unit:7s} {b['value']:14.6g} {n['value']:14.6g} {ratio:9.3f} "
            f"{fmt_spread(spread(b)):>8s} {fmt_spread(spread(n)):>8s}"
        )
    for name in mn:
        if name not in mb:
            print(f"{name:36s} only in new")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

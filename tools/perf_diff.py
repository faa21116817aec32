#!/usr/bin/env python3
"""Perf-regression sentinel: diff fresh bench/perf-model artefacts against
committed baselines.

The virtual multicomputer makes the scaling artefacts deterministic, so the
baseline policy can be aggressive:

  * structure (keys, their order is ignored but their *set* is not, array
    lengths, value kinds) must match exactly;
  * strings, booleans and integral numbers (exponents snapped to the PMNF
    grid, counts, verdict flags) must match exactly — a drift here means a
    complexity class or a gate flipped, which is precisely what the sentinel
    exists to catch;
  * non-integral numbers (fitted coefficients c0/c1, r2, cv_rmse, virtual
    seconds, percentiles) are compared with a relative tolerance, default
    1e-9: bit-level wobble from FMA contraction differences between
    compilers is tolerated, anything a model could care about is not.

Paths can be excluded with --ignore REGEX (matched against the dotted path,
e.g. "metrics\\..*\\.mean") for fields that are legitimately host-dependent.
The `simd_dispatch` metadata block every bench JSON carries (active tier,
CPU feature list — see docs/kernels.md) is host-dependent by construction
and is always ignored.

Usage:
  perf_diff.py BASELINE FRESH [--rtol 1e-9] [--ignore REGEX ...]
  perf_diff.py --update BASELINE FRESH      # copy FRESH over BASELINE
  perf_diff.py --summary MODEL.json         # human-readable model table

`--summary` prints the fitted models in a performance-model artefact as a
table — one row per phase with the selected complexity class, exponents
and r2 — instead of diffing. It understands both artefact schemas:
agcm-perfmodel-v1 (PERF_MODEL.json, per-phase PMNF fits) and
agcm-predict-v1 (PREDICT_MODEL.json, composition trees; see
docs/perfmodel.md).

Exit status: 0 when within tolerance, 1 on any drift (every drifted path is
printed), 2 on usage/IO errors.
"""

import argparse
import json
import math
import re
import shutil
import sys


# Always-ignored paths: metadata that legitimately differs between hosts
# (and between a baseline committed before the field existed and a fresh
# artefact that carries it).
DEFAULT_IGNORES = [r"\.simd_dispatch(\.|\[|$)"]


def is_integral(x):
    return isinstance(x, bool) or isinstance(x, int) or (
        isinstance(x, float) and math.isfinite(x) and x == int(x))


def classify(x):
    if isinstance(x, bool):
        return "bool"
    if isinstance(x, (int, float)):
        return "number"
    if isinstance(x, str):
        return "string"
    if isinstance(x, list):
        return "array"
    if isinstance(x, dict):
        return "object"
    return "null"


def rel_close(a, b, rtol):
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) <= rtol * scale


def diff(baseline, fresh, path, rtol, ignores, failures):
    if any(rx.search(path) for rx in ignores):
        return
    kb, kf = classify(baseline), classify(fresh)
    if kb != kf:
        failures.append(f"{path}: kind {kb} -> {kf}")
        return
    if kb == "object":
        # Consult the ignore list for the *child* path before reporting a
        # missing/new field — an ignored subtree may legitimately exist on
        # one side only (e.g. simd_dispatch vs a pre-existing baseline).
        def ignored(child):
            return any(rx.search(child) for rx in ignores)

        for key in baseline:
            if key not in fresh and not ignored(f"{path}.{key}"):
                failures.append(f"{path}.{key}: missing in fresh artefact")
        for key in fresh:
            if key not in baseline and not ignored(f"{path}.{key}"):
                failures.append(f"{path}.{key}: not in baseline (new field; "
                                "re-baseline with --update)")
        for key in baseline:
            if key in fresh:
                diff(baseline[key], fresh[key], f"{path}.{key}", rtol,
                     ignores, failures)
    elif kb == "array":
        if len(baseline) != len(fresh):
            failures.append(
                f"{path}: length {len(baseline)} -> {len(fresh)}")
            return
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            diff(b, f, f"{path}[{i}]", rtol, ignores, failures)
    elif kb == "number":
        if is_integral(baseline) and is_integral(fresh):
            if float(baseline) != float(fresh):
                failures.append(f"{path}: {baseline} -> {fresh} (integral, "
                                "exact match required)")
        elif not rel_close(float(baseline), float(fresh), rtol):
            rel = abs(float(baseline) - float(fresh)) / max(
                abs(float(baseline)), abs(float(fresh)))
            failures.append(
                f"{path}: {baseline} -> {fresh} (rel {rel:.3e} > {rtol:g})")
    else:  # string / bool / null
        if baseline != fresh:
            failures.append(f"{path}: {baseline!r} -> {fresh!r}")


def print_table(rows, headers):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))


def summarize(path):
    """Prints the fitted models in a PERF_MODEL / PREDICT_MODEL artefact."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_diff: cannot read {path}: {e}", file=sys.stderr)
        return 2

    schema = doc.get("schema")
    if schema == "agcm-perfmodel-v1":
        rows = []
        for entry in doc.get("phases", []):
            model = entry.get("model", {})
            verdict = entry.get("verdict", {})
            rows.append([
                entry.get("phase", "?"),
                str(entry.get("series", {}).get("parameter", "?")),
                model.get("complexity", "?"),
                f"{model.get('exponent_a', 0):g}",
                str(model.get("log_power_b", 0)),
                f"{model.get('r2', 0):.4f}",
                "PASS" if verdict.get("pass") else "FAIL",
            ])
        print(f"{path}: {schema}, report '{doc.get('report', '?')}'")
        print_table(rows, ["phase", "parameter", "complexity", "a", "b",
                           "r2", "verdict"])
    elif schema == "agcm-predict-v1":
        rows = []
        for entry in doc.get("phases", []):
            tree = entry.get("tree", {})
            terms = []

            def walk(node):
                if node.get("op") == "leaf":
                    if node.get("weight", 0) > 0:
                        terms.append(node.get("driver", "?"))
                else:
                    for child in node.get("children", []):
                        walk(child)

            walk(tree)
            rows.append([
                entry.get("phase", "?"),
                entry.get("selector") or "-",
                f"{entry.get('r2', 0):.4f}",
                f"{entry.get('rmse', 0):.3e}",
                str(entry.get("n_train", 0)),
                ", ".join(terms) if terms else "(intercept only)",
            ])
        print(f"{path}: {schema}")
        print_table(rows, ["phase", "selector", "r2", "rmse", "n", "terms"])
        gates = doc.get("gates", [])
        if gates:
            print()
            for gate in gates:
                status = "PASS" if gate.get("pass") else "FAIL"
                print(f"  gate {gate.get('name', '?'):<18} [{status}] "
                      f"{gate.get('detail', '')}")
    else:
        print(f"perf_diff: {path}: unknown model schema {schema!r}",
              file=sys.stderr)
        return 2
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument("--rtol", type=float, default=1e-9,
                        help="relative tolerance for non-integral numbers")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="REGEX",
                        help="skip dotted paths matching REGEX")
    parser.add_argument("--update", action="store_true",
                        help="copy FRESH over BASELINE and exit 0")
    parser.add_argument("--summary", action="store_true",
                        help="print the model table of a single artefact "
                             "instead of diffing")
    args = parser.parse_args()

    if args.summary:
        if args.fresh is not None:
            parser.error("--summary takes a single artefact")
        return summarize(args.baseline)
    if args.fresh is None:
        parser.error("diffing needs BASELINE and FRESH")

    if args.update:
        shutil.copyfile(args.fresh, args.baseline)
        print(f"perf_diff: re-baselined {args.baseline} from {args.fresh}")
        return 0

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_diff: cannot read baseline {args.baseline}: {e}",
              file=sys.stderr)
        return 2
    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_diff: cannot read fresh artefact {args.fresh}: {e}",
              file=sys.stderr)
        return 2

    ignores = [re.compile(p) for p in DEFAULT_IGNORES + args.ignore]
    failures = []
    diff(baseline, fresh, "$", args.rtol, ignores, failures)

    if failures:
        print(f"perf_diff: {args.fresh} drifted from {args.baseline} "
              f"({len(failures)} path(s)):")
        for line in failures:
            print(f"  {line}")
        print("perf_diff: if the change is intentional, re-baseline with\n"
              f"  tools/perf_diff.py --update {args.baseline} {args.fresh}")
        return 1
    print(f"perf_diff: {args.fresh} matches {args.baseline} "
          f"(rtol {args.rtol:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Perf regression gate: compare freshly produced BENCH_*.json against the
checked-in baselines under bench/baselines/ with a relative tolerance.

Usage:
    python3 bench/check_perf.py --current-dir build/bench \
        [--baseline-dir bench/baselines] [--tolerance 0.5] [--strict]

Comparison rules, applied to every numeric leaf shared by baseline and
current (matched by its JSON path):
  * keys ending in `_us` / `_ns` are latencies — warn when current exceeds
    baseline by more than the tolerance;
  * keys ending in `_per_s` or named `speedup` are throughputs — warn when
    current falls below baseline by more than the tolerance;
  * every `results_identical*` key (`results_identical_topk`,
    `results_identical_http`, ...) and every `constraint_*` key (e.g.
    `constraint_ttfs_below_batch`: a stream's first snippet must beat its
    own collector) must stay 1 — correctness, not perf. Such a key present
    in the baseline must also be present in the current run: a check that
    silently stops being emitted is an error, not a pass. Dropping one on
    purpose means refreshing that baseline file;
  * other numerics (counts, sizes) are reported when they drift, as context.

Speedup keys are skipped when either run's `hardware_threads` is below 2:
a single-core runner cannot exhibit parallel speedup, and warning about it
would teach everyone to ignore the gate.

Strictness is per kind. Correctness/identity keys are STRICT by default —
a parallel path diverging from its sequential reference is a bug, not
noise — and fail the gate regardless of --strict (CI relies on this;
--no-strict-correctness downgrades them to warnings for local
experiments). Latency/throughput keys are warn-only by default: wall-clock
comparisons across runner classes are noisy. They flip to STRICT per file
when both the baseline and the current run carry the SAME non-empty
top-level "runner_class" tag (benches stamp it from the
EXTRACT_BENCH_RUNNER_CLASS environment variable) — same class of machine,
same tolerance, no excuse. --strict forces perf strict everywhere;
--no-strict-perf keeps it warn-only even on a tag match (local
experiments on a machine that happens to share the CI tag).
"""

import argparse
import glob
import json
import os
import sys


def numeric_leaves(node, path=""):
    """Yields (json_path, value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_leaves(value, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def leaf_kind(path):
    key = path.rsplit(".", 1)[-1].split("[")[0]
    if key.startswith("results_identical") or key.startswith("constraint_"):
        return "correctness"
    if key in ("us", "ns") or key.endswith("_us") or key.endswith("_ns"):
        return "latency"
    if key.endswith("_per_s") or key == "speedup" or key.endswith("_speedup"):
        return "throughput"
    return "info"


def runner_class(doc):
    """The run's machine-class tag: a non-empty top-level "runner_class"
    string, or "" (absent, empty, or not a string — older baselines)."""
    tag = doc.get("runner_class", "") if isinstance(doc, dict) else ""
    return tag if isinstance(tag, str) else ""


def runner_classes_match(baseline, current):
    """True when both runs are tagged with the same non-empty class —
    the condition under which wall-clock comparison stops being noise."""
    tag = runner_class(baseline)
    return bool(tag) and tag == runner_class(current)


def compare_file(name, baseline, current, tolerance, skip_speedup):
    warnings = []
    notes = []
    errors = []  # correctness violations: fatal regardless of --strict
    base = dict(numeric_leaves(baseline))
    cur = dict(numeric_leaves(current))
    for path in sorted(base.keys() & cur.keys()):
        b, c = base[path], cur[path]
        kind = leaf_kind(path)
        if kind == "correctness":
            if c != 1:
                errors.append(f"{name}: {path} = {c} (an invariant the "
                              "bench asserts — identity with the sequential "
                              "reference, or a structural constraint like "
                              "first-snippet-before-batch — was violated!)")
            continue
        if b == 0:
            continue
        ratio = c / b
        if kind == "latency" and ratio > 1 + tolerance:
            warnings.append(f"{name}: {path} regressed {b:.1f} -> {c:.1f} "
                            f"({ratio:.2f}x, tolerance {1 + tolerance:.2f}x)")
        elif kind == "throughput":
            # Bare "speedup" keys measure parallelism; "warm_speedup" & co
            # (cache effects) hold even on one core.
            if skip_speedup and path.rsplit(".", 1)[-1].split("[")[0] == "speedup":
                continue
            if ratio < 1 - tolerance:
                warnings.append(f"{name}: {path} dropped {b:.2f} -> {c:.2f} "
                                f"({ratio:.2f}x of baseline)")
        elif kind == "info" and ratio not in (1.0,) and abs(ratio - 1) > 1e-9:
            notes.append(f"{name}: {path} changed {b:g} -> {c:g}")
    for path in sorted(base.keys() - cur.keys()):
        if leaf_kind(path) == "correctness":
            errors.append(f"{name}: {path} is missing from the current run "
                          "(a strict check the baseline carries stopped "
                          "being emitted; refresh the baseline if that is "
                          "intended)")
    return warnings, notes, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir",
                        default=os.path.join(os.path.dirname(__file__),
                                             "baselines"))
    parser.add_argument("--current-dir", required=True)
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="relative slack before a warning (0.5 = 50%%; "
                             "wall-clock comparisons across machines are "
                             "noisy, keep this loose)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a perf (latency/throughput) "
                             "warning fires")
    parser.add_argument("--no-strict-correctness", action="store_true",
                        help="downgrade results_identical* / constraint_* "
                             "violations and missing keys to warnings (local "
                             "experiments only; CI keeps correctness strict)")
    parser.add_argument("--no-strict-perf", action="store_true",
                        help="keep latency/throughput warn-only even when "
                             "baseline and current share a runner_class tag")
    args = parser.parse_args(argv)

    baselines = sorted(glob.glob(os.path.join(args.baseline_dir,
                                              "BENCH_*.json")))
    if not baselines:
        print(f"no baselines under {args.baseline_dir}; nothing to check")
        return 0

    all_warnings, all_notes, all_errors, compared = [], [], [], 0
    all_perf_failures = []  # perf warnings promoted by a runner_class match
    for baseline_path in baselines:
        name = os.path.basename(baseline_path)
        current_path = os.path.join(args.current_dir, name)
        if not os.path.exists(current_path):
            all_notes.append(f"{name}: not produced by this run (skipped)")
            continue
        with open(baseline_path) as f:
            baseline = json.load(f)
        with open(current_path) as f:
            current = json.load(f)

        def hardware_threads(doc):
            # The key may be nested (BENCH_e7.json keeps it under "batch").
            found = [v for p, v in numeric_leaves(doc)
                     if p.rsplit(".", 1)[-1] == "hardware_threads"]
            return min(found) if found else 99

        threads = min(hardware_threads(baseline), hardware_threads(current))
        warnings, notes, errors = compare_file(
            name, baseline, current, args.tolerance,
            skip_speedup=threads < 2)
        compared += 1
        if (warnings and not args.no_strict_perf
                and runner_classes_match(baseline, current)):
            # Same machine class on both sides: wall clock is comparable,
            # so a perf regression is a failure, not a note.
            tag = runner_class(baseline)
            all_perf_failures += [
                f"{w} [strict: runner_class '{tag}' matches baseline]"
                for w in warnings]
            warnings = []
        all_warnings += warnings
        all_notes += notes
        all_errors += errors

    for note in all_notes:
        print(f"note: {note}")
    for warning in all_warnings:
        print(f"WARNING: {warning}")
    for failure in all_perf_failures:
        print(f"ERROR: {failure}")
    for error in all_errors:
        print(f"ERROR: {error}")
    print(f"perf gate: {compared} file(s) compared, "
          f"{len(all_warnings)} warning(s), "
          f"{len(all_perf_failures) + len(all_errors)} error(s), "
          f"tolerance {args.tolerance:.0%}")
    if all_errors and not args.no_strict_correctness:
        return 1  # correctness is a boolean, not noisy wall clock
    if all_perf_failures:
        return 1  # matched runner classes: wall clock is comparable
    if all_warnings and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

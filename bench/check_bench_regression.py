#!/usr/bin/env python3
"""Perf- and ROC-regression gate over the BENCH_*.json files the benches emit.

Compares freshly produced bench JSON against the committed baselines in
bench/baselines/ and fails (exit 1) when a tracked higher-is-better metric
(speedup, *_per_sec) regresses by more than REGRESSION_TOLERANCE, or when an
absolute floor (the SIMD acceptance numbers, the per-attack ROC AUCs) is not
met.

Host awareness:
  * Ratio comparisons against the baseline only run when the fresh run and
    the baseline report the same hardware_concurrency and (where both
    record one) the same build_type -- wall-clock-derived numbers are not
    comparable across hosts, nor across -O2 and -O3 builds.  Absolute
    floors on `speedup` columns still apply (a speedup is a same-host
    ratio, so it travels).
  * A runtime_scaling file tagged "skipped_single_core": true contains
    only the threads=1 row; every scaling assertion is skipped.
  * SIMD floors are skipped when the host has no vector unit
    (meta.simd_detected == "scalar").
  * ROC floors are host-independent: the ROC benches are seeded and
    single-threaded, so their AUCs are the same on every host.

Usage:
  check_bench_regression.py [--fresh DIR] [--baselines DIR]

Defaults: --fresh . and --baselines <script_dir>/baselines.
"""

import argparse
import json
import pathlib
import sys

# A fresh metric below (1 - REGRESSION_TOLERANCE) * baseline fails the gate.
REGRESSION_TOLERANCE = 0.20

# Higher-is-better row keys eligible for baseline ratio checks.
TRACKED_SUFFIXES = ("_per_sec",)
TRACKED_KEYS = ("speedup",)

# Absolute floors, applied to the fresh run regardless of baseline host:
# {bench: {row_id: {key: floor}}}.  The simd_kernels floors are the PR's
# acceptance criteria: the vector kernels must hold >= 2x single-thread over
# the scalar path on SIMD-capable hosts.
FLOORS = {
    # No floor on kernel_dot: it is memory-bound at batch-column lengths
    # and its scalar specification already runs 4 accumulators, so the
    # vector win is small and noisy (~1.1x measured).
    "simd_kernels": {
        "kernel_kmeans_assign": {"speedup": 2.0},
        "kernel_full_summarize": {"speedup": 2.0},
        "kernel_seed_update": {"speedup": 1.3},
        # Carry-less-multiply fold vs the slicing-by-8 table (~11x measured).
        "kernel_crc32": {"speedup": 4.0},
    },
    # Detection quality at the paper's operating points (EXPERIMENTS.md
    # "ROC gate"): per-attack AUC floors for r = 12 at k = 200 and k = 500.
    # Each floor is the seed-1 AUC less its spread (max - min) over
    # TrialConfig seeds 1, 2 and 3, rounded down to 0.001.  Attack values:
    # 1 syn_flood, 2 distributed_syn_flood, 3 port_scan, 4 ssh_brute_force,
    # 5 sockstress.
    "roc_k": {
        "k=200/r=12/attack=1": {"auc": 0.939},
        "k=200/r=12/attack=2": {"auc": 0.962},
        "k=200/r=12/attack=3": {"auc": 0.982},
        "k=200/r=12/attack=4": {"auc": 0.805},
        "k=200/r=12/attack=5": {"auc": 0.874},
        "k=500/r=12/attack=1": {"auc": 0.938},
        "k=500/r=12/attack=2": {"auc": 0.946},
        "k=500/r=12/attack=3": {"auc": 0.986},
        "k=500/r=12/attack=4": {"auc": 0.700},
        "k=500/r=12/attack=5": {"auc": 0.874},
    },
    "roc_rank": {
        "k=500/r=12/attack=1": {"auc": 0.982},
        "k=500/r=12/attack=2": {"auc": 0.982},
        "k=500/r=12/attack=3": {"auc": 1.000},
        "k=500/r=12/attack=4": {"auc": 0.640},
        "k=500/r=12/attack=5": {"auc": 0.906},
    },
}


def row_id(bench, row):
    """Stable identity of a result row, independent of row order."""
    if "attack" in row:
        return f"k={row['k']:g}/r={row['r']:g}/attack={row['attack']:g}"
    for key in row:
        if key.startswith("kernel_"):
            return key
    if "threads" in row:
        return f"threads={int(row['threads'])}"
    # Fall back to the first key=value pair (sweep-style benches).
    first = next(iter(row.items()), ("empty", 0))
    return f"{first[0]}={first[1]:g}"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {row_id(doc["bench"], row): row for row in doc.get("results", [])}
    return doc.get("bench", path.stem), doc.get("meta", {}), rows


def tracked(key):
    return key in TRACKED_KEYS or key.endswith(TRACKED_SUFFIXES)


def check_file(fresh_path, baseline_path, failures):
    bench, fresh_meta, fresh_rows = load(fresh_path)
    ok = lambda msg: print(f"  ok   {bench}: {msg}")
    skip = lambda msg: print(f"  skip {bench}: {msg}")

    simd_capable = fresh_meta.get("simd_detected", "scalar") != "scalar"
    single_core = bool(fresh_meta.get("skipped_single_core", False))

    # Absolute floors first: they do not need a baseline.
    for rid, floors in FLOORS.get(bench, {}).items():
        if bench == "simd_kernels" and not simd_capable:
            skip(f"{rid} floors (host has no vector unit)")
            continue
        row = fresh_rows.get(rid)
        if row is None:
            failures.append(f"{bench}: expected row {rid} missing")
            continue
        for key, floor in floors.items():
            value = row.get(key)
            if value is None:
                failures.append(f"{bench}/{rid}: floor key {key} missing")
            elif value < floor:
                failures.append(
                    f"{bench}/{rid}: {key} = {value:.3f} below floor {floor}")
            else:
                ok(f"{rid} {key} = {value:.3f} >= {floor}")

    if baseline_path is None or not baseline_path.exists():
        skip("no baseline recorded")
        return

    _, base_meta, base_rows = load(baseline_path)

    if single_core and bench == "runtime_scaling":
        skip("scaling checks (single-core host)")
        return
    if fresh_meta.get("hardware_concurrency") != base_meta.get(
            "hardware_concurrency"):
        skip(
            "baseline ratio checks (hardware_concurrency "
            f"{base_meta.get('hardware_concurrency')} -> "
            f"{fresh_meta.get('hardware_concurrency')})")
        return
    base_build = base_meta.get("build_type")
    fresh_build = fresh_meta.get("build_type")
    if base_build and fresh_build and base_build != fresh_build:
        skip(f"baseline ratio checks (build_type {base_build} -> {fresh_build})")
        return

    for rid, base_row in base_rows.items():
        fresh_row = fresh_rows.get(rid)
        if fresh_row is None:
            failures.append(f"{bench}: baseline row {rid} missing from fresh run")
            continue
        for key, base_value in base_row.items():
            if not tracked(key) or base_value <= 0:
                continue
            fresh_value = fresh_row.get(key)
            if fresh_value is None:
                failures.append(f"{bench}/{rid}: tracked key {key} disappeared")
                continue
            ratio = fresh_value / base_value
            if ratio < 1.0 - REGRESSION_TOLERANCE:
                failures.append(
                    f"{bench}/{rid}: {key} regressed {base_value:.3g} -> "
                    f"{fresh_value:.3g} ({(1 - ratio) * 100:.0f}%)")
            else:
                ok(f"{rid} {key} {base_value:.3g} -> {fresh_value:.3g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", default=".", type=pathlib.Path,
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--baselines",
                        default=pathlib.Path(__file__).parent / "baselines",
                        type=pathlib.Path)
    args = parser.parse_args()

    fresh_files = sorted(args.fresh.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"error: no BENCH_*.json under {args.fresh}", file=sys.stderr)
        return 1

    failures = []
    for fresh in fresh_files:
        check_file(fresh, args.baselines / fresh.name, failures)

    if failures:
        print("\nPERF REGRESSION GATE FAILED:")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate BENCH_*.json / TRACE_*.json artefacts written by the bench
harness (see docs/observability.md). Standard library only, so CI can run
it anywhere.

Usage:
    tools/check_bench_json.py BENCH_fig1_breakdown.json [more.json ...]

Exit status is nonzero if any file fails validation. BENCH files are
checked against the agcm-bench-v1 schema; files whose top level contains
"traceEvents" are checked as Chrome Trace Event Format documents.
"""
from __future__ import annotations

import json
import sys


def fail(path: str, msg: str) -> None:
    raise ValueError(f"{path}: {msg}")


# Per-bench required top-level fields: name -> {field: required type}.
# Benches that self-gate (nonzero exit on regression) must also publish the
# gate inputs and verdict in their JSON so CI failures are diagnosable from
# the artefact alone (docs/transport.md, "gating").
REQUIRED_FIELDS = {
    "comm_transport": {
        "halo_mb_per_s_seed": float,
        "halo_mb_per_s_pooled": float,
        "halo_speedup": float,
        "transpose_mb_per_s_seed": float,
        "transpose_mb_per_s_pooled": float,
        "transpose_speedup": float,
        "gate_halo_speedup_min": float,
        "gate_transpose_speedup_min": float,
        "gates_passed": bool,
    },
    # Only the fields common to both modes: --check-only omits the host
    # speedup numbers so its JSON stays deterministic for the CI fence.
    "kernel_engine": {
        "mode": str,
        "advection_bitwise_identical": bool,
        "physics_bitwise_identical": bool,
        "stencil_separate_bitwise_identical": bool,
        "stencil_block_bitwise_identical": bool,
        "advection_checksum": float,
        "physics_checksum": float,
        "stencil_separate_checksum": float,
        "stencil_block_checksum": float,
        "gate_advection_speedup_min": float,
        "gate_physics_speedup_min": float,
        "gates_passed": bool,
    },
    # Only the fields common to both modes: --check-only (CI determinism
    # fence) omits the host speedup numbers; full mode adds
    # advection_speedup/pointwise_speedup (or speed_gates_skipped when the
    # host tops out at the scalar tier).
    "simd_dispatch": {
        "mode": str,
        "active_tier": str,
        "detected_tier": str,
        "tiers_checked": float,
        "advection_bitwise_identical": bool,
        "pointwise_bitwise_identical": bool,
        "stencil_bitwise_identical": bool,
        "daxpy_bitwise_identical": bool,
        "conv_window_bitwise_identical": bool,
        "gate_speedup_min": float,
        "gates_passed": bool,
    },
    "stencil_layout": {
        "paper_anchor_paragon": float,
        "paper_anchor_t3d": float,
        "anchor_speedup_paragon": float,
        "anchor_speedup_t3d": float,
    },
    "resolution_scaling": {
        "eff_coarsest": float,
        "eff_finest": float,
        "eff_improves_with_resolution": bool,
    },
    "ablation_comm": {
        "ring_vs_tree_msg_ratio": float,
        "tree_more_bytes_than_ring": bool,
        "lb_gain_short_mesh": float,
        "lb_gain_tall_mesh": float,
        "lb_gain_grows_with_rows": bool,
    },
    "simnet_sched": {
        "p64_wall_ms": float,
        "p64_us_per_rank_step": float,
        "p1024_us_per_rank_step": float,
        "p1024_over_p64_ratio": float,
        "gate_ratio_max": float,
        "virtual_times_match": bool,
        "p1024_wall_ms": float,
        "p1024_completed": bool,
        "gates_passed": bool,
    },
    # Self-gating: >=3x concurrent shared-cache throughput over sequential
    # cold-cache, plus the store determinism fences (bench exits nonzero
    # when any fails). The wall/throughput numbers are host-dependent; the
    # two store_* booleans and gates_passed are the portable verdict.
    "campaign_throughput": {
        "cells": float,
        "concurrency": float,
        "wall_cold_sec": float,
        "wall_concurrent_sec": float,
        "throughput_cold_eps": float,
        "throughput_concurrent_eps": float,
        "speedup": float,
        "gate_speedup_min": float,
        "store_deterministic": bool,
        "store_matches_standalone": bool,
        "gates_passed": bool,
    },
    "scaling_model": {
        "perf_model_path": str,
        "fit_conv_exponent_a": float,
        "fit_conv_log_power_b": float,
        "fit_fft_exponent_a": float,
        "fit_fft_log_power_b": float,
        "fit_partition_exponent_a": float,
        "fit_partition_log_power_b": float,
        "fit_transpose_exponent_a": float,
        "fit_transpose_log_power_b": float,
        "conv_dominates_fft": bool,
        "conv_dominates_partition": bool,
        "imbalance_before": float,
        "imbalance_after": float,
        "all_pass": bool,
        "perf_model": dict,
    },
    # Only the fields common to both modes: --check-only (CI determinism
    # fence) omits the host speedup table; full mode adds
    # host_speedup_nlon576/host_speedup_nlon1152/host_gate_pass.
    # Self-gating: >= 8 holdout configurations, median whole-step relative
    # error < 10%, max < 25% (bench exits nonzero when any fails). The
    # full agcm-predict-v1 document is mirrored under "predict_model".
    "predict_model": {
        "predict_model_path": str,
        "n_train": float,
        "n_holdout": float,
        "median_rel_error": float,
        "max_rel_error": float,
        "all_pass": bool,
        "predict_model": dict,
    },
    "filter_partition": {
        "mode": str,
        "block_nlon144": float,
        "block_nlon576": float,
        "fft_size_nlon576": float,
        "nparts_nlon576": float,
        "nblocks_nlon576": float,
        "model_crossover_fft_vs_conv_nlon": float,
        "model_crossover_partition_vs_conv_nlon": float,
        "equiv_cases": float,
        "equiv_max_ulp": float,
        "equiv_ulp_envelope": float,
        "equiv_pass": bool,
        "virtual_partition_vs_conv_speedup_nlon576": float,
        "partition_wins_three_way_at_nlon576": bool,
        "fit_partition_exponent_a": float,
        "fit_partition_log_power_b": float,
        "fit_partition_r2": float,
        "fit_partition_pass": bool,
        "gate_speedup_min": float,
        "gates_passed": bool,
    },
}


def check_required_fields(path: str, doc: dict) -> str:
    required = REQUIRED_FIELDS.get(doc.get("bench", ""))
    if required is None:
        return ""
    for name, kind in required.items():
        if name not in doc:
            fail(path, f"missing required field '{name}'")
        value = doc[name]
        if kind is float:
            # bool is an int subclass; reject it explicitly.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                fail(path, f"'{name}' must be a number")
        elif not isinstance(value, kind):
            fail(path, f"'{name}' must be {kind.__name__}")
    if doc["bench"] == "comm_transport":
        return (
            f", halo {doc['halo_speedup']:.2f}x / transpose "
            f"{doc['transpose_speedup']:.2f}x, gates_passed="
            f"{doc['gates_passed']}"
        )
    if doc["bench"] == "kernel_engine":
        return (
            f", mode={doc['mode']}, bitwise="
            f"{doc['advection_bitwise_identical'] and doc['physics_bitwise_identical']}"
            f", gates_passed={doc['gates_passed']}"
        )
    if doc["bench"] == "simd_dispatch":
        return (
            f", mode={doc['mode']}, active={doc['active_tier']}, bitwise="
            f"{doc['advection_bitwise_identical'] and doc['pointwise_bitwise_identical']}"
            f", gates_passed={doc['gates_passed']}"
        )
    if doc["bench"] == "simnet_sched":
        return (
            f", P=1024/P=64 host cost per rank-step "
            f"{doc['p1024_over_p64_ratio']:.2f}x, virtual times match="
            f"{doc['virtual_times_match']}, gates_passed={doc['gates_passed']}"
        )
    if doc["bench"] == "campaign_throughput":
        return (
            f", {doc['cells']:g} cells, {doc['speedup']:.2f}x, store "
            f"deterministic={doc['store_deterministic']}, gates_passed="
            f"{doc['gates_passed']}"
        )
    if doc["bench"] == "scaling_model":
        return (
            f", conv x^{doc['fit_conv_exponent_a']:g} vs fft "
            f"x^{doc['fit_fft_exponent_a']:g} vs partition "
            f"x^{doc['fit_partition_exponent_a']:g}, imbalance "
            f"{doc['imbalance_before']:.0%} -> {doc['imbalance_after']:.0%}, "
            f"all_pass={doc['all_pass']}"
        )
    if doc["bench"] == "predict_model":
        return (
            f", {doc['n_train']:g} train / {doc['n_holdout']:g} holdout, "
            f"median {doc['median_rel_error']:.1%} max "
            f"{doc['max_rel_error']:.1%}, all_pass={doc['all_pass']}"
        )
    if doc["bench"] == "filter_partition":
        return (
            f", mode={doc['mode']}, crossover nlon "
            f"{doc['model_crossover_partition_vs_conv_nlon']:g}, "
            f"equiv {doc['equiv_max_ulp']:.1f} ulp, gates_passed="
            f"{doc['gates_passed']}"
        )
    return f", {len(required)} required fields present"


def check_simd_dispatch_block(path: str, block: object) -> None:
    """The per-host SIMD dispatch metadata every bench JSON now carries
    (bench_common.hpp). Host-dependent by design — perf_diff.py ignores it
    when comparing runs."""
    if not isinstance(block, dict):
        fail(path, "'simd_dispatch' must be an object")
    tiers = ("scalar", "avx2", "avx512")
    for key in ("active_tier", "detected_tier"):
        if block.get(key) not in tiers:
            fail(path, f"simd_dispatch.{key} must be one of {tiers}")
    for key in ("env_override", "built_avx2", "built_avx512"):
        if not isinstance(block.get(key), bool):
            fail(path, f"simd_dispatch.{key} must be bool")
    for key in ("cpu_features", "demoted_families"):
        value = block.get(key)
        if not isinstance(value, list) or not all(
            isinstance(s, str) for s in value
        ):
            fail(path, f"simd_dispatch.{key} must be a list of strings")


def check_table(path: str, i: int, table: object) -> None:
    if not isinstance(table, dict):
        fail(path, f"tables[{i}] is not an object")
    for key in ("title", "headers", "rows"):
        if key not in table:
            fail(path, f"tables[{i}] missing '{key}'")
    headers = table["headers"]
    rows = table["rows"]
    if not isinstance(headers, list) or not all(
        isinstance(h, str) for h in headers
    ):
        fail(path, f"tables[{i}].headers must be a list of strings")
    if not isinstance(rows, list):
        fail(path, f"tables[{i}].rows must be a list")
    for j, row in enumerate(rows):
        if not isinstance(row, list) or not all(
            isinstance(c, str) for c in row
        ):
            fail(path, f"tables[{i}].rows[{j}] must be a list of strings")
        if len(row) > len(headers):
            fail(
                path,
                f"tables[{i}].rows[{j}] has {len(row)} cells but only "
                f"{len(headers)} headers",
            )


def check_bench(path: str, doc: dict) -> str:
    if doc.get("schema") != "agcm-bench-v1":
        fail(path, f"unexpected schema {doc.get('schema')!r}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(path, "'bench' must be a non-empty string")
    tables = doc.get("tables")
    if not isinstance(tables, list):
        fail(path, "'tables' must be a list")
    for i, table in enumerate(tables):
        check_table(path, i, table)
    if "phases" in doc:
        if not isinstance(doc["phases"], list):
            fail(path, "'phases' must be a list")
        for i, phase in enumerate(doc["phases"]):
            for key in ("name", "calls", "total_sec"):
                if key not in phase:
                    fail(path, f"phases[{i}] missing '{key}'")
    if "metrics" in doc and not isinstance(doc["metrics"], dict):
        fail(path, "'metrics' must be an object")
    if "simd_dispatch" in doc:
        check_simd_dispatch_block(path, doc["simd_dispatch"])
    extra = check_required_fields(path, doc)
    return f"bench '{doc['bench']}', {len(tables)} table(s){extra}"


def check_chrome_trace(path: str, doc: dict) -> str:
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(path, "'traceEvents' must be a list")
    if not events:
        fail(path, "'traceEvents' is empty")
    phases = {"X": 0, "C": 0, "i": 0, "M": 0}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(path, f"traceEvents[{i}] is not an object")
        ph = event.get("ph")
        if not isinstance(ph, str):
            fail(path, f"traceEvents[{i}] missing 'ph'")
        phases[ph] = phases.get(ph, 0) + 1
        if ph == "X":
            for key in ("name", "ts", "dur", "pid", "tid"):
                if key not in event:
                    fail(path, f"traceEvents[{i}] ('X') missing '{key}'")
            if event["dur"] < 0:
                fail(path, f"traceEvents[{i}] has negative duration")
    if phases.get("M", 0) < 1:
        fail(path, "no metadata ('M') events — rank naming is missing")
    return (
        f"chrome trace: {phases.get('X', 0)} spans, "
        f"{phases.get('C', 0)} counter samples, "
        f"{phases.get('i', 0)} instants"
    )


def check_google_benchmark(path: str, doc: dict) -> str:
    """google-benchmark --benchmark_format=json (bench_pointwise_vm)."""
    context = doc.get("context")
    if not isinstance(context, dict):
        fail(path, "'context' must be an object")
    for key in ("date", "num_cpus"):
        if key not in context:
            fail(path, f"context missing '{key}'")
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        fail(path, "'benchmarks' must be a non-empty list")
    for i, bm in enumerate(benchmarks):
        if not isinstance(bm, dict):
            fail(path, f"benchmarks[{i}] is not an object")
        for key in ("name", "real_time", "cpu_time", "time_unit"):
            if key not in bm:
                fail(path, f"benchmarks[{i}] missing '{key}'")
        if not isinstance(bm["real_time"], (int, float)) or bm["real_time"] < 0:
            fail(path, f"benchmarks[{i}].real_time must be a non-negative "
                       "number")
    return f"google-benchmark: {len(benchmarks)} benchmark(s)"


def check_perf_model(path: str, doc: dict) -> str:
    """PERF_MODEL.json (agcm-perfmodel-v1, written by bench_scaling_model)."""
    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        fail(path, "'phases' must be a non-empty list")
    for i, phase in enumerate(phases):
        for key in ("phase", "series", "model", "expectation", "verdict"):
            if key not in phase:
                fail(path, f"phases[{i}] missing '{key}'")
        model = phase["model"]
        for key in ("complexity", "exponent_a", "log_power_b", "c0", "c1",
                    "r2", "cv_rmse"):
            if key not in model:
                fail(path, f"phases[{i}].model missing '{key}'")
        series = phase["series"]
        if len(series.get("x", [])) != len(series.get("y", [])):
            fail(path, f"phases[{i}].series x/y length mismatch")
        if not isinstance(phase["verdict"].get("pass"), bool):
            fail(path, f"phases[{i}].verdict.pass must be bool")
    gates = doc.get("gates")
    if not isinstance(gates, list):
        fail(path, "'gates' must be a list")
    if not isinstance(doc.get("all_pass"), bool):
        fail(path, "'all_pass' must be bool")
    verdicts = sum(1 for p in phases if p["verdict"]["pass"]) + sum(
        1 for g in gates if g.get("pass"))
    return (f"perf model: {len(phases)} phase(s), {len(gates)} gate(s), "
            f"{verdicts} passing, all_pass={doc['all_pass']}")


def check_node(path: str, where: str, node: object) -> None:
    """One composition-tree node (src/perfmodel/compose.hpp)."""
    if not isinstance(node, dict):
        fail(path, f"{where} must be an object")
    op = node.get("op")
    if op == "leaf":
        if not isinstance(node.get("driver"), str) or not node["driver"]:
            fail(path, f"{where}.driver must be a non-empty string")
        for key in ("exponent_a", "log_power_b", "weight"):
            value = node.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                fail(path, f"{where}.{key} must be a number")
        return
    if op not in ("sequence", "concurrent", "ring", "tree", "transpose",
                  "pairwise"):
        fail(path, f"{where}.op is {op!r}")
    if op in ("ring", "tree", "transpose", "pairwise") and not isinstance(
        node.get("extent"), str
    ):
        fail(path, f"{where}.extent must be a string")
    children = node.get("children")
    if not isinstance(children, list) or not children:
        fail(path, f"{where}.children must be a non-empty list")
    for i, child in enumerate(children):
        check_node(path, f"{where}.children[{i}]", child)


def check_predict_model(path: str, doc: dict) -> str:
    """PREDICT_MODEL.json (agcm-predict-v1, written by bench_predict_model
    and consumed by the campaign planner: campaign_run --predict, whose
    --list mode is the what-if)."""
    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        fail(path, "'phases' must be a non-empty list")
    for i, phase in enumerate(phases):
        if not isinstance(phase.get("phase"), str) or not phase["phase"]:
            fail(path, f"phases[{i}].phase must be a non-empty string")
        if not isinstance(phase.get("selector"), str):
            fail(path, f"phases[{i}].selector must be a string")
        for key in ("c0", "r2", "rmse", "n_train", "terms_used"):
            value = phase.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                fail(path, f"phases[{i}].{key} must be a number")
        check_node(path, f"phases[{i}].tree", phase.get("tree"))
    holdout = doc.get("holdout")
    if holdout is not None:
        if not isinstance(holdout, list):
            fail(path, "'holdout' must be a list")
        for i, entry in enumerate(holdout):
            for key in ("name", "point", "actual", "predicted", "rel_error"):
                if key not in entry:
                    fail(path, f"holdout[{i}] missing '{key}'")
    gates = doc.get("gates")
    if gates is not None and not isinstance(gates, list):
        fail(path, "'gates' must be a list")
    if "all_pass" in doc and not isinstance(doc["all_pass"], bool):
        fail(path, "'all_pass' must be bool")
    return (f"predict model: {len(phases)} phase predictor(s), "
            f"{len(holdout or [])} holdout(s), "
            f"all_pass={doc.get('all_pass')}")


def check_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(path, "top level must be an object")
    if "traceEvents" in doc:
        return check_chrome_trace(path, doc)
    if doc.get("schema") == "agcm-perfmodel-v1":
        return check_perf_model(path, doc)
    if doc.get("schema") == "agcm-predict-v1":
        return check_predict_model(path, doc)
    if "context" in doc and "benchmarks" in doc:
        return check_google_benchmark(path, doc)
    return check_bench(path, doc)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        try:
            summary = check_file(path)
        except (ValueError, OSError, json.JSONDecodeError) as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            status = 1
        else:
            print(f"ok   {path}: {summary}")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

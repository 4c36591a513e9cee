#!/usr/bin/env python3
"""Diff two BENCH_suite.json files on step counts and probe counters.

Joins the "cells" arrays on (section, structure, universe_bits, threads,
mix, dist, batch_size, shards, key_kind, leaf_chunking, zipf_drift,
repeat) — the stable key documented in README "Benchmarks"; batch_size
and shards default to 1, key_kind to "u64", leaf_chunking to true, and
zipf_drift to false for files that predate them — and reports, per
matched cell, the relative change in:

  - steps_per_op.search and steps_per_op.total
  - per-op rates of the probe counters (hash_probes, probes_lookup,
    probes_chain, probes_binsearch, node_hops, walk_fallbacks, restarts)
  - per_op.predecessor.search_steps_per_op when present
  - per-op rates of the schema-v7 leaf counters (bytes_touched,
    chunk_scans) on single-thread u64 cells only — the gated fast path
    where the modeled byte counts are deterministic; multi-thread and
    bytes16 cells stay report-only

A change worse than --threshold (default 10%) counts as a regression.
Wall-clock metrics (mops, latency) are intentionally NOT compared: they
are host-bound, while step counts are the durable signal (ROADMAP).

Exit status: 0 unless --fail-on-regress is given and regressions exist.
Designed to run as a non-fatal CI report step:

    tools/compare_bench.py BENCH_suite.json build/BENCH_suite_quick.json

Schema: accepts v1 through v9 files; counters missing from an older file
are skipped (reported as "new"), never treated as zero.  Pre-v7 cells
join v7 cells as leaf_chunking=true (the default layout); chunking-off
cells are a v7-only axis and never match an older file.  Pre-v8 cells
join as zipf_drift=false.  v9 dropped the v8 adaptation axis: v8 cells
join on the remaining axes — every v8 section except toplevel_ablation
ran one adaptation setting per cell (the shipped default), so the join
compares the old default build with the new one — and the v8-only
toplevel_ablation section, whose on/off twins differ only in the dropped
axis, is skipped on load.

`--self-test` runs the built-in join unit test (no input files needed);
it is registered in ctest so the cross-version join cannot bit-rot.
"""

import argparse
import json
import sys

JOIN_KEY = ("section", "structure", "universe_bits", "threads", "mix",
            "dist", "batch_size", "shards", "key_kind", "leaf_chunking",
            "zipf_drift", "repeat")

# Per-key defaults applied when a file predates an axis, so older suites
# still join cleanly (batch_size was introduced in schema v4, shards in v5,
# key_kind in v6, leaf_chunking in v7, zipf_drift in v8; every earlier cell
# was implicitly unbatched, unsharded, u64-keyed and drift-free, and ran
# whatever the default engine layout of its era was — which the v7 suite
# records as its leaf_chunking=true cells, so that is the side pre-v7
# cells join.)
JOIN_DEFAULTS = {"batch_size": 1, "shards": 1, "key_kind": "u64",
                 "leaf_chunking": True, "zipf_drift": False}

# Sections that exist only in v8 files.  Their cells come in pairs that
# differ only in the adaptation axis v9 dropped, so they cannot join on the
# v9 key (and v9 has no such section to join them to).
V8_ONLY_SECTIONS = ("toplevel_ablation",)

# Of the schema-v4 cursor counters, cursor_redescends is compared (within a
# joined cell the batching axis is fixed, so more redescends on the same
# stream means retained brackets stopped serving — a silent constant
# regression); cursor_reuses is its complement and "more is better", which
# this worse-when-higher comparator cannot express, so it stays report-only.
RATE_COUNTERS = ("hash_probes", "probes_lookup", "probes_chain",
                 "probes_binsearch", "node_hops", "hops_top",
                 "hops_descent", "walk_fallbacks", "restarts",
                 "cursor_redescends")

# Schema-v7 leaf counters, compared only on single-thread u64 cells: the
# modeled bytes_touched / chunk_scans rates are deterministic there, while
# under concurrency the seqlock retry and maintenance-skip paths make them
# interleaving-dependent (and the bytes16 instantiation is still
# report-only, like its step counts).  chunk_splits / chunk_merges are
# intentionally absent: their rate is a property of the key stream's churn,
# not a cost, and "more merges" is not by itself worse.
LEAF_RATE_COUNTERS = ("bytes_touched", "chunk_scans")


def cells_of(doc):
    cells = {}
    for cell in doc.get("cells", []):
        if cell.get("section") in V8_ONLY_SECTIONS:
            continue
        key = tuple(cell.get(k, JOIN_DEFAULTS.get(k)) for k in JOIN_KEY)
        cells[key] = cell
    return cells


def load_cells(path):
    with open(path) as f:
        doc = json.load(f)
    return doc, cells_of(doc)


def self_test():
    """Unit test of the cross-version join: a pre-v5 cell (no `shards` key)
    must land on the v5 cell with shards == 1 and on nothing else; a pre-v6
    cell (no `key_kind`) must land on the v6 cell with key_kind == "u64" and
    never on a bytes16 cell."""
    def cell(**kw):
        c = {"section": "grid", "structure": "skiptrie", "universe_bits": 32,
             "threads": 1, "mix": "balanced", "dist": "uniform", "repeat": 0,
             "total_ops": 100, "steps_per_op": {"search": 5.0, "total": 9.0},
             "steps": {"node_hops": 300, "hash_probes": 200}}
        c.update(kw)
        return c

    # v4 baseline: no `shards` axis at all (and one cell without batch_size,
    # exercising the older default too).
    v4 = {"schema_version": 4, "cells": [
        cell(batch_size=1),
        cell(batch_size=16),
        cell(dist="zipf"),  # no batch_size key -> defaults to 1
    ]}
    # v5 candidate: every cell carries shards; one sharded cell is new.
    v5 = {"schema_version": 5, "cells": [
        cell(batch_size=1, shards=1,
             steps_per_op={"search": 5.5, "total": 9.5}),
        cell(batch_size=16, shards=1),
        cell(dist="zipf", batch_size=1, shards=1),
        cell(batch_size=1, shards=4, structure="sharded"),
    ]}
    base, cand = cells_of(v4), cells_of(v5)
    shared = set(base) & set(cand)
    assert len(shared) == 3, \
        "expected all 3 v4 cells to join v5 shards=1 cells, got %d" % \
        len(shared)
    si = JOIN_KEY.index("shards")
    assert all(k[si] == 1 for k in shared), "v4 cells must join as shards=1"
    unmatched = set(cand) - set(base)
    assert len(unmatched) == 1 and next(iter(unmatched))[si] == 4, \
        "the shards=4 cell must NOT join any v4 cell"
    # --max-shards filtering keeps only shards <= N.
    kept = [k for k in cand if k[si] is not None and k[si] <= 1]
    assert len(kept) == 3, "--max-shards 1 must drop exactly the 4-shard cell"
    # Joined metrics compare the same named counters on both sides.
    joined_key = next(k for k in shared if k[JOIN_KEY.index("dist")] ==
                      "uniform" and k[JOIN_KEY.index("batch_size")] == 1)
    mb, mc = metrics_of(base[joined_key]), metrics_of(cand[joined_key])
    assert mb["steps_per_op.search"] == 5.0
    assert abs(mc["steps_per_op.search"] - 5.5) < 1e-9
    assert "steps.node_hops/op" in mb and "steps.node_hops/op" in mc

    # v5 -> v6: the key_kind axis.  A v5 cell (no key_kind) joins the v6
    # u64 cell; the bytes16 twin of the same cell must stay unmatched.
    v6 = {"schema_version": 6, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64"),
        cell(batch_size=1, shards=1, key_kind="bytes16",
             section="bytes16"),
        cell(batch_size=1, shards=1, key_kind="bytes16"),  # same axes, wide
    ]}
    cand6 = cells_of(v6)
    shared6 = set(cells_of(v5)) & set(cand6)
    ki = JOIN_KEY.index("key_kind")
    assert len(shared6) == 1 and next(iter(shared6))[ki] == "u64", \
        "a pre-v6 cell must join exactly the key_kind='u64' v6 cell"
    # --key-kind filtering keeps only the named instantiation.
    kept6 = [k for k in cand6 if k[ki] == "u64"]
    assert len(kept6) == 1, "--key-kind u64 must drop both bytes16 cells"

    # v6 -> v7: the leaf_chunking axis.  A v6 cell (no leaf_chunking key)
    # joins exactly the v7 cell with leaf_chunking == True; the chunking-off
    # twin must stay unmatched.  The v7 leaf counters are compared on the
    # single-thread u64 cell and suppressed on a 4-thread twin.
    v6b = {"schema_version": 6, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64"),
    ]}
    v7 = {"schema_version": 7, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64", leaf_chunking=True,
             steps={"node_hops": 300, "hash_probes": 200,
                    "bytes_touched": 6400, "chunk_scans": 60}),
        cell(batch_size=1, shards=1, key_kind="u64", leaf_chunking=False),
        cell(batch_size=1, shards=1, key_kind="u64", leaf_chunking=True,
             threads=4,
             steps={"node_hops": 300, "bytes_touched": 6400}),
    ]}
    cand7 = cells_of(v7)
    shared7 = set(cells_of(v6b)) & set(cand7)
    li = JOIN_KEY.index("leaf_chunking")
    assert len(shared7) == 1 and next(iter(shared7))[li] is True, \
        "a pre-v7 cell must join exactly the leaf_chunking=True v7 cell"
    m1 = metrics_of(cand7[next(iter(shared7))])
    assert abs(m1["steps.bytes_touched/op"] - 64.0) < 1e-9
    assert "steps.chunk_scans/op" in m1
    mt = metrics_of(next(c for c in v7["cells"] if c.get("threads") == 4))
    assert "steps.bytes_touched/op" not in mt, \
        "leaf counters must be gated off multi-thread cells"

    # v7 -> v8: the zipf_drift axis.  A v7 cell (no zipf_drift key) joins
    # exactly the v8 cell with zipf_drift == False; the drift twin must
    # stay unmatched.
    v7b = {"schema_version": 7, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64", leaf_chunking=True),
    ]}
    v8 = {"schema_version": 8, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64", leaf_chunking=True,
             adaptive_heights=True, zipf_drift=False, use_finger=True,
             steps={"node_hops": 250, "hash_probes": 200,
                    "finger_hits": 40, "finger_misses": 60,
                    "hops_finger_saved": 90, "adapt_checks": 12,
                    "promotions": 3, "demotions": 1}),
        cell(batch_size=1, shards=1, key_kind="u64", leaf_chunking=True,
             adaptive_heights=True, zipf_drift=True),
        # The v8-only ablation: on/off twins differing only in the
        # adaptation axis.
        cell(section="toplevel_ablation", batch_size=1, shards=1,
             key_kind="u64", leaf_chunking=False, adaptive_heights=True,
             zipf_drift=False, use_finger=False),
        cell(section="toplevel_ablation", batch_size=1, shards=1,
             key_kind="u64", leaf_chunking=False, adaptive_heights=False,
             zipf_drift=False, use_finger=False),
    ]}
    cand8 = cells_of(v8)
    shared8 = set(cells_of(v7b)) & set(cand8)
    di = JOIN_KEY.index("zipf_drift")
    assert len(shared8) == 1 and next(iter(shared8))[di] is False, \
        "a pre-v8 cell must join exactly the zipf_drift=False v8 cell"

    # v8 -> v9: the adaptation axis and the finger flag are gone.  The v8
    # grid cell joins the v9 grid cell on the remaining axes; the v8-only
    # toplevel_ablation twins are skipped on load rather than colliding on
    # one key; and no finger or policy counter is ever a compared metric.
    v9 = {"schema_version": 9, "cells": [
        cell(batch_size=1, shards=1, key_kind="u64", leaf_chunking=True,
             zipf_drift=False,
             steps={"node_hops": 400, "hash_probes": 300}),
        cell(batch_size=1, shards=1, key_kind="u64", leaf_chunking=True,
             zipf_drift=True),
    ]}
    cand9 = cells_of(v9)
    assert len(cand8) == 2, \
        "v8 toplevel_ablation cells must be skipped, got %d cells" % \
        len(cand8)
    shared9 = set(cand8) & set(cand9)
    assert len(shared9) == 2, \
        "both v8 grid cells must join their v9 twins, got %d" % len(shared9)
    k9 = next(k for k in shared9 if k[di] is False)
    m8, m9 = metrics_of(cand8[k9]), metrics_of(cand9[k9])
    assert abs(m8["steps.node_hops/op"] - 2.5) < 1e-9
    assert abs(m9["steps.node_hops/op"] - 4.0) < 1e-9
    assert not any(w in n for n in m8 for w in
                   ("finger", "promotions", "demotions", "adapt_checks")), \
        "finger and policy counters must never be compared"
    print("compare_bench --self-test: ok (join v4->v5->v6->v7->v8->v9, "
          "shards/key_kind/leaf_chunking/zipf_drift defaults, "
          "--max-shards/--key-kind filters, single-thread leaf-counter "
          "gate, v8-only section skip)")
    return 0


def metrics_of(cell):
    """Flatten one cell into {metric_name: per-op value}."""
    out = {}
    spo = cell.get("steps_per_op", {})
    for name in ("search", "total"):
        if name in spo:
            out["steps_per_op.%s" % name] = spo[name]
    ops = cell.get("total_ops", 0)
    steps = cell.get("steps", {})
    if ops:
        for name in RATE_COUNTERS:
            if name in steps:
                out["steps.%s/op" % name] = steps[name] / ops
        if (cell.get("threads", 1) == 1 and
                cell.get("key_kind", "u64") == "u64"):
            for name in LEAF_RATE_COUNTERS:
                if name in steps:
                    out["steps.%s/op" % name] = steps[name] / ops
    pred = cell.get("per_op", {}).get("predecessor")
    if pred and "search_steps_per_op" in pred:
        out["per_op.predecessor.search_steps_per_op"] = \
            pred["search_steps_per_op"]
    return out


def main():
    ap = argparse.ArgumentParser(
        description="diff two BENCH_suite.json files on steps/op and "
                    "probe counters")
    ap.add_argument("baseline", nargs="?", help="older suite JSON")
    ap.add_argument("candidate", nargs="?", help="newer suite JSON")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in join unit test and exit")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative worsening that counts as a regression "
                         "(default 0.10 = 10%%)")
    ap.add_argument("--min-rate", type=float, default=0.05,
                    help="ignore metrics below this per-op rate in both "
                         "files (noise floor, default 0.05)")
    ap.add_argument("--fail-on-regress", action="store_true",
                    help="exit 1 when regressions are found (default: "
                         "report only)")
    ap.add_argument("--max-threads", type=int, default=None,
                    help="only compare cells with threads <= N (multi-"
                         "thread step counts vary with interleaving and "
                         "host parallelism; single-thread cells are "
                         "deterministic up to cell order)")
    ap.add_argument("--max-shards", type=int, default=None,
                    help="only compare cells with shards <= N (multi-shard "
                         "service cells interleave across workers; the "
                         "shards=1 cells are the deterministic ones)")
    ap.add_argument("--key-kind", default=None,
                    help="only compare cells with this key_kind (e.g. "
                         "'u64': the gated fast path whose step counts are "
                         "pinned; 'bytes16' cells stay report-only until "
                         "their variance is characterized)")
    ap.add_argument("--top", type=int, default=20,
                    help="show at most N worst regressions / best "
                         "improvements (default 20)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.candidate is None:
        ap.error("baseline and candidate are required unless --self-test")

    base_doc, base = load_cells(args.baseline)
    cand_doc, cand = load_cells(args.candidate)

    shared = sorted(set(base) & set(cand), key=lambda k: tuple(map(str, k)))
    if args.max_threads is not None:
        ti = JOIN_KEY.index("threads")
        shared = [k for k in shared
                  if k[ti] is not None and k[ti] <= args.max_threads]
    if args.max_shards is not None:
        si = JOIN_KEY.index("shards")
        shared = [k for k in shared
                  if k[si] is not None and k[si] <= args.max_shards]
    if args.key_kind is not None:
        ki = JOIN_KEY.index("key_kind")
        shared = [k for k in shared if k[ki] == args.key_kind]
    if not shared:
        print("compare_bench: no joinable cells between %s and %s "
              "(different axes?)" % (args.baseline, args.candidate))
        print("  baseline: %d cells, schema v%s" %
              (len(base), base_doc.get("schema_version")))
        print("  candidate: %d cells, schema v%s" %
              (len(cand), cand_doc.get("schema_version")))
        return 0

    regressions = []   # (rel_change, key, metric, old, new)
    improvements = []
    new_metrics = set()
    for key in shared:
        mb = metrics_of(base[key])
        mc = metrics_of(cand[key])
        for name, new_v in mc.items():
            if name not in mb:
                new_metrics.add(name)
                continue
            old_v = mb[name]
            if max(old_v, new_v) < args.min_rate:
                continue
            if old_v <= 0:
                continue
            rel = (new_v - old_v) / old_v
            row = (rel, key, name, old_v, new_v)
            if rel > args.threshold:
                regressions.append(row)
            elif rel < -args.threshold:
                improvements.append(row)

    def fmt(row):
        rel, key, name, old_v, new_v = row
        cell = "/".join(str(v) for v in key)
        return "  %+7.1f%%  %-45s %s: %.3f -> %.3f" % (
            rel * 100, name, cell, old_v, new_v)

    print("compare_bench: %d joinable cells "
          "(baseline %s @ %s, candidate %s @ %s)" %
          (len(shared), args.baseline, base_doc.get("git_rev", "?"),
           args.candidate, cand_doc.get("git_rev", "?")))
    if new_metrics:
        print("metrics only in candidate (schema additions, not compared): "
              + ", ".join(sorted(new_metrics)))

    regressions.sort(key=lambda r: -r[0])
    improvements.sort(key=lambda r: r[0])
    print("\n%d regressions beyond %.0f%%:" %
          (len(regressions), args.threshold * 100))
    for row in regressions[:args.top]:
        print(fmt(row))
    if len(regressions) > args.top:
        print("  ... and %d more" % (len(regressions) - args.top))
    print("\n%d improvements beyond %.0f%%:" %
          (len(improvements), args.threshold * 100))
    for row in improvements[:args.top]:
        print(fmt(row))
    if len(improvements) > args.top:
        print("  ... and %d more" % (len(improvements) - args.top))

    if regressions and args.fail_on_regress:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

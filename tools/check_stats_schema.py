#!/usr/bin/env python3
"""Validate the stats trees embedded in a suite --json report.

Checks, for every micro/whisper row and every scheme:

  * the embedded stats tree has the expected shape: the System-level
    counters and cycle-attribution scalars, the dtlb/dcache/events
    child groups, and a child group named after the scheme. Rows from
    a multi-core sweep (row key "cores" > 1) instead carry one
    core<k> child group per core — each with the private dtlb/dcache
    hierarchies and the per-core scalars — plus the shared
    shootdown_bus group, and the per-core cycles must sum back to the
    System total;
  * the seven cyc_* attribution buckets sum exactly to the scheme's
    total cycles (the paper's Table VII methodology requires the
    breakdown to explain where the time went; every counter is an
    exact integer, so this model attributes every cycle);
  * the stats tree's `cycles` equals the row's total_cycles entry;
  * the event ring's `recorded` count is consistent with `dropped`;
  * when the run sampled a timeline (`timeline.epoch_cycles` > 0),
    every track has one delta per epoch and the per-epoch deltas sum
    exactly to the same-named aggregate scalar — the reconstruction
    invariant stats::TimeSeries guarantees;
  * every row's `hot_domains` tables are well-formed (per-scheme
    arrays of domain rows with the five attribution counters);
  * every server row (the fig_tail KV sweep) carries a per-scheme
    latency block with the tail quantiles (p50/p99/p999), the
    queueing-delay quantiles (queue_p50/queue_p99), and one block per
    tenant class whose sample counts partition the total — and the
    quantiles are recomputed here, from the op_lat/op_queue histograms
    embedded in the same row's stats trees, with a Python mirror of
    stats::quantileFromBuckets that must agree bit for bit;
  * when a server row ran with tail forensics on (a `slow_requests`
    digest in its stats trees), the digest is validated end to end:
    at most K entries, sorted by latency, every entry's breakdown
    (queue + the seven cyc_* buckets + residue) recomputed here and
    required to equal its latency exactly, every blamed event id
    resolving to a real EventRing post (1 <= id <= events.recorded)
    inside the request's [begin, commit] window, and the row's
    `blame` summary block recomputed from the digest + p99.

With --diff A B, additionally asserts that two reports are identical
except for the run-environment fields (wall_seconds, jobs) — the
cross---jobs determinism guarantee.

With --trace FILE, additionally validates a Chrome trace-event JSON
written by --trace-out (pmodv-trace / the bench binaries): the
document must parse, have a non-empty traceEvents array, name every
track, and contain at least one duration span and one counter sample.

Exit status 0 on success; prints offending paths and exits 1 on any
violation.
"""

import argparse
import json
import math
import sys

REQUIRED_SCALARS = [
    "cycles",
    "instructions",
    "mem_accesses",
    "operations",
    "cyc_issue",
    "cyc_mem",
    "cyc_prot_fill",
    "cyc_prot_check",
    "cyc_perm_instr",
    "cyc_syscall",
    "cyc_ctx_switch",
]

ATTRIBUTION = [
    "cyc_issue",
    "cyc_mem",
    "cyc_prot_fill",
    "cyc_prot_check",
    "cyc_perm_instr",
    "cyc_syscall",
    "cyc_ctx_switch",
]

REQUIRED_CHILDREN = ["dtlb", "dcache", "events"]

# Per-core context scalars (core<k> groups of a multi-core tree).
CORE_SCALARS = [
    "cycles",
    "instructions",
    "mem_accesses",
    "ctx_switches",
    "ipis_responded",
    "ipis_filtered",
]

# Private per-core hierarchies inside each core<k> group.
CORE_CHILDREN = ["dtlb", "dcache"]

# Shared shootdown-bus counters (multi-core trees only).
BUS_SCALARS = [
    "broadcasts",
    "ipis_sent",
    "ipis_responded",
    "ipis_filtered",
    "pages_invalidated",
]

errors = []
# Stats trees and timeline tracks whose sums were checked (for the
# summary line).
checked = {"trees": 0, "tracks": 0}


def fail(path, message):
    errors.append(f"{path}: {message}")


def check_stats_tree(path, scheme, stats, expected_total, cores=1):
    for key in REQUIRED_SCALARS:
        if key not in stats:
            fail(path, f"missing scalar '{key}'")
    if cores > 1:
        check_multicore_tree(path, stats, cores)
    else:
        # Single-core trees keep the private hierarchies at top level.
        for child in REQUIRED_CHILDREN:
            if not isinstance(stats.get(child), dict):
                fail(path, f"missing child group '{child}'")
    # Every scheme's stats subtree is attached under its scheme name
    # (NoProtection is named "none" etc. — same name as the JSON key).
    if not isinstance(stats.get(scheme), dict):
        fail(path, f"missing scheme child group '{scheme}'")

    total = stats.get("cycles", 0)
    if expected_total is not None and total != expected_total:
        fail(path, f"stats cycles {total} != total_cycles "
                   f"{expected_total}")
    attributed = sum(stats.get(k, 0) for k in ATTRIBUTION)
    if attributed != total:
        fail(path, f"attribution buckets sum to {attributed}, "
                   f"not the {total} total cycles")
    checked["trees"] += 1

    events = stats.get("events")
    if isinstance(events, dict):
        if events.get("dropped", 0) > events.get("recorded", 0):
            fail(path, "event ring dropped more than it recorded")

    check_timeline(path, stats)


def check_multicore_tree(path, stats, cores):
    """Shape of a K-core tree: core<k> groups + the shootdown bus.

    The per-core hierarchies move under their core<k> group, the
    events ring stays shared at System level, and the per-core cycle
    counters must sum back to the System total (replayBatch charges
    every cycle to exactly one core).
    """
    if not isinstance(stats.get("events"), dict):
        fail(path, "missing child group 'events'")
    per_core_cycles = 0
    for k in range(cores):
        name = f"core{k}"
        core = stats.get(name)
        if not isinstance(core, dict):
            fail(path, f"missing per-core group '{name}'")
            continue
        for key in CORE_SCALARS:
            if key not in core:
                fail(f"{path}.{name}", f"missing scalar '{key}'")
        for child in CORE_CHILDREN:
            if not isinstance(core.get(child), dict):
                fail(f"{path}.{name}", f"missing child group '{child}'")
        per_core_cycles += core.get("cycles", 0)
    total = stats.get("cycles", 0)
    if per_core_cycles != total:
        fail(path, f"per-core cycles sum to {per_core_cycles}, "
                   f"System total is {total}")
    bus = stats.get("shootdown_bus")
    if not isinstance(bus, dict):
        fail(path, "missing child group 'shootdown_bus'")
    else:
        for key in BUS_SCALARS:
            if key not in bus:
                fail(f"{path}.shootdown_bus", f"missing scalar '{key}'")
        if bus.get("ipis_responded", 0) + bus.get("ipis_filtered", 0) \
                != bus.get("ipis_sent", 0):
            fail(f"{path}.shootdown_bus",
                 "ipis_responded + ipis_filtered != ipis_sent")


def check_timeline(path, stats):
    timeline = stats.get("timeline")
    if not isinstance(timeline, dict):
        return
    epoch_cycles = timeline.get("epoch_cycles", 0)
    if epoch_cycles == 0:
        return  # Sampling was off for this run.
    epochs = timeline.get("epochs")
    tracks = timeline.get("tracks")
    if not isinstance(epochs, int) or epochs <= 0:
        fail(path, f"timeline has bad epoch count {epochs!r}")
        return
    if not isinstance(tracks, dict) or not tracks:
        fail(path, "enabled timeline has no tracks")
        return
    for label, deltas in tracks.items():
        tpath = f"{path}.timeline.{label}"
        if not isinstance(deltas, list) or len(deltas) != epochs:
            fail(tpath, f"expected {epochs} epoch deltas, got "
                        f"{len(deltas) if isinstance(deltas, list) else deltas!r}")
            continue
        # Reconstruction invariant: deltas sum to the same-named
        # aggregate (only checkable for System-level scalars that
        # live in the same tree node).
        if label in stats and isinstance(stats[label], (int, float)):
            total = stats[label]
            if sum(deltas) != total:
                fail(tpath, f"epoch deltas sum to {sum(deltas)}, "
                            f"aggregate is {total}")
            checked["tracks"] += 1


HOT_DOMAIN_KEYS = ["domain", "accesses", "fill_misses", "evictions",
                   "shootdown_pages", "setperms"]


def check_hot_domains(path, row):
    tables = row.get("hot_domains")
    if not isinstance(tables, dict):
        fail(path, "row has no hot_domains tables")
        return
    for scheme, rows in tables.items():
        hpath = f"{path}.hot_domains.{scheme}"
        if not isinstance(rows, list):
            fail(hpath, "not a JSON array")
            continue
        for entry in rows:
            for key in HOT_DOMAIN_KEYS:
                value = entry.get(key)
                if not isinstance(value, int) or value < 0:
                    fail(hpath, f"bad '{key}' in {entry}")


def check_row(path, row):
    stats = row.get("stats")
    if not isinstance(stats, dict) or not stats:
        fail(path, "row has no embedded stats trees")
        return
    totals = row.get("total_cycles", {})
    cores = row.get("cores", 1)
    if not isinstance(cores, int) or cores < 1:
        fail(path, f"bad 'cores' value {cores!r}")
        cores = 1
    for scheme, tree in stats.items():
        check_stats_tree(f"{path}.stats.{scheme}", scheme, tree,
                         totals.get(scheme), cores)
    # The row-level IPI aggregate is lifted straight off the bus.
    # Baseline trees (none/lowerbound) ride along in `stats` without a
    # row entry, so only cross-check the schemes the sweep reported.
    ipis = row.get("ipis_responded", {})
    if cores > 1:
        for scheme, reported in ipis.items():
            bus = stats.get(scheme, {}).get("shootdown_bus", {})
            if isinstance(bus, dict) and \
                    reported != bus.get("ipis_responded"):
                fail(f"{path}.ipis_responded.{scheme}",
                     f"row says {reported!r}, bus says "
                     f"{bus.get('ipis_responded')!r}")
    events = row.get("events")
    if not isinstance(events, dict):
        fail(path, "row has no embedded event arrays")
        return
    for scheme, ring in events.items():
        if not isinstance(ring, list):
            fail(f"{path}.events.{scheme}", "not a JSON array")
            continue
        # Forensics-on rows stamp each embedded event with its ring id
        # (monotone post order) and the tagging request id. The fields
        # are all-or-nothing per row: a forensics-off row must not
        # carry them at all (golden byte-layout guarantee).
        with_ids = [ev for ev in ring if "id" in ev]
        if with_ids and len(with_ids) != len(ring):
            fail(f"{path}.events.{scheme}",
                 "only some events carry forensics ids")
        prev_id = 0
        for ev in with_ids:
            if ev["id"] <= prev_id:
                fail(f"{path}.events.{scheme}",
                     f"event ids not monotone at {ev['id']}")
            prev_id = ev["id"]
            if "req" not in ev or not isinstance(ev["req"], int) \
                    or ev["req"] < 0:
                fail(f"{path}.events.{scheme}",
                     f"event id {ev['id']} has a bad req tag")
    check_hot_domains(path, row)


def quantile_from_buckets(samples, lo, hi, buckets, q):
    """Mirror of stats::quantileFromBuckets (stats.cc), bit for bit.

    `buckets` is the exported histogram form: a list of {lo, hi?,
    count} dicts where a missing "hi" marks the unbounded top bucket.
    Nearest-rank with evenly-spaced within-bucket interpolation; the
    extremes answer from the tracked min/max exactly.
    """
    if samples == 0:
        return 0.0
    k = math.ceil(q * samples)
    k = min(max(k, 1), samples)
    if k == 1:
        return float(lo)
    if k == samples:
        return float(hi)
    cum = 0
    for b in buckets:
        count = b["count"]
        if count == 0:
            continue
        if k > cum + count:
            cum += count
            continue
        blo = max(b["lo"], lo)
        bhi = hi if "hi" not in b else min(b["hi"] - 1, hi)
        if bhi <= blo or count == 1:
            return float(blo)
        idx = k - cum  # 1-based within the bucket.
        return float(blo) + float(bhi - blo) * ((idx - 1) / (count - 1))
    return float(hi)


def histogram_quantile(hist, q):
    """Quantile of an exported {samples,min,max,buckets} histogram."""
    return quantile_from_buckets(hist["samples"], hist["min"],
                                 hist["max"], hist["buckets"], q)


LATENCY_QUANTILES = [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)]
QUEUE_QUANTILES = [("queue_p50", 0.50), ("queue_p99", 0.99)]


def check_latency_block(path, block, lat_hist, queue_hist):
    """One scheme's (or class's) latency block vs its histograms."""
    for key in ("samples", "p50", "p99", "p999",
                "queue_p50", "queue_p99"):
        if key not in block:
            fail(path, f"missing latency field '{key}'")
            return
    if block["p50"] > block["p99"] or block["p99"] > block["p999"]:
        fail(path, "latency quantiles not monotone in q")
    if block["queue_p50"] > block["queue_p99"]:
        fail(path, "queueing quantiles not monotone in q")
    for hist, pairs in ((lat_hist, LATENCY_QUANTILES),
                        (queue_hist, QUEUE_QUANTILES)):
        if hist is None:
            continue
        if hist["samples"] != block["samples"]:
            fail(path, f"histogram has {hist['samples']} samples, "
                       f"latency block says {block['samples']}")
            continue
        for key, q in pairs:
            want = histogram_quantile(hist, q)
            if block[key] != want:
                fail(path, f"recomputed {key} {want!r} != reported "
                           f"{block[key]!r}")


DIGEST_BUCKETS = ATTRIBUTION  # Same seven names, same order.


def find_slow_digest(tree, name="slow_requests"):
    """Depth-first search for a digest object inside a stats tree."""
    if not isinstance(tree, dict):
        return None
    for key, value in tree.items():
        if key == name and isinstance(value, dict) and "entries" in value:
            return value
        hit = find_slow_digest(value, name)
        if hit is not None:
            return hit
    return None


def check_slow_digest(path, digest, recorded, cls=None):
    """One digest: K bound, ordering, the latency partition, and
    blamed-event referential integrity against the ring's post count.

    Returns the entry list for the caller's blame cross-check.
    """
    k = digest.get("k", 0)
    entries = digest.get("entries")
    if not isinstance(entries, list):
        fail(path, "digest has no entries array")
        return []
    if len(entries) > k:
        fail(path, f"{len(entries)} entries exceed the K bound {k}")
    if digest.get("offered", 0) < len(entries):
        fail(path, "digest retained more entries than were offered")
    prev_latency = None
    for i, e in enumerate(entries):
        epath = f"{path}.entries[{i}]"
        latency = e.get("latency", 0)
        if prev_latency is not None and latency > prev_latency:
            fail(epath, "entries not sorted by latency descending")
        prev_latency = latency
        if cls is not None and e.get("class") != cls:
            fail(epath, f"class {e.get('class')!r} in the class-{cls} "
                        "digest")
        # The partition invariant, recomputed here: queueing + the
        # seven service buckets + residue must equal the request's
        # arrival-to-completion latency exactly (integers, no slack).
        buckets = e.get("buckets", {})
        missing = [b for b in DIGEST_BUCKETS if b not in buckets]
        if missing:
            fail(epath, f"missing bucket(s) {missing}")
            continue
        service = sum(buckets[b] for b in DIGEST_BUCKETS)
        total = e.get("queue", 0) + service + e.get("residue", 0)
        if total != latency:
            fail(epath, f"queue+buckets+residue = {total} but "
                        f"latency = {latency}")
        begin, commit = e.get("begin", 0), e.get("commit", 0)
        if begin > commit:
            fail(epath, f"begin {begin} after commit {commit}")
        prev_id = 0
        for j, ev in enumerate(e.get("events", [])):
            vpath = f"{epath}.events[{j}]"
            ev_id = ev.get("id", 0)
            # Ids are 1-based monotone post counts: every blamed id
            # must name an event the ring actually recorded.
            if not 1 <= ev_id <= recorded:
                fail(vpath, f"event id {ev_id} outside the ring's "
                            f"recorded range [1, {recorded}]")
            if ev_id <= prev_id:
                fail(vpath, "blame chain not in post order")
            prev_id = ev_id
            if not begin <= ev.get("cycle", 0) <= commit:
                fail(vpath, f"event cycle {ev.get('cycle')} outside "
                            f"the request window [{begin}, {commit}]")
            if ev.get("kind") == "txn_commit":
                fail(vpath, "commit markers must not be blamed")
    return entries


def check_blame_block(path, blame, entries, p99):
    """The row's blame summary, recomputed from the digest entries."""
    for key in ("k", "entries", "cohort", "cohort_queue_share",
                "blamed_events", "blamed_by_kind", "top_domain",
                "top_domain_entries"):
        if key not in blame:
            fail(path, f"missing blame field '{key}'")
            return
    if blame["entries"] != len(entries):
        fail(path, f"blame says {blame['entries']} entries, digest "
                   f"has {len(entries)}")
    cohort = [e for e in entries if e.get("latency", 0) >= p99]
    if blame["cohort"] != len(cohort):
        fail(path, f"blame cohort {blame['cohort']} != recomputed "
                   f"{len(cohort)}")
    lat_sum = sum(e.get("latency", 0) for e in cohort)
    queue_sum = sum(e.get("queue", 0) for e in cohort)
    want_share = queue_sum / lat_sum if lat_sum else 0.0
    if abs(blame["cohort_queue_share"] - want_share) > 1e-12:
        fail(path, f"cohort_queue_share {blame['cohort_queue_share']!r}"
                   f" != recomputed {want_share!r}")
    blamed = sum(len(e.get("events", [])) + e.get("events_dropped", 0)
                 for e in cohort)
    if blame["blamed_events"] != blamed:
        fail(path, f"blamed_events {blame['blamed_events']} != "
                   f"recomputed {blamed}")


def check_server_forensics(path, row, scheme, tree, p99):
    """Digest + blame validation for one scheme of a server row."""
    digest = find_slow_digest(tree)
    blame = row.get("blame", {}).get(scheme) if \
        isinstance(row.get("blame"), dict) else None
    if digest is None:
        if blame is not None:
            fail(f"{path}.blame.{scheme}",
                 "blame block without a slow_requests digest")
        return
    recorded = tree.get("events", {}).get("recorded", 0)
    entries = check_slow_digest(f"{path}.stats.{scheme}.slow_requests",
                                digest, recorded)
    # Per-class digests ride alongside; same checks, pinned class.
    for c in range(64):
        class_digest = find_slow_digest(tree, f"slow_requests_class{c}")
        if class_digest is None:
            break
        check_slow_digest(
            f"{path}.stats.{scheme}.slow_requests_class{c}",
            class_digest, recorded, cls=c)
    if blame is None:
        fail(f"{path}.blame.{scheme}",
             "digest present but no blame summary in the row")
        return
    check_blame_block(f"{path}.blame.{scheme}", blame, entries, p99)


def check_server_row(path, row):
    check_row(path, row)
    for key in ("tenants", "requests", "mean_interarrival_cycles"):
        value = row.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(path, f"bad '{key}' value {value!r}")
    latency = row.get("latency")
    if not isinstance(latency, dict) or not latency:
        fail(path, "server row has no latency blocks")
        return
    stats = row.get("stats", {})
    for scheme, block in latency.items():
        lpath = f"{path}.latency.{scheme}"
        tree = stats.get(scheme, {})
        check_latency_block(lpath, block, tree.get("op_lat"),
                            tree.get("op_queue"))
        check_server_forensics(path, row, scheme, tree,
                               block.get("p99", 0))
        classes = block.get("classes")
        if not isinstance(classes, list) or not classes:
            fail(lpath, "no per-class latency blocks")
            continue
        class_samples = 0
        for i, cls in enumerate(classes):
            cpath = f"{lpath}.classes[{i}]"
            if not isinstance(cls.get("class"), str):
                fail(cpath, "class block has no name")
            check_latency_block(cpath, cls,
                                tree.get(f"op_lat_class{i}"),
                                tree.get(f"op_queue_class{i}"))
            class_samples += cls.get("samples", 0)
        if "samples" in block and class_samples != block["samples"]:
            fail(lpath, f"class samples sum to {class_samples}, "
                        f"total is {block['samples']}")


def check_perfetto_trace(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"trace does not parse: {e}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(path, "trace has no traceEvents")
        return
    phases = {}
    for ev in events:
        if not isinstance(ev, dict) or "ph" not in ev or "pid" not in ev:
            fail(path, f"malformed trace event {ev!r}")
            return
        phases[ev["ph"]] = phases.get(ev["ph"], 0) + 1
    tracks = [ev for ev in events
              if ev["ph"] == "M" and ev.get("name") == "process_name"]
    if not tracks:
        fail(path, "trace names no tracks (process_name metadata)")
    if phases.get("X", 0) == 0:
        fail(path, "trace has no duration spans (ph X)")
    if phases.get("C", 0) == 0:
        fail(path, "trace has no counter samples (ph C)")
    print(f"ok: {path}: {len(events)} events on {len(tracks)} "
          f"track(s), phases {phases}")


def check_report(path, report):
    rows = report.get("micro", []) + report.get("whisper", [])
    server = report.get("server", [])
    if not rows and not server:
        fail(path, "report has no rows")
    for i, row in enumerate(rows):
        name = row.get("benchmark", f"#{i}")
        check_row(f"{path}:{name}[{i}]", row)
    for i, row in enumerate(server):
        name = row.get("benchmark", f"#{i}")
        check_server_row(f"{path}:server/{name}[{i}]", row)


def strip_environment(report):
    """Remove fields legitimately differing between runs."""
    report = dict(report)
    report.pop("wall_seconds", None)
    report.pop("jobs", None)
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reports", nargs="*",
                        help="suite --json report file(s)")
    parser.add_argument("--diff", action="store_true",
                        help="require all reports identical modulo "
                             "wall_seconds/jobs")
    parser.add_argument("--trace", action="append", default=[],
                        help="also validate a --trace-out Chrome "
                             "trace-event JSON (repeatable)")
    args = parser.parse_args()
    if not args.reports and not args.trace:
        parser.error("nothing to check: pass report(s) and/or --trace")

    for path in args.trace:
        check_perfetto_trace(path)

    parsed = []
    for path in args.reports:
        with open(path) as f:
            report = json.load(f)
        check_report(path, report)
        parsed.append((path, report))

    if args.diff:
        if len(parsed) < 2:
            print("--diff needs at least two reports", file=sys.stderr)
            return 2
        base_path, base = parsed[0]
        base_stripped = strip_environment(base)
        for path, report in parsed[1:]:
            if strip_environment(report) != base_stripped:
                fail(path, f"differs from {base_path} beyond "
                           "wall_seconds/jobs")

    if errors:
        for e in errors:
            print(f"FAIL {e}", file=sys.stderr)
        return 1
    n = len(parsed)
    print(f"ok: {n} report(s) validated ({checked['trees']} stats "
          f"trees, {checked['tracks']} timeline tracks summed exactly)" +
          (", identical modulo run environment" if args.diff else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

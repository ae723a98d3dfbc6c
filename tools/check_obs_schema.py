#!/usr/bin/env python3
"""Validate an obs JSON snapshot (obs::to_json) against the v1 schema.

Stdlib-only, used by CI after running example_observability_tour:

    python3 tools/check_obs_schema.py OBS_snapshot.json

Checks layout (required keys, types), the event vocabulary, journal
bookkeeping invariants (recorded = dropped + events held, non-decreasing
step stamps), and histogram bucket structure. Exits non-zero with a
message per violation.
"""
import json
import sys

SCHEMA_VERSION = 1

# Enum order of obs::EventKind — the first component of the canonical
# per-step sort key (kind, entity, unit, a, b).
EVENT_KINDS = [
    "fault_onset",
    "degraded_vote",
    "degraded_decode",
    "checksum_reject",
    "uncorrectable",
    "relocation",
    "scrub_repair",
    "wrong_read",
    "rehash",
    "cache_invalidate_dead",
    "cache_invalidate_scrub",
    "checkpoint_begin",
    "checkpoint_end",
    "wal_replay",
]
EVENT_KIND_INDEX = {kind: i for i, kind in enumerate(EVENT_KINDS)}

PHASES = {
    "plan_build",
    "serve",
    "engine_schedule",
    "value_phase",
    "decode",
    "encode",
    "scrub",
    "oracle",
    "adversary",
    "trace_gen",
}


def fail(errors, msg):
    errors.append(msg)


def check_uint(errors, obj, key, where):
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        fail(errors, f"{where}: '{key}' must be a non-negative integer, "
                     f"got {value!r}")
        return None
    return value


def check_snapshot(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["top level: expected a JSON object"]

    version = doc.get("obs_schema_version")
    if version != SCHEMA_VERSION:
        fail(errors, f"obs_schema_version: expected {SCHEMA_VERSION}, "
                     f"got {version!r}")
    if not isinstance(doc.get("compiled"), bool):
        fail(errors, "'compiled' must be a boolean")
    check_uint(errors, doc, "sample_interval", "top level")
    if "manifest" not in doc:
        fail(errors, "'manifest' key missing (null is fine)")
    elif doc["manifest"] is not None and not isinstance(doc["manifest"],
                                                       dict):
        fail(errors, "'manifest' must be null or an object")

    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(errors, "'counters' must be an object")
    else:
        for name, value in counters.items():
            check_uint(errors, counters, name, "counters")

    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        fail(errors, "'gauges' must be an object")
    else:
        for name, value in gauges.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                fail(errors, f"gauges: '{name}' must be a number")

    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        fail(errors, "'histograms' must be an object")
    else:
        for name, hist in histograms.items():
            if not isinstance(hist, dict):
                fail(errors, f"histograms: '{name}' must be an object")
                continue
            count = check_uint(errors, hist, "count", f"histogram '{name}'")
            check_uint(errors, hist, "sum", f"histogram '{name}'")
            buckets = hist.get("buckets")
            if buckets is None:
                continue  # deterministic snapshots may omit buckets
            if not isinstance(buckets, list):
                fail(errors, f"histogram '{name}': 'buckets' must be a list")
                continue
            total = 0
            prev_floor = -1
            for pair in buckets:
                if (not isinstance(pair, list) or len(pair) != 2
                        or not all(isinstance(x, int) for x in pair)):
                    fail(errors, f"histogram '{name}': bucket entries are "
                                 f"[floor, count] pairs, got {pair!r}")
                    continue
                floor, n = pair
                if floor <= prev_floor:
                    fail(errors, f"histogram '{name}': bucket floors must "
                                 f"be strictly increasing")
                prev_floor = floor
                total += n
            if count is not None and total != count:
                fail(errors, f"histogram '{name}': bucket counts sum to "
                             f"{total}, 'count' says {count}")

    phases = doc.get("phases")
    if not isinstance(phases, list):
        fail(errors, "'phases' must be a list")
    else:
        for entry in phases:
            if not isinstance(entry, dict):
                fail(errors, f"phases: entries must be objects, got "
                             f"{entry!r}")
                continue
            name = entry.get("phase")
            if name not in PHASES:
                fail(errors, f"phases: unknown phase {name!r}")
            count = check_uint(errors, entry, "count", f"phase {name!r}")
            if count == 0:
                fail(errors, f"phase {name!r}: zero-count phases are "
                             f"omitted from snapshots")

    journal = doc.get("journal")
    if not isinstance(journal, dict):
        fail(errors, "'journal' must be an object")
        return errors
    capacity = check_uint(errors, journal, "capacity", "journal")
    recorded = check_uint(errors, journal, "recorded", "journal")
    dropped = check_uint(errors, journal, "dropped", "journal")
    events = journal.get("events")
    if not isinstance(events, list):
        fail(errors, "journal: 'events' must be a list")
        return errors
    if capacity is not None and len(events) > capacity:
        fail(errors, f"journal: {len(events)} events exceed capacity "
                     f"{capacity}")
    if recorded is not None and dropped is not None:
        if recorded != dropped + len(events):
            fail(errors, f"journal: recorded ({recorded}) != dropped "
                         f"({dropped}) + events held ({len(events)})")
    # Step stamps are non-decreasing WITHIN a shard's journal; the driver
    # merges per-shard journals by concatenation in shard order, so a
    # step decrease marks a shard boundary (legal). Within one step of
    # one shard, events commit in the canonical (kind, entity, unit, a,
    # b) order — that part of the determinism contract is checkable.
    prev_step = -1
    prev_key = None
    segments = 1
    for i, event in enumerate(events):
        where = f"journal event {i}"
        if not isinstance(event, dict):
            fail(errors, f"{where}: must be an object")
            continue
        kind = event.get("kind")
        if kind not in EVENT_KIND_INDEX:
            fail(errors, f"{where}: unknown kind {kind!r}")
        step = check_uint(errors, event, "step", where)
        for key in ("entity", "unit", "a", "b"):
            check_uint(errors, event, key, where)
        if step is None or kind not in EVENT_KIND_INDEX:
            prev_key = None
            continue
        key = (EVENT_KIND_INDEX[kind], event.get("entity"),
               event.get("unit"), event.get("a"), event.get("b"))
        if step < prev_step:
            segments += 1  # shard boundary: step clock restarts
        elif step == prev_step and prev_key is not None and key < prev_key:
            fail(errors, f"{where}: breaks the canonical per-step sort "
                         f"(kind, entity, unit, a, b) within step {step}")
        prev_step = step
        prev_key = key
    if segments > 1:
        print(f"note: {segments} shard segments in the merged journal")
    return errors


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} <snapshot.json>", file=sys.stderr)
        return 2
    try:
        with open(argv[1], "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{argv[1]}: {e}", file=sys.stderr)
        return 1
    errors = check_snapshot(doc)
    if errors:
        for error in errors:
            print(f"{argv[1]}: {error}", file=sys.stderr)
        print(f"{argv[1]}: FAILED ({len(errors)} schema violations)",
              file=sys.stderr)
        return 1
    journal = doc.get("journal", {})
    print(f"{argv[1]}: OK — schema v{doc['obs_schema_version']}, "
          f"{len(doc.get('counters', {}))} counters, "
          f"{len(doc.get('phases', []))} phases, "
          f"{len(journal.get('events', []))} journal events "
          f"({journal.get('dropped', 0)} dropped)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

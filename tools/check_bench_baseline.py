#!/usr/bin/env python3
"""Diff a freshly generated BENCH_*.json against its committed baseline.

Stdlib-only, used by the CI bench smoke:

    python3 tools/check_bench_baseline.py [--exact] BASELINE.json FRESH.json

The committed baselines at the repo root pin the SHAPE of the perf
trajectory, not the numbers: experiment id, schema version, the set of
tables (titles and column headers, order-sensitive), and the manifest
key set must match. Measured values are machine-dependent and are NOT
compared — a perf regression shows up in the trajectory, not as a CI
failure; a silently dropped table or renamed column does fail.

--exact additionally requires every table row to equal the baseline's,
value for value. Use it only for benches whose tables hold the paper's
deterministic cost model (rounds/cycles, copy accesses) and no host
time. The manifest still gets only the key-set check: some of its
values (`workers`) depend on the host.

Exits non-zero with one message per violation.
"""
import json
import sys


def load(path, errors):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        errors.append(f"{path}: cannot load: {err}")
        return None


def check(baseline, fresh, errors, exact=False):
    for key in ("experiment", "schema_version"):
        if baseline.get(key) != fresh.get(key):
            errors.append(
                f"'{key}' mismatch: baseline {baseline.get(key)!r} "
                f"vs fresh {fresh.get(key)!r}")

    base_manifest = baseline.get("manifest")
    fresh_manifest = fresh.get("manifest")
    if not isinstance(base_manifest, dict):
        errors.append("baseline: 'manifest' missing or not an object")
    elif not isinstance(fresh_manifest, dict):
        errors.append("fresh: 'manifest' missing or not an object")
    else:
        missing = sorted(set(base_manifest) - set(fresh_manifest))
        if missing:
            errors.append(f"fresh manifest lost keys: {missing}")

    base_tables = baseline.get("tables")
    fresh_tables = fresh.get("tables")
    if not isinstance(base_tables, list) or not isinstance(fresh_tables,
                                                           list):
        errors.append("'tables' must be a list in both files")
        return
    if len(base_tables) != len(fresh_tables):
        errors.append(f"table count changed: baseline {len(base_tables)} "
                      f"vs fresh {len(fresh_tables)}")
        return
    for i, (base, new) in enumerate(zip(base_tables, fresh_tables)):
        where = f"tables[{i}]"
        base_title = base.get("title", "")
        new_title = new.get("title", "")
        # Titles may embed measured numbers (e.g. a baseline steps/s);
        # compare only the descriptive prefix up to the first digit run
        # that differs... keep it simple: exact match unless either
        # embeds a digit, then compare the non-numeric skeleton.
        if _skeleton(base_title) != _skeleton(new_title):
            errors.append(f"{where}: title changed:\n"
                          f"  baseline: {base_title!r}\n"
                          f"  fresh:    {new_title!r}")
        if base.get("headers") != new.get("headers"):
            errors.append(f"{where}: column headers changed:\n"
                          f"  baseline: {base.get('headers')!r}\n"
                          f"  fresh:    {new.get('headers')!r}")
        if not new.get("rows"):
            errors.append(f"{where}: fresh table has no rows")
        elif exact:
            check_rows(where, base.get("rows") or [], new["rows"], errors)


def check_rows(where, base_rows, fresh_rows, errors):
    """Exact mode: every row value must equal the baseline's."""
    if len(base_rows) != len(fresh_rows):
        errors.append(f"{where}: row count changed: baseline "
                      f"{len(base_rows)} vs fresh {len(fresh_rows)}")
        return
    for j, (base, new) in enumerate(zip(base_rows, fresh_rows)):
        if base != new:
            errors.append(f"{where}.rows[{j}] changed:\n"
                          f"  baseline: {base!r}\n"
                          f"  fresh:    {new!r}")


def _skeleton(title):
    """The title with digit runs collapsed (titles may embed numbers)."""
    return "".join("#" if c.isdigit() else c for c in str(title))


def main():
    args = sys.argv[1:]
    exact = args[:1] == ["--exact"]
    paths = args[1:] if exact else args
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    baseline = load(paths[0], errors)
    fresh = load(paths[1], errors)
    if baseline is not None and fresh is not None:
        check(baseline, fresh, errors, exact)
    if errors:
        for err in errors:
            print(f"check_bench_baseline: {err}", file=sys.stderr)
        return 1
    what = "the shape and values" if exact else "the shape"
    print(f"check_bench_baseline: {paths[1]} matches {what} of {paths[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

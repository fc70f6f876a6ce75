#!/usr/bin/env python
"""Migrate the free-form ``BENCH_pr*.json`` notes into RunRecord schema.

Each PR's benchmark notes (``BENCH_pr1.json`` .. ``BENCH_pr6.json``) predate
the observatory and use ad-hoc nested layouts.  This script converts each
file into one ``nv-runrecord/v1`` record with a mechanical mapping over the
flattened key paths:

* numeric leaves whose key mentions ``seconds`` become **timings**
  (single-repeat lists — the notes already recorded min-of-N values);
* other numeric leaves become **counters** (ints) or **gauges** (floats —
  speedups, fractions);
* string leaves (titles, protocols, notes) are preserved under ``meta``.

Migrated records get stable ids (``pr1-migrated``), so
``repro runs diff pr1-migrated pr6-migrated`` works immediately and the
store holds the PR1→PR6 perf trajectory next to freshly recorded runs.

Usage::

    PYTHONPATH=src python benchmarks/migrate_bench.py [--runs-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import observatory  # noqa: E402


def _flatten(value: Any, path: str = "") -> list[tuple[str, Any]]:
    if isinstance(value, dict):
        out = []
        for key, sub in value.items():
            sub_path = f"{path}.{key}" if path else str(key)
            out.extend(_flatten(sub, sub_path))
        return out
    if isinstance(value, list):
        out = []
        for i, sub in enumerate(value):
            out.extend(_flatten(sub, f"{path}[{i}]"))
        return out
    return [(path, value)]


def convert(data: dict[str, Any], source_name: str) -> observatory.RunRecord:
    pr = int(data.get("pr", 0))
    label = f"pr{pr}" if pr else Path(source_name).stem.lower()
    date = str(data.get("date", ""))
    try:
        created = time.mktime(time.strptime(date, "%Y-%m-%d"))
    except ValueError:
        created = 0.0
    timings: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    meta: dict[str, Any] = {"migrated_from": source_name}
    for path, value in _flatten(data):
        if path in ("pr", "date"):
            continue
        if isinstance(value, bool) or value is None:
            meta[path] = value
        elif (isinstance(value, (int, float))
              and "seconds" in path.rsplit(".", 1)[-1]):
            timings[path] = [float(value)]
        elif isinstance(value, int):
            counters[path] = value
        elif isinstance(value, float):
            gauges[path] = value
        else:
            meta[path] = value
    return observatory.RunRecord(
        run_id=f"{label}-migrated", label=label, created=created,
        env={"git_sha": None,
             "note": "migrated from pre-observatory benchmark notes"},
        timings=timings, counters=counters, gauges=gauges, meta=meta)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Convert BENCH_pr*.json notes to RunRecords in the "
                    ".nv-runs/ store.")
    parser.add_argument("--bench-dir", default=str(REPO_ROOT),
                        help="directory holding BENCH_pr*.json "
                             "(default: repo root)")
    parser.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="run store (default: $NV_RUNS_DIR, else "
                             ".nv-runs/)")
    args = parser.parse_args(argv)

    files = sorted(Path(args.bench_dir).glob("BENCH_pr*.json"),
                   key=lambda p: (len(p.stem), p.stem))
    if not files:
        print(f"no BENCH_pr*.json under {args.bench_dir}", file=sys.stderr)
        return 1
    store = observatory.RunStore(args.runs_dir)
    print(f"{'record':<16} {'timings':>8} {'counters':>9} {'gauges':>7}  "
          "headline")
    for path in files:
        record = convert(json.loads(path.read_text(encoding="utf-8")),
                         path.name)
        store.save(record)
        headline = (record.meta.get("headline.benchmark")
                    or record.meta.get("title") or "")
        speedup = record.gauges.get("headline.speedup")
        if speedup:
            headline = f"{speedup:g}x — {headline}"
        print(f"{record.run_id:<16} {len(record.timings):>8} "
              f"{len(record.counters):>9} {len(record.gauges):>7}  "
              f"{str(headline)[:70]}")
    print(f"\n{len(files)} records in {store.root}/ — compare with e.g. "
          "`python -m repro runs diff pr1-migrated pr6-migrated`")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

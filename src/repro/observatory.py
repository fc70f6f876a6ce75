"""The perf observatory: canonical run records and noise-aware diffing.

Every serious performance question about this codebase is a question about
*two runs*: before/after a kernel change, one job count vs another, PR N
vs PR N+1.  :mod:`repro.perf`, :mod:`repro.metrics` and :mod:`repro.obs`
already capture one run exhaustively; this module makes runs **durable and
comparable**:

* A :class:`RunRecord` is the canonical schema — an environment
  fingerprint (git sha, jobs, Python version), wall
  times as **lists of repeats** (so the differ can take the min), the flat
  perf counters, the last sampled gauges, histogram digests, and a pointer
  to the obs trace JSONL when one was streamed.
* A :class:`RunStore` persists records one JSON file per run under
  ``.nv-runs/`` (override with ``NV_RUNS_DIR``), written by every
  benchmark session (``NV_RUN_RECORD=1``), every ``--record``-flagged CLI
  run, and ``benchmarks/check_regression.py``.
* :func:`diff_records` compares two records with per-metric-class noise
  tolerances: timings use min-of-N selection (the minimum is the least
  noisy location statistic for wall time) with a relative *and* absolute
  tolerance; counters are deterministic, so they get the same tight
  relative tolerance plus tiny absolute slack as the ``budgets.json``
  gate; gauges are structural sizes and get a looser band.

``repro runs list|show|diff`` is the CLI surface;
``benchmarks/check_regression.py`` is the CI gate;
:func:`repro.report.generate_diff` renders a side-by-side HTML report.

The schema is documented in EXPERIMENTS.md ("RunRecord schema").
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Iterable, Mapping

from . import metrics, perf
from ._struct import field, struct

#: Schema tag written into every record; bump on incompatible change.
SCHEMA = "nv-runrecord/v1"

#: Default store directory (relative to the working directory, like
#: ``.git``); override with ``NV_RUNS_DIR``.
DEFAULT_STORE_DIR = ".nv-runs"


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------

def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5, cwd=Path(__file__).resolve().parents[2])
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def env_fingerprint() -> dict[str, Any]:
    """The run environment a comparison must control for.  Diffs surface
    fingerprint mismatches so an apples-to-oranges comparison (different
    job count, different interpreter) is labelled as such."""
    return {
        "git_sha": _git_sha(),
        "jobs": os.environ.get("NV_JOBS") or None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "telemetry": os.environ.get("NV_TELEMETRY") or None,
    }


# ----------------------------------------------------------------------
# RunRecord
# ----------------------------------------------------------------------

def _slug(text: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_.-]+", "-", text.strip()).strip("-")
    return out[:48] or "run"


def new_run_id(label: str, created: float | None = None) -> str:
    """A sortable, human-scannable id: UTC timestamp + label slug + nonce."""
    t = time.gmtime(created if created is not None else time.time())
    stamp = time.strftime("%Y%m%dT%H%M%S", t)
    return f"{stamp}-{_slug(label)}-{uuid.uuid4().hex[:6]}"


@struct
class RunRecord:
    """One recorded run (see module docstring for field semantics)."""

    run_id: str
    label: str
    created: float                      # unix epoch seconds
    env: dict[str, Any] = field(default_factory=dict)
    #: metric name -> list of repeat wall times in seconds (min-of-N diffing)
    timings: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: metric name -> Histogram.to_dict() digest
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)
    trace_path: str | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    schema: str = SCHEMA

    def best_timing(self, name: str) -> float | None:
        runs = self.timings.get(name)
        return min(runs) if runs else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "label": self.label,
            "created": self.created,
            "env": self.env,
            "timings": self.timings,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "trace_path": self.trace_path,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        timings = {name: [float(v) for v in runs]
                   for name, runs in (data.get("timings") or {}).items()}
        counters = {name: int(v)
                    for name, v in (data.get("counters") or {}).items()}
        gauges = {name: float(v)
                  for name, v in (data.get("gauges") or {}).items()}
        return cls(
            run_id=str(data.get("run_id") or new_run_id("unnamed")),
            label=str(data.get("label") or ""),
            created=float(data.get("created") or 0.0),
            env=dict(data.get("env") or {}),
            timings=timings,
            counters=counters,
            gauges=gauges,
            histograms=dict(data.get("histograms") or {}),
            trace_path=data.get("trace_path"),
            meta=dict(data.get("meta") or {}),
            schema=str(data.get("schema") or SCHEMA),
        )


def capture(label: str,
            timings: Mapping[str, Iterable[float]] | None = None,
            trace_path: str | Path | None = None,
            meta: Mapping[str, Any] | None = None) -> RunRecord:
    """Build a :class:`RunRecord` from the *live* registries.

    Integer :mod:`repro.perf` entries become counters; float entries
    (the ``*_seconds`` timers) become single-repeat timings, merged with
    any explicit ``timings`` the caller measured.  When the
    :mod:`repro.metrics` registry is enabled, the final sampled gauges
    and histogram digests ride along.
    """
    created = time.time()
    out_timings: dict[str, list[float]] = {
        name: [float(v) for v in runs] for name, runs in (timings or {}).items()}
    counters: dict[str, int] = {}
    for name, value in perf.snapshot().items():
        if isinstance(value, float):
            out_timings.setdefault(name, []).append(value)
        else:
            counters[name] = int(value)
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, Any]] = {}
    if metrics.is_enabled():
        sampled_gauges, sampled_hists = metrics.sample()
        gauges = {name: float(v) for name, v in sampled_gauges.items()}
        histograms = {name: h.to_dict() for name, h in sampled_hists.items()}
    return RunRecord(
        run_id=new_run_id(label, created),
        label=label,
        created=created,
        env=env_fingerprint(),
        timings=out_timings,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        trace_path=str(trace_path) if trace_path else None,
        meta=dict(meta or {}),
    )


# ----------------------------------------------------------------------
# RunStore
# ----------------------------------------------------------------------

class RunStore:
    """One-JSON-file-per-run store under ``.nv-runs/`` (or ``NV_RUNS_DIR``,
    or an explicit ``root``).  Filenames are ``<run_id>.json``; run ids are
    timestamp-prefixed, so lexicographic file order is creation order."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root or os.environ.get("NV_RUNS_DIR")
                         or DEFAULT_STORE_DIR)

    def save(self, record: RunRecord) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{record.run_id}.json"
        path.write_text(json.dumps(record.to_dict(), indent=2,
                                   sort_keys=True, default=repr) + "\n",
                        encoding="utf-8")
        return path

    def load(self, path: str | Path) -> RunRecord:
        return RunRecord.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8")))

    def list(self) -> list[RunRecord]:
        """Every record in the store, oldest first."""
        if not self.root.is_dir():
            return []
        records = []
        for path in sorted(self.root.glob("*.json")):
            try:
                records.append(self.load(path))
            except (OSError, ValueError):
                continue  # half-written or foreign file: skip, don't die
        records.sort(key=lambda r: (r.created, r.run_id))
        return records

    def resolve(self, ref: str) -> RunRecord:
        """Resolve ``ref`` to a record: exact run id, unique run-id prefix,
        or label (the *latest* record with that label wins — 'diff this
        run against the last fig14-smoke')."""
        exact = self.root / f"{ref}.json"
        if exact.is_file():
            return self.load(exact)
        records = self.list()
        prefixed = [r for r in records if r.run_id.startswith(ref)]
        if len(prefixed) == 1:
            return prefixed[0]
        if len(prefixed) > 1:
            raise KeyError(
                f"ambiguous run ref {ref!r}: matches "
                + ", ".join(r.run_id for r in prefixed[:5]))
        labelled = [r for r in records if r.label == ref]
        if labelled:
            return labelled[-1]
        raise KeyError(f"no run matching {ref!r} in {self.root} "
                       f"({len(records)} records)")


# ----------------------------------------------------------------------
# Noise-aware diffing
# ----------------------------------------------------------------------

@struct(frozen=True)
class Tolerance:
    """``|b - a| <= max(abs, rel * |a|)`` is considered noise."""

    rel: float
    abs: float

    def within(self, a: float, b: float) -> bool:
        return abs(b - a) <= max(self.abs, self.rel * abs(a))


#: Per-metric-class noise tolerances.  Timings: wall clocks on shared CI
#: runners jitter ~5-10% even after min-of-N, plus a floor for sub-100ms
#: measurements.  Counters: deterministic — same tolerance semantics as
#: ``benchmarks/budgets.json`` (10% relative, ±2 absolute slack).  Gauges:
#: structural sizes (table capacities, RSS) legitimately wobble more.
DEFAULT_TOLERANCES: dict[str, Tolerance] = {
    "timing": Tolerance(rel=0.10, abs=0.02),
    "counter": Tolerance(rel=0.10, abs=2.0),
    "gauge": Tolerance(rel=0.25, abs=16.0),
}


@struct(frozen=True)
class Delta:
    """One compared metric.  ``status``: ``ok`` (within tolerance),
    ``regressed`` / ``improved`` (beyond it; for timings and work counters
    *more* is worse), ``new`` / ``gone`` (present on one side only)."""

    kind: str           # timing | counter | gauge
    name: str
    a: float | None     # baseline value (min-of-N for timings)
    b: float | None     # candidate value
    status: str

    @property
    def rel(self) -> float | None:
        """Relative change vs the baseline (None when undefined)."""
        if self.a is None or self.b is None or self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)


def _classify(kind: str, a: float | None, b: float | None,
              tol: Tolerance) -> str:
    if a is None:
        return "new"
    if b is None:
        return "gone"
    if tol.within(a, b):
        return "ok"
    return "regressed" if b > a else "improved"


def diff_records(a: RunRecord, b: RunRecord,
                 tolerances: Mapping[str, Tolerance] | None = None
                 ) -> list[Delta]:
    """Compare two records metric-by-metric; returns every compared metric
    (callers filter on ``status``).  Timings are reduced min-of-N first."""
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    deltas: list[Delta] = []
    for name in sorted(set(a.timings) | set(b.timings)):
        va, vb = a.best_timing(name), b.best_timing(name)
        deltas.append(Delta("timing", name, va, vb,
                            _classify("timing", va, vb, tols["timing"])))
    for kind, side_a, side_b in (("counter", a.counters, b.counters),
                                 ("gauge", a.gauges, b.gauges)):
        for name in sorted(set(side_a) | set(side_b)):
            va = side_a.get(name)
            vb = side_b.get(name)
            deltas.append(Delta(kind, name,
                                None if va is None else float(va),
                                None if vb is None else float(vb),
                                _classify(kind, va, vb, tols[kind])))
    return deltas


def regressions(deltas: Iterable[Delta],
                kinds: Iterable[str] = ("counter",)) -> list[Delta]:
    """The deltas a gate should fail on: regressed/new/gone metrics of the
    given kinds (default: counters only — timings stay informational on
    noisy CI runners unless explicitly gated)."""
    want = set(kinds)
    return [d for d in deltas
            if d.kind in want and d.status in ("regressed", "new", "gone")]


def _fmt(value: float | None, kind: str) -> str:
    if value is None:
        return "-"
    if kind == "timing":
        return f"{value:.4f}s"
    if float(value).is_integer():
        return f"{int(value):,d}"
    return f"{value:,.4g}"


def diff_table(deltas: Iterable[Delta], only_interesting: bool = False) -> str:
    """Render deltas as an aligned text table (``repro runs diff``)."""
    rows = [d for d in deltas
            if not (only_interesting and d.status == "ok")]
    if not rows:
        return "(no metrics differ beyond tolerance)"
    name_w = max(len(d.name) for d in rows)
    name_w = max(name_w, len("metric"))
    lines = [f"{'metric':<{name_w}} {'kind':<8} {'A':>14} {'B':>14} "
             f"{'delta':>9}  status"]
    for d in rows:
        rel = d.rel
        rel_s = f"{rel:+.1%}" if rel is not None else "-"
        lines.append(f"{d.name:<{name_w}} {d.kind:<8} "
                     f"{_fmt(d.a, d.kind):>14} {_fmt(d.b, d.kind):>14} "
                     f"{rel_s:>9}  {d.status}")
    return "\n".join(lines)


def describe(record: RunRecord) -> str:
    """One-record human summary (``repro runs show``)."""
    env = record.env
    when = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime(record.created))
    lines = [
        f"run    {record.run_id}",
        f"label  {record.label}",
        f"when   {when}",
        "env    " + ", ".join(
            f"{k}={env.get(k)}" for k in
            ("git_sha", "python", "jobs")
            if env.get(k) is not None),
    ]
    if record.trace_path:
        lines.append(f"trace  {record.trace_path}")
    if record.timings:
        lines.append("timings (best of N):")
        for name in sorted(record.timings):
            runs = record.timings[name]
            lines.append(f"  {name:<40} {min(runs):.4f}s  (n={len(runs)})")
    if record.counters:
        lines.append(f"counters ({len(record.counters)}):")
        for name in sorted(record.counters):
            lines.append(f"  {name:<40} {record.counters[name]:>14,d}")
    if record.gauges:
        # Listed by name, not just counted: partitioned-verify runs carry
        # their fragment-count / interface-size gauges (partition.*) here.
        lines.append(f"gauges ({len(record.gauges)}):")
        for name in sorted(record.gauges):
            value = record.gauges[name]
            shown = f"{value:,.4g}" if isinstance(value, float) else f"{value:,}"
            lines.append(f"  {name:<40} {shown:>14}")
    if record.histograms:
        lines.append("histograms: " + ", ".join(sorted(record.histograms)))
    return "\n".join(lines)

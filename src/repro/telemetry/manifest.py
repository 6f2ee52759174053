"""Run manifests: what ran, where, and the metric rollups it produced.

A :class:`RunManifest` is a small, fully picklable record attached by
:func:`repro.bench.harness.run_collective` to every
:class:`~repro.collectives.base.CollectiveResult` — geometry, mode,
protocol, size, seed, elapsed time, and (when a telemetry recorder was
attached) the recorder's metric rollups.  Manifests serve two jobs:

* **attribution** — ``repro report`` prints a manifest plus its per-role
  breakdown so any perf claim can name the stage it came from;
* **regression gating** — committed baseline manifests
  (``benchmarks/results/manifest_baseline.json``) are diffed against a
  fresh run with :func:`compare_manifests`; every shared rollup must stay
  within a relative tolerance.  :func:`compare_bench` applies the same
  tolerance gate across the labelled entries of ``BENCH_core.json``.

Everything gated is *simulated* (microseconds, event counts), never
wall-clock, so baselines are portable across hosts.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

_git_rev_cache: Optional[str] = None


def git_revision() -> str:
    """The current git commit (short), or ``"unknown"`` outside a repo.

    Resolved once per process — manifests are built inside timed loops and
    must never pay a subprocess per run.
    """
    global _git_rev_cache
    if _git_rev_cache is None:
        import subprocess  # only a process that stamps a revision needs it

        try:
            _git_rev_cache = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5.0, check=True,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _git_rev_cache = "unknown"
    return _git_rev_cache


@dataclass
class RunManifest:
    """Identity + rollups of one measured collective run."""

    family: str
    algorithm: str
    dims: Tuple[int, int, int]
    mode: str
    ppn: int
    nprocs: int
    #: the family's natural size argument (bytes for bcast, elements for
    #: the reductions, block bytes for the block collectives)
    x: int
    nbytes: int
    iters: int
    seed: int
    verify: bool
    elapsed_us: float
    bandwidth_mbs: float
    #: deterministic metric rollups (telemetry recorder + harness counters)
    rollups: Dict[str, float] = field(default_factory=dict)
    #: filled on export (never during timed runs — see :func:`git_revision`)
    git_rev: Optional[str] = None
    #: fair-share solver the run's flow network used ("incremental" /
    #: "slowpath"; manifests recorded while the numpy fill kernel existed
    #: may say "vectorized"); defaulted so manifests recorded before the
    #: field existed still load
    solver_mode: str = "incremental"
    #: network backend the machine ran on; defaulted so manifests recorded
    #: before the pluggable-backend layer existed still load
    network: str = "torus"

    @property
    def spec_key(self) -> str:
        """Stable identity used to pair a run with its committed baseline.

        Torus keys keep their historical shape (no network segment) so
        committed baselines stay valid; non-torus runs get a
        ``net-<backend>`` segment.
        """
        dims = "x".join(str(d) for d in self.dims)
        net = "" if self.network == "torus" else f"/net-{self.network}"
        return (
            f"{self.family}/{self.algorithm}{net}/{dims}/{self.mode.lower()}"
            f"/x{self.x}/i{self.iters}"
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["dims"] = list(self.dims)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        data = dict(data)
        data["dims"] = tuple(data["dims"])
        # Manifests written while the closed-form fast path existed carry
        # its flag, which no longer has a field.
        data.pop("analytic", None)
        return cls(**data)

    def stamped(self) -> "RunManifest":
        """A copy with ``git_rev`` resolved (for export paths only)."""
        clone = RunManifest(**{**asdict(self), "dims": self.dims})
        clone.git_rev = git_revision()
        return clone


# -- campaign manifests (sweep farm) -------------------------------------

def spec_fingerprint(task: str, specs: Sequence[dict]) -> str:
    """A stable digest of a campaign: the task name plus every point spec.

    Canonical JSON (sorted keys, no whitespace; tuples serialize as
    lists) hashed with SHA-256, truncated to 16 hex chars.  Two
    campaigns share a fingerprint iff a worker would compute the same
    points — which is exactly the key the farm's progress journal needs
    to decide whether journaled completions belong to a submitted
    campaign.
    """
    import hashlib  # serve and farm ask for fingerprints; a sweep never does

    canonical = json.dumps(
        [task, list(specs)], sort_keys=True, separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class CampaignManifest:
    """Identity of one sweep-farm campaign: what would run, under what code.

    The farm's progress journal is keyed by this manifest — a resumed
    server only reuses journaled completions whose campaign fingerprint
    matches, and a ``git_rev`` mismatch between the journal and the
    resuming server is surfaced as a warning (results recorded by
    different code may not be byte-identical).
    """

    task: str
    nspecs: int
    spec_hash: str
    git_rev: str = "unknown"
    created_at: str = ""

    @classmethod
    def build(cls, task: str, specs: Sequence[dict]) -> "CampaignManifest":
        return cls(
            task=task,
            nspecs=len(specs),
            spec_hash=spec_fingerprint(task, specs),
            git_rev=git_revision(),
            created_at=time.strftime("%Y-%m-%d %H:%M:%S"),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignManifest":
        return cls(**data)


# -- baseline files ------------------------------------------------------

#: default relative tolerance of the regression gates (±10 %)
DEFAULT_TOLERANCE = 0.10


def save_baseline(path: str, manifests: Sequence[RunManifest],
                  tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Write (or extend) a baseline file keyed by each manifest's spec."""
    document = load_baseline(path)
    document["tolerance"] = tolerance
    for manifest in manifests:
        document["manifests"][manifest.spec_key] = (
            manifest.stamped().to_dict()
        )
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document


def load_baseline(path: str) -> dict:
    """Load a baseline document (``{tolerance, manifests: {key: dict}}``)."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        document = {}
    document.setdefault("tolerance", DEFAULT_TOLERANCE)
    document.setdefault("manifests", {})
    return document


def _relative_drift(current: float, baseline: float) -> float:
    if baseline == 0.0:
        return 0.0 if current == 0.0 else float("inf")
    return abs(current - baseline) / abs(baseline)


def compare_manifests(current: RunManifest, baseline: RunManifest,
                      tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Drift lines ("metric: base -> now (+x%)"); empty when within gate.

    Identity fields must match exactly; ``elapsed_us`` and every rollup
    *shared by both* manifests must stay within the relative tolerance.
    Rollups present on only one side are reported too — a metric that
    disappears is exactly the silent regression the gate exists to catch.
    """
    drifts: List[str] = []
    for fld in ("family", "algorithm", "network", "dims", "mode", "ppn",
                "nprocs", "x", "iters"):
        mine, theirs = getattr(current, fld), getattr(baseline, fld)
        if mine != theirs:
            drifts.append(f"{fld}: baseline {theirs!r} != current {mine!r}")
    if drifts:
        return drifts

    def check(metric: str, now: float, base: float) -> None:
        drift = _relative_drift(now, base)
        if drift > tolerance:
            drifts.append(
                f"{metric}: baseline {base:.6g} -> current {now:.6g} "
                f"({drift:+.1%} > ±{tolerance:.0%})"
            )

    check("elapsed_us", current.elapsed_us, baseline.elapsed_us)
    shared = set(current.rollups) & set(baseline.rollups)
    for metric in sorted(shared):
        check(f"rollups.{metric}", current.rollups[metric],
              baseline.rollups[metric])
    for metric in sorted(set(baseline.rollups) - set(current.rollups)):
        drifts.append(f"rollups.{metric}: present in baseline, missing now")
    for metric in sorted(set(current.rollups) - set(baseline.rollups)):
        drifts.append(f"rollups.{metric}: new metric absent from baseline")
    return drifts


def compare_with_baseline_file(
    current: RunManifest, path: str,
    tolerance: Optional[float] = None,
) -> List[str]:
    """Gate one fresh manifest against a committed baseline file."""
    document = load_baseline(path)
    tol = tolerance if tolerance is not None else document["tolerance"]
    entry = document["manifests"].get(current.spec_key)
    if entry is None:
        known = sorted(document["manifests"])
        return [
            f"no baseline for {current.spec_key!r} in {path} "
            f"(known: {known or 'none'})"
        ]
    return compare_manifests(current, RunManifest.from_dict(entry), tol)


#: synthetic sweep name used when a label narrows to one sweep — both
#: sides of the comparison get it, so differently-named sweeps of the
#: same points (the serve entry's cold/memo tiers) compare pointwise
_SWEEP_VIEW = "<sweep>"


def _bench_view(entries: dict, label: str) -> Tuple[Optional[dict],
                                                    Optional[str]]:
    """Resolve a gate label into a comparable entry (or an error string).

    A plain label names a whole entry.  ``entry:sweep`` narrows to one
    sweep of an entry, re-keyed under a synthetic common name — this is
    how the serve benchmark gates its tiers against each other
    (``--base serve:cold --new serve:memo``): same points, different
    sweep names, recorded in one entry.
    """
    if label in entries:
        return entries[label], None
    entry_label, sep, sweep = label.partition(":")
    if sep and entry_label in entries:
        entry = entries[entry_label]
        record = entry.get("sweeps", {}).get(sweep)
        if record is None:
            return None, (
                f"entry {entry_label!r} has no sweep {sweep!r} "
                f"(have: {sorted(entry.get('sweeps', {})) or 'none'})"
            )
        view = {key: value for key, value in entry.items()
                if key != "sweeps"}
        view["sweeps"] = {_SWEEP_VIEW: record}
        return view, None
    return None, (
        f"BENCH entry {label!r} missing (have: {sorted(entries) or 'none'})"
    )


def compare_bench(bench: dict, base_label: str, new_label: str,
                  tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Tolerance-gate two labelled ``BENCH_core.json`` entries.

    Compares the *simulated* microseconds of every shared sweep point
    (wall-clock seconds are host noise and are never gated).

    A label is either an entry name or ``entry:sweep`` — the latter
    narrows the gate to one sweep, letting two sweeps *of the same
    entry* be compared pointwise (see :func:`_bench_view`; the serve
    benchmark's ``serve:cold`` vs ``serve:memo`` bit-identity gate runs
    through this with ``tolerance=0``).

    Entries' ``solver`` tags are not read: the slowpath and incremental
    solvers give bit-identical results, so entries recorded under either
    gate against each other directly (at ``tolerance=0`` that gate
    checks the bit-identity itself).
    """
    entries = bench.get("entries", {})
    drifts: List[str] = []
    views = {}
    for label in (base_label, new_label):
        view, error = _bench_view(entries, label)
        if error is not None:
            drifts.append(error)
        else:
            views[label] = view
    if drifts:
        return drifts
    base, new = views[base_label], views[new_label]
    if base.get("smoke") != new.get("smoke"):
        return [
            f"entries {base_label!r}/{new_label!r} recorded at different "
            "sizes (smoke vs full suite); not comparable"
        ]
    for sweep, record in base.get("sweeps", {}).items():
        other = new.get("sweeps", {}).get(sweep)
        if other is None:
            drifts.append(f"sweep {sweep!r}: present in {base_label!r} only")
            continue
        theirs = {p["x"]: p["elapsed_us"] for p in other.get("points", [])}
        for point in record.get("points", []):
            x = point["x"]
            if x not in theirs:
                drifts.append(f"{sweep} x={x}: missing from {new_label!r}")
                continue
            drift = _relative_drift(theirs[x], point["elapsed_us"])
            if drift > tolerance:
                drifts.append(
                    f"{sweep} x={x}: elapsed_us {point['elapsed_us']:.6g} "
                    f"-> {theirs[x]:.6g} ({drift:+.1%} > ±{tolerance:.0%})"
                )
    return drifts

"""Trace files and run summaries.

The trace is a CSV with one row per issued request; unserved requests keep
their row with destination -1 and empty completion columns. A summary is a
pure function of the trace rows plus the final weight/policy snapshot, so
re-summarizing a written trace reproduces the summary file byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .core import string_keys
from .simnet import TraceRow

TRACE_COLUMNS = (
    "seq",
    "lambda",
    "router",
    "destination",
    "issued_us",
    "completed_us",
    "transfer_us",
    "queue_us",
    "processing_us",
    "is_probe",
    "policy",
)


class EmptyTrace(Exception):
    """Summary requested for a trace with no rows at all."""


def write_trace(path, rows) -> None:
    """Write rows (completed and unserved alike) in issue order."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        _write_trace_file(f, rows)


def trace_bytes(rows) -> bytes:
    """The exact bytes write_trace would produce, for hashing/comparison."""
    buf = io.StringIO(newline="")
    _write_trace_file(buf, rows)
    return buf.getvalue().encode("utf-8")


def _write_trace_file(f, rows) -> None:
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for row in sorted(rows, key=lambda r: r.seq):
        writer.writerow(
            [
                row.seq,
                row.lam,
                row.router,
                row.destination,
                row.issued_us,
                _blank(row.completed_us),
                _blank(row.transfer_us),
                _blank(row.queue_us),
                _blank(row.processing_us),
                int(row.is_probe),
                row.policy,
            ]
        )


def _blank(value) -> object:
    return "" if value is None else value


def read_trace(path) -> list[TraceRow]:
    """Parse a trace file back into rows (validating completed rows)."""
    rows: list[TraceRow] = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise ValueError(f"unexpected trace header: {header}")
        for cells in reader:
            if len(cells) != len(TRACE_COLUMNS):
                raise ValueError(f"trace row has {len(cells)} cells: {cells}")
            destination = int(cells[3])
            blanks = cells[5:9].count("")
            if blanks and (blanks < 4 or destination != -1):
                raise ValueError(f"completion cells not all filled or all unserved: {cells}")
            rows.append(
                TraceRow(
                    seq=int(cells[0]),
                    lam=int(cells[1]),
                    router=int(cells[2]),
                    destination=destination,
                    issued_us=int(cells[4]),
                    completed_us=_unblank(cells[5]),
                    transfer_us=_unblank(cells[6]),
                    queue_us=_unblank(cells[7]),
                    processing_us=_unblank(cells[8]),
                    is_probe=bool(int(cells[9])),
                    policy=cells[10],
                )
            )
    return rows


def _unblank(cell: str) -> int | None:
    return None if cell == "" else int(cell)


def nearest_rank(sorted_values, percentile: float):
    """Nearest-rank percentile: the value at rank ceil(p/100 * n)."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(math.ceil(percentile / 100 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class Summary:
    policy: str
    arrivals: int
    completed: int
    unserved: int
    mean_latency_us: float | None
    median_latency_us: int | None
    p95_latency_us: int | None
    p99_latency_us: int | None
    selections: dict  # router -> lambda -> destination -> count
    fairness_max_deviation: float | None
    fairness_groups: dict  # router -> lambda -> per-group detail
    probes: dict
    snapshot: dict

    def to_dict(self) -> dict:
        return string_keys(
            {
                "policy": self.policy,
                "arrivals": self.arrivals,
                "completed": self.completed,
                "unserved": self.unserved,
                "latency_us": {
                    "mean": self.mean_latency_us,
                    "median": self.median_latency_us,
                    "p95": self.p95_latency_us,
                    "p99": self.p99_latency_us,
                },
                "selections": self.selections,
                "fairness": {
                    "max_deviation": self.fairness_max_deviation,
                    "groups": self.fairness_groups,
                },
                "probes": self.probes,
                "snapshot": self.snapshot,
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _int_keys(obj):
    # A snapshot read back from a summary file has had its numeric keys
    # stringified by JSON; undo that so lookups by destination id work.
    if isinstance(obj, dict):
        return {
            (int(k) if isinstance(k, str) and k.lstrip("-").isdigit() else k): _int_keys(v)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_int_keys(v) for v in obj]
    return obj


def summarize(rows, snapshot: dict) -> Summary:
    """Aggregate a trace against the run's final snapshot.

    Percentiles cover completed requests only; the fairness ratios weight
    each destination's selection count by its final estimate, grouped per
    (router, lambda), skipping destinations with no finite estimate.
    """
    rows = list(rows)
    if not rows:
        raise EmptyTrace("no rows to summarize")
    snapshot = _int_keys(snapshot)
    completed = [r for r in rows if r.completed_us is not None]
    unserved_count = len(rows) - len(completed)

    latencies = sorted(r.completed_us - r.issued_us for r in completed)
    if latencies:
        mean = sum(latencies) / len(latencies)
        median = nearest_rank(latencies, 50)
        p95 = nearest_rank(latencies, 95)
        p99 = nearest_rank(latencies, 99)
    else:
        mean = median = p95 = p99 = None

    selections: dict = {}
    for r in completed:
        by_lam = selections.setdefault(r.router, {})
        by_dest = by_lam.setdefault(r.lam, {})
        by_dest[r.destination] = by_dest.get(r.destination, 0) + 1

    fairness_groups: dict = {}
    deviations: list[float] = []
    routers_snap = snapshot.get("routers", {})
    for router_id in sorted(routers_snap):
        for lam in sorted(routers_snap[router_id].get("lambdas", {})):
            entry = routers_snap[router_id]["lambdas"][lam]
            weights = {
                dest: info.get("weight")
                for dest, info in entry.get("weights", {}).items()
            }
            counts = selections.get(router_id, {}).get(lam, {})
            group = _fairness_group(weights, counts)
            if group is not None:
                fairness_groups.setdefault(router_id, {})[lam] = group
                if group["max_deviation"] is not None:
                    deviations.append(group["max_deviation"])

    probes = {"launched": 0, "admitted": 0, "rejected": 0, "stale_responses": 0}
    for router_id in sorted(routers_snap):
        for lam in sorted(routers_snap[router_id].get("lambdas", {})):
            policy_snap = routers_snap[router_id]["lambdas"][lam].get("policy", {})
            probes["launched"] += policy_snap.get("probes_launched", 0)
            probes["admitted"] += policy_snap.get("probes_admitted", 0)
            probes["rejected"] += policy_snap.get("probes_rejected", 0)
            probes["stale_responses"] += policy_snap.get("stale_responses", 0)

    policies = {r.policy for r in rows}
    policy = rows[0].policy if len(policies) == 1 else ",".join(sorted(policies))

    return Summary(
        policy=policy,
        arrivals=len(rows),
        completed=len(completed),
        unserved=unserved_count,
        mean_latency_us=mean,
        median_latency_us=median,
        p95_latency_us=p95,
        p99_latency_us=p99,
        selections=selections,
        fairness_max_deviation=max(deviations) if deviations else None,
        fairness_groups=fairness_groups,
        probes=probes,
        snapshot=snapshot,
    )


def _fairness_group(weights: dict, counts: dict) -> dict | None:
    """Count-times-weight ratio matrix for one (router, lambda) group."""
    finite = sorted(
        d for d, w in weights.items() if isinstance(w, int) and w > 0
    )
    if not finite:
        return None
    products = {d: counts.get(d, 0) * weights[d] for d in finite}
    ratios: dict = {}
    deviations: list[float] = []
    for i in finite:
        ratios[i] = {}
        for j in finite:
            if products[j] == 0:
                ratios[i][j] = None
            else:
                value = products[i] / products[j]
                ratios[i][j] = value
                if i != j:
                    deviations.append(abs(value - 1.0))
    if len(finite) == 1 and products[finite[0]] > 0:
        # One destination trivially gets its fair share.
        deviations.append(0.0)
    return {
        "weights_us": {d: weights[d] for d in finite},
        "counts": {d: counts.get(d, 0) for d in finite},
        "ratios": ratios,
        "max_deviation": max(deviations) if deviations else None,
    }

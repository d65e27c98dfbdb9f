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

from .core import string_keys
from .simnet import TraceRow, _by_seq

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


# The probe cell as write_trace writes it; any other text is refused.
_PROBE_FLAG = {"0": False, "1": True}


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
    # csv writes None as an empty cell; is_probe goes out as 0 or 1.
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(
        (
            r.seq, r.lam, r.router, r.destination, r.issued_us, r.completed_us,
            r.transfer_us, r.queue_us, r.processing_us, int(r.is_probe), r.policy,
        )
        for r in sorted(rows, key=_by_seq)
    )


def read_trace(path) -> list[TraceRow]:
    """Parse a trace file back into rows.

    Each line is parsed once: a fully filled line in one ``map(int, ...)``,
    whose row then checks its own delays (``TraceRow``) and must name a
    computer; an unserved line must have destination -1 and all four
    completion cells blank. The probe cell must be ``0`` or ``1``, so a
    trace read back writes out the same bytes.
    """
    rows: list[TraceRow] = []
    append = rows.append
    width = len(TRACE_COLUMNS)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise ValueError(f"unexpected trace header: {header}")
        for cells in reader:
            if len(cells) != width:
                raise ValueError(f"trace row has {len(cells)} cells: {cells}")
            is_probe = _PROBE_FLAG.get(cells[9])
            if is_probe is None:
                raise ValueError(f"trace row has probe flag {cells[9]!r}, not 0 or 1: {cells}")
            blanks = cells[5:9].count("")
            if not blanks:
                row = TraceRow(*map(int, cells[:9]), is_probe, cells[10])
                if row.destination < 0:
                    raise ValueError(f"completed trace row has no destination: {cells}")
                append(row)
                continue
            seq, lam, router, destination, issued = map(int, cells[:5])
            if blanks < 4 or destination != -1:
                raise ValueError(f"completion cells not all filled or all unserved: {cells}")
            append(
                TraceRow(
                    seq, lam, router, -1, issued,
                    None, None, None, None, is_probe, cells[10],
                )
            )
    return rows


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
    fairness_groups: dict  # router -> lambda -> max_deviation
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

    Percentiles cover completed requests only. Fairness weighs each
    destination's selection count by its final estimate, grouped per
    (router, lambda) and skipping destinations with no finite estimate. A
    group keeps only its worst ratio deviation, in O(k); its weights live in
    the snapshot and its counts in ``selections``, from which
    ``fairness_ratios`` builds the k x k ratio matrix on demand.
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
            products = _products(
                group_weights(snapshot, router_id, lam),
                selections.get(router_id, {}).get(lam, {}),
            )
            if products:
                deviation = _max_deviation(products)
                fairness_groups.setdefault(router_id, {})[lam] = deviation
                if deviation is not None:
                    deviations.append(deviation)

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


def group_weights(snapshot: dict, router, lam) -> dict:
    """Final estimate per destination of one (router, lambda) group."""
    weights = snapshot["routers"][router]["lambdas"][lam].get("weights", {})
    return {dest: info.get("weight") for dest, info in weights.items()}


def _products(weights: dict, counts: dict) -> dict:
    """Count times weight per destination with a positive integer weight, in
    id order; the others have no finite estimate and take no part."""
    return {
        d: counts.get(d, 0) * w
        for d, w in sorted(weights.items())
        if isinstance(w, int) and w > 0
    }


def _max_deviation(products: dict) -> float | None:
    """Worst deviation of one group's nonempty ``products``.

    The largest ``abs(p_i / p_j - 1.0)`` over ordered pairs ``i != j`` with
    ``p_j != 0``: the worst entry of the ``fairness_ratios`` matrix. Float
    division of integers rounds monotonically, so the extreme products give
    it in O(k) and bit for bit: ``hi/lo - 1.0`` and ``1.0 - lo/hi`` over the
    nonzero products, and 1.0 (from ``0 / p_j``) when some but not all
    products are zero. It is None when every product is zero, and 0.0 for a
    lone destination with a nonzero product.
    """
    nonzero = [p for p in products.values() if p]
    if not nonzero:
        return None
    lo, hi = min(nonzero), max(nonzero)
    deviation = max(hi / lo - 1.0, 1.0 - lo / hi)
    return max(deviation, 1.0) if len(nonzero) < len(products) else deviation


def fairness_ratios(weights: dict, counts: dict) -> dict:
    """The k x k matrix ``ratios[i][j] = p_i / p_j`` of one fairness group,
    where ``p`` is count times weight; None where ``p_j`` is zero.

    Built on demand for ``edgedispatch run --verbose`` from the group's
    weights and selection counts; summaries carry only ``max_deviation``.
    """
    products = _products(weights, counts)
    return {
        i: {j: (p_i / p_j if p_j else None) for j, p_j in products.items()}
        for i, p_i in products.items()
    }

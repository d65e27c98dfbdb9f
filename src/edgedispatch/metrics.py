"""Trace files and run summaries.

The trace is a comma-separated file with one line per issued request, in
issue order; an unserved request keeps its line with destination -1 and
empty completion cells. Its format is fixed: a header of the 11 column
names, then lines of 11 cells ending in ``\\n``, nine integers, a probe flag
``0`` or ``1`` and a policy name. No cell ever needs quoting, so the module
writes the lines with one ``%`` template and reads them by splitting bytes,
with no csv dialect: what ``write_trace`` writes, ``read_trace`` reads back
to equal rows, and a quoted cell, a carriage return, a non-ASCII character
or an unknown policy is refused. A summary is a pure function of the trace
rows plus the final weight/policy snapshot, so re-summarizing a written
trace reproduces the summary file byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import collector_paused, string_keys
from .policy import PolicyKind
from .scenario import _ID_KEY
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

_HEADER = ",".join(TRACE_COLUMNS)
_LINE = "%s,%s,%s,%s,%s,%s,%s,%s,%s,%d,%s\n"
# The probe and policy cells as the writer writes them; any other bytes are
# refused. A policy cell reads back as its kind's one (interned) string.
_PROBE_FLAG = {b"0": False, b"1": True}
_POLICY_NAMES = frozenset(kind.value for kind in PolicyKind)
_POLICY_CELL = {name.encode(): name for name in _POLICY_NAMES}
_NOT_A_POLICY = "not one of " + ", ".join(sorted(_POLICY_NAMES))


def write_trace(path, rows) -> None:
    """Write rows (completed and unserved alike) in issue order."""
    data = trace_bytes(rows)
    with open(path, "wb") as f:
        f.write(data)


def trace_bytes(rows) -> bytes:
    """The exact bytes write_trace writes, for hashing/comparison.

    A None becomes an empty cell and any other value its ``str()``;
    ``is_probe`` is written with ``%d``, as 0 or 1. A row whose policy is
    not a policy kind's name raises ValueError: ``read_trace`` refuses it.
    """
    lines = [_HEADER, "\n"]
    append = lines.append
    for r in sorted(rows, key=_by_seq):
        cells = (
            r.seq, r.lam, r.router, r.destination, r.issued_us, r.completed_us,
            r.transfer_us, r.queue_us, r.processing_us, r.is_probe, r.policy,
        )
        if None in cells:
            cells = tuple("" if c is None else c for c in cells)
        if r.policy not in _POLICY_NAMES:
            raise ValueError(f"trace row {r.seq} has policy {r.policy!r}, {_NOT_A_POLICY}")
        append(_LINE % cells)
    return "".join(lines).encode()


@collector_paused()
def read_trace(path) -> list[TraceRow]:
    """Parse a trace file back into rows.

    The file is read as bytes, split into lines on ``\\n`` and into cells
    on ``,``; the last line's ``\\n`` may be missing. After the exact
    header, each line has 11 cells:

    - nine integer cells, each parsed by ``int()`` on bytes: ASCII digits
      with an optional sign, leading zeros, single ``_`` between digits
      and spaces, tabs, ``\\v`` or ``\\f`` around them, and nothing else;
    - the probe cell, ``0`` or ``1``;
    - the policy cell, ``rr``, ``li`` or ``rp``, read as its kind's one
      interned string.

    A fully filled line makes a row that checks its own delays
    (``TraceRow``) and must name a computer; an unserved line has
    destination -1 and all four completion cells blank. There is no csv
    dialect, since the writer never quotes: a quoted cell, a carriage
    return anywhere, a non-ASCII byte and any other policy are refused.
    Every trace ``write_trace`` writes reads back to rows that write the
    same bytes. Each refusal is a ValueError whose message ends with the
    line.

    The cyclic garbage collector is paused for the call, as for
    ``simnet.run`` (``core.collector_paused``): every row lives until the
    read returns, so a young collection during it would traverse the rows
    so far and free nothing. The read builds no reference cycle, which
    ``test_runs_and_trace_reads_leave_the_collector_nothing_to_free``
    pins, so the pause leaks nothing. The one young collection it defers
    runs as the pause ends, inside the call, and traverses each row once.
    """
    with open(path, "rb") as f:
        data = f.read()
    lines = data.split(b"\n")
    if not lines[-1]:
        del lines[-1]
    if b"\r" in data:
        line = next(line for line in lines if b"\r" in line)
        raise ValueError(f"trace has a carriage return, lines end in \\n alone: {_text(line)}")
    if not lines or lines[0] != _HEADER.encode():
        raise ValueError(f"unexpected trace header: {_text(lines[0] if lines else b'')}")
    rows: list[TraceRow] = []
    append = rows.append
    probe_flag = _PROBE_FLAG.get
    policy_name = _POLICY_CELL.get
    try:
        for line in lines[1:]:
            (
                seq, lam, router, destination, issued, completed,
                transfer, queue, processing, probe, policy,
            ) = line.split(b",")
            is_probe = probe_flag(probe)
            if is_probe is None:
                raise ValueError(f"trace row has probe flag {_text(probe)!r}, not 0 or 1")
            name = policy_name(policy)
            if name is None:
                raise ValueError(f"trace row has policy {_text(policy)!r}, {_NOT_A_POLICY}")
            if completed and transfer and queue and processing:
                row = TraceRow(
                    int(seq), int(lam), int(router), int(destination), int(issued),
                    int(completed), int(transfer), int(queue), int(processing), is_probe, name,
                )
                if row.destination < 0:
                    raise ValueError("completed trace row has no destination")
            elif completed or transfer or queue or processing or int(destination) != -1:
                raise ValueError("completion cells not all filled or all unserved")
            else:
                row = TraceRow(
                    int(seq), int(lam), int(router), -1, int(issued),
                    None, None, None, None, is_probe, name,
                )
            append(row)
    except ValueError as err:
        # Unpacking a line of the wrong width raises here too.
        width = line.count(b",") + 1
        why = err if width == len(TRACE_COLUMNS) else f"trace row has {width} cells"
        raise ValueError(f"{why}: {_text(line)}") from None
    return rows


def _text(cell: bytes) -> str:
    """A line or cell for an error message."""
    return cell.decode("utf-8", "backslashreplace")


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


# The snapshot's maps keyed by id, named by the field that holds each; every
# other map is keyed by field name.
_ID_MAPS = frozenset(("routers", "lambdas", "weights", "backoff_us", "eligible_at_us", "deficits_us"))


def _int_keys(obj, path=()):
    # A snapshot read back from a summary file has had its id keys
    # stringified by JSON; undo that so lookups by destination id work. An
    # id map's key must be an id as a scenario document writes it
    # (``_ID_KEY``): '007', '-1' or 'x' is refused, not merged with an id or
    # left to fail a later sort.
    if isinstance(obj, dict):
        if not path or path[-1] not in _ID_MAPS:
            return {k: _int_keys(v, path + (k,)) for k, v in obj.items()}
        out = {}
        for key, value in obj.items():
            if type(key) is int and key >= 0:
                ident = key
            elif isinstance(key, str) and _ID_KEY.fullmatch(key):
                ident = int(key)
            else:
                raise ValueError(
                    f"snapshot key {key!r} is not an id written as {_ID_KEY.pattern!r}, "
                    f"at {'/'.join(map(str, path))}"
                )
            out[ident] = _int_keys(value, path + (ident,))
        return out
    if isinstance(obj, list):
        return [_int_keys(v, path) for v in obj]
    return obj


def summarize(rows, snapshot: dict) -> Summary:
    """Aggregate a trace against the run's final snapshot.

    Percentiles cover completed requests only. Fairness weighs each
    destination's selection count by its final estimate, grouped per
    (router, lambda) and skipping destinations with no finite estimate. A
    group keeps only its worst ratio deviation, in O(k); its weights live in
    the snapshot and its counts in ``selections``, from which
    ``fairness_ratios`` builds the k x k ratio matrix on demand. A trace
    with no rows gets a summary too, with zero arrivals and no latencies.
    """
    rows = list(rows)
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
    kinds = set()
    for router_id in sorted(routers_snap):
        for lam in sorted(routers_snap[router_id].get("lambdas", {})):
            policy_snap = routers_snap[router_id]["lambdas"][lam].get("policy", {})
            probes["launched"] += policy_snap.get("probes_launched", 0)
            probes["admitted"] += policy_snap.get("probes_admitted", 0)
            probes["rejected"] += policy_snap.get("probes_rejected", 0)
            probes["stale_responses"] += policy_snap.get("stale_responses", 0)
            if "kind" in policy_snap:
                kinds.add(policy_snap["kind"])

    # A run that issued nothing has no rows; its snapshot still names the
    # policy of each (router, lambda) pair.
    policy = ",".join(sorted({r.policy for r in rows} or kinds))

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

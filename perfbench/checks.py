"""Correctness checks that make the benchmark fail.

Each check returns a list of problems; an empty list means it passed. The
benchmark reports ``"correct": false`` and exits non-zero if any check finds
a problem, so a speed-up that changes what the program computes cannot pass
as a gain.
"""

from __future__ import annotations

import hashlib


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_accounting(label: str, result) -> list[str]:
    """Completed plus unserved equals arrivals, and every ``seq`` from 0 to
    arrivals - 1 appears exactly once."""
    problems = []
    total = len(result.completed) + len(result.unserved)
    if total != result.arrivals:
        problems.append(
            f"{label}: {len(result.completed)} completed + {len(result.unserved)} "
            f"unserved != {result.arrivals} arrivals"
        )
    seqs = sorted(row.seq for row in result.completed + result.unserved)
    if seqs != list(range(result.arrivals)):
        problems.append(f"{label}: seq values are not 0..{result.arrivals - 1} once each")
    return problems


def check_round_trip(label: str, summary_in_memory: str, summary_read_back: str) -> list[str]:
    """A trace written, read back and summarized again gives the same summary
    JSON, byte for byte, as summarizing the rows in memory."""
    if summary_in_memory != summary_read_back:
        return [f"{label}: summary of the read-back trace differs from the in-memory summary"]
    return []


def check_digests(label: str, seen: dict, digests: tuple[str, str]) -> list[str]:
    """Every execution of one job gives the same trace and summary digests.

    The first execution of ``label`` records its digests in ``seen``; later
    ones (other passes, the traced pass) must match them.
    """
    first = seen.setdefault(label, digests)
    if first != digests:
        return [f"{label}: trace/summary digests {digests} differ from the first run's {first}"]
    return []


def check_suite(report) -> list[str]:
    """A fairness suite passed."""
    if report.passed:
        return []
    return [f"suite failed: {report.describe()}"]

"""Shared test helpers: a naive deficit-ledger oracle and scenario builders."""

from edgedispatch.ledger import (
    AlreadyAdmitted,
    DeficitLedger,
    EmptyLedger,
    UnknownDestination,
)
from edgedispatch.scenario import scenario_from_mapping


class NaiveLedger:
    """Plain-dict reimplementation of the ledger semantics, kept obvious."""

    def __init__(self):
        self.deficits = {}

    def __len__(self):
        return len(self.deficits)

    def __contains__(self, dest):
        return dest in self.deficits

    def pop_min(self):
        if not self.deficits:
            raise EmptyLedger("empty")
        return min(self.deficits, key=lambda d: (self.deficits[d], d))

    def charge(self, dest, amount):
        if amount < 0:
            raise ValueError("negative charge")
        if dest not in self.deficits:
            raise UnknownDestination(str(dest))
        self.deficits[dest] += amount

    def admit(self, dest, initial_deficit=0):
        if dest in self.deficits:
            raise AlreadyAdmitted(str(dest))
        if initial_deficit < 0:
            raise ValueError("negative deficit")
        if self.deficits:
            low = min(self.deficits.values())
            for d in self.deficits:
                self.deficits[d] -= low
        self.deficits[dest] = initial_deficit

    def evict(self, dest):
        if dest not in self.deficits:
            raise UnknownDestination(str(dest))
        del self.deficits[dest]

    def decode(self):
        return dict(self.deficits)


def check_same_state(ledger: DeficitLedger, oracle: NaiveLedger):
    """Every observable of the real ledger must match the oracle."""
    assert ledger.decode() == oracle.decode()
    assert len(ledger) == len(oracle)
    deltas = ledger.deltas()
    assert all(delta >= 0 for _, delta in deltas)
    if len(oracle):
        assert ledger.pop_min() == oracle.pop_min()
        # difference encoding: deltas sum to the largest deficit
        assert sum(delta for _, delta in deltas) == max(oracle.decode().values())


def tiny_doc(**overrides):
    """Raw mapping for a one-router one-computer scenario, pre-validation."""
    doc = {
        "name": "tiny",
        "duration_ms": 150,
        "seed": 0,
        "policy": {"kind": "li"},
        "computers": [
            {"id": 0, "workers": 1, "beta": 0.0, "service_ms": {0: 5}},
        ],
        "routers": [
            {
                "id": 0,
                "links_ms": {0: 1},
                "lambdas": [{"id": 0, "destinations": [0]}],
            }
        ],
        "workload": [
            {
                "router": 0,
                "lambda": 0,
                "process": "deterministic",
                "rate_per_s": 10,
                "client_link_ms": 0,
            }
        ],
        "congestion": [],
    }
    doc.update(overrides)
    return doc


def tiny_scenario(**overrides):
    """One router, one computer, deterministic arrivals. Keyword overrides
    replace top-level scenario fields."""
    return scenario_from_mapping(tiny_doc(**overrides))

"""The policy kind is resolved once, at construction.

``src/edgedispatch/policy.py`` is parsed with ``ast``. Only
``PolicyState.__init__`` and ``PolicyState.preloaded`` may read a
``PolicyKind`` member (``PolicyKind.X``); every other method branches on the
flags ``__init__`` sets, because a member read costs an ``EnumType``
attribute hook on each call. The per-call entry points stay ordinary
functions on the class, so a wrapper put on the class sees every call, and
no method is bound onto the instance, whatever its name: a finished state is
freed by reference counting alone.
"""

import ast
import gc
import inspect
import weakref
from pathlib import Path

import pytest

from edgedispatch.policy import PolicyKind, PolicyState

POLICY = Path(__file__).resolve().parents[1] / "src" / "edgedispatch" / "policy.py"
RESOLVERS = {"__init__", "preloaded"}


def kind_lookups(source: str) -> list[str]:
    """``method: PolicyKind.X`` for each member read in a ``PolicyState``
    method other than the resolvers, in source order."""
    found = []
    for cls in ast.parse(source).body:
        if not (isinstance(cls, ast.ClassDef) and cls.name == "PolicyState"):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name in RESOLVERS:
                continue
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "PolicyKind"
                ):
                    found.append((node.lineno, f"{method.name}: PolicyKind.{node.attr}"))
    return [name for _, name in sorted(found)]


def test_no_kind_lookup_outside_the_resolvers():
    assert kind_lookups(POLICY.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_kind_lookup():
    source = "\n".join(
        [
            "class PolicyState:",
            "    def __init__(self, kind):",
            "        self._rr = kind is PolicyKind.ROUND_ROBIN",
            "    @classmethod",
            "    def preloaded(cls, kind):",
            "        return kind is PolicyKind.RANDOM_PROPORTIONAL",
            "    def select(self, now):",
            "        if self.kind is PolicyKind.ROUND_ROBIN:",
            "            return now",
            "        def inner():",
            "            return PolicyKind.LEAST_IMPEDANCE",
            "class Other:",
            "    def select(self):",
            "        return PolicyKind.ROUND_ROBIN",
        ]
    )
    assert kind_lookups(source) == [
        "select: PolicyKind.ROUND_ROBIN",
        "select: PolicyKind.LEAST_IMPEDANCE",
    ]


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_entry_points_stay_functions_on_the_class(kind):
    state = PolicyState(kind, [0, 1])
    for name in ("select", "on_response", "sync_congestion"):
        assert inspect.isfunction(vars(PolicyState)[name]), name
        assert name not in vars(state), name


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_a_finished_state_leaves_no_reference_cycle(kind):
    # A bound method stored on the instance, under any name, points back at
    # it; with the collector off, such a state would outlive its last
    # reference.
    enabled = gc.isenabled()
    gc.disable()
    try:
        state = PolicyState(kind, [0, 1, 2], seed=3, b_min_us=1000)
        for now in range(0, 40_000, 1000):
            dest = state.select(now)
            state.on_response(dest, 2000 + 500 * dest, now)
            if now % 7000 == 0:
                state.sync_congestion(now // 7000 % 3, True, now)
                state.sync_congestion(now // 7000 % 3, False, now)
        ref = weakref.ref(state)
        del state
        assert ref() is None
    finally:
        if enabled:
            gc.enable()

"""Shared fixtures for the test suite."""

import pytest

from repro.analysis.deadflags import DeadFlagReport
from repro.contracts.contract import Contract
from repro.core import fuzzer as fuzzer_module
from repro.emulator.battery import BatteryFallback
from repro.emulator.compiled import shared_compiled_cache
from repro.emulator.state import InputData, SandboxLayout
from repro.uarch.config import coffee_lake, skylake


@pytest.fixture
def layout():
    return SandboxLayout()


@pytest.fixture
def skylake_config():
    return skylake()


@pytest.fixture
def skylake_patched_config():
    return skylake(v4_patch=True)


@pytest.fixture
def coffee_lake_config():
    return coffee_lake()


def make_input(registers=None, flags=None, memory=b"", seed=None):
    """Convenience input constructor used across test modules."""
    return InputData(
        registers=registers or {},
        flags=flags or {},
        memory=memory,
        seed=seed,
    )


@pytest.fixture
def input_factory():
    return make_input


# -- referees of the production emulation engine ------------------------------


def _decline_battery(*_args, **_kwargs):
    raise BatteryFallback("per-input referee")


@pytest.fixture
def force_battery_fallback(monkeypatch):
    """Call to make every battery decline for the rest of the test, so
    pipelines collect contract traces with the per-input loop — the
    battery engine's referee."""
    return lambda: monkeypatch.setattr(
        Contract, "collect_traces_battery", _decline_battery
    )


@pytest.fixture
def disable_dead_flags(monkeypatch):
    """Call to make the pipeline's dead-flag elimination the identity
    for the rest of the test — the unoptimized-IR referee. The shared
    compiled-IR cache is keyed by program content alone, so it is
    emptied on entry and again at teardown: neither IR may serve the
    other's lookups."""

    def apply():
        monkeypatch.setattr(
            fuzzer_module,
            "eliminate_dead_flags",
            lambda compiled: DeadFlagReport(compiled, (), ()),
        )
        shared_compiled_cache().clear()

    yield apply
    shared_compiled_cache().clear()

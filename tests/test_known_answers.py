"""Known-answer side-channel tests: a fixed program, an exact trace.

The determinism gates show only that the system agrees with itself.
These tests pin what the side channel must observe for a program whose
footprint is known by construction: one load of sandbox line 1 and
nothing else. Under Prime+Probe the trace is exactly the cache set of
``base + 64``; under Flush+Reload and Evict+Reload it is exactly
monitored block 1. Noise is silent, so nothing may be added or lost.
"""

import pytest

from repro.arch import get_architecture
from repro.emulator.state import InputData, SandboxLayout
from repro.executor.executor import Executor, ExecutorConfig
from repro.executor.modes import EVICT_RELOAD, FLUSH_RELOAD, PRIME_PROBE
from repro.executor.noise import NO_NOISE
from repro.traces import HTrace
from repro.uarch.cache import L1DCache
from repro.uarch.config import skylake

#: a load of sandbox line 1 (offset 64) through the sandbox-base register
LOAD_LINE_1 = {
    "x86_64": "MOV RAX, qword ptr [R14 + 64]",
    "aarch64": "LDR X0, [X27, #64]",
}


def _trace(arch_name: str, mode) -> HTrace:
    arch = get_architecture(arch_name)
    layout = SandboxLayout()
    executor = Executor(
        skylake(), mode, layout, ExecutorConfig(noise=NO_NOISE), arch=arch
    )
    program = arch.parse_program(LOAD_LINE_1[arch_name])
    (trace,) = executor.collect_hardware_traces(program, [InputData()])
    return trace


@pytest.mark.parametrize("arch_name", sorted(LOAD_LINE_1))
def test_prime_probe_reports_exactly_the_set_of_line_1(arch_name):
    layout = SandboxLayout()
    expected_set = L1DCache().set_index(layout.base + 64)
    assert _trace(arch_name, PRIME_PROBE) == HTrace.from_signals({expected_set})


@pytest.mark.parametrize("mode", [FLUSH_RELOAD, EVICT_RELOAD],
                         ids=["F+R", "E+R"])
@pytest.mark.parametrize("arch_name", sorted(LOAD_LINE_1))
def test_reload_modes_report_exactly_block_1(arch_name, mode):
    assert _trace(arch_name, mode) == HTrace.from_signals({1})

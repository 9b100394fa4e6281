"""Differential test: the one-draw input generator against the per-word loop.

``InputGenerator`` draws a whole sandbox image with one
``getrandbits(32 * words)`` call. The functions below are the plain
per-value loop it replaced: one ``getrandbits(32)`` per register, flag
bit and 8-byte sandbox word. Both must give equal inputs and leave their
PRNGs in the same state.
"""

import random

import pytest

from repro.arch import get_architecture
from repro.core.input_gen import InputGenerator
from repro.emulator.state import InputData, SandboxLayout


def reference_value(rng: random.Random, entropy_bits: int) -> int:
    return (rng.getrandbits(32) & ((1 << entropy_bits) - 1)) << 6


def reference_image(rng: random.Random, entropy_bits: int, size: int) -> bytes:
    memory = bytearray(size)
    for offset in range(0, size, 8):
        memory[offset : offset + 8] = reference_value(
            rng, entropy_bits
        ).to_bytes(8, "little")
    return bytes(memory)


def reference_input(generator: InputGenerator, seed: int) -> InputData:
    rng = random.Random(seed)
    entropy_bits = generator.entropy_bits
    registers = {
        name: reference_value(rng, entropy_bits) for name in generator.registers
    }
    flags = (
        {flag: bool(rng.getrandbits(1)) for flag in generator.flag_bits}
        if generator.randomize_flags
        else {}
    )
    memory = reference_image(rng, entropy_bits, generator.layout.size)
    return InputData(registers=registers, flags=flags, memory=memory, seed=seed)


ENTROPIES = [1, 2, 5, 26, 27, 32]


@pytest.mark.parametrize("randomize_flags", [True, False])
@pytest.mark.parametrize("num_pages", [1, 2])
@pytest.mark.parametrize("entropy_bits", ENTROPIES)
def test_generate_matches_the_per_word_loop(entropy_bits, num_pages,
                                            randomize_flags):
    seed = 1000 * entropy_bits + 10 * num_pages + int(randomize_flags)
    generator = InputGenerator(
        seed=seed,
        entropy_bits=entropy_bits,
        layout=SandboxLayout(num_pages=num_pages),
        randomize_flags=randomize_flags,
    )
    outer = random.Random(seed)
    expected = [reference_input(generator, outer.getrandbits(32))
                for _ in range(4)]
    assert generator.generate(4) == expected
    assert generator._rng.getrandbits(32) == outer.getrandbits(32)


@pytest.mark.parametrize("num_pages", [1, 2])
@pytest.mark.parametrize("entropy_bits", ENTROPIES)
def test_sandbox_image_leaves_the_prng_where_the_loop_does(entropy_bits,
                                                           num_pages):
    generator = InputGenerator(
        entropy_bits=entropy_bits, layout=SandboxLayout(num_pages=num_pages)
    )
    fast, slow = random.Random(entropy_bits), random.Random(entropy_bits)
    assert generator._sandbox_image(fast) == reference_image(
        slow, entropy_bits, generator.layout.size
    )
    assert fast.getrandbits(32) == slow.getrandbits(32)


def test_aarch64_register_pool_matches_the_per_word_loop():
    arch = get_architecture("aarch64")
    generator = InputGenerator(
        seed=7,
        registers=arch.default_register_pool,
        flag_bits=arch.registers.flag_bits,
    )
    assert generator.generate_one(1234) == reference_input(generator, 1234)

"""Differential test: the dirty-set L1D cache against a full-scan one.

``L1DCache`` refills and scans only the sets changed since the last
``prime()``. ``FullScanCache`` below is the plain model it replaced: it
rebuilds every set on ``prime()`` and scans every set on ``probe()``.
Random operation sequences must give equal results and equal tag state
after every step.
"""

from typing import List, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cache import L1DCache


class FullScanCache:
    """Reference model: true-LRU sets, whole-cache prime and probe."""

    def __init__(self, num_sets: int, ways: int, line_size: int = 64):
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]

    def _locate(self, address: int):
        line = address // self.line_size
        return self._sets[line % self.num_sets], line

    def access(self, address: int) -> bool:
        lines, tag = self._locate(address)
        if tag in lines:
            lines.remove(tag)
            lines.insert(0, tag)
            return True
        lines.insert(0, tag)
        if len(lines) > self.ways:
            lines.pop()
        return False

    def contains(self, address: int) -> bool:
        lines, tag = self._locate(address)
        return tag in lines

    def flush_line(self, address: int) -> None:
        lines, tag = self._locate(address)
        if tag in lines:
            lines.remove(tag)

    def flush_all(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]

    def prime(self) -> None:
        for index in range(self.num_sets):
            self._sets[index] = [
                -(1 + index * self.ways + way) for way in range(self.ways)
            ]

    def probe(self) -> Set[int]:
        touched: Set[int] = set()
        for index, lines in enumerate(self._sets):
            if sum(1 for tag in lines if tag < 0) < self.ways:
                touched.add(index)
        return touched

    def evict_region(self, base: int, size: int) -> None:
        address = base - base % self.line_size
        while address < base + size:
            self.flush_line(address)
            address += self.line_size

    def cached_lines(self, base: int, size: int) -> Set[int]:
        cached: Set[int] = set()
        first_line = base // self.line_size
        address = base - base % self.line_size
        while address < base + size:
            if self.contains(address):
                cached.add(address // self.line_size - first_line)
            address += self.line_size
        return cached

    def snapshot_tags(self) -> List[List[int]]:
        return [list(lines) for lines in self._sets]


#: addresses over a few times the cache's span, so sets fill and evict
ADDRESS = st.integers(min_value=0, max_value=4 * 64 * 8 * 4 - 1)
REGION = st.tuples(ADDRESS, st.integers(min_value=1, max_value=1024))
OPERATION = st.one_of(
    st.tuples(st.just("access"), ADDRESS),
    st.tuples(st.just("flush_line"), ADDRESS),
    st.tuples(st.just("evict_region"), REGION),
    st.tuples(st.just("cached_lines"), REGION),
    st.tuples(st.just("flush_all")),
    st.tuples(st.just("prime")),
    st.tuples(st.just("probe")),
)


def _apply(cache, operation):
    name, *arguments = operation
    if name in ("evict_region", "cached_lines"):
        base, size = arguments[0]
        return getattr(cache, name)(base, size)
    result = getattr(cache, name)(*arguments)
    # a probe's iteration order is part of its result: it is built in
    # ascending set order in both models
    return list(result) if name == "probe" else result


@settings(max_examples=200, deadline=None)
@given(
    geometry=st.sampled_from([(4, 2), (8, 4), (64, 8)]),
    operations=st.lists(OPERATION, max_size=60),
)
def test_dirty_set_cache_matches_full_scan(geometry, operations):
    num_sets, ways = geometry
    cache = L1DCache(num_sets=num_sets, ways=ways)
    reference = FullScanCache(num_sets=num_sets, ways=ways)
    assert cache.snapshot_tags() == reference.snapshot_tags()
    for operation in operations:
        assert _apply(cache, operation) == _apply(reference, operation), operation
        assert cache.snapshot_tags() == reference.snapshot_tags(), operation


def test_probe_after_prime_without_victim_is_empty():
    cache = L1DCache()
    cache.prime()
    assert cache.probe() == set()
    cache.access(0x10040)
    assert cache.probe() == {1}
    cache.prime()
    assert cache.probe() == set()

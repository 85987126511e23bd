"""The per-thread work memory of polytope support values and 3-D sums."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from setlaw import (
    Polytope,
    geometry,
    hausdorff_distance,
    make_direction_grid,
    minkowski_sum,
    support_values,
)

GRID = make_direction_grid(2, 4096, "uniform_angles_2d")

# the default, one replication per block and one block per chunk, as the
# weak-law chunk test of tests/test_harness.py sets them
BLOCK_ELEMENTS = [None, 7, 1 << 20]


def _polygon(rng: np.random.Generator) -> Polytope:
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(5, 17))))
    return Polytope(np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 2.0))


def _fold(rng: np.random.Generator) -> Polytope:
    """A five-part 3-D Minkowski sum of 8-vertex Gaussian parts."""
    folded = Polytope(rng.normal(size=(8, 3)))
    for _ in range(4):
        folded = minkowski_sum(folded, Polytope(rng.normal(size=(8, 3))))
    return folded


def _set_block_elements(monkeypatch, elements):
    if elements is not None:
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)


@pytest.mark.parametrize("elements", BLOCK_ELEMENTS)
def test_support_values_share_no_memory_with_the_work_memory(elements, monkeypatch):
    _set_block_elements(monkeypatch, elements)
    rng = np.random.default_rng(3)
    body = _polygon(rng)
    values = support_values(body, GRID.matrix)
    assert not np.shares_memory(values, geometry._thread.work)
    before = values.tobytes()
    support_values(_polygon(rng), GRID.matrix)
    folded = _fold(rng)
    assert not np.shares_memory(folded.vertices, geometry._thread.work)
    assert values.tobytes() == before
    assert support_values(body, GRID.matrix).tobytes() == before


@pytest.mark.parametrize("elements", BLOCK_ELEMENTS)
def test_threads_interleaving_sums_and_distances_return_single_thread_bytes(elements,
                                                                            monkeypatch):
    _set_block_elements(monkeypatch, elements)
    rng = np.random.default_rng(4)
    pairs = [(_polygon(rng), _polygon(rng)) for _ in range(2)]

    def distance(i):
        return np.float64(hausdorff_distance(*pairs[i], GRID)).tobytes()

    def fold(i):
        return _fold(np.random.default_rng([5, i])).vertices.tobytes()

    steps = [(fold, 0), (distance, 0), (fold, 1), (distance, 1)]
    want = [step(i) for step, i in steps]
    # more threads than cores, each a step ahead of the last, so that at each
    # barrier some threads fold while others measure distances
    count = 4
    barrier = threading.Barrier(count, timeout=60)
    got, errors = [[] for _ in range(count)], []

    def work(t):
        try:
            for s in range(len(steps)):
                barrier.wait()
                step, i = steps[(s + t) % len(steps)]
                got[t].append(step(i))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(t,)) for t in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for t in range(count):
        assert got[t] == [want[(s + t) % len(steps)] for s in range(len(steps))], t


# Minor page faults of 30 polygon Hausdorff distances on the 4096-direction
# grid and two five-part 3-D folds, after one of each as a warm-up.  The
# probe pins glibc's mmap threshold at its initial 128 KiB: left to adjust
# itself, the threshold and the trim point follow the heap's history (down
# to the length of the paths on sys.path), and the same per-block
# allocations faulted 16 to 11,598 times across checkout paths.  Pinned, the
# count was 4181 to 11,615 when each block allocated its own products, and
# 261 in the thread's work memory (Linux, glibc 2.36, numpy 2.4).
FAULT_BOUND = 2000

_FAULT_PROBE = """
import resource
import numpy as np
from setlaw import Polytope, hausdorff_distance, make_direction_grid, minkowski_sum

def polygon(rng):
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(5, 17))))
    return Polytope(np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 2.0))

def fold(rng):
    folded = Polytope(rng.normal(size=(8, 3)))
    for _ in range(4):
        folded = minkowski_sum(folded, Polytope(rng.normal(size=(8, 3))))

rng = np.random.default_rng(30)
grid = make_direction_grid(2, 4096, "uniform_angles_2d")
pairs = [(polygon(rng), polygon(rng)) for _ in range(30)]
hausdorff_distance(*pairs[0], grid)
fold(rng)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for a, b in pairs:
    hausdorff_distance(a, b, grid)
fold(rng)
fold(rng)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the fault count depends on glibc's allocator")
def test_blocked_products_fault_in_no_fresh_pages():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "MALLOC_MMAP_THRESHOLD_": str(128 * 1024)}
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.split()[-1])
    assert faults < FAULT_BOUND, faults

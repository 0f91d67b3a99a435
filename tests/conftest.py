from functools import lru_cache

import pytest

from usokit import (
    MAX_SAMPLE_DIM,
    enumerate_brute,
    product,
    sample_markov,
    tiles_from_uso,
    uso_from_tiles,
)


@pytest.fixture(scope="session")
def catalogue1():
    return list(enumerate_brute(1))


@pytest.fixture(scope="session")
def catalogue2():
    return list(enumerate_brute(2))


@pytest.fixture(scope="session")
def catalogue3():
    return list(enumerate_brute(3))


@pytest.fixture(scope="session")
def sampled_tiling():
    """A function of k: a fixed complete k-dimensional tiling.

    Sampled up to MAX_SAMPLE_DIM, and above it the product of a sampled
    frame and sampled parts.
    """

    @lru_cache(maxsize=None)
    def make(k: int):
        if k <= MAX_SAMPLE_DIM:
            return sample_markov(k, 40, 100 + k)
        a = k // 2
        frame = uso_from_tiles(make(a))
        parts = {v: uso_from_tiles(sample_markov(k - a, 30, 7 * v + k)) for v in range(1 << a)}
        return tiles_from_uso(product(frame, parts))

    return make


@pytest.fixture
def kernel_passes(monkeypatch):
    """Calls of the vertex tests made by the tiling and the cube module: the
    pairwise kernel, and in cube the face-sink recursion, a vertex pass."""
    import usokit.cube
    import usokit.tiling

    calls = {"tiling": 0, "vertex": 0}
    for module, name, kind in (
        (usokit.tiling, "incompatible_pairs", "tiling"),
        (usokit.cube, "incompatible_pairs", "vertex"),
        (usokit.cube, "face_sinks_ok", "vertex"),
    ):
        def counting(*args, test=getattr(module, name), kind=kind):
            calls[kind] += 1
            return test(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def vertex_tables(monkeypatch):
    """The tile sets whose vertex table was built, one entry per build."""
    import usokit.tiling

    built = []

    def counting(ts, build=usokit.tiling.vertex_outmaps):
        built.append(ts)
        return build(ts)

    monkeypatch.setattr(usokit.tiling, "vertex_outmaps", counting)
    return built


@pytest.fixture
def no_processes(monkeypatch):
    """Make any request for a process pool or a child process raise.

    multiprocessing.process.BaseProcess.start is patched as well, because
    a module that imported Pool by name would not see the first patch.
    """
    import multiprocessing
    import multiprocessing.process

    def refuse(*args, **kwargs):
        raise AssertionError("a process was requested")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)

import pytest

from usokit import enumerate_brute


@pytest.fixture(scope="session")
def catalogue1():
    return list(enumerate_brute(1))


@pytest.fixture(scope="session")
def catalogue2():
    return list(enumerate_brute(2))


@pytest.fixture(scope="session")
def catalogue3():
    return list(enumerate_brute(3))


@pytest.fixture
def kernel_passes(monkeypatch):
    """Calls of the pairwise kernel made by the tiling and the cube module."""
    import usokit.cube
    import usokit.tiling

    calls = {"tiling": 0, "vertex": 0}
    for module, kind in ((usokit.tiling, "tiling"), (usokit.cube, "vertex")):
        def counting(*args, kernel=module.incompatible_pairs, kind=kind):
            calls[kind] += 1
            return kernel(*args)

        monkeypatch.setattr(module, "incompatible_pairs", counting)
    return calls


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

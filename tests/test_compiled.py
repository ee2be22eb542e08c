"""The compiled heat-bath loop's loader: build once per cache, rebuild a
file that does not load, survive processes that build at once, and fall
back to the Python loop, with the same chain, where no compiler is usable."""
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isinglearn import _compiled, ising
from isinglearn.graphs import make_random_regular
from isinglearn.ising import CouplingField, gibbs_sample

pytestmark = pytest.mark.skipif(_compiled._compiler() is None, reason="no usable C compiler")


@pytest.fixture
def compiles(monkeypatch):
    """The compiler runs of the test, as a list of their argument lists."""
    runs = []
    run = subprocess.run

    def counted(args, **kwargs):
        runs.append(args)
        return run(args, **kwargs)

    monkeypatch.setattr(_compiled.subprocess, "run", counted)
    return runs


def test_second_load_runs_no_compiler(tmp_path, compiles):
    assert _compiled.load([tmp_path]) is not None
    assert len(compiles) == 1
    assert _compiled.load([tmp_path]) is not None
    assert len(compiles) == 1
    assert os.listdir(tmp_path) == [_compiled._library_name()]


def test_flags_keep_the_chain(compiles, tmp_path):
    _compiled.load([tmp_path])
    (args,) = compiles
    assert "-ffp-contract=off" in args and "-O2" in args
    assert not any(a.startswith(("-ffast-math", "-march", "-Ofast")) for a in args)


def test_truncated_library_is_rebuilt_once(tmp_path, compiles):
    path = tmp_path / _compiled._library_name()
    _compiled._build(_compiled._compiler(), path)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    compiles.clear()
    lib = _compiled.load([tmp_path])
    assert lib is not None and lib.graph_size() > 0
    assert len(compiles) == 1
    assert path.read_bytes() == whole


def test_unusable_directory_is_passed_over(tmp_path, compiles):
    blocked = tmp_path / "file"
    blocked.write_text("not a directory")
    assert _compiled.load([blocked / "cache", tmp_path / "cache"]) is not None
    assert os.listdir(tmp_path / "cache") == [_compiled._library_name()]


def test_processes_that_build_at_once_both_load(tmp_path):
    # both start on an empty cache directory; each writes its own temporary
    # file and publishes it by rename, so one library is left
    code = "import sys; from isinglearn import _compiled; sys.exit(_compiled.load([sys.argv[1]]) is None)"
    env = dict(os.environ, PYTHONPATH=str(Path(_compiled.__file__).parents[1]))
    procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env)
             for _ in range(2)]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    assert os.listdir(tmp_path) == [_compiled._library_name()]


def test_wrong_arrays_and_sites_raise():
    if ising.sampler_loop() != "compiled":
        pytest.skip("no usable cache directory")
    kern = ising._Glauber(CouplingField.homogeneous(make_random_regular(8, 3, seed=1), 0.4))
    x = np.ones(8, dtype=np.int8)
    sites, us = np.arange(8), np.full(8, 0.5)
    assert kern.run(x, sites, us) == 8
    for args in ((x.astype(np.int64), sites, us), (x, sites.astype(np.int32), us),
                 (x, sites, us.astype(np.float32)), (x, sites[::2], us[::2])):
        with pytest.raises(ctypes.ArgumentError):
            kern.run(*args)
    for args in ((x[:7], sites, us), (x, sites[:7], us)):
        with pytest.raises(ValueError):
            kern.run(*args)
    for bad in (8, -1):
        with pytest.raises(IndexError):
            kern.run(x, np.array([0, bad, 1]), np.zeros(3))


@pytest.fixture
def no_compiler(monkeypatch):
    """A loader whose compiler lookup finds none, with the process's loop
    forgotten before and after."""
    monkeypatch.setattr(_compiled, "_compiler", lambda: None)
    _compiled.loop.cache_clear()
    yield
    _compiled.loop.cache_clear()


@pytest.mark.parametrize("per_edge", [False, True])
def test_no_compiler_runs_the_python_loop(per_edge, request):
    g = make_random_regular(30, 4, seed=7)
    ths = np.random.default_rng(3).uniform(-30.0, 30.0, g.num_edges)
    theta = (CouplingField.from_dict(30, dict(zip(g.sorted_edges(), ths.tolist())))
             if per_edge else 0.45)
    compiled = gibbs_sample(g, theta, n=300, seed=4)
    request.getfixturevalue("no_compiler")
    assert ising.sampler_loop() == "python"
    assert gibbs_sample(g, theta, n=300, seed=4) == compiled

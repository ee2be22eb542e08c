"""The compiled heat-bath sampler and its loader: build once per cache,
rebuild a file that does not load, survive processes that build at once,
keep the most recently used builds, replay numpy's draws exactly, run
gibbs_sample's chain with the samples of numpy's draws, give the Python
twin's chains in both modes of the table loop, and fall back to the
Python loop, with the same chain, where no compiler is usable."""
import ctypes
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from isinglearn import _compiled, ising
from isinglearn.graphs import Graph, make_random_regular, make_star
from isinglearn.analysis import theta_thr
from isinglearn.ising import CouplingField, estimate_mixing, gibbs_sample

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


def _edited_source(monkeypatch, path, tag):
    """Make SOURCE a copy of heatbath.c at path with the comment tag
    appended; the library name of that source."""
    original = Path(_compiled.__file__).with_name("heatbath.c").read_text()
    path.parent.mkdir(exist_ok=True)
    path.write_text(original + f"/* {tag} */\n")
    monkeypatch.setattr(_compiled, "SOURCE", path)
    return _compiled._library_name()


def test_least_recently_used_builds_are_removed(tmp_path, monkeypatch, compiles):
    # a new build leaves the _KEPT_BUILDS most recently used builds, itself
    # included, and a load marks the build it uses; the temporary file of a
    # build in progress, another Python's build and other files stay
    cache, src = tmp_path / "cache", tmp_path / "src"
    names = []
    for k in range(_compiled._KEPT_BUILDS):
        names.append(_edited_source(monkeypatch, src / f"{k}.c", k))
        assert _compiled.load([cache]) is not None
        os.utime(cache / names[-1], ns=(k * 10**9, k * 10**9))  # oldest first
    kept = {f"{names[0]}.x1y2z3.tmp", "heatbath-0123456789abcdef.cpython-399-other.so", "notes.txt"}
    for name in kept:
        (cache / name).write_text("")
    # the oldest build is used again, so the second oldest is removed
    assert _edited_source(monkeypatch, src / "0.c", 0) == names[0]
    assert _compiled.load([cache]) is not None
    newest = _edited_source(monkeypatch, src / "new.c", "new")
    assert _compiled.load([cache]) is not None
    assert len(compiles) == _compiled._KEPT_BUILDS + 1
    assert set(os.listdir(cache)) == kept | {newest, names[0], *names[2:]}


def test_alternating_sources_keep_both_builds(tmp_path, monkeypatch, compiles):
    # two checkouts whose sources differ, run in turn on one cache (a
    # parent and a change benchmarked side by side), compile once each
    cache = tmp_path / "cache"
    names = set()
    for _ in range(3):
        for tag in ("parent", "change"):
            names.add(_edited_source(monkeypatch, tmp_path / f"{tag}.c", tag))
            assert _compiled.load([cache]) is not None
    assert len(compiles) == 2
    assert set(os.listdir(cache)) == names and len(names) == 2


def test_library_gone_before_load_is_built_again(tmp_path, compiles, monkeypatch):
    # another process's build may remove the library between the check of
    # its file and dlopen; the load builds it once more
    path = tmp_path / _compiled._library_name()
    _compiled._build(_compiled._compiler(), path)
    complete = _compiled._complete

    def vanishing(p):
        whole = complete(p)
        p.unlink()
        return whole

    monkeypatch.setattr(_compiled, "_complete", vanishing)
    compiles.clear()
    lib = _compiled.load([tmp_path])
    assert lib is not None and lib.graph_size() > 0
    assert len(compiles) == 1
    assert os.listdir(tmp_path) == [path.name]


@pytest.fixture(scope="module")
def lib():
    lib = _compiled.loop()
    if lib is None:
        pytest.skip("no usable cache directory")
    return lib


def _c_draws(lib, rng, p, n):
    """n sites in 0..p-1 and n uniforms from lib.draws, advancing rng."""
    sites, us = np.empty(n, dtype=np.int64), np.empty(n)
    with rng.bit_generator.lock:
        assert lib.draws(rng.bit_generator.ctypes.bit_generator, p, n, sites, us) == 0
    return sites, us


@pytest.mark.parametrize("p", [1, 2, 30, 90, 1000])
def test_draws_replay_numpy_chunks(lib, p):
    # the chain's draws block by block, each in chunks of at most 128
    # sweeps, against rng.integers and rng.random on a generator of the
    # same seed: the values, and the states after every block
    ours, theirs = np.random.default_rng(p), np.random.default_rng(p)
    for nsweeps in (1, 127, 128, 129, 300, 1):
        for done in range(0, nsweeps, 128):
            k = min(128, nsweeps - done) * p
            sites, us = _c_draws(lib, ours, p, k)
            assert np.array_equal(sites, theirs.integers(0, p, k)), (nsweeps, done)
            assert np.array_equal(us, theirs.random(k)), (nsweeps, done)
        assert ours.bit_generator.state == theirs.bit_generator.state, nsweeps


@pytest.mark.parametrize("p", [2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 6_700_417, 2**32 - 1])
def test_bounded_step_rejects_as_numpy(lib, p):
    # ranges whose Lemire threshold, 2^32 mod p, is 0 (2^31), 2 (2^31 - 1),
    # 1 (2^32 - 1), about a half or a quarter of 2^32 (2^31 + 1, 3 * 2^30),
    # or p - 1 (6,700,417 divides 2^32 + 1)
    n = 2000
    ours, theirs = np.random.default_rng(p), np.random.default_rng(p)
    sites, us = _c_draws(lib, ours, p, n)
    assert np.array_equal(sites, theirs.integers(0, p, n))
    assert np.array_equal(us, theirs.random(n))
    assert ours.bit_generator.state == theirs.bit_generator.state
    # without rejections the sites would take n 32-bit outputs
    unrejected = np.random.default_rng(p)
    unrejected.integers(0, 2**32, n, dtype=np.uint32)
    unrejected.random(n)
    if p in (2**31 + 1, 3 * 2**30, 6_700_417):
        assert unrejected.bit_generator.state != ours.bit_generator.state
    else:
        assert unrejected.bit_generator.state == ours.bit_generator.state


def test_draws_refuse_ranges_numpy_draws_otherwise(lib):
    for p in (0, 2**32):
        rng = np.random.default_rng(0)
        with rng.bit_generator.lock:
            assert lib.draws(rng.bit_generator.ctypes.bit_generator, p, 4,
                             np.empty(4, dtype=np.int64), np.empty(4)) == -1


def test_stream_check_refuses_other_draws(lib, monkeypatch):
    # a copy whose sites are drawn from 0..p, not 0..p - 1, fails the check
    assert _compiled.draws_match.__wrapped__()
    shifted = types.SimpleNamespace(
        draws=lambda bitgen, p, n, sites, us: lib.draws(bitgen, p + 1, n, sites, us))
    monkeypatch.setattr(_compiled, "loop", lambda: shifted)
    assert not _compiled.draws_match.__wrapped__()


def _edge_field(g, rng, lo, hi):
    return CouplingField.from_dict(g.p, dict(zip(g.sorted_edges(),
                                                 rng.uniform(lo, hi, g.num_edges).tolist())))


_G30 = make_random_regular(30, 4, seed=7)
_CHAIN_CASES = {
    "homogeneous": (_G30, 0.65, None),
    "per-edge": (_G30, _edge_field(_G30, np.random.default_rng(3), -30.0, 30.0), None),
    "edgeless p=1": (Graph(1, set()), 0.4, None),
    "p=2": (Graph(2, {(1, 2)}), 0.8, None),
    "p=90": (make_random_regular(90, 4, seed=2), 0.45, None),
    "chunk 1": (_G30, 0.45, 1),
    "chunk 127 per-edge": (_G30, _edge_field(_G30, np.random.default_rng(5), -1.0, 1.5), 127),
}


@pytest.mark.parametrize("case", list(_CHAIN_CASES))
def test_chain_gives_the_samples_of_numpy_draws(case, monkeypatch):
    # gibbs_sample's chain in one C call against the compiled loop fed
    # numpy's draws, byte for byte, with blocks across chunk boundaries and
    # with burn-in and thin from the mixing estimate
    if ising.sampler_loop() != "compiled":
        pytest.skip("heatbath.c does not draw here")
    g, theta, chunk = _CHAIN_CASES[case]
    if chunk is not None:
        monkeypatch.setattr(ising._Glauber, "_CHUNK", chunk)
    settings = [(300, 129, 40), (1, 1, 50), (130, 1, 7), (None, None, 60)]
    chained = [gibbs_sample(g, theta, n=n, burn_in=b, thin=t, seed=9) for b, t, n in settings]
    monkeypatch.setattr(_compiled, "draws_match", lambda: False)
    assert ising.sampler_loop() == "numpy-draws"
    assert not ising._Glauber(ising._as_field(g, theta))._draws
    for s, (b, t, n) in zip(chained, settings):
        ref = gibbs_sample(g, theta, n=n, burn_in=b, thin=t, seed=9)
        assert s == ref and s.spins.tobytes() == ref.spins.tobytes(), (b, t)


# heatbath.c's table loop picks its mode for each block of MODE_DRAWS
# draws, by the flips of the last block or of its first PROBE_DRAWS draws
_MODE_DRAWS, _PROBE_DRAWS = (
    int(re.search(rf"#define {name} (\d+)", _compiled.SOURCE.read_text())[1])
    for name in ("MODE_DRAWS", "PROBE_DRAWS"))
_G30_ALIGNED = np.ones(30, dtype=np.int8)
# (graph, theta, _CHUNK or None, start): start None draws it as gibbs_sample does
_COUNTED_CASES = {
    "theta 0.02": (_G30, 0.02, None, None),
    "theta 0.15": (_G30, 0.15, None, None),
    "theta 0.65": (_G30, 0.65, None, None),
    "theta 3.0": (_G30, 3.0, None, None),
    "theta -0.65": (_G30, -0.65, None, None),
    # from all +1 at theta = 0.35 about 6% of the first draws flip, and
    # more once the chain loses its order: the share crosses 1/8 mid-chain
    "aligned theta 0.35": (_G30, 0.35, None, _G30_ALIGNED),
    "star, hub degree 29": (make_star(30, 29), 0.3, None, None),
    "isolated vertices": (make_star(12, 5), 0.8, None, None),
    "p=1": (Graph(1, set()), 0.4, None, None),
    "chunk 1": (_G30, 0.65, 1, None),
    "chunk 127 aligned": (_G30, 0.35, 127, _G30_ALIGNED),
}


@pytest.fixture
def twin(monkeypatch):
    """Runs a function with a loader that finds no compiler, so the
    sampler runs its Python twin, and restores the loader after."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(_compiled, "loop", lambda: None)
            assert ising.sampler_loop() == "python"
            return fn(*args, **kwargs)
    return run


def _modes(kern, x, sizes, rng) -> list:
    """The mode of each block of the table loop's chain through blocks of
    sizes[0], sizes[1], ... sweeps, True where it keeps counts, as heatbath.c's
    chain picks them: blocks of _MODE_DRAWS draws from the start of each
    chunk, the first recounted, and each next one counted where under 1/8
    of the draws that chose it flipped, which are a counted block's draws
    and a recounted block's first _PROBE_DRAWS. kern is a kernel of the
    Python twin, run one draw at a time."""
    s = np.array(x, dtype=np.int8)
    modes, counted = [], False
    for size in sizes:
        for sites, us in kern.chunks(size, rng):
            for k in range(0, len(us), _MODE_DRAWS):
                modes.append(counted)
                block = sites[k:k + _MODE_DRAWS], us[k:k + _MODE_DRAWS]
                seen = len(block[1]) if counted else min(len(block[1]), _PROBE_DRAWS)
                flips = 0
                for j, (i, u) in enumerate(zip(*block)):
                    before = s[i]
                    kern._updates(kern._graph, 1, block[0][j:j + 1], block[1][j:j + 1], s)
                    flips += int(j < seen and s[i] != before)
                counted = 8 * flips < seen
    return modes


@pytest.mark.parametrize("case", list(_COUNTED_CASES))
def test_counted_loop_gives_the_twins_chains(case, monkeypatch, twin):
    # the table loop on kept counts, in either mode, against the Python
    # twin, which counts the +1 neighbors at every draw: gibbs_sample's
    # samples (burn-in and thin fixed and from the mixing estimate), the
    # chain from a given start, runs of sample() fed numpy's draws a chunk
    # at a time, and estimate_mixing
    if ising.sampler_loop() != "compiled":
        pytest.skip("heatbath.c does not draw here")
    g, theta, chunk, start = _COUNTED_CASES[case]
    if chunk is not None:
        monkeypatch.setattr(ising._Glauber, "_CHUNK", chunk)
    fld = ising._as_field(g, theta)
    settings = [(300, 3, 200), (130, 129, 3), (None, None, 20)]

    def samples():
        return [gibbs_sample(g, theta, n=n, burn_in=b, thin=t, seed=5) for b, t, n in settings]

    def chain(x):
        kern, rng = ising._Glauber(fld), np.random.default_rng(6)
        x = np.array(x if x is not None else kern.initial_state(rng), dtype=np.int8)
        out = np.empty((150, g.p), dtype=np.int8)
        kern.sample(x, 40, 2, out, rng)
        return out.tobytes(), x.tobytes(), rng.bit_generator.state

    sizes = (1, 127, 128, 129, 300)

    def blocks(x):
        kern, rng = ising._Glauber(fld), np.random.default_rng(7)
        x = np.array(x if x is not None else kern.initial_state(rng), dtype=np.int8)
        fed, ms = types.SimpleNamespace(integers=rng.integers, random=rng.random), []
        for size in sizes:
            kern.sample(x, size, 1, np.empty((0, g.p), dtype=np.int8), fed)
            ms.append(int(x.sum()))
        return ms, x.tobytes(), rng.bit_generator.state

    def mixing():
        return [estimate_mixing(g, fld, seed, max_sweeps=cap)
                for seed, cap in ((1, 1), (2, 127), (3, 300))]

    for fn, args in ((samples, ()), (chain, (start,)), (blocks, (start,)), (mixing, ())):
        got, want = fn(*args), twin(fn, *args)
        if fn is samples:
            assert [s.spins.tobytes() for s in got] == [s.spins.tobytes() for s in want]
        assert got == want, fn.__name__


def _mixing(g, theta, seed, cap):
    """estimate_mixing, and its chain by hand: the spins and the generator
    state after it."""
    est = estimate_mixing(g, theta, seed, max_sweeps=cap)
    kern, rng = ising._Glauber(ising._as_field(g, theta)), np.random.default_rng(seed)
    x = np.ones(g.p, dtype=np.int8)
    ran = kern.sample(x, cap, 0, np.empty((0, g.p), dtype=np.int8), rng, stop=True)
    assert (ran, x.sum() >= 0) == (est.sweeps, est.saturated)
    return est, x.tobytes(), rng.bit_generator.state


_THR4 = theta_thr(4)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(5, 30), graph_seed=st.integers(0, 99),
       theta=st.sampled_from([0.05, 0.15, 0.35, 0.45, 0.65, 1.2]) | st.floats(0.0, 1.5),
       cap=st.sampled_from([1, 2, 127, 128, 129]) | st.integers(1, 400),
       seed=st.integers(0, 2**32 - 1))
@example(p=30, graph_seed=7, theta=0.65, cap=1000, seed=1)  # saturates
@example(p=30, graph_seed=7, theta=0.15, cap=300, seed=2)  # stops
@example(p=30, graph_seed=7, theta=_THR4, cap=300, seed=3)
@example(p=6, graph_seed=0, theta=1.2, cap=1, seed=4)
def test_mixing_estimate_gives_the_twins(p, graph_seed, theta, cap, seed):
    # estimate_mixing in one call of heatbath.c's chain against the Python
    # loop, on 4-regular graphs with theta on both sides of theta_thr(4)
    # and caps from 1 up: the estimate, the spins and the generator state
    if ising.sampler_loop() != "compiled":
        pytest.skip("heatbath.c does not draw here")
    g = make_random_regular(p + p % 2, 4, seed=graph_seed)
    got = _mixing(g, theta, seed, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_compiled, "loop", lambda: None)
        assert ising.sampler_loop() == "python"
        assert _mixing(g, theta, seed, cap) == got


def test_counted_cases_cover_both_modes(twin):
    # the modes of the chains above, from the twin's flips: the aligned
    # chains keep counts from their second block and then change mode both
    # ways, and so do the antiferromagnet's and p = 1's; the random start
    # at 0.65 keeps counts once it has ordered; 0.15 never does
    modes = {}
    for case, (g, theta, chunk, start) in _COUNTED_CASES.items():
        def chain_modes():
            kern = ising._Glauber(ising._as_field(g, theta))
            if chunk is not None:
                kern._CHUNK = chunk
            rng = np.random.default_rng(6)
            x = start if start is not None else kern.initial_state(rng)
            return _modes(kern, x, (40,) + (2,) * 150, rng)
        modes[case] = twin(chain_modes)
    for case in ("aligned theta 0.35", "chunk 127 aligned", "theta -0.65", "p=1"):
        steps = set(zip(modes[case], modes[case][1:]))
        assert {(True, False), (False, True)} <= steps, case
    assert modes["aligned theta 0.35"][1] and modes["chunk 127 aligned"][1]
    assert not modes["theta 0.65"][0] and all(modes["theta 0.65"][-100:])
    assert not any(modes["theta 0.15"]) and all(modes["theta 3.0"][2:])


def test_fed_chain_refuses_wrong_draws():
    # where heatbath.c does not draw, sample() hands it each chunk of the
    # rng's draws, which it reads through pointers: draws of another dtype,
    # order or length raise, and so does a site outside 0..p-1, before any
    # draw is applied
    if ising.sampler_loop() == "python":
        pytest.skip("no usable cache directory")
    kern = ising._Glauber(CouplingField.homogeneous(make_random_regular(8, 3, seed=1), 0.4))
    x, none = np.ones(8, dtype=np.int8), np.empty((0, 8), dtype=np.int8)
    sites, us = np.arange(8), np.full(8, 0.5)

    def sample(sites, us):
        fed = types.SimpleNamespace(integers=lambda low, high, size: sites,
                                    random=lambda size: us)
        return kern.sample(x, 1, 1, none, fed)

    assert sample(sites, us) == 1 and x.tolist() == [1] * 8
    for args in ((sites.astype(np.int32), us), (sites, us.astype(np.float32)),
                 (np.arange(8).repeat(2)[::2], us)):
        with pytest.raises(ctypes.ArgumentError):
            sample(*args)
    for args in ((sites[:7], us), (sites, us[:7]), (sites[:7], us[:7])):
        with pytest.raises(ValueError):
            sample(*args)
    for bad in (8, -1):
        with pytest.raises(IndexError):
            sample(np.array([0, bad, 1, 2, 3, 4, 5, 6]), np.zeros(8))
    assert x.tolist() == [1] * 8
    assert sample(sites, us) == 1 and x.tolist() == [1] * 8


def test_chain_refuses_wrong_arrays():
    # the chain writes through pointers: spins and rows of another length
    # raise, and so do arrays of another dtype or order
    if ising.sampler_loop() != "compiled":
        pytest.skip("the sampler's chain does not run in C here")
    kern = ising._Glauber(CouplingField.homogeneous(make_random_regular(8, 3, seed=1), 0.4))
    rng = np.random.default_rng(0)
    x, out = np.ones(8, dtype=np.int8), np.zeros((3, 8), dtype=np.int8)
    for args in ((x[:7], out), (x, out[:, :7]), (x, out[0])):
        with pytest.raises(ValueError):
            kern.sample(args[0], 2, 1, args[1], rng)
    state = rng.bit_generator.state
    for args in ((x.astype(np.int64), out), (x, out.astype(np.int64)), (x, out.T.copy().T)):
        with pytest.raises(ctypes.ArgumentError):
            kern.sample(args[0], 2, 1, args[1], rng)
    assert rng.bit_generator.state == state and x.tolist() == [1] * 8 and not out.any()
    kern.sample(x, 2, 1, out, rng)
    assert out[-1].tolist() == x.tolist()


def test_chain_refuses_to_overrun_its_buffers(monkeypatch):
    # the chain draws each chunk into buffers of the capacity it is given:
    # a chunk past it is refused before it is drawn, and sample() raises
    if ising.sampler_loop() != "compiled":
        pytest.skip("the sampler's chain does not run in C here")
    kern = ising._Glauber(CouplingField.homogeneous(make_random_regular(8, 3, seed=1), 0.4))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    x, out = np.ones(8, dtype=np.int8), np.zeros((3, 8), dtype=np.int8)
    cap = 5 * 8  # a 5-sweep burn-in is the largest chunk
    sites, us = np.empty(cap, dtype=np.int64), np.empty(cap)
    bitgen = rng.bit_generator

    def chain(cap):
        with bitgen.lock:
            return _compiled.loop().chain(kern._graph, kern._table, bitgen.ctypes.bit_generator,
                                          128, 5, 2, len(out), 0, x, out, sites, us, cap,
                                          np.zeros(9, dtype=np.int32))

    assert chain(cap - 1) == -2
    assert bitgen.state == state and x.tolist() == [1] * 8 and not out.any()
    assert chain(cap) == 5
    assert out[-1].tolist() == x.tolist()
    real = kern._chain
    monkeypatch.setattr(kern, "_chain", lambda *args: real(*args[:-2], args[-2] - 1, args[-1]))
    with pytest.raises(RuntimeError, match="past its 40 buffered draws"):
        kern.sample(x, 5, 2, out, rng)


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

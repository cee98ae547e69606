"""Tests for rngsan, the runtime determinism sanitizer.

Covers the four contracts: tracing is draw-stream transparent (traced
runs return bit-identical results), traces round-trip through disk, the
differ localizes an *injected* divergence to the first divergent draw's
callsite, and the ``REPRO_RNGSAN=1`` environment activation records
through :func:`repro.sim.rng.make_rng` without any engine opting in.
"""

import json

import pytest

from repro.analysis import rngsan
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.sim import rng as simrng
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.kernels import python_backend
from repro.topology.array_mesh import ArrayMesh


def _run_cell(seed=7, rate=0.12):
    """One small deterministic-service FIFO cell (the fifo engine)."""
    mesh = ArrayMesh(5)
    sim = NetworkSimulation(
        GreedyArrayRouter(mesh), UniformDestinations(25), rate, seed=seed
    )
    return sim.run(5.0, 60.0)


def _result_key(res):
    return (res.generated, res.completed, res.mean_delay, res.mean_number)


# -- tracing transparency ----------------------------------------------

def test_traced_run_is_bit_identical_to_untraced():
    plain = _run_cell()
    with rngsan.trace(label="transparency") as tracer:
        traced = _run_cell()
    assert tracer.draws  # something was recorded...
    assert _result_key(traced) == _result_key(plain)  # ...invisibly


def test_trace_restores_factory_and_supports_nesting():
    assert simrng._FACTORY is None
    with rngsan.trace(outer=1) as outer:
        with rngsan.trace(inner=1) as inner:
            _run_cell()
        # Leaving the inner block restores the *outer* tracer, not None.
        assert simrng._FACTORY == outer.make
    assert simrng._FACTORY is None
    assert inner.draws and not outer.draws


def test_tracer_records_generator_metadata():
    with rngsan.trace(cell="meta") as tracer:
        _run_cell(seed=7)
    trace = tracer.to_trace()
    assert trace.meta["cell"] == "meta"
    gens = trace.meta["generators"]
    assert len(gens) == 1
    assert gens[0]["seed"] == "7"
    assert gens[0]["engine"] == "fifo"
    assert gens[0]["backend"] == "python"
    assert gens[0]["start"] == 0


# -- round-trip and diff ------------------------------------------------

def test_trace_roundtrip(tmp_path):
    with rngsan.trace(cell="roundtrip") as tracer:
        _run_cell()
    trace = tracer.to_trace()
    path = trace.save(tmp_path / "a.trace")
    loaded = rngsan.Trace.load(path)
    assert loaded.draws == trace.draws
    assert loaded.meta == trace.meta


def test_identical_runs_have_no_divergence():
    with rngsan.trace() as ta:
        _run_cell()
    with rngsan.trace() as tb:
        _run_cell()
    assert rngsan.first_divergence(ta.to_trace(), tb.to_trace()) is None


def test_injected_divergence_localized_to_callsite(monkeypatch, tmp_path):
    """The acceptance check: shrink the kernel's RNG block size in one of
    two otherwise-identical runs and rngsan must name the first divergent
    draw — an exponential block drawn inside python_backend.py."""
    with rngsan.trace() as ta:
        _run_cell()
    monkeypatch.setattr(python_backend, "_BLOCK", 512)
    with rngsan.trace() as tb:
        _run_cell()
    a, b = ta.to_trace(), tb.to_trace()
    div = rngsan.first_divergence(a, b)
    assert div is not None
    assert div.a[0] == "exponential" and div.b[0] == "exponential"
    assert {div.a[1], div.b[1]} == {8192, 512}
    assert "python_backend.py" in div.a[2]
    rendered = div.render()
    assert "exponential" in rendered and "python_backend.py" in rendered


@pytest.mark.parametrize("block", [5, 16, 64])
@pytest.mark.parametrize("law", ["fast-ids", "hotspot"])
def test_level_path_draws_the_merge_loops_stream(monkeypatch, block, law):
    """The python kernel's level path makes the merge loop's draws: the
    same ``(method, size)`` sequence, across many block refills, on
    fast-id pairs and on source-then-destination blocks."""
    from repro.routing.destinations import HotSpotDestinations

    monkeypatch.setattr(python_backend, "_BLOCK", block)
    dests = (
        UniformDestinations(25)
        if law == "fast-ids"
        else HotSpotDestinations(25, hot_node=12, h=0.3)
    )
    sim = NetworkSimulation(GreedyArrayRouter(ArrayMesh(5)), dests, 0.12, seed=7)
    with rngsan.trace() as level:
        assert python_backend._run_levels(sim, 5.0, 60.0) is not None
    with rngsan.trace() as loop:
        python_backend._run_events(sim, 5.0, 60.0)
    a = [tuple(d[:2]) for d in level.to_trace().draws]
    b = [tuple(d[:2]) for d in loop.to_trace().draws]
    assert len(b) >= 2 * (150 // block)
    assert a == b


def test_length_only_divergence_reported_at_stream_end():
    a = rngsan.Trace(draws=[["random", None, "x.py:1"]])
    b = rngsan.Trace(draws=[])
    div = rngsan.first_divergence(a, b)
    assert div is not None and div.index == 0
    assert div.a == ["random", None, "x.py:1"] and div.b is None
    assert "<stream ended>" in div.render()


def test_trace_version_mismatch_rejected(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text(json.dumps({"version": 99, "meta": {}, "draws": []}))
    with pytest.raises(ValueError, match="version"):
        rngsan.Trace.load(bad)


# -- the diff CLI -------------------------------------------------------

def _save_pair(tmp_path, monkeypatch=None):
    with rngsan.trace() as ta:
        _run_cell()
    if monkeypatch is not None:
        monkeypatch.setattr(python_backend, "_BLOCK", 512)
    with rngsan.trace() as tb:
        _run_cell()
    pa = ta.to_trace().save(tmp_path / "a.trace")
    pb = tb.to_trace().save(tmp_path / "b.trace")
    return str(pa), str(pb)


def test_diff_cli_identical_exits_zero(tmp_path, capsys):
    pa, pb = _save_pair(tmp_path)
    assert rngsan.main(["diff", pa, pb]) == 0
    assert "identical draw streams" in capsys.readouterr().out


def test_diff_cli_divergence_exits_one_and_names_callsite(
    tmp_path, monkeypatch, capsys
):
    pa, pb = _save_pair(tmp_path, monkeypatch)
    assert rngsan.main(["diff", pa, pb]) == 1
    out = capsys.readouterr().out
    assert "streams diverge" in out
    assert "exponential" in out
    assert "python_backend.py" in out


def test_diff_cli_json(tmp_path, monkeypatch, capsys):
    pa, pb = _save_pair(tmp_path, monkeypatch)
    assert rngsan.main(["diff", pa, pb, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is False
    assert report["divergence"]["a"][0] == "exponential"
    capsys.readouterr()
    assert rngsan.main(["diff", pa, pa, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is True and report["divergence"] is None


def test_diff_cli_missing_file_exits_two(tmp_path, capsys):
    assert rngsan.main(
        ["diff", str(tmp_path / "no.trace"), str(tmp_path / "nope.trace")]
    ) == 2
    assert "error" in capsys.readouterr().err


# -- environment activation (REPRO_RNGSAN=1) ----------------------------

def test_env_activation_records_and_flushes(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RNGSAN", "1")
    monkeypatch.setenv("REPRO_RNGSAN_DIR", str(tmp_path))
    monkeypatch.setattr(rngsan, "_ENV_TRACER", None)
    try:
        plain = _run_cell()  # make_rng lazily installs the env tracer
        path = rngsan.flush_env_tracer()
        assert path is not None and path.exists()
        trace = rngsan.Trace.load(path)
        assert trace.meta["source"] == "REPRO_RNGSAN"
        assert trace.meta["generators"][0]["engine"] == "fifo"
        assert trace.draws
        # Env tracing is transparent too.
        assert _result_key(plain) == _result_key(_run_cell())
    finally:
        simrng.uninstall_factory()


def test_flush_is_noop_without_draws(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RNGSAN_DIR", str(tmp_path))
    monkeypatch.setattr(rngsan, "_ENV_TRACER", None)
    assert rngsan.flush_env_tracer() is None
    assert not (tmp_path / "rngsan.trace").exists()


def test_no_env_no_factory():
    monkey_free = _run_cell()  # plain path: no factory ever installed
    assert simrng._FACTORY is None
    assert monkey_free.generated > 0

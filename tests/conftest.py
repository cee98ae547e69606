"""Shared fixtures: small canonical networks used across the test suite."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.topology.array_mesh import ArrayMesh


@pytest.fixture
def mesh4() -> ArrayMesh:
    """A 4x4 (even-sided) mesh."""
    return ArrayMesh(4)


@pytest.fixture
def mesh5() -> ArrayMesh:
    """A 5x5 (odd-sided) mesh."""
    return ArrayMesh(5)


@pytest.fixture
def router4(mesh4) -> GreedyArrayRouter:
    """Greedy router on the 4x4 mesh."""
    return GreedyArrayRouter(mesh4)


@pytest.fixture
def router5(mesh5) -> GreedyArrayRouter:
    """Greedy router on the 5x5 mesh."""
    return GreedyArrayRouter(mesh5)


@pytest.fixture
def uniform4(mesh4) -> UniformDestinations:
    """Uniform destinations on the 4x4 mesh."""
    return UniformDestinations(mesh4.num_nodes)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for sampling tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def replint_real_tree(tmp_path_factory) -> SimpleNamespace:
    """One uncached in-process replint run over the real ``src/repro``
    tree, shared by the tests that assert it is clean: the CLI's exit
    ``code``, its ``stdout`` and the ``findings`` of its JSON report."""
    from repro.analysis.__main__ import main

    src_repro = Path(__file__).parent.parent / "src" / "repro"
    report = tmp_path_factory.mktemp("replint") / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(src_repro), "--no-cache", "--json-file", str(report)])
    findings = json.loads(report.read_text())["findings"]
    return SimpleNamespace(code=code, stdout=out.getvalue(), findings=findings)

"""BENCHMARK.json, the catalog and the repository registries agree."""

import json

from conftest import ROOT
from perfbench import catalog


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_catalog():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(catalog.WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == catalog.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in catalog.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in catalog.per_layer()
    ]


def test_every_per_layer_metric_says_what_it_should_move():
    names = [m.name for m in catalog.per_layer()]
    assert len(names) == len(set(names)) <= 128
    for m in catalog.per_layer():
        assert m.moves, m.name
        assert set(m.zero_on) <= set(catalog.WORKLOADS), m.name
        assert len(m.name) <= 64


def test_validation_pairs_are_the_quick_tier():
    from repro.validation import framework

    pairs = {
        (check.name, backend)
        for check in framework.select_checks(tier=framework.QUICK)
        for backend in check.backends
    }
    assert pairs == set(catalog.VALIDATION_PAIRS)


def test_engine_modules_and_sections_exist():
    import importlib

    for module, cls_name in catalog.ENGINE_MODULES:
        cls = getattr(importlib.import_module(f"repro.sim.{module}"), cls_name)
        assert callable(cls.run)
    for section in catalog.SECTIONS:
        assert callable(importlib.import_module(f"repro.experiments.{section}").run)

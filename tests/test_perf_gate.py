"""Tests for the warn-only perf gate (scripts/perf_gate.py)."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, "scripts", "perf_gate.py"
)


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bench_json(path, medians):
    data = {
        "benchmarks": [
            {"name": name, "stats": {"median": median}}
            for name, median in medians.items()
        ]
    }
    path.write_text(json.dumps(data))
    return str(path)


def test_within_threshold_passes_quietly(perf_gate, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"a": 1.0, "b": 2.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 1.1, "b": 1.9})
    assert perf_gate.main(["perf_gate", base, fresh]) == 0
    out = capsys.readouterr().out
    assert "WARNING" not in out
    assert "2 benchmarks within" in out


def test_regression_warns_but_never_fails(perf_gate, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 2.0})
    assert perf_gate.main(["perf_gate", base, fresh]) == 0  # warn-only
    assert "regressed" in capsys.readouterr().out


def test_missing_baseline_benchmark_warns(perf_gate, tmp_path, capsys):
    """A benchmark that stops running must not silently look like a pass."""
    base = _bench_json(tmp_path / "base.json", {"a": 1.0, "gone": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 1.0})
    assert perf_gate.main(["perf_gate", base, fresh]) == 0
    out = capsys.readouterr().out
    assert "WARNING" in out and "gone" in out and "missing" in out
    assert "1 baseline benchmark(s) missing" in out


def test_new_benchmark_without_baseline_is_fine(perf_gate, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 1.0, "new": 5.0})
    assert perf_gate.main(["perf_gate", base, fresh]) == 0
    assert "WARNING" not in capsys.readouterr().out


def test_no_common_benchmarks_warns_about_missing(perf_gate, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"b": 1.0})
    assert perf_gate.main(["perf_gate", base, fresh]) == 0
    out = capsys.readouterr().out
    assert "missing" in out and "no common benchmarks" in out


def test_unreadable_input_skips(perf_gate, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    assert perf_gate.main(["perf_gate", base, str(tmp_path / "nope.json")]) == 0
    assert "cannot compare" in capsys.readouterr().out


def test_strict_fails_on_regression(perf_gate, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 2.0})
    assert perf_gate.main(["perf_gate", base, fresh, "--strict"]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "FAILING (--strict)" in out


def test_strict_fails_on_missing_benchmark(perf_gate, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"a": 1.0, "gone": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 1.0})
    assert perf_gate.main(["perf_gate", base, fresh, "--strict"]) == 1


def test_strict_passes_when_clean(perf_gate, tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 1.05})
    assert perf_gate.main(["perf_gate", base, fresh, "--strict"]) == 0


def test_strict_with_positional_threshold(perf_gate, tmp_path):
    """The positional threshold arg (check.sh style) composes with
    --strict: a 30% slip passes a 0.5 threshold and fails a 0.1 one."""
    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 1.3})
    assert perf_gate.main(["perf_gate", base, fresh, "0.5", "--strict"]) == 0
    assert perf_gate.main(["perf_gate", base, fresh, "0.1", "--strict"]) == 1


def test_json_out_summary(perf_gate, tmp_path):
    import json as _json

    base = _bench_json(tmp_path / "base.json", {"a": 1.0, "b": 1.0, "gone": 2.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 3.0, "b": 1.0})
    out_path = tmp_path / "summary.json"
    rc = perf_gate.main(
        ["perf_gate", base, fresh, "--json-out", str(out_path)]
    )
    assert rc == 0  # warn-only without --strict
    summary = _json.loads(out_path.read_text())
    assert summary["ok"] is False
    assert summary["compared"] == 2
    assert summary["missing"] == ["gone"]
    assert [r["name"] for r in summary["regressions"]] == ["a"]
    assert summary["regressions"][0]["regression_pct"] == 200.0


def test_json_out_clean_run(perf_gate, tmp_path):
    import json as _json

    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 1.0})
    out_path = tmp_path / "summary.json"
    assert perf_gate.main(
        ["perf_gate", base, fresh, "--strict", "--json-out", str(out_path)]
    ) == 0
    summary = _json.loads(out_path.read_text())
    assert summary["ok"] is True and summary["regressions"] == []


def test_json_out_records_mode(perf_gate, tmp_path):
    """The summary spells out strict vs warn-only, not just a boolean."""
    import json as _json

    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"a": 1.0})
    out_path = tmp_path / "summary.json"
    assert perf_gate.main(
        ["perf_gate", base, fresh, "--json-out", str(out_path)]
    ) == 0
    summary = _json.loads(out_path.read_text())
    assert summary["mode"] == "warn-only" and summary["strict"] is False
    assert perf_gate.main(
        ["perf_gate", base, fresh, "--strict", "--json-out", str(out_path)]
    ) == 0
    summary = _json.loads(out_path.read_text())
    assert summary["mode"] == "strict" and summary["strict"] is True


def test_strict_fails_on_unreadable_input(perf_gate, tmp_path, capsys):
    """--strict must not let a vanished fresh run look like a pass."""
    import json as _json

    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    out_path = tmp_path / "summary.json"
    rc = perf_gate.main(
        ["perf_gate", base, str(tmp_path / "nope.json"), "--strict",
         "--json-out", str(out_path)]
    )
    assert rc == 1
    assert "cannot compare" in capsys.readouterr().out
    summary = _json.loads(out_path.read_text())
    assert summary["ok"] is False and "skipped" in summary
    # Warn-only mode still skips quietly (local check.sh behaviour).
    assert perf_gate.main(
        ["perf_gate", base, str(tmp_path / "nope.json")]
    ) == 0


def test_no_common_benchmarks_summary_not_ok(perf_gate, tmp_path):
    """The disjoint-names early return must not report ok:true while
    strict mode exits 1 on the missing baseline benchmarks."""
    import json as _json

    base = _bench_json(tmp_path / "base.json", {"a": 1.0})
    fresh = _bench_json(tmp_path / "fresh.json", {"b": 1.0})
    out_path = tmp_path / "summary.json"
    assert perf_gate.main(
        ["perf_gate", base, fresh, "--strict", "--json-out", str(out_path)]
    ) == 1
    summary = _json.loads(out_path.read_text())
    assert summary["ok"] is False
    assert summary["missing"] == ["a"]


def test_memory_growth_warns_like_a_regression(perf_gate, tmp_path, capsys):
    """A recorded peak_bytes_per_visit that grows past the threshold is a
    regression (and fails --strict) even when the median holds."""

    def bench(name, peak):
        path = tmp_path / name
        path.write_text(json.dumps({"benchmarks": [
            {"name": "a", "stats": {"median": 1.0},
             "extra_info": {"peak_bytes_per_visit": peak}},
        ]}))
        return str(path)

    base = bench("base.json", 30.0)
    assert perf_gate.main(["perf_gate", base, bench("same.json", 31.0), "--strict"]) == 0
    assert perf_gate.main(["perf_gate", base, bench("grew.json", 90.0), "--strict"]) == 1
    assert "a peak_bytes_per_visit grew 200%" in capsys.readouterr().out

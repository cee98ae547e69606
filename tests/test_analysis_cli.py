"""CLI tests for ``python -m repro.analysis``.

Exit codes, JSON report shape (version 2: rule docs + stable
fingerprints), rule listing, read-only analysis, and the mtime-keyed
result cache.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis import cache
from repro.analysis.__main__ import main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


def test_clean_tree_exits_zero(capsys):
    assert main([str(SRC_REPRO), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_bad_fixture_exits_one(capsys):
    assert main([str(FIXTURES / "shm_bad.py"), "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "[shm-hygiene]" in out
    assert "finding(s)" in out


@pytest.mark.parametrize(
    "fixture, rule",
    [
        ("sim/rng_bad.py", "rng-discipline"),
        ("sim/hotloop_bad.py", "hot-loop-alloc"),
        ("shm_bad.py", "shm-hygiene"),
        ("hygiene_bad.py", "mutable-default"),
        ("hygiene_bad.py", "dead-import"),
    ],
)
def test_each_rule_fails_its_bad_fixture(fixture, rule, capsys):
    assert main(
        [str(FIXTURES / fixture), "--select", rule, "--no-cache"]
    ) == 1
    assert f"[{rule}]" in capsys.readouterr().out


def test_json_report_shape(capsys):
    assert main([str(FIXTURES / "shm_bad.py"), "--json", "--no-cache"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 2
    assert report["ok"] is False
    assert report["files"] == 1
    assert len(report["findings"]) == 2
    first = report["findings"][0]
    assert set(first) == {
        "rule", "path", "line", "col", "message", "doc", "fingerprint",
    }
    assert first["doc"]  # the owning rule's one-line description
    assert len(first["fingerprint"]) == 16
    int(first["fingerprint"], 16)  # hex digest prefix


def test_json_report_clean(capsys):
    assert main([str(FIXTURES / "shm_good.py"), "--json", "--no-cache"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and report["findings"] == []


def test_json_file_written_alongside_human_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(
        [str(FIXTURES / "shm_bad.py"), "--no-cache",
         "--json-file", str(out_file)]
    ) == 1
    # stdout stays human-readable; the JSON goes to the file (CI uploads
    # it as an artifact even when the step fails).
    assert "[shm-hygiene]" in capsys.readouterr().out
    report = json.loads(out_file.read_text())
    assert report["version"] == 2 and len(report["findings"]) == 2


def test_fingerprints_stable_under_line_insertion(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(bucket=[]):\n    return bucket\n")
    before = analyze_paths([path], select=["mutable-default"])
    path.write_text(
        "# a new comment shifts every line number\n"
        "\n"
        "def f(bucket=[]):\n    return bucket\n"
    )
    after = analyze_paths([path], select=["mutable-default"])
    assert [f.line for f in before] != [f.line for f in after]
    assert [f.fingerprint for f in before] == [f.fingerprint for f in after]


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "rng-discipline",
        "backend-boundary",
        "registry-consistency",
        "golden-coverage",
        "bench-coverage",
        "hot-loop-alloc",
        "stale-suppression",
        "shm-hygiene",
        "mutable-default",
        "dead-import",
    ):
        assert rule in out


def test_unknown_rule_exits_two(capsys):
    assert main(
        [str(FIXTURES / "shm_good.py"), "--select", "no-such", "--no-cache"]
    ) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_exits_two(capsys):
    assert main(["no/such/path", "--no-cache"]) == 2
    assert "error" in capsys.readouterr().err


def test_select_accepts_comma_list(capsys):
    assert main(
        [str(FIXTURES / "hygiene_bad.py"), "--select",
         "mutable-default,dead-import", "--no-cache"]
    ) == 1
    out = capsys.readouterr().out
    assert "[mutable-default]" in out and "[dead-import]" in out


def test_module_invocation_on_real_tree():
    """The CI lint leg verbatim: ``python -m repro.analysis src/repro``."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC_REPRO), "--no-cache"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_analysis_leaves_files_untouched(tmp_path):
    """replint only reads: a file with findings is left byte-identical."""
    target = tmp_path / "mod.py"
    shutil.copy(FIXTURES / "hygiene_bad.py", target)
    original = target.read_text()
    assert main([str(target), "--select", "dead-import", "--no-cache"]) == 1
    assert target.read_text() == original


# -- result cache -------------------------------------------------------

def _seed_tree(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("def f(bucket=[]):\n    return bucket\n")
    return target, tmp_path / "cache.json"


def test_cache_roundtrip_replays_findings(tmp_path):
    target, cache_file = _seed_tree(tmp_path)
    select = ["mutable-default"]
    findings = analyze_paths([target], select=select)
    assert findings
    assert cache.load(cache_file, [target], select) is None  # cold
    cache.store(cache_file, [target], select, findings, 1)
    hit = cache.load(cache_file, [target], select)
    assert hit is not None
    replayed, num_files = hit
    assert num_files == 1
    assert replayed == findings  # fingerprints and docs included


def test_cache_invalidated_by_file_touch(tmp_path):
    target, cache_file = _seed_tree(tmp_path)
    select = ["mutable-default"]
    findings = analyze_paths([target], select=select)
    cache.store(cache_file, [target], select, findings, 1)
    # Same content, new mtime: the stat signature must invalidate.
    target.write_text(target.read_text() + "# touched\n")
    assert cache.load(cache_file, [target], select) is None


def test_cache_keyed_by_select(tmp_path):
    target, cache_file = _seed_tree(tmp_path)
    findings = analyze_paths([target], select=["mutable-default"])
    cache.store(cache_file, [target], ["mutable-default"], findings, 1)
    assert cache.load(cache_file, [target], ["dead-import"]) is None
    assert cache.load(cache_file, [target], None) is None


def test_cache_corrupt_file_is_a_miss(tmp_path):
    target, cache_file = _seed_tree(tmp_path)
    cache_file.write_text("{not json")
    assert cache.load(cache_file, [target], None) is None


def test_cli_writes_and_reuses_cache(tmp_path, capsys):
    target, cache_file = _seed_tree(tmp_path)
    argv = [str(target), "--select", "mutable-default",
            "--cache-file", str(cache_file)]
    assert main(argv) == 1
    first = capsys.readouterr().out
    assert cache_file.exists()
    # Unchanged tree: the replay must reproduce report and exit code.
    assert main(argv) == 1
    assert capsys.readouterr().out == first
    # Fixing the file invalidates the entry and flips the exit code.
    target.write_text("def f(bucket=None):\n    return bucket\n")
    assert main(argv) == 0
    assert "clean" in capsys.readouterr().out


def test_no_cache_never_touches_cache_file(tmp_path):
    target, cache_file = _seed_tree(tmp_path)
    assert main(
        [str(target), "--select", "mutable-default",
         "--cache-file", str(cache_file), "--no-cache"]
    ) == 1
    assert not cache_file.exists()

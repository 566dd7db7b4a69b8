"""Tests of the benchmark itself, on the tiny grids.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import frobtab  # noqa: E402
import frobtab.characters  # noqa: E402
import frobtab.straightening  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from frobtab.cli import main as cli_main  # noqa: E402
from tracing import LAYER_UNITS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    text = "\n".join(report)
    for name, unit in declared.items():
        assert re.search(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", text), name
    assert re.search(r"fail_ratio\s+0\.0000 ratio", text)
    assert re.search(r"item_tail_ms\s+\S+ ms\s+\(p[\d.]+ of \d+ items", text)
    assert "seed 3" in text and "python" in text and "nproc" in text


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(LAYER_UNITS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_calibrated_wall_sums_each_items_median_latency_at_reference_speed():
    passes = [
        {"latencies_s": [1.0, 6.0], "slowdowns": [1.0, 2.0]},
        {"latencies_s": [4.0, 4.0], "slowdowns": [2.0, 1.0]},
        {"latencies_s": [1.5, 3.0], "slowdowns": [1.0, 1.0]},
    ]
    assert run.calibrated_wall(passes) == 1.5 + 3.0


def _flip(p, pick=min):
    """p with one coefficient changed, at the least or the greatest weight."""
    items = dict(p.items())
    items[pick(items)] += 1
    return frobtab.SymPoly(items, p.n)


# the greatest weight 2^i 1^j 0^... is the one the check reads per orbit; the
# least, 0^... 1^j 2^i, is only seen through symmetry
@pytest.mark.parametrize("pick", [min, max])
def test_flipped_formula_coefficient_fails_its_item(monkeypatch, pick):
    original = frobtab.expected_character
    flipped = []

    def corrupt(*args):
        p = original(*args)
        if not flipped and not p.is_zero:
            flipped.append(args)
            return _flip(p, pick)
        return p

    monkeypatch.setattr(frobtab, "expected_character", corrupt)
    res = workloads.run_pass("formula-wide", 0, "tiny")
    assert flipped and res.failed >= 1 and res.fail_ratio > 0 and not res.correct


def test_flipped_computed_coefficient_fails_verify_item(monkeypatch):
    original = frobtab.characters.subquotient_character
    flipped = []

    def corrupt(idx):
        p = original(idx)
        if not flipped and not p.is_zero:
            flipped.append(idx)
            return _flip(p)
        return p

    monkeypatch.setattr(frobtab.characters, "subquotient_character", corrupt)
    res = workloads.run_pass("verify-grid", 0, "tiny")
    assert flipped and res.failed == 1 and res.fail_ratio > 0 and not res.correct


def test_dropped_output_term_fails_straighten_item(monkeypatch):
    original = frobtab.two_straighten
    dropped = []

    def corrupt(t, idx):
        out = original(t, idx)
        if not dropped and len(out):
            dropped.append(t)
            return frobtab.TableauSum(frozenset(list(out)[1:]), out.a, out.n)
        return out

    monkeypatch.setattr(frobtab, "two_straighten", corrupt)
    res = workloads.run_pass("straighten-grid", 0, "tiny")
    assert dropped and res.failed == 1 and res.fail_ratio > 0 and not res.correct


def test_exception_counts_as_failed_item_without_ending_the_pass(monkeypatch):
    original = frobtab.two_straighten
    raised = []

    def fail_once(t, idx):
        if not raised:
            raised.append(t)
            raise frobtab.StraighteningLimitExceeded("injected")
        return original(t, idx)

    monkeypatch.setattr(frobtab, "two_straighten", fail_once)
    res = workloads.run_pass("straighten-grid", 0, "tiny")
    assert res.failed == 1 and res.attempted == len(res.latencies_s) > 1
    assert any("StraighteningLimitExceeded" in p for p in res.problems)


def test_verify_digest_is_that_of_verify_all_output():
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(["verify-all", "--max-a", "2", "--max-n", "3"]) == 0
    lines = buf.getvalue().splitlines()
    assert workloads.digest(lines) == workloads.load_expected("tiny", "verify-grid")["digest"]


def test_seed_zero_keeps_grid_order_and_others_shuffle_reproducibly():
    grid = list(range(50))
    assert workloads.shuffled(grid, 0) == grid
    assert workloads.shuffled(grid, 7) == workloads.shuffled(grid, 7) != grid
    assert sorted(workloads.shuffled(grid, 7)) == grid


def test_results_do_not_depend_on_the_seed():
    for name in workloads.WORKLOADS:
        records = [workloads.run_pass(name, seed, "tiny").record for seed in (0, 5)]
        assert records[0] == records[1], name


def test_traced_pass_covers_its_wall_time_and_restores_the_package():
    original = frobtab.verify_triple
    tracer = Tracer()
    tracer.install()
    try:
        assert frobtab.verify_triple is not original
        res = workloads.run_pass("verify-grid", 0, "tiny", tracer=tracer)
    finally:
        tracer.uninstall()
    assert frobtab.verify_triple is original
    assert res.correct
    layers = tracer.layer_metrics(res.wall_s, workloads.span_ranks(res.outputs))
    assert set(layers) == set(LAYER_UNITS) - {"trace.overhead_ratio"}
    assert 0.9 < layers["trace.covered_ratio"] <= 1.0
    assert 0 < layers["characters.span_yield"] <= 1
    assert layers["characters.span_products"] > 0
    assert tracer.calls[Tracer.ROOT_SPAN] == res.attempted
    assert all(span is not None for span in tracer.spans)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s[Tracer.ROOT_SPAN])


def test_private_names_that_are_gone_read_as_absent(monkeypatch):
    monkeypatch.delattr(frobtab.straightening, "_TS_CACHE")
    monkeypatch.delattr(frobtab.characters, "_ideal_span_cached")
    tracer = Tracer()
    layers = tracer.layer_metrics(1.0)
    assert layers["straightening.memo_entries"] == 0
    assert layers["characters.span_cache_hit_ratio"] == 0
    assert "straightening._TS_CACHE" in tracer.absent
    assert "characters._ideal_span_cached" in tracer.absent


def test_children_run_without_the_thread_pool_setting(monkeypatch):
    monkeypatch.setenv("FROBTAB_THREADS", "4")
    env = run.child_env()
    assert "FROBTAB_THREADS" not in env
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark("--workload", "verify-grid", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

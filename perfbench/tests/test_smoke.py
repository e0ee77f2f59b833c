"""Smoke tests: every workload at a tiny size emits every named metric and
passes every check; the metric lists agree with BENCHMARK.json.

    python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

run.import_detideals()
import workloads  # noqa: E402

SPEC = run.SPEC


def test_spec_matches_code():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.MOVES)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for e2e, on in tracing.MOVES.values():
        assert set(on) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracer_restores_every_binding():
    import detideals

    modules = [m for n, m in sys.modules.items() if n.startswith("detideals")]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    methods = (detideals.grobner.StrongBasis.add, detideals.grobner.Ideal.equal)
    with tracing.Tracer():
        assert detideals.survey.char_poly is not detideals.smith.char_poly.__wrapped__
    after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert (detideals.grobner.StrongBasis.add, detideals.grobner.Ideal.equal) == methods


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(100000))
    assert tracer.self_time["outer"] + tracer.self_time["inner"] == pytest.approx(
        tracer.covered["outer"])
    assert tracer.request == 1 and len(tracer.spans) == 2


def test_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark, the command
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "critical-n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()

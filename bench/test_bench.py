"""Tests of the benchmark itself: ``python3 -m pytest bench``.

They run small versions of the workloads (same entry points and
strategies, coarse grids) so the whole file takes seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402

SMALL = {
    "cone": {"benchmark": "flower", "strategy": "S4.3", "theta": 60.0, "n": 80},
    "s3": {"benchmark": "conv-bl2", "strategy": "S3", "n": 80},
    "sweep": {"benchmark": "annulus", "strategy": "S4.3", "theta": 60.0, "sweep": [48, 64],
              "export_diagnostics": True},
}


def _small(kind: str, tmp_path: Path) -> harness.Workload:
    """A small workload whose reference is its own first unit."""
    wl = harness.Workload(kind, SMALL[kind], {})
    with harness._working_dir(tmp_path / "ref"):
        unit = harness.run_unit(wl, Path(kind), traced=False)
    reference = {"levels": unit.observed["levels"], "digests": unit.observed["digests"]}
    return dataclasses.replace(wl, reference=reference)


@pytest.fixture(autouse=True)
def _one_probe(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)


def _run(wl, tmp_path, trace, seed=1):
    return harness.run_benchmark(
        wl, seed=seed, seconds=0.0, trace=trace, src=ROOT / "src",
        work_dir=tmp_path / f"run-{trace}-{seed}",
    )


def _counts(result) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"
            and k not in ("trace.units",)}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_counters_repeat_across_traced_runs(kind, tmp_path):
    wl = _small(kind, tmp_path)
    first = _run(wl, tmp_path, trace=True, seed=1)
    second = _run(wl, tmp_path, trace=True, seed=2)
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)
    counts = _counts(first)
    assert counts["boundary_ops.svd_calls"] > 0
    assert counts["assembly.lu_fill"] > counts["assembly.nnz"] > 0
    assert counts["geometry.phi_evals"] > counts["geometry.collar_calls"] == counts["geometry.ghosts"]
    assert counts["trace.hooks_missing"] == 0
    if kind == "s3":
        # S3 bypasses the cone: one SVD per ghost, no stencils work at all.
        assert first["metrics"]["boundary_ops.svd_per_ghost"]["value"] == 1.0
        assert all(v == 0 for k, v in counts.items() if k.startswith("stencils."))
    else:
        assert counts["stencils.candidates_taken"] > 0
        assert first["metrics"]["boundary_ops.svd_per_ghost"]["value"] > 1.0
    assert counts["cli.levels"] == len(wl.reference["levels"])


def test_layer_self_times_add_up_to_traced_wall(tmp_path):
    wl = _small("cone", tmp_path)
    metrics = _run(wl, tmp_path, trace=True)["metrics"]
    parts = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    parts += metrics["trace.unattributed_s"]["value"]
    # One traced unit: the self times partition the root span, which
    # encloses the timed call.
    assert parts == pytest.approx(metrics["trace.wall_s"]["value"], rel=0.05)


def test_wrappers_are_gone_before_untraced_timing(tmp_path, monkeypatch):
    from ghostbc import cli

    wl = _small("cone", tmp_path)
    originals = {h.target: getattr(*tracing._resolve(h.target)) for h in tracing.HOOKS}
    seen = []
    run_single = cli.run_single

    def spy(cfg):
        seen.append(tracing.installed_wrappers())
        return run_single(cfg)

    monkeypatch.setattr(cli, "run_single", spy)
    result = _run(wl, tmp_path, trace=True)
    untraced = len(result["info"]["untraced_walls_s"])
    assert untraced >= 1 and len(seen) == result["attempted"]
    assert sum(1 for wrapped in seen if not wrapped) == untraced
    assert sum(1 for wrapped in seen if wrapped) == len(result["info"]["traced_walls_s"])
    assert tracing.installed_wrappers() == []
    assert all(getattr(*tracing._resolve(t)) is f for t, f in originals.items())


def test_tracer_restores_originals_on_error():
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert tracing.installed_wrappers()
            1 / 0
    assert tracing.installed_wrappers() == []


def test_wrong_reference_fails_every_unit(tmp_path):
    wl = _small("sweep", tmp_path)
    levels = json.loads(json.dumps(wl.reference["levels"]))
    levels["64"]["ghosts"] += 1
    wrong = dataclasses.replace(wl, reference={**wl.reference, "levels": levels})
    for trace in (False, True):
        result = _run(wrong, tmp_path, trace=trace)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] >= 1
    assert _run(wrong, tmp_path, trace=False)["metrics"]["ok_frac"]["value"] == 0.0


def test_failed_traced_unit_is_reported_not_compared(tmp_path, monkeypatch):
    from ghostbc import assembly
    from ghostbc.errors import SolveFailed

    wl = _small("cone", tmp_path)

    def failing_solve(*args, **kwargs):
        raise SolveFailed("injected")

    with harness._working_dir(tmp_path / "units"):
        clean = harness.run_unit(wl, Path(wl.name), traced=True)
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "solve", failing_solve)
            broken = harness.run_unit(wl, Path(wl.name), traced=True)
        untraced = harness.run_unit(wl, Path(wl.name), traced=False)
    assert broken.failures and broken.tracer.counts != clean.tracer.counts
    traced = [broken, clean]
    harness._check_counters(traced)
    assert not clean.failures
    setups = [{"setup_s": 1.0, "import_s": 0.5, "build_s": 0.1}]
    metrics = harness.layer_metrics(traced, [untraced], setups)
    assert metrics["assembly.lu_fill"]["value"] == clean.tracer.counts["assembly.lu_fill"] > 0


def test_digest_change_is_drift_not_failure(tmp_path):
    wl = _small("cone", tmp_path)
    digests = {name: "0" * 64 for name in wl.reference["digests"]}
    drifted = dataclasses.replace(wl, reference={**wl.reference, "digests": digests})
    result = _run(drifted, tmp_path, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert result["info"]["digest_drift"] == sorted(digests)
    assert result["metrics"]["check.digest_drift"]["value"] == result["attempted"]


def test_every_named_metric_is_emitted(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = _small("s3", tmp_path)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = _run(wl, tmp_path, trace=trace)["metrics"]
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: m["unit"] for k, m in metrics.items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    layer_map = json.loads((harness.HERE / "layers.json").read_text())["metrics"]
    assert list(layer_map) == [m["name"] for m in spec["per_layer"]]


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = harness.load_workloads()
    assert list(workloads) == [w["name"] for w in spec["workloads"]]
    for wl in workloads.values():
        assert wl.reference["levels"] and wl.reference["digests"]
        expected = wl.config.get("sweep") or [wl.config["n"]]
        assert sorted(wl.reference["levels"], key=int) == [str(n) for n in expected]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

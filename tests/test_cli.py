import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ghostbc as g
from ghostbc import cli
from ghostbc.analysis import NORM_NAMES
from ghostbc.cli import PAPER13, RunConfig, _parse_sweep, build_config, main
from ghostbc.errors import ConfigError


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n == 160
        assert cfg.strategy == "S4.3"
        assert cfg.theta == 60.0
        assert cfg.lambda_loc == 1e6
        assert cfg.lambda_glo == 10.0

    def test_grid_minimum(self):
        with pytest.raises(ConfigError):
            RunConfig(n=8)

    def test_sweep_must_increase(self):
        with pytest.raises(ConfigError):
            RunConfig(sweep=[160, 160])
        with pytest.raises(ConfigError):
            RunConfig(sweep=[200, 100])

    def test_tolerances_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(lambda_glo=0.0)

    def test_order_minimum(self):
        with pytest.raises(ConfigError, match="order must be >= 2"):
            RunConfig(order=1)

    def test_strategy_normalization(self):
        assert RunConfig(strategy="s4_3").strategy == "S4.3"

    def test_paper13_preset(self):
        assert _parse_sweep("paper13") == list(PAPER13)
        assert _parse_sweep("32,48,64") == [32, 48, 64]
        with pytest.raises(ConfigError):
            _parse_sweep("32,abc")


class TestMain:
    def test_single_run_smoke(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "run", "--benchmark", "annulus", "--strategy", "S4.3",
            "--n", "64", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "run.json").read_text())
        assert set(payload["errors"]) == {"l1", "linf", "grad_l1", "grad_linf"}
        assert payload["residual"] <= 1e-10
        ghosts = (out / "ghosts.csv").read_text().splitlines()
        assert ghosts[0] == "k,i,j,size,diameter,chi,r_ratio,collar_mode"
        assert len(ghosts) - 1 == payload["n_ghost"]
        seconds = json.loads((out / "timings.json").read_text())["seconds"]
        assert {"classify", "ghost_rows", "assemble", "factor", "solve", "analyze"} <= set(seconds)
        assert 0.0 <= seconds["factor"] <= seconds["solve"]

    def test_unknown_benchmark_exits_2(self, tmp_path, capsys):
        code = main(["run", "--benchmark", "pretzel", "--n", "64", "--out", str(tmp_path / "x")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "UnknownDomain"
        assert (tmp_path / "x" / "error.json").exists()

    @pytest.mark.parametrize(
        "config, key",
        [({"strategy": 4}, "strategy"), ({"sweep": "80,113"}, "sweep"), ({"sweep": [80, "x"]}, "sweep"),
         ({"benchmark": "convection", "kappa": "a", "u0": 1}, "kappa"), ({"theta": True}, "theta"),
         ({"max_swaps": True}, "max_swaps")],
    )
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, config, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--n", "32", "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"config key {key!r} must be")
        assert json.loads((out / "error.json").read_text()) == record

    @pytest.mark.parametrize(
        "kappa, u0", [("0", "1"), ("-1", "1"), ("nan", "1"), ("inf", "1"), ("1", "inf"), ("1", "1e6"), ("1", "nan"),
                      ("1", "5000"), ("1", "-5000")],
    )
    def test_bad_convection_parameters_exit_2(self, tmp_path, capsys, kappa, u0):
        # rejected by the benchmark (non-positive diffusion, a closed form
        # that underflows or overflows, a self-check that reads NaN) before
        # any level runs
        out = tmp_path / "o"
        code = main(["run", "--benchmark", "convection", "--kappa", kappa, "--u0", u0, "--n", "32", "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        if (kappa, u0) == ("1", "5000"):
            assert record["message"].endswith("its constant c = -inf is not finite")
        if (kappa, u0) == ("1", "-5000"):
            assert record["message"].endswith("r**beta overflows")
        assert json.loads((out / "error.json").read_text()) == record
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("flag", ["--lambda-loc", "--lambda-glo"])
    def test_nan_tolerance_exits_2(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert main(["run", "--benchmark", "annulus", "--strategy", "S4.3", "--n", "48", flag, "nan",
                     "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigError", "message": "conditioning tolerances must be positive"}
        assert json.loads((out / "error.json").read_text()) == record
        assert not (out / "run.json").exists()

    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        # ``python -m ghostbc`` is the command line, and it prints nothing
        # on stderr (``python -m ghostbc.cli`` draws a runpy warning)
        src = str(Path(g.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "m"
        done = subprocess.run(
            [sys.executable, "-m", "ghostbc", "run", "--benchmark", "annulus", "--strategy", "S3", "--n", "32",
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["n"] == 32
        assert (out / "run.json").exists()

    def test_numerical_failure_exits_1(self, tmp_path, capsys):
        # the hourglass waist cannot host ghost-exclusive triangles this coarse
        code = main([
            "run", "--benchmark", "hourglass", "--strategy", "S3", "--n", "16",
            "--out", str(tmp_path / "f"),
        ])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] in {"InactiveMember", "NotAdmissible", "GeometryError"}
        assert (tmp_path / "f" / "error.json").exists()

    def test_closure_failure_names_the_closure(self, tmp_path, capsys):
        # the S1 closure of the coarse flower promotes an exterior node whose
        # axis rays miss the boundary: a stencil error that says so, exit 1
        code = main(["run", "--benchmark", "flower", "--strategy", "S1", "--n", "48", "--out", str(tmp_path / "f")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == json.loads((tmp_path / "f" / "error.json").read_text())
        assert record["error"] == "InactiveMember"
        assert record["message"] == (
            "S1 band closure round 1 promoted an exterior node that has no collar point: "
            "no axis ray from [-0.66666667  0.375     ] crosses the boundary within 3.0 h"
        )

    def test_triangle_with_too_few_members_exits_2(self, tmp_path, capsys, monkeypatch):
        # a size-4 triangle has 15 members against the 21 constraints of
        # order 6: refused before any level runs, for single runs and sweeps
        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(cli, "execute_level", no_level)
        for strategy, grids in (("S3", ["--n", "48"]), ("S1", ["--sweep", "32,48,64"])):
            code = main([
                "run", "--benchmark", "annulus", "--strategy", strategy, "--order", "6", *grids,
                "--out", str(tmp_path / strategy),
            ])
            assert code == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "ConfigError"
            assert "15 members, fewer than the 21 constraints of order 6" in record["message"]
        RunConfig(strategy="S4.3", order=6)  # the cone grows past any count
        monkeypatch.undo()
        # size 5: 21 members against 21 constraints, which runs
        code = main([
            "run", "--benchmark", "annulus", "--strategy", "S3", "--p", "5", "--order", "6",
            "--n", "48", "--out", str(tmp_path / "p5"),
        ])
        assert code == 0

    def test_bad_strategy_knob_refuses_a_sweep_before_any_level(self, tmp_path, capsys, monkeypatch):
        # checked when the config is built: a sweep exits 2 and writes no
        # results, instead of recording a ConfigError as every level's failure
        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(cli, "execute_level", no_level)
        knobs = {"theta": ["--theta", "0"], "kind": ["--strategy", "S5"], "swaps": ["--max-swaps", "-1"]}
        for name, knob in knobs.items():
            out = tmp_path / name
            code = main(["run", "--benchmark", "annulus", "--sweep", "64,80,96", *knob, "--out", str(out)])
            assert code == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "ConfigError"
            assert json.loads((out / "error.json").read_text()) == record
            assert not (out / "orders.json").exists() and not (out / "convergence.csv").exists()
        assert main(["run", "--benchmark", "annulus", "--n", "64", "--theta", "0"]) == 2
        assert "cone aperture must be in (0, 360] degrees" in capsys.readouterr().err

    def test_export_matrix(self, tmp_path):
        out = tmp_path / "mtx"
        code = main([
            "run", "--benchmark", "annulus", "--n", "64",
            "--export-matrix", "--out", str(out),
        ])
        assert code == 0
        header = (out / "matrix.mtx").read_text().splitlines()[0]
        assert header.startswith("%%MatrixMarket matrix coordinate real general")

    def test_export_matrix_refuses_a_sweep(self, tmp_path, capsys, monkeypatch):
        # a sweep writes no matrix: asking for one exits 2 before any level runs
        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(cli, "execute_level", no_level)
        out = tmp_path / "mtx-sweep"
        code = main(["run", "--benchmark", "annulus", "--sweep", "32,48,64", "--export-matrix", "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "--export-matrix" in record["message"]
        assert json.loads((out / "error.json").read_text()) == record
        assert not (out / "orders.json").exists() and not (out / "matrix.mtx").exists()

    def test_exact_injection_validates_plumbing(self, tmp_path):
        out = tmp_path / "inj"
        code = main([
            "run", "--benchmark", "annulus-quartic", "--n", "64",
            "--inject-exact", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "run.json").read_text())
        assert all(v <= 1e-9 for v in payload["errors"].values())

    def test_short_sweep_skips_fit(self, tmp_path):
        out = tmp_path / "sweep2"
        code = main([
            "run", "--benchmark", "annulus-quartic", "--inject-exact",
            "--sweep", "32,48", "--out", str(out),
        ])
        assert code == 0
        orders = json.loads((out / "orders.json").read_text())
        assert orders["orders"] is None
        assert "at least 3 levels" in orders["fit_warning"]
        csv = (out / "convergence.csv").read_text().splitlines()
        assert csv[0] == "n,h,l1,linf,grad_l1,grad_linf"
        assert len(csv) == 3

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep3"
        code = main([
            "run", "--benchmark", "annulus", "--sweep", "32,48,64", "--out", str(out),
        ])
        assert code == 0
        orders = json.loads((out / "orders.json").read_text())
        assert set(orders["orders"]) == {"l1", "linf", "grad_l1", "grad_linf"}
        assert orders["levels_used"] == [32, 48, 64]
        for norm in ("l1", "linf", "grad_l1", "grad_linf"):
            lines = (out / f"plot_{norm}.dat").read_text().strip().splitlines()
            assert len(lines) == 3
            assert all(len(line.split()) == 2 for line in lines)


class TestSweepLevels:
    def test_failed_levels_come_back_in_sweep_order(self, tmp_path):
        # S1 on the flower fails at 40 and 80 and runs at 96: the levels run
        # largest first, and the failures and the row go back in sweep order
        out = tmp_path / "s1"
        cfg = RunConfig(benchmark="flower", strategy="S1", sweep=[40, 80, 96], out=str(out))
        cli.run_sweep(cfg)
        orders = json.loads((out / "orders.json").read_text())
        assert [(f["n"], f["error"]) for f in orders["failures"]] == [(40, "InactiveMember"), (80, "InactiveMember")]
        assert orders["levels_used"] == [96]
        errors = cli.execute_level(cfg, cfg.make_benchmark(), 96).errors
        row = ",".join(["96", cli._fmt(errors.h)] + [cli._fmt(getattr(errors, norm)) for norm in NORM_NAMES])
        assert (out / "convergence.csv").read_text().splitlines()[1:] == [row]

    def test_no_worker_outlives_the_sweep(self, tmp_path):
        cfg = RunConfig(benchmark="annulus-quartic", inject_exact=True, sweep=[32, 48], out=str(tmp_path / "q"))
        cli.run_sweep(cfg)
        assert multiprocessing.active_children() == []

    def test_one_level_sweep_runs_in_process(self, tmp_path, monkeypatch):
        calls = []
        execute_level = cli.execute_level

        def recording(cfg, bench, n):
            calls.append(n)
            return execute_level(cfg, bench, n)

        monkeypatch.setattr(cli, "execute_level", recording)
        cfg = RunConfig(benchmark="annulus-quartic", inject_exact=True, sweep=[48], out=str(tmp_path / "q"))
        assert [rep.n for rep in cli.run_sweep(cfg).levels] == [48]
        assert calls == [48]
        # a process that runs another thread is not forked: its levels run here
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            cli.run_sweep(dataclasses.replace(cfg, sweep=[32, 48]))
        finally:
            stop.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert calls == [48, 48, 32]


class TestDeterminism:
    def test_identical_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "a"
        args = ["run", "--benchmark", "annulus", "--n", "48", "--out", str(out)]
        assert main(args) == 0
        first = {name: (out / name).read_bytes() for name in ("run.json", "ghosts.csv")}
        assert main(args) == 0
        for name, content in first.items():
            assert (out / name).read_bytes() == content

    def test_config_echo_round_trip(self, tmp_path):
        out_a = tmp_path / "a"
        assert main(["run", "--benchmark", "annulus", "--n", "48", "--out", str(out_a)]) == 0
        payload = json.loads((out_a / "run.json").read_text())
        echoed = payload["config"]
        echoed["out"] = str(tmp_path / "b")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(echoed))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (out_a / "ghosts.csv").read_bytes() == (tmp_path / "b" / "ghosts.csv").read_bytes()


def test_build_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"benchmark": "annulus", "banana": 1}))
    import argparse

    ns = argparse.Namespace(config=cfg_path, sweep=None)
    with pytest.raises(ConfigError):
        build_config(ns)

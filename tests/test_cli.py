import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from funquant import SingularityError
from funquant.cli import main

MODEL = {
    "d": 3,
    "mu": [0.0, 0.0, 0.0],
    "lambda": [4.0, 1.0, 0.25],
    "mixture": {"kind": "gaussian"},
}


_ZERO_MODEL = {"d": 2, "mu": [0.0, 0.0], "lambda": [0.0, 0.0], "mixture": {"kind": "gaussian"}}
_ZERO_VALUE_MODEL = dict(MODEL, mixture={"kind": "two_point", "z1": 0.0, "z2": 0.0, "p": 0.5})


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "funquant", *args],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
    )


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def read_all(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL, "task": "simulate", "n": 10, "seed": 1})
        out = tmp_path / "out"
        first = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert first.returncode == 0, first.stderr
        snapshot = read_all(out)
        second = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert second.returncode == 0
        assert read_all(out) == snapshot
        assert "samples.csv" in snapshot
        assert "simulate_manifest.json" in snapshot

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL, "task": "simulate", "n": 10, "seed": 1})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out_a)).returncode == 0
        assert (
            run_cli("simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "2").returncode
            == 0
        )
        assert (out_a / "samples.csv").read_bytes() != (out_b / "samples.csv").read_bytes()
        manifest = json.loads((out_b / "simulate_manifest.json").read_text())
        assert manifest["seed"] == 2

    def test_samples_shape(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL, "task": "simulate", "n": 7, "seed": 3})
        out = tmp_path / "out"
        run_cli("simulate", "--config", str(cfg), "--out", str(out))
        lines = (out / "samples.csv").read_text().strip().splitlines()
        assert lines[0] == "c1,c2,c3"
        assert len(lines) == 8


class TestEstimate:
    def test_valid_json(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL, "task": "estimate", "n": 5000, "seed": 4})
        out = tmp_path / "out"
        assert run_cli("estimate", "--config", str(cfg), "--out", str(out)).returncode == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["n"] == 5000
        assert len(payload["eigvals"]) == 3
        assert payload["eigvals"] == sorted(payload["eigvals"], reverse=True)


class TestKmeans:
    def test_recovers_two_point_solution(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"model": MODEL, "task": "kmeans", "n": 30_000, "k": 2, "restarts": 5,
             "tol": 1e-10, "seed": 5},
        )
        out = tmp_path / "out"
        assert run_cli("kmeans", "--config", str(cfg), "--out", str(out)).returncode == 0
        payload = json.loads((out / "pointset.json").read_text())
        points = np.array(payload["points"])
        assert payload["k"] == 2
        np.testing.assert_allclose(
            np.sort(points[:, 0]), [-1.59577, 1.59577], atol=0.08
        )
        assert payload["residual"] < 1e-7

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"model": MODEL, "task": "kmeans", "n": 5000, "k": 3, "restarts": 6,
             "tol": 1e-9, "seed": 6},
        )
        out1, out4 = tmp_path / "j1", tmp_path / "j4"
        assert run_cli("kmeans", "--config", str(cfg), "--out", str(out1), "--jobs", "1").returncode == 0
        assert run_cli("kmeans", "--config", str(cfg), "--out", str(out4), "--jobs", "4").returncode == 0
        assert (out1 / "pointset.json").read_bytes() == (out4 / "pointset.json").read_bytes()

    def test_curve_export_with_fourier_basis(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"model": MODEL, "task": "kmeans", "n": 2000, "k": 2, "seed": 7,
             "basis": {"family": "fourier-on-[0,1]", "grid_points": 33}},
        )
        out = tmp_path / "out"
        assert run_cli("kmeans", "--config", str(cfg), "--out", str(out)).returncode == 0
        for name in ("point_1.csv", "point_2.csv"):
            lines = (out / name).read_text().strip().splitlines()
            assert lines[0] == "t,value"
            assert len(lines) == 34

    @pytest.mark.parametrize(
        "model, k", [(_ZERO_MODEL, 3), (_ZERO_VALUE_MODEL, 2)], ids=["zero-spectrum", "two-point-zeros"]
    )
    def test_degenerate_draws_exit_3_without_pointset(self, tmp_path, capsys, model, k):
        # every draw is the mean, so k points cannot all have a non-empty domain
        cfg = write_config(tmp_path, {"model": model, "task": "kmeans", "n": 50, "k": k, "seed": 0})
        assert main(["kmeans", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert f"error: config.k: the draws have fewer than k={k} distinct rows" in capsys.readouterr().err
        assert not (tmp_path / "o" / "pointset.json").exists()

    def test_k_larger_than_n_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, {"model": MODEL, "task": "kmeans", "n": 3, "k": 5, "seed": 0}
        )
        result = run_cli("kmeans", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "config.k" in result.stderr


class TestClosedForm:
    def test_gaussian_points(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL, "task": "closed-form", "seed": 0})
        out = tmp_path / "out"
        assert run_cli("closed-form", "--config", str(cfg), "--out", str(out)).returncode == 0
        payload = json.loads((out / "pointset.json").read_text())
        points = np.array(payload["points"])
        np.testing.assert_allclose(np.sort(points[:, 0]), [-1.59577, 1.59577], atol=1e-4)
        np.testing.assert_allclose(points[:, 1:], 0.0, atol=1e-12)
        # analytic objective: trace - (1 - g) * lambda_1
        g = 1.0 - 2.0 / np.pi
        assert payload["mse"] == pytest.approx(5.25 - (1.0 - g) * 4.0, rel=1e-6)
        assert payload["residual"] == 0.0


class TestVerify:
    def test_small_suite_passes_and_is_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"task": "verify", "checks": ["dimension_bound", "ratio_invariance"],
             "n": 5000, "seed": 8},
        )
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        r1 = run_cli("verify", "--config", str(cfg), "--out", str(out1))
        assert r1.returncode == 0, r1.stderr
        assert "[PASS]" in r1.stdout
        r2 = run_cli("verify", "--config", str(cfg), "--out", str(out2), "--jobs", "3")
        assert r2.returncode == 0
        assert (out1 / "verification.json").read_bytes() == (out2 / "verification.json").read_bytes()
        payload = json.loads((out1 / "verification.json").read_text())
        assert all("runtime" not in rec for rec in payload)

    def test_failing_check_exits_nonzero(self, tmp_path):
        # 60 samples cannot pin a regression slope to 5 percent
        cfg = write_config(
            tmp_path, {"task": "verify", "checks": ["conditional_linearity"], "n": 60, "seed": 9}
        )
        result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "v"))
        assert result.returncode == 1
        assert "[FAIL]" in result.stdout

    def test_console_names_the_law_of_each_law_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "verify", "checks": ["ratio_invariance"], "n": 3})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert [line.split()[3] for line in lines] == ["normal", "uniform(0,1)"]

    def test_full_check_list_on_reference_models_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "verify", "n": 50_000, "seed": 0})
        out = tmp_path / "full"
        result = run_cli("verify", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads((out / "verification.json").read_text())
        assert len(payload) > 30
        assert all(rec["passed"] or rec["flags"] for rec in payload)


class TestReport:
    def test_header_only_for_empty_inputs(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "report", "inputs": []})
        out = tmp_path / "out"
        assert run_cli("report", "--config", str(cfg), "--out", str(out)).returncode == 0
        assert (out / "report.csv").read_text() == "name,model,n,seed,residual,tol,pass\n"

    def test_rows_follow_file_order_for_single_input(self, tmp_path):
        vcfg = write_config(
            tmp_path,
            {"task": "verify", "checks": ["dimension_bound", "convex_hull"], "n": 3000, "seed": 10},
            name="verify.json.cfg",
        )
        vout = tmp_path / "vout"
        assert run_cli("verify", "--config", str(vcfg), "--out", str(vout)).returncode == 0
        rcfg = write_config(
            tmp_path,
            {"task": "report", "inputs": [str(vout / "verification.json")]},
            name="report.cfg",
        )
        out = tmp_path / "rout"
        assert run_cli("report", "--config", str(rcfg), "--out", str(out)).returncode == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        recs = json.loads((vout / "verification.json").read_text())
        assert [line.split(",")[0] for line in lines[1:]] == [r["name"] for r in recs]
        assert (out / "report.md").read_text().startswith("| name | model |")

    def test_mixed_inputs_sorted_by_name_and_seed(self, tmp_path):
        paths = []
        for seed in (21, 20):
            vcfg = write_config(
                tmp_path,
                {"task": "verify", "checks": ["ratio_invariance", "dimension_bound"],
                 "n": 2000, "seed": seed},
                name=f"v{seed}.cfg",
            )
            vout = tmp_path / f"vout{seed}"
            assert run_cli("verify", "--config", str(vcfg), "--out", str(vout)).returncode == 0
            paths.append(str(vout / "verification.json"))
        rcfg = write_config(tmp_path, {"task": "report", "inputs": paths}, name="r.cfg")
        out = tmp_path / "rout"
        assert run_cli("report", "--config", str(rcfg), "--out", str(out)).returncode == 0
        import csv as csv_module

        with open(out / "report.csv") as f:
            rows = list(csv_module.reader(f))[1:]
        keys = [(row[0], row[3]) for row in rows]
        assert keys == sorted(keys)

    def test_missing_input_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "report", "inputs": ["nowhere.json"]})
        result = run_cli("report", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "does not exist" in result.stderr

    @pytest.mark.parametrize(
        "content, record",
        [
            pytest.param('{"name": "convex_hull"}', None, id="object-top-level"),
            pytest.param("[", None, id="invalid-json"),
            pytest.param(b"\xff\xfe[]", None, id="not-utf8"),
            pytest.param(None, None, id="directory"),
            pytest.param("[1]", 0, id="record-not-object"),
            pytest.param('[{"name": "a"}, {"params": [1]}]', 1, id="params-not-object"),
            pytest.param('[{"residuals": "abc"}]', 0, id="residuals-not-object"),
            pytest.param('[{"residuals": {"r": 1.0}, "tolerances": null}]', 0, id="tolerances-not-object"),
            pytest.param('[{"residuals": {"r": "abc"}}]', 0, id="string-residual"),
            pytest.param('[{"residuals": {"r": true}, "tolerances": {"r": 1.0}}]', 0, id="bool-residual"),
            pytest.param('[{"residuals": {"r": 1' + "0" * 400 + '}}]', 0, id="residual-out-of-float-range"),
            pytest.param('[{"residuals": {"r": 1.0}, "tolerances": {"r": "1e-3"}}]', 0, id="string-tolerance"),
            pytest.param('[{"residuals": {"r": 1.0}, "tolerances": {"r": false}}]', 0, id="bool-tolerance"),
            pytest.param('[{"name": "a"}, {}, {"name": 7}]', 2, id="name-not-string"),
            pytest.param("[" * 100_000 + "]" * 100_000, None, id="nested-past-recursion-limit"),
        ],
    )
    def test_malformed_input_exits_2_naming_path_and_record(self, tmp_path, capsys, content, record):
        path = tmp_path / "reports.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
        cfg = write_config(tmp_path, {"task": "report", "inputs": [str(path)]})
        code = main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"error: {path}")
        if record is not None:
            assert err.startswith(f"error: {path}: record {record}: ")

    def test_non_finite_residuals_and_tolerances_are_legal(self, tmp_path):
        path = tmp_path / "reports.json"
        path.write_text('[{"name": "a", "residuals": {"r": NaN}, "tolerances": {"r": Infinity}}]')
        cfg = write_config(tmp_path, {"task": "report", "inputs": [str(path)]})
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "report.csv").read_text().splitlines()[1] == "a,,,,nan,inf,false"


class TestSchemaErrors:
    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "model": [,]\n}')
        result = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "bad.json:2" in result.stderr

    def test_missing_model(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "simulate", "n": 5, "seed": 0})
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "config.model" in result.stderr

    def test_task_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, {"model": MODEL, "task": "simulate", "n": 5, "seed": 0})
        result = run_cli("kmeans", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2

    def test_increasing_lambda_rejected_with_path(self, tmp_path):
        bad = dict(MODEL, **{"lambda": [1.0, 2.0, 3.0]})
        cfg = write_config(tmp_path, {"model": bad, "task": "simulate", "n": 5, "seed": 0})
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "model" in result.stderr

    def test_mixture_field_of_another_kind_exits_2(self, tmp_path):
        bad = dict(MODEL, mixture={"kind": "gaussian", "nu": 5, "z1": 3})
        cfg = write_config(tmp_path, {"model": bad, "task": "simulate", "n": 5, "seed": 0})
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "mixture.nu: not a parameter of a gaussian mixture" in result.stderr
        assert not (tmp_path / "o" / "samples.csv").exists()

    @pytest.mark.parametrize(
        "task, field, where",
        [
            ("kmeans", '"tol": "abc"', "config.tol"),
            ("kmeans", '"max_iter": "x"', "config.max_iter"),
            ("kmeans", '"n": true', "config.n"),
            ("kmeans", '"tol": 1e400', "config.tol"),
            ("kmeans", '"max_iter": 2.7', "config.max_iter"),
            ("kmeans", '"k": 2.5', "config.k"),
            ("kmeans", '"restarts": false', "config.restarts"),
            ("kmeans", '"seed": NaN', "config.seed"),
            pytest.param("kmeans", '"tol": 1' + "0" * 400, "config.tol", id="kmeans-huge-int-tol"),
            ("verify", '"n": 1.5', "config.n"),
            ("verify", '"n": "200"', "config.n"),
            # below the largest fixture k: a solver error or a singular regression otherwise
            ("verify", '"n": 1, "checks": ["conditional_linearity"]', "config.n"),
            ("verify", '"n": 1', "config.n"),
            ("verify", '"n": 2', "config.n"),
            ("kmeans", '"basis": {"grid": "abc"}', "config.basis.grid"),
            ("kmeans", '"basis": {"grid": [0, 0.5, "x"]}', "config.basis.grid"),
            ("kmeans", '"basis": {"grid": [0, NaN, 1]}', "config.basis.grid"),
            ("kmeans", '"basis": {"grid": [0.5, 0.2, 0.9]}', "config.basis.grid"),
            ("kmeans", '"basis": {"grid": [0.5, 2.0]}', "config.basis.grid"),
            ("kmeans", '"basis": {"grid": [0.5]}', "config.basis.grid"),
            # above the bound, so no restart seeds or threads are allocated
            ("kmeans", '"restarts": 1000000000', "config.restarts"),
            pytest.param(
                "kmeans", '"model": ' + json.dumps(dict(MODEL, d=1, mu=[0.0], **{"lambda": [1.0]}))
                + ', "basis": {"dimension": true}', "config.basis.dimension", id="kmeans-d1-bool-dimension",
            ),
            ("kmeans", '"basis": {"grid_points": true}', "config.basis.grid_points"),
            # 7.11 PiB of grid: the allocation fails at once, so no memory is used
            pytest.param("kmeans", '"basis": {"grid_points": 1000000000000000}', "config.basis.grid_points",
                         id="kmeans-unallocatable-grid-points"),
            pytest.param("estimate", '"model": ' + json.dumps(MODEL) + ', "n": 1', "config.n", id="estimate-n1"),
            pytest.param("closed-form", '"model": ' + json.dumps(_ZERO_MODEL), "config.model", id="closed-form-zero"),
            pytest.param("closed-form", '"model": ' + json.dumps(_ZERO_VALUE_MODEL), "config.model",
                         id="closed-form-two-point-zero-value"),
        ],
    )
    def test_typed_fields_exit_2_with_anchored_message(self, tmp_path, capsys, task, field, where):
        # the field is raw JSON text, so later keys override the base ones
        base = {"model": MODEL, "n": 50, "k": 2, "seed": 0} if task == "kmeans" else {"n": 50, "seed": 0}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base)[:-1] + ", " + field + "}")
        code = main([task, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {where}: " in capsys.readouterr().err

    def test_oversized_integer_exits_2_without_traceback(self, tmp_path):
        # json.loads refuses integer literals over Python's int-string limit
        cfg = tmp_path / "config.json"
        cfg.write_text('{"n": 1' + "0" * 5000 + ', "seed": 0}')
        result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"error: {cfg}: invalid JSON" in result.stderr

    def test_non_utf8_config_exits_2_naming_the_path(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_bytes('{"n": 50, "seed": 0, "note": "é"}'.encode("latin-1"))
        result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"error: {cfg}: cannot read config" in result.stderr

    def test_config_nested_past_the_recursion_limit_exits_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"error: {cfg}: invalid JSON" in result.stderr

    @pytest.mark.parametrize("task", ["simulate", "kmeans"])
    def test_unallocatable_n_exits_2_without_traceback(self, tmp_path, task):
        # 7.11 PiB of draws: the first allocation fails at once, so no memory is used
        cfg = write_config(tmp_path, {"model": MODEL, "task": task, "n": 10**15, "k": 2, "seed": 0})
        result = run_cli(task, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "error: config.n: " in result.stderr

    def test_integral_float_counts_as_integer(self, tmp_path):
        cfg = write_config(
            tmp_path, {"model": MODEL, "task": "kmeans", "n": 50, "k": 2.0, "max_iter": 5.0, "seed": 0}
        )
        assert main(["kmeans", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


_HUGE = "<5000-digit integer>"
_FUZZ_VALUES = (
    True, False, "abc", "", "1e-8", None, -1, 0, 2.5, float("nan"), float("inf"), float("-inf"),
    10**400, {"x": {"y": [1]}}, [], [1.0, "a"], [[0.5]], _HUGE,
)


def _fuzz_paths(node, path=()):
    """Every key and list index below the top level, as a path of keys."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _fuzz_paths(child, path + (key,))


def _mutate(cfg, rng):
    cfg = copy.deepcopy(cfg)
    for _ in range(int(rng.integers(1, 4))):
        paths = list(_fuzz_paths(cfg))
        if not paths:
            break
        *parents, last = paths[int(rng.integers(len(paths)))]
        node = cfg
        for key in parents:
            node = node[key]
        if isinstance(node, dict) and rng.random() < 0.3:
            del node[last]
        else:
            node[last] = copy.deepcopy(_FUZZ_VALUES[int(rng.integers(len(_FUZZ_VALUES)))])
    return json.dumps(cfg).replace(json.dumps(_HUGE), "1" + "0" * 5000)


# Two records as ``verify`` writes them, the input that the ``report`` bases read.
_REPORTS = [
    {"name": "convex_hull", "params": {"model": "gaussian(4,1,0.25)", "n": 300, "seed": 1}, "passed": True,
     "flags": [], "residuals": {"hull_excess": 0.0}, "tolerances": {"hull_excess": 1e-10}},
    {"name": "ratio_invariance", "params": {"law": "normal", "seed": 0}, "passed": False, "flags": ["degenerate"],
     "residuals": {"ratio_spread": 0.5}, "tolerances": {"ratio_spread": 1e-6}},
]
_REPORT_CONFIG = {"task": "report", "inputs": ["reports.json"]}


@pytest.mark.parametrize(
    "task, base",
    [
        ("closed-form", {"task": "closed-form", "model": dict(MODEL, mixture={"kind": "student_t", "nu": 5.0}),
                         "seed": 0}),
        ("closed-form", {"task": "closed-form", "model": dict(MODEL, mixture={"kind": "two_point", "z1": 1.0,
                                                                             "z2": 3.0, "p": 0.3}), "seed": 0}),
        ("simulate", {"task": "simulate", "model": MODEL, "n": 20, "seed": 0}),
        # grid wins over grid_points, so grid_points is read once a mutation deletes grid
        ("closed-form", {"task": "closed-form", "model": MODEL, "seed": 0,
                         "basis": {"family": "fourier-on-[0,1]", "dimension": 3, "grid": [0.0, 0.5, 1.0],
                                   "grid_points": 5}}),
        ("estimate", {"task": "estimate", "model": MODEL, "n": 20, "seed": 0}),
        ("kmeans", {"task": "kmeans", "model": MODEL, "n": 20, "k": 2, "restarts": 2, "seed": 0,
                    "basis": {"family": "fourier-on-[0,1]", "grid_points": 9}}),
        ("verify", {"task": "verify", "checks": ["ratio_invariance"], "n": 300, "seed": 0}),
        ("report", _REPORT_CONFIG),
        # the config stays fixed and the report input file is mutated
        ("report", _REPORTS),
    ],
    ids=["closed-form-t", "closed-form-two-point", "simulate", "closed-form-basis", "estimate", "kmeans",
         "verify", "report", "report-input"],
)
def test_fuzzed_configs_exit_with_a_documented_code(tmp_path, capsys, monkeypatch, task, base):
    # Seeded mutations of field types and values; any uncaught exception fails the test.
    monkeypatch.chdir(tmp_path)
    reports = tmp_path / "reports.json"
    reports.write_text(json.dumps(_REPORTS))
    rng = np.random.default_rng([41, len(task), len(json.dumps(base))])
    for case in range(80):
        cfg = tmp_path / f"config_{case}.json"
        text = _mutate(base, rng)
        if base is _REPORTS:
            reports.write_text(text)
            text = json.dumps(_REPORT_CONFIG)
        cfg.write_text(text)
        code = main([task, "--config", str(cfg), "--out", str(tmp_path / f"o{case}")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), text
        assert "Traceback" not in err, text


_SCIPY_PROBE = """
import sys

import funquant
from funquant import cli

for task in sys.argv[2:]:
    code = cli.main([task, "--config", f"{sys.argv[1]}/{task}.json", "--out", f"{sys.argv[1]}/out_{task}"])
    print("probe", task, code, *sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_scipy_free_tasks_do_not_import_scipy(tmp_path):
    # verify runs last: it is the one task here that needs scipy, so it shows the probe sees imports
    report_input = write_config(tmp_path, [{"name": "convex_hull", "params": {}, "passed": True}], "reports.json")
    configs = {
        "simulate": {"model": MODEL, "n": 20, "seed": 0},
        "estimate": {"model": MODEL, "n": 50, "seed": 0},
        "kmeans": {"model": MODEL, "n": 50, "k": 2, "seed": 0,
                   "basis": {"family": "fourier-on-[0,1]", "grid_points": 9}},
        "report": {"inputs": [str(report_input)]},
        "verify": {"checks": ["ratio_invariance"], "seed": 0},
    }
    for task, payload in configs.items():
        write_config(tmp_path, payload, f"{task}.json")
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), *configs],
        capture_output=True, text=True, cwd=Path(__file__).parent.parent,
    )
    assert result.returncode == 0, result.stderr
    lines = [line.split()[1:] for line in result.stdout.splitlines() if line.startswith("probe ")]
    assert [line[:2] for line in lines] == [[task, "0"] for task in configs]
    assert (tmp_path / "out_kmeans" / "point_1.csv").exists()
    for task, _, *scipy_modules in lines[:-1]:
        assert scipy_modules == [], task
    assert "scipy.special" in lines[-1][2:]


def test_singularity_maps_to_exit_3(tmp_path, monkeypatch):
    import funquant.cli as cli_module

    cfg = write_config(tmp_path, {"model": MODEL, "task": "simulate", "n": 5, "seed": 0})

    def boom(scenario):
        raise SingularityError("covariance block is singular")

    monkeypatch.setitem(cli_module._RUNNERS, "simulate", boom)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3


def test_console_script_entry_point():
    result = run_cli("simulate", "--config", "/nonexistent.json")
    assert result.returncode == 2

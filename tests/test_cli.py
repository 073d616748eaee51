import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfoc import cli, model, optimizer, trajectories
from conftest import make_config, prior_path
from mfoc.cli import (
    RunWriter,
    _initial_grid_path,
    _path_to_csv,
    _solved_state,
    load_run_document,
    main,
)
from mfoc.measures import (
    AdmissibilityError,
    ControlPath,
    DegenerateMeasureError,
    GridMeasure,
    relative_entropy,
)
from mfoc.model import (
    RIDGE_OUTER,
    ActivationField,
    ConfigError,
    FieldQuadrature,
    TimeGrid,
    Workspace,
    config_value,
    load_problem_config,
)
from mfoc.trajectories import DivergenceError, backward_solve, forward_solve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    return code, out


def read_summary(out):
    with open(out / "summary.json") as fh:
        return json.load(fh)


def digest_files(out, names):
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names
    }


class TestSolve:
    def test_zero_fixture_is_free(self, tmp_path):
        code, out = run(
            tmp_path, "solve", "--config", str(FIXTURES / "mini_zero.json")
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["converged"]
        assert abs(summary["cost"]) < 1e-10

    def test_zero_iteration_budget_fails_with_code_2(self, tmp_path):
        code, out = run(
            tmp_path,
            "solve",
            "--config",
            str(FIXTURES / "mini.json"),
            "--set",
            "solve.max_iters=0",
        )
        assert code == 2
        summary = read_summary(out)
        assert not summary["converged"]
        assert summary["residual"] > 0.0

    def test_malformed_config_exits_1(self, tmp_path):
        doc = json.loads((FIXTURES / "mini.json").read_text())
        doc["potential"]["c1"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unknown_key_exits_1(self, tmp_path):
        doc = json.loads((FIXTURES / "mini.json").read_text())
        doc["surprise"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_manifest_lists_files_with_digests(self, tmp_path):
        code, out = run(tmp_path, "solve", "--config", str(FIXTURES / "mini.json"))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = {f["name"] for f in manifest["files"]}
        assert {"residuals.csv", "nu_star.csv", "summary.json"} <= names
        for entry in manifest["files"]:
            data = (out / entry["name"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_desk_fixture_matches_golden_digest(self, tmp_path):
        # golden file produced by this implementation and frozen; guards
        # against silent numerical drift (see tests/golden/README)
        code, out = run(tmp_path, "solve", "--config", str(FIXTURES / "desk.json"))
        assert code == 0
        golden = (
            Path(__file__).resolve().parent / "golden" / "desk_solve.sha256"
        ).read_text()
        digests = dict(
            line.split()
            for line in golden.strip().split("\n")
        )
        got = digest_files(out, sorted(digests))
        assert got == digests


class TestDescent:
    def test_zero_steps_emits_initial_row_only(self, tmp_path):
        code, out = run(
            tmp_path,
            "descent",
            "--config",
            str(FIXTURES / "mini.json"),
            "--set",
            "descent.backend=particle",
            "--set",
            "descent.steps=0",
            "--set",
            "descent.particles=50",
        )
        assert code == 0
        lines = (out / "series.csv").read_text().strip().split("\n")
        doc = json.loads((FIXTURES / "mini.json").read_text())
        assert len(lines) == 1 + doc["grid"]["nt"]  # header + one row per node

    def test_grid_series_has_descending_cost(self, tmp_path):
        code, out = run(
            tmp_path,
            "descent",
            "--config",
            str(FIXTURES / "mini.json"),
            "--set",
            "descent.steps=8",
        )
        assert code == 0
        lines = (out / "series.csv").read_text().strip().split("\n")[1:]
        costs = [float(line.split(",")[1]) for line in lines]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_particle_rerun_is_byte_identical(self, tmp_path):
        args = [
            "descent",
            "--config",
            str(FIXTURES / "mini.json"),
            "--set",
            "descent.backend=particle",
            "--set",
            "descent.steps=3",
            "--set",
            "descent.particles=64",
        ]
        _, out1 = run(tmp_path / "a", *args)
        _, out2 = run(tmp_path / "b", *args)
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


class TestStability:
    def test_zero_fixture_reports_stable(self, tmp_path):
        code, out = run(
            tmp_path, "stability", "--config", str(FIXTURES / "mini_zero.json")
        )
        assert code == 0
        summary = read_summary(out)
        # strictly negative spectrum: wide margin from one
        assert summary["dominant_eig"] < 0.0
        assert summary["stable_evidence"]

    def test_desk_scale_report(self, tmp_path):
        code, out = run(
            tmp_path,
            "stability",
            "--config",
            str(FIXTURES / "mini.json"),
            "--set",
            "stability.iters=4",
        )
        assert code == 0
        summary = read_summary(out)
        assert np.isfinite(summary["dominant_eig"])
        assert np.isfinite(summary["margin_from_one"])
        # lambda_max is the largest algebraic Ritz value, dominant_eig the
        # largest in magnitude
        ritz = [float(r.split(",")[1]) for r in (out / "ritz.csv").read_text().splitlines()[1:]]
        assert len(ritz) == 4 and summary["lambda_max"] == max(ritz)
        assert summary["dominant_eig"] == max(ritz, key=abs)


class TestPlScan:
    def test_degenerate_scan_exits_zero(self, tmp_path):
        code, out = run(
            tmp_path,
            "pl-scan",
            "--config",
            str(FIXTURES / "mini.json"),
            "--set",
            "pl_scan.samples=1",
            "--set",
            "pl_scan.radius=0.0",
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["pl_ratio"] is None

    def test_small_scan_records_positive_ratio(self, tmp_path):
        code, out = run(
            tmp_path,
            "pl-scan",
            "--config",
            str(FIXTURES / "mini.json"),
            "--set",
            "pl_scan.samples=4",
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["pl_ratio"] > 0.0
        lines = (out / "samples.csv").read_text().strip().split("\n")
        assert lines[0] == "sample,entropy,cost,gap,fisher,ratio"
        assert len(lines) >= 2


class TestCheck:
    def test_default_battery_passes(self, tmp_path):
        code, out = run(tmp_path, "check", "--config", str(FIXTURES / "mini.json"))
        assert code == 0
        summary = read_summary(out)
        assert summary["failed"] == 0

    def test_corrupted_config_exits_1(self, tmp_path):
        doc = json.loads((FIXTURES / "mini.json").read_text())
        doc["potential"]["c1"] = -0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["check", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_injected_fault_exits_3(self, tmp_path, capsys, monkeypatch):
        terminal_adjoint = trajectories._terminal_adjoint
        monkeypatch.setattr(
            trajectories, "_terminal_adjoint", lambda config, flow: -terminal_adjoint(config, flow)
        )
        code, out = run(tmp_path, "check", "--config", str(FIXTURES / "mini.json"))
        assert code == 3
        summary = read_summary(out)
        failing = [r["name"] for r in summary["results"] if not r["ok"]]
        assert "adjoint-terminal-exactness" in failing


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("solve", []),
            ("descent", ["--set", "descent.steps=3"]),
            (
                "descent",
                [
                    "--set",
                    "descent.backend=particle",
                    "--set",
                    "descent.steps=2",
                    "--set",
                    "descent.particles=64",
                ],
            ),
            ("stability", ["--set", "stability.iters=3"]),
            ("pl-scan", ["--set", "pl_scan.samples=2"]),
            ("check", []),
        ],
    )
    def test_byte_identical_across_reruns(self, tmp_path, command, extra):
        base = [command, "--config", str(FIXTURES / "mini.json"), *extra]
        outputs = []
        for label in ("a", "b", "c"):
            code, out = run(tmp_path / label, *base)
            assert code == 0
            files = sorted(
                p.name for p in out.iterdir() if p.name != "manifest.json"
            )
            outputs.append(
                {name: (out / name).read_bytes() for name in files}
            )
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("solve", []),
            ("stability", ["--set", "stability.iters=5"]),
            ("descent", ["--set", "descent.backend=particle"]),
            (
                "descent",
                ["--set", "descent.backend=particle", "--set", "field.family=ridge-with-outer-weight"],
            ),
            ("descent", []),
            ("pl-scan", ["--set", "pl_scan.samples=2"]),
            ("check", []),
        ],
    )
    def test_byte_identical_across_blas_thread_counts(self, tmp_path, command, extra):
        # the kernel's pre-activation is a BLAS product, and BLAS sizes its
        # thread pool from the environment of a fresh process
        base = [sys.executable, "-m", "mfoc.cli", command, "--config", str(FIXTURES / "mini.json")]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
            out = tmp_path / threads
            done = subprocess.run([*base, *extra, "--out", str(out)], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr.decode()
            names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            outputs.append({name: (out / name).read_bytes() for name in names})
        assert outputs[0] == outputs[1] and len(outputs[0]) >= 2

    def test_seed_override_changes_particle_output(self, tmp_path):
        args = [
            "descent",
            "--config",
            str(FIXTURES / "mini.json"),
            "--set",
            "descent.backend=particle",
            "--set",
            "descent.steps=1",
            "--set",
            "descent.particles=32",
        ]
        _, out1 = run(tmp_path / "a", *args)
        _, out2 = run(tmp_path / "b", *args, "--seed", "999")
        assert (out1 / "series.csv").read_bytes() != (
            out2 / "series.csv"
        ).read_bytes()


class TestDescentSeriesIdentity:
    def test_emitted_series_satisfies_descent_identity(self, tmp_path):
        code, out = run(
            tmp_path,
            "descent",
            "--config",
            str(FIXTURES / "mini.json"),
            "--set",
            "measure.res=64",
            "--set",
            "descent.steps=15",
            "--set",
            "descent.step_size=0.0005",
        )
        assert code == 0
        lines = (out / "series.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        i_fisher = header.index("fisher")
        i_dj = header.index("dj_over_h")
        rows = [line.split(",") for line in lines[1:]]
        hits = 0
        total = 0
        for prev, row in zip(rows, rows[1:]):
            dj = float(row[i_dj])
            fisher_prev = float(prev[i_fisher])
            total += 1
            if abs(dj + fisher_prev) <= 0.05 * fisher_prev:
                hits += 1
        assert hits / total >= 0.95, (hits, total)


def reference_path_to_csv(path):
    """Row-by-row formatter that ``_path_to_csv`` must reproduce byte for byte."""
    template = path.measures[0]
    coords = template.midpoints()
    lines = [
        "node," + ",".join(f"a{i}" for i in range(template.dprime)) + ",value"
    ]
    for k, nu in enumerate(path.measures):
        vals = nu.values.ravel()
        for row, v in zip(coords, vals):
            fields = [format(float(x), ".17g") for x in (*row, v)]
            lines.append(str(k) + "," + ",".join(fields))
    return "\n".join(lines) + "\n"


def test_solve_converges_on_mini_at_small_epsilon(tmp_path):
    code, out = run(
        tmp_path, "solve", "--config", str(FIXTURES / "mini.json"), "--set", "epsilon=0.02"
    )
    assert code == 0
    summary = read_summary(out)
    assert summary["converged"] is True
    assert summary["residual"] <= 1e-8


class TestPathCsv:
    def test_solved_mini_path_matches_reference(self):
        config, doc = load_run_document(str(FIXTURES / "mini.json"), [])
        result, _, _ = _solved_state(config, doc)
        assert result is not None
        text = b"".join(_path_to_csv(result.path)).decode()
        assert text == reference_path_to_csv(result.path)
        assert text.count("\n") == 1 + config.grid.nt * 32 * 32

    def test_edge_values_match_reference(self):
        values = np.full((4, 4), 0.1)
        values.flat[1:6] = [-0.0, 1e-300, 5e-324, 1.0 / 3.0, 12345678.901234567]
        grid = TimeGrid(0.0, 1.0, 3)
        measures = [GridMeasure(2.5, 4, values * scale) for scale in (1.0, 0.5, 3.0)]
        path = ControlPath(grid, tuple(measures))
        text = b"".join(_path_to_csv(path)).decode()
        assert text == reference_path_to_csv(path)
        assert ",-0\n" in text and ",4.9406564584124654e-324\n" in text


class TestRunWriter:
    def test_desk_path_streams_in_bounded_memory(self, tmp_path, desk_config):
        path, _ = prior_path(desk_config)
        assert len(path.measures) == 65 and path.measures[0].values.shape == (64, 64)
        whole = reference_path_to_csv(path)
        writer = RunWriter(tmp_path, "solve", {})
        tracemalloc.start()
        try:
            writer.write_text("nu_star.csv", _path_to_csv(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole file is 10.7 MB; joining it as one string peaks near 47 MB
        assert peak < 4e6, peak
        writer.write_text("whole.csv", whole)
        assert (tmp_path / "nu_star.csv").read_bytes() == whole.encode()
        digests = [f["sha256"] for f in writer.files]
        assert digests == [hashlib.sha256(whole.encode()).hexdigest()] * 2

    @pytest.mark.parametrize(
        "args, path_file",
        [(("solve",), "nu_star.csv"), (("descent", "--set", "descent.steps=2"), "final_state.csv")],
    )
    def test_manifest_digests_match_files_on_disk(self, tmp_path, args, path_file):
        code, out = run(tmp_path, *args, "--config", str(FIXTURES / "mini.json"))
        assert code == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert path_file in [f["name"] for f in files]
        for entry in files:
            on_disk = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert entry["sha256"] == on_disk, entry["name"]

    def test_csv_cells_print_as_format_17g(self, tmp_path):
        cells = [math.inf, -math.inf, math.nan, -0.0, np.float64(1.0 / 3.0), 5e-324, np.int64(7)]
        writer = RunWriter(tmp_path, "solve", {})
        writer.write_csv("t.csv", ["a", "b"], [(x, None) for x in cells])
        rows = "".join(f"{format(x, '.17g')},\n" for x in cells)
        assert (tmp_path / "t.csv").read_text() == "a,b\n" + rows


def test_defaults_load_and_are_in_range():
    assert len(model.DOCUMENT_KEYS) == 28
    for dotted, (default, admissible, _) in model.DOCUMENT_KEYS.items():
        if default is model.REQUIRED:
            with pytest.raises(ConfigError, match=f"^missing configuration key '{dotted}'$"):
                model.setting({}, dotted)
            continue
        assert model.setting({}, dotted) == default
        assert admissible is None or admissible(default), dotted


def test_fixture_keys_are_declared():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        for name, value in doc.items():
            keys = [f"{name}.{key}" for key in value] if isinstance(value, dict) else [name]
            for dotted in keys:
                assert dotted in model.DOCUMENT_KEYS, (path.name, dotted)


@pytest.mark.parametrize("missing", ["epsilon", "dataset.points"])
def test_missing_required_key_is_named(missing):
    doc = json.loads((FIXTURES / "mini.json").read_text())
    *section, key = missing.split(".")
    (doc[section[0]] if section else doc).pop(key)
    with pytest.raises(ConfigError, match=f"^missing configuration key '{missing}'$"):
        load_problem_config(doc)


@pytest.mark.parametrize("override", ["bogus=1", "field.bogus=1", "solve.bogus=1"])
def test_unknown_key_is_named_by_its_dotted_path(tmp_path, capsys, override):
    code, out = run(tmp_path, "solve", "--config", str(FIXTURES / "mini.json"), "--set", override)
    dotted = override.split("=")[0]
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == f"configuration error: unknown configuration key '{dotted}'\n"


# -- failure semantics ---------------------------------------------------------


def assert_output_error(code, err):
    assert code == 1
    assert err.startswith("output error: ") and "Traceback" not in err


def test_existing_file_as_out_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a run directory\n")
    code = main(["solve", "--config", str(FIXTURES / "mini.json"), "--out", str(taken)])
    assert_output_error(code, capsys.readouterr().err)
    assert taken.read_text() == "not a run directory\n"


def test_out_that_cannot_be_created_exits_1_without_manifest(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "run"
    code = main(["solve", "--config", str(FIXTURES / "mini.json"), "--out", str(out)])
    assert_output_error(code, capsys.readouterr().err)
    assert not out.exists()


def test_unwritable_run_file_exits_1_with_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "nu_star.csv").mkdir(parents=True)
    code = main(["solve", "--config", str(FIXTURES / "mini.json"), "--out", str(out)])
    assert_output_error(code, capsys.readouterr().err)
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert [f["name"] for f in files] == ["residuals.csv"]


@pytest.mark.parametrize(
    "setting, named",
    [
        ("grid.nt=abc", "'grid.nt'"),
        ("measure=5", "'measure'"),
        ("measure.res=1", "'measure.res'"),
        ("dataset.points=abc", "dataset points"),
    ],
)
def test_malformed_set_value_exits_1(tmp_path, capsys, setting, named):
    code, _ = run(tmp_path, "solve", "--config", str(FIXTURES / "mini.json"), "--set", setting)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    # None: no --config; --threads and --inject-fault are retired flags
    [["--bogus"], ["--seed", "abc"], ["--threads", "4"], ["--inject-fault", "adjoint-sign"], None],
)
def test_malformed_flag_exits_1(tmp_path, capsys, flags):
    args = ["--config", str(FIXTURES / "mini.json"), *flags] if flags else []
    code, out = run(tmp_path, "solve", *args)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage: mfoc") and "error:" in err
    assert "Traceback" not in err and not out.exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: mfoc")


@pytest.mark.parametrize(
    "setting, named",
    [
        ("field.d1=2", "'field.d1'"),
        ("loss.d1=2", "'loss.d1'"),
        ("loss.d2=2", "'loss.d2'"),
        (None, "'dataset.points'"),  # mini's points made 4 wide
    ],
)
def test_dimensions_other_than_one_exit_1(tmp_path, capsys, setting, named):
    config, args = FIXTURES / "mini.json", ["--set", setting]
    if setting is None:
        doc = json.loads(config.read_text())
        doc["dataset"]["points"] = [p + p for p in doc["dataset"]["points"]]
        config, args = tmp_path / "wide.json", []
        config.write_text(json.dumps(doc))
    code, out = run(tmp_path, "solve", "--config", str(config), *args)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error") and named in err
    assert "Traceback" not in err and not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "setting, named",
    [
        ("epsilon=inf", "epsilon"),
        ("grid.T=inf", "T finite"),
        ("potential.c1=inf", "potential coefficients"),
        # finite, but exp(-ell) underflows to 0 past the origin
        ("potential.c2=1e300", "prior"),
        ("potential.c1=1e306", "prior"),  # and c1 |a|^4 overflows
    ],
)
def test_non_finite_problem_parameters_exit_1(tmp_path, capsys, recwarn, setting, named):
    code, out = run(tmp_path, "solve", "--config", str(FIXTURES / "mini.json"), "--set", setting)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error: ") and err.count("\n") == 1 and named in err
    assert "Traceback" not in err and not recwarn.list and not out.exists()


def test_fixtures_with_unit_dimensions_load():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        assert doc["field"]["d1"] == doc["loss"]["d1"] == doc["loss"]["d2"] == 1
        config, _ = load_run_document(str(path), [])
        assert config.dataset.x.shape[1] == config.dataset.y.shape[1] == 1


@pytest.mark.parametrize(
    "command, setting",
    [
        ("stability", "stability.iters=2.5"),
        ("solve", "seed=1.5"),
        ("solve", "measure.res=true"),
        ("solve", "grid.nt=9.5"),
        ("solve", "solve.max_iters=false"),
        ("solve", "epsilon=true"),
        ("solve", "solve.tol=true"),
        ("descent", "descent.step_size=false"),
    ],
)
def test_boolean_or_fractional_number_exits_1(tmp_path, capsys, command, setting):
    # an integer key takes no fraction and a number key no boolean: neither
    # is truncated or read as 0 or 1
    code, out = run(tmp_path, command, "--config", str(FIXTURES / "mini.json"), "--set", setting)
    err = capsys.readouterr().err
    key = setting.split("=")[0]
    assert code == 1
    assert err.startswith(f"configuration error: configuration key '{key}' expects ")
    assert "Traceback" not in err and not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "kind, value, expected",
    [(int, 9.0, 9), (int, -2.0, -2), (int, 7, 7), (int, "12", 12), (float, 2, 2.0)],
)
def test_integral_and_plain_numbers_convert(kind, value, expected):
    converted = config_value(kind, value, "key")
    assert converted == expected and type(converted) is kind


def test_set_on_a_non_object_document_exits_1(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    code, _ = run(tmp_path, "solve", "--config", str(bad), "--set", "grid.nt=9")
    assert code == 1
    assert capsys.readouterr().err.startswith("configuration error")


@pytest.mark.parametrize(
    "content, overrides",
    [
        (b"\xff\xfe{}", []),  # not UTF-8
        (b"[" * 100000, []),  # nested past the recursion limit
        (None, ["--set", "solve.tol=" + "[" * 100000]),
    ],
)
def test_undecodable_configuration_exits_1(tmp_path, capsys, content, overrides):
    config = FIXTURES / "mini.json"
    if content is not None:
        config = tmp_path / "bad.json"
        config.write_bytes(content)
    code, out = run(tmp_path, "solve", "--config", str(config), *overrides)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


def assert_numerical_failure(code, out, err, name):
    assert code == 2
    assert err.startswith(f"numerical failure: {name}") and "Traceback" not in err
    summary = read_summary(out)
    assert summary["status"] == "numerical-failure"
    assert summary["reason"].startswith(f"{name}: ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["name"] for f in manifest["files"]] == ["summary.json"]


@pytest.mark.parametrize("error", [DivergenceError, DegenerateMeasureError, AdmissibilityError])
def test_numerical_failure_exits_2_with_reason(tmp_path, capsys, monkeypatch, error):
    def failing(config, path):
        raise error("injected during the solve")

    monkeypatch.setattr(optimizer, "gibbs_map_with_flow", failing)
    code, out = run(tmp_path, "solve", "--config", str(FIXTURES / "mini.json"))
    assert_numerical_failure(code, out, capsys.readouterr().err, error.__name__)


def test_krylov_directions_keep_zero_node_mass_past_breakdown(tmp_path):
    # the Krylov directions are combinations of the seed and images of the
    # linearized map, and images are zero-mass by construction, so
    # Gram-Schmidt cannot push a direction of mini_zero off zero node mass;
    # its basis breaks down before 10 steps and the run reports the Ritz
    # values it has
    code, out = run(
        tmp_path,
        "stability",
        "--config",
        str(FIXTURES / "mini_zero.json"),
        "--set",
        "stability.iters=10",
    )
    assert code == 0
    summary = read_summary(out)
    assert summary["dominant_eig"] < 0.0 and summary["stable_evidence"]
    assert all(math.isfinite(v) for v in summary.values())
    ritz = (out / "ritz.csv").read_text().splitlines()[1:]
    assert 1 <= len(ritz) < 10


def test_fp_step_past_substep_cap_exits_2_with_reason(tmp_path, capsys):
    code, out = run(
        tmp_path,
        "descent",
        "--config",
        str(FIXTURES / "mini.json"),
        "--set",
        "descent.step_size=10",
        "--set",
        "descent.steps=1",
    )
    err = capsys.readouterr().err
    assert_numerical_failure(code, out, err, "PositivityError")
    reason = read_summary(out)["reason"]
    assert "fokker-planck step 10 " in reason and "the cap is 1024" in reason


def support_config(tmp_path):
    """mini's points and their negatives, labels negated, over a horizon of
    10 with nt 17, res 16, epsilon 0.05 and damping 0.1: the third Picard
    iterate's Gibbs image at node 0 falls to the floor on cells where the
    iterate is above it, so the residual is +inf."""
    doc = json.loads((FIXTURES / "mini.json").read_text())
    points = doc["dataset"]["points"]
    doc["dataset"]["points"] = [[x, -y] for x, y in points] + [[-x, y] for x, y in points]
    doc["grid"].update(T=10.0, nt=17)
    doc["measure"]["res"] = 16
    doc["epsilon"] = 0.05
    doc["solve"]["damping"] = 0.1
    path = tmp_path / "support.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", ["solve", "stability", "pl-scan"])
@pytest.mark.parametrize("reason", ["max-iters", "non-finite", "support"])
def test_unconverged_solve_exits_2_with_reason(
    tmp_path, capsys, monkeypatch, command, reason
):
    args = ["--config", str(FIXTURES / "mini.json"), "--set", "solve.max_iters=1"]
    if reason == "non-finite":
        monkeypatch.setattr(optimizer, "picard_residual", lambda path, snaps: math.nan)
    if reason == "support":
        args = ["--config", str(support_config(tmp_path))]
    code, out = run(tmp_path, command, *args)
    err = capsys.readouterr().err
    assert code == 2
    # a NaN residual stops the solve before its first iteration, and the
    # support config's +inf after its third; the latter names its node
    iterations = {"max-iters": 1, "non-finite": 0, "support": 3}[reason]
    where = ": node 0's Gibbs image is 0 where the iterate is not" if reason == "support" else ""
    assert err == f"not converged: {reason} after {iterations} iterations{where}\n"
    text = (out / "summary.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    summary = json.loads(text)
    assert summary["status"] == "not-converged" and summary["reason"] == reason
    if command == "solve":
        assert summary["converged"] is False
        assert (summary["residual"] is None) == (reason != "max-iters")


@pytest.mark.parametrize(
    "command, settings",
    [
        ("solve", ["solve.max_iters=-1"]),
        ("solve", ["solve.tol=0"]),
        ("descent", ["descent.step_size=0"]),
        ("descent", ["descent.step_size=-0.001"]),
        ("descent", ["descent.backend=particle", "descent.step_size=-0.001"]),
        ("descent", ["descent.backend=particle", "descent.step_size=nan"]),
        ("descent", ["descent.steps=-1"]),
        ("stability", ["stability.iters=0"]),
        ("pl-scan", ["pl_scan.samples=0"]),
        ("pl-scan", ["pl_scan.radius=-0.1"]),
        ("solve", ["measure.box_halfwidth=-4"]),
        ("solve", ["solve.damping=1.5"]),
        ("stability", ["stability.margin=nan"]),
        ("descent", ["descent.init_tilt=nan"]),
        ("descent", ["descent.backend=particle", "descent.particles=0"]),
    ],
)
def test_out_of_range_tool_setting_exits_1(tmp_path, capsys, command, settings):
    args = [arg for setting in settings for arg in ("--set", setting)]
    code, out = run(tmp_path, command, "--config", str(FIXTURES / "mini.json"), *args)
    err = capsys.readouterr().err
    key = settings[-1].split("=")[0]
    assert code == 1
    assert err.startswith(f"configuration error: configuration key '{key}' must be ")
    assert "Traceback" not in err and not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "command, setting",
    [
        ("stability", "stability.iters=0"),
        ("stability", "stability.margin=nan"),
        ("pl-scan", "pl_scan.samples=0"),
        ("pl-scan", "pl_scan.radius=-0.1"),
    ],
)
def test_probe_settings_are_checked_before_the_solve(
    tmp_path, capsys, monkeypatch, command, setting
):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before its command's settings were checked")

    monkeypatch.setattr(cli, "picard_solve", no_solve)
    code, out = run(tmp_path, command, "--config", str(FIXTURES / "mini.json"), "--set", setting)
    err = capsys.readouterr().err
    key = setting.split("=")[0]
    assert code == 1
    assert err.startswith(f"configuration error: configuration key '{key}' must be ")
    assert "Traceback" not in err and not (out / "summary.json").exists()


# -- the two-grid solve ----------------------------------------------------------


def _direct_solve(document, *overrides):
    """A Picard solve from the prior on the document's measure grid, with its
    solve settings."""
    config, doc = load_run_document(str(document), list(overrides))
    path, _ = _initial_grid_path(config, doc)
    return optimizer.picard_solve(config, path, **doc.get("solve", {}))


def assert_solve_outputs_equal(out, result):
    """The solve files of a run directory are those of ``result``."""
    residuals = "".join(f"{i},{format(r, '.17g')}\n" for i, r in enumerate(result.residual_history))
    assert (out / "residuals.csv").read_text() == "iteration,residual\n" + residuals
    assert (out / "nu_star.csv").read_bytes() == b"".join(_path_to_csv(result.path))
    summary = read_summary(out)
    assert summary["iterations"] == result.iterations
    assert summary["cost"] == result.report.cost


def test_solve_below_res_32_has_no_coarse_level(tmp_path, monkeypatch):
    grids = []
    original = cli.picard_solve

    def recording(config, path, **settings):
        grids.append(path.measures[0].res)
        return original(config, path, **settings)

    monkeypatch.setattr(cli, "picard_solve", recording)
    mini = FIXTURES / "mini.json"
    code, out = run(tmp_path, "solve", "--config", str(mini), "--set", "measure.res=16")
    assert code == 0 and grids == [16]
    assert read_summary(out)["coarse_iterations"] == 0
    assert_solve_outputs_equal(out, _direct_solve(mini, "measure.res=16"))


def test_non_finite_coarse_residual_starts_the_fine_solve_at_the_prior(tmp_path, monkeypatch):
    original = optimizer.picard_residual

    def coarse_fails(path, snapshots):
        if path.measures[0].res == cli.COARSE_RES:
            return math.nan
        return original(path, snapshots)

    def no_lift(*args):
        raise AssertionError("a coarse solve with a non-finite residual was lifted")

    monkeypatch.setattr(optimizer, "picard_residual", coarse_fails)
    monkeypatch.setattr(cli, "gibbs_image", no_lift)
    mini = FIXTURES / "mini.json"
    code, out = run(tmp_path, "solve", "--config", str(mini))
    assert code == 0
    assert read_summary(out)["coarse_iterations"] == 0
    assert_solve_outputs_equal(out, _direct_solve(mini))


def test_lifted_start_converges_without_fine_iterations_on_desk():
    config, doc = load_run_document(str(FIXTURES / "desk.json"), [])
    result, _, coarse_iterations = _solved_state(config, doc)
    assert result.converged and result.iterations == 0
    assert result.report.picard_residual <= doc["solve"]["tol"]
    assert coarse_iterations > 0


@pytest.mark.parametrize("epsilon", [0.5, 0.02])
def test_two_grid_solution_is_no_farther_from_the_fixed_point(epsilon):
    # the distance to a tol-1e-13 reference is the largest per-node relative
    # entropy; the two-grid solve is held to the direct solve's
    desk = FIXTURES / "desk.json"
    config, doc = load_run_document(str(desk), [f"epsilon={epsilon}"])
    two_grid, _, _ = _solved_state(config, doc)
    direct = _direct_solve(desk, f"epsilon={epsilon}")
    reference = optimizer.picard_solve(config, direct.path, tol=1e-13)
    assert two_grid.converged and direct.converged and reference.converged

    def distance(path):
        pairs = zip(path.measures, reference.path.measures)
        return max(relative_entropy(nu, ref) for nu, ref in pairs)

    assert distance(two_grid.path) <= distance(direct.path)


# -- the lift: the Gibbs image of a coarse path on a finer grid -----------------


def reference_lift(config, path, flow, template):
    """The lift as its own routine: an order-1 backward sweep on the path's
    grid, then one order-0 kernel call per node on the template's cells."""
    flow = backward_solve(config, path, flow)
    quad = FieldQuadrature(config.field, template.midpoints())
    potential_vals = config.potential.value(template.midpoints())
    work = Workspace()
    measures = []
    for k in range(path.grid.nt):
        quad.tiers(flow.x[k], 0, (), work, keep=1)
        bracket_row = quad.bracket(work.kept, flow.z[k])
        snapshot = optimizer._gibbs_from_bracket(config, template, potential_vals, bracket_row)
        measures.append(snapshot.gamma)
    return path.replace_measures(measures)


@pytest.mark.parametrize(
    "name, coarse_res, fine_res",
    [("mini", 16, 32), ("desk", 16, 64), ("mini", 16, 33), ("ridge-logistic", 8, 12)],
)
def test_gibbs_image_on_another_grid_is_the_lift(name, coarse_res, fine_res):
    # ridge-logistic: a three-parameter field whose support is not mirrored
    if name == "ridge-logistic":
        config = replace(make_config(n=8, nt=9), field=ActivationField(RIDGE_OUTER, "logistic"))
    else:
        config, _ = load_run_document(str(FIXTURES / f"{name}.json"), [])
    coarse_path, _ = cli._prior_path(config, 4.0, coarse_res)
    coarse = optimizer.picard_solve(config, coarse_path, max_iters=3)
    template = cli._prior_path(config, 4.0, fine_res)[0].measures[0]
    snapshots, flow = optimizer.gibbs_image(config, coarse.path, coarse.flow, template)
    lifted = reference_lift(config, coarse.path, coarse.flow, template)
    assert flow.bracket.shape == (config.grid.nt, fine_res**config.field.dprime)
    assert len(snapshots) == config.grid.nt
    for snap, nu in zip(snapshots, lifted.measures):
        assert snap.gamma.values.shape == (fine_res,) * config.field.dprime
        assert snap.gamma.values.tobytes() == nu.values.tobytes()


def test_separate_template_of_the_path_geometry_takes_the_fused_route(kernel_calls):
    config, doc = load_run_document(str(FIXTURES / "desk.json"), [])
    path, _ = _initial_grid_path(config, doc)
    own = path.measures[0]
    template = GridMeasure(own.halfwidth, own.res, np.ones_like(own.values))
    snapshots, _ = optimizer.gibbs_image(config, path, forward_solve(config, path), template)
    assert len(kernel_calls) == 385
    assert {cells for cells, _, _ in kernel_calls} == {own.res**2}
    kernel_calls.clear()
    fused, _ = optimizer.gibbs_map_with_flow(config, path)
    assert len(kernel_calls) == 385
    for snap, ref in zip(snapshots, fused):
        assert snap.gamma.values.tobytes() == ref.gamma.values.tobytes()
        assert snap.phi.tobytes() == ref.phi.tobytes()


def test_desk_solve_kernel_calls(kernel_calls):
    # 6 Gibbs maps at res 16 and 1 at res 64, 385 calls each: 256 order-0
    # forward calls, then a backward sweep of 65 node calls keeping the
    # order-0 tier and 64 midpoint calls; between the levels the lift's
    # coarse backward sweep (129 calls that keep nothing) and 65 order-0
    # node calls on the fine cells
    config, doc = load_run_document(str(FIXTURES / "desk.json"), [])
    result, _, coarse_iterations = _solved_state(config, doc)
    assert (coarse_iterations, result.iterations) == (5, 0)
    coarse, fine = 16**2, 64**2
    assert Counter(kernel_calls) == {
        (coarse, 0, 0): 6 * 256,
        (coarse, 1, 1): 6 * 65,
        (coarse, 1, 0): 6 * 64 + 129,
        (fine, 0, 1): 65,
        (fine, 0, 0): 256,
        (fine, 1, 1): 65,
        (fine, 1, 0): 64,
    }
    assert len(kernel_calls) == 7 * 385 + 129 + 65 == 2889


def test_desk_gibbs_maps_fold_each_weight_once(fold_calls):
    # the forward sweep folds each interval's drift weights and the backward
    # sweep, which shares its folds, only their grad_x: 128 folds per map at
    # res 16 and at res 64 (192 when each sweep formed its own). The lift's
    # coarse sweep folds both tiers of its nodes; the fine cells, which it
    # only samples, take no fold
    config, doc = load_run_document(str(FIXTURES / "desk.json"), [])
    fine, _ = _initial_grid_path(config, doc)
    coarse, _ = cli._prior_path(config, fine.measures[0].halfwidth, 16)
    for path in (coarse, fine):
        fold_calls.clear()
        optimizer.gibbs_map_with_flow(config, path)
        cells = path.measures[0].values.size
        assert Counter(fold_calls) == {(cells, True): 64, (cells, False): 64}
    flow = forward_solve(config, coarse)
    fold_calls.clear()
    optimizer.gibbs_image(config, coarse, flow, fine.measures[0])
    assert Counter(fold_calls) == {(16**2, True): 64, (16**2, False): 64}


def test_desk_gram_pass_keeps_only_the_cells_its_rows_read(tmp_path, monkeypatch):
    # the rows of the desk solution's Gram pass read the longest prefix of
    # its Gram weights, 1244 of the 2048 evaluated cells, and the 129 calls
    # that keep their tiers for them keep no more
    widths = []
    original = FieldQuadrature.rows

    def recording(self, kept, cells):
        widths.append((cells, *(tier.shape[1] for tier in kept)))
        return original(self, kept, cells)

    monkeypatch.setattr(FieldQuadrature, "rows", recording)
    args = ["stability", "--config", str(FIXTURES / "desk.json"), "--set", "stability.iters=1"]
    code, _ = run(tmp_path, *args)
    assert code == 0
    assert Counter(widths) == {(1244, 1244, 1244): 129}

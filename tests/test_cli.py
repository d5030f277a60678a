from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from regrow import cli
from regrow.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_world")
    assert run([
        "synth", "--output-dir", out, "--seed", "3",
        "--n-sites", "30", "--points-per-class", "25", "--points-per-transition", "5",
        "--start-year-spread", "1",
    ]) == 0
    return out


class TestSynth:
    def test_outputs_and_manifest(self, world_dir):
        for name in (
            "embeddings.csv", "sites.csv", "spectral.csv", "covariates.csv",
            "reference_points.csv", "lulc_codes.csv", "ground_truth.csv",
            "manifest_synth.json",
        ):
            assert (world_dir / name).exists()
        manifest = json.loads((world_dir / "manifest_synth.json").read_text())
        assert manifest["seed"] == 3
        assert set(manifest["artifacts"]) >= {"embeddings.csv", "sites.csv"}
        assert manifest["config_hash"]

    def test_same_seed_byte_identical(self, tmp_path):
        flags = ["--seed", "11", "--n-sites", "8", "--points-per-class", "6",
                 "--points-per-transition", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--output-dir", a, *flags]) == 0
        assert run(["synth", "--output-dir", b, *flags]) == 0
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes(), f.name


class TestValidate:
    @pytest.fixture()
    def fixture_dir(self, tmp_path):
        d = tmp_path
        sites = [
            ("s01", 0.5, 2018), ("s02", 0.9, 2020), ("s03", 1.0, 2016),
            ("s04", 2.0, 2025), ("s05", 1.0, 2017), ("s06", 3.5, 2024),
            ("s07", 0.99, 2016), ("s08", 10.0, 2020), ("s09", 1.2, 2026),
            ("s10", 5.0, 2021),
        ]
        (d / "sites.csv").write_text(
            "site_id,lon,lat,area_ha,start_year,strategy,start_lulc\n"
            + "".join(f"{sid},-47.0,-22.0,{a},{y},,\n" for sid, a, y in sites)
        )
        (d / "embeddings.csv").write_text(
            "id,year,A00,A01\n"
            + "".join(f"{sid},2020,0.5,0.5\n" for sid, _, _ in sites)
            + "p1,2024,1.0,0.0\n"
        )
        lulc_cols = ",".join(f"lulc_{y}" for y in range(2015, 2025))
        (d / "reference_points.csv").write_text(
            f"point_id,lon,lat,{lulc_cols}\n"
            + "p1,-47.0,-22.0," + ",".join("9" for _ in range(10)) + "\n"
        )
        return d

    def test_funnel_matches_hand_count(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert run(["validate", "--inputs-dir", fixture_dir, "--output-dir", out]) == 0
        lines = (out / "funnel.csv").read_text().splitlines()
        assert lines == [
            "stage,dropped,remaining",
            "input,0,10",
            "area,3,7",
            "start_year,3,4",
        ]


class TestErrors:
    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate", "--output-dir", "/tmp/x"])
        assert err.value.code != 0

    def test_missing_input_writes_error_record_and_cleans_up(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run([
            "validate", "--embeddings", tmp_path / "nope.csv",
            "--sites", tmp_path / "nope2.csv",
            "--reference-points", tmp_path / "nope3.csv",
            "--output-dir", out,
        ])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"]
        assert "message" in record
        assert not list(out.glob("*.csv")) if out.exists() else True

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_key = 1\n")
        code = run(["validate", "--config", cfg, "--output-dir", tmp_path / "o"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "invalid_value"

    @pytest.mark.parametrize(
        "text, line",
        [("no_such = 1\n", 1), ("# comment\n\nseed = 3\nno_such = 1\n", 4),
         ("seed = 3\nnot a pair\n", 2)],
    )
    def test_config_file_errors_name_file_and_line(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = run(["validate", "--config", cfg, "--output-dir", tmp_path / "o"])
        assert code == 1
        (out,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(out)
        assert (record["error"], record["file"], record["line"]) == (
            "invalid_value", str(cfg), line
        )

    @pytest.mark.parametrize("subcommand", ["validate", "project"])
    def test_a_point_id_that_is_also_a_site_id_is_a_duplicate_key(
            self, world_dir, tmp_path, capsys, subcommand):
        # The point reads the site's embedding rows once its own are gone.
        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        points = (world / "reference_points.csv").read_text().split("\n")
        line, point = next((i + 1, row.split(",")[0]) for i, row in enumerate(points)
                           if row.startswith("chg_"))
        site = (world / "sites.csv").read_text().split("\n")[1].split(",")[0]
        points[line - 1] = site + points[line - 1][len(point):]
        (world / "reference_points.csv").write_text("\n".join(points))
        embeddings = (world / "embeddings.csv").read_text().split("\n")
        (world / "embeddings.csv").write_text(
            "\n".join(row for row in embeddings if not row.startswith(point + ",")))
        out = tmp_path / "o"
        assert run([subcommand, "--inputs-dir", world, "--output-dir", out]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["file"], record["line"]) == (
            "duplicate_key", str(world / "reference_points.csv"), line)
        assert repr(site) in record["message"]
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("value", ["yes", "1", "no", "", "truthy"])
    def test_config_bool_must_be_true_or_false(self, world_dir, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\nimpute = {value}\n")
        out = tmp_path / "o"
        code = run(["validate", "--inputs-dir", world_dir, "--config", cfg, "--output-dir", out])
        assert code == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
        assert not out.exists() or not any(out.iterdir())

    def test_config_bool_is_case_insensitive(self, world_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("impute = FALSE\nbaselines = True\n")
        out = tmp_path / "o"
        assert run([
            "validate", "--inputs-dir", world_dir, "--config", cfg, "--output-dir", out,
        ]) == 0
        config = json.loads((out / "manifest_validate.json").read_text())["config"]
        assert (config["impute"], config["baselines"]) == ("False", "True")

    def test_negative_horizon_rejected_without_outputs(self, world_dir, tmp_path, capsys):
        out = tmp_path / "pred"
        code = run(["predict", "--inputs-dir", world_dir, "--output-dir", out, "--horizon", "-9"])
        assert code == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert record["error"] == "invalid_value"
        assert "horizon" in record["message"]
        assert not out.exists() or not any(out.iterdir())

        cfg = tmp_path / "run.cfg"
        cfg.write_text("folds = 3\nhorizon = -1\n")
        code = run(["predict", "--inputs-dir", world_dir, "--output-dir", out, "--config", cfg])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)

    def test_unexpected_exception_is_an_internal_error_record(
        self, world_dir, tmp_path, capsys, monkeypatch
    ):
        def broken_report(settings, outputs):
            outputs.write_csv("partial.csv", ["a"], [(1,)])
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "report", broken_report)
        out = tmp_path / "report"
        code = run(["report", "--inputs-dir", world_dir, "--output-dir", out])
        assert code == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert record["error"] == "internal_error"
        assert record["message"] == "RuntimeError: boom"
        assert "broken_report" in record["traceback"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("n_trees", ["0", "-3"])
    def test_non_positive_tree_count_rejected_without_outputs(
        self, world_dir, tmp_path, capsys, n_trees
    ):
        out = tmp_path / "pred"
        code = run([
            "predict", "--inputs-dir", world_dir, "--output-dir", out, "--n-trees", n_trees,
        ])
        assert code == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line)["error"] == "invalid_value"
        assert not out.exists() or not any(out.iterdir())


    def test_non_finite_input_is_a_located_error_record(self, world_dir, tmp_path, capsys):
        inputs = tmp_path / "inputs"
        shutil.copytree(world_dir, inputs)
        path = inputs / "covariates.csv"
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[lines[0].split(",").index("elevation_m")] = "nan"
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run(["validate", "--inputs-dir", inputs, "--output-dir", out])
        assert code == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert (record["error"], record["file"], record["line"]) == ("non_finite", str(path), 4)
        assert not out.exists() or not any(out.iterdir())


class TestReferencesCommand:
    def test_classify_build_outliers(self, world_dir, tmp_path):
        out = tmp_path / "refs"
        assert run(["references", "classify", "--inputs-dir", world_dir, "--output-dir", out]) == 0
        stability = (out / "stability.csv").read_text().splitlines()
        assert stability[0] == "point_id,stability,class_from,class_to"
        kinds = {line.split(",")[1] for line in stability[1:]}
        assert kinds == {"stable", "changing"}

        assert run(["references", "build", "--inputs-dir", world_dir, "--output-dir", out]) == 0
        assert (out / "global_reference.csv").exists()
        assert (out / "centroids.csv").exists()
        assert (out / "secondary_points.csv").exists()

        assert run([
            "references", "outliers", "--inputs-dir", world_dir, "--output-dir", out,
            "--outlier-top-k", "5",
        ]) == 0
        lines = (out / "outliers.csv").read_text().splitlines()
        assert lines[0] == "class,rank,point_id,distance"
        # 5 classes x 5 ranks
        assert len(lines) == 1 + 25


class TestTrajectoriesCommand:
    def test_outputs(self, world_dir, tmp_path):
        out = tmp_path / "traj"
        assert run([
            "trajectories", "--inputs-dir", world_dir, "--output-dir", out,
            "--reference", "both", "--aggregate", "strategy",
        ]) == 0
        header = (out / "trajectories.csv").read_text().splitlines()[0]
        assert header == "site_id,reference,year,delta_t,similarity"
        imp = (out / "improvements.csv").read_text().splitlines()
        assert imp[0] == "site_id,reference,improvement,degenerate"
        # 30 sites x 2 reference kinds
        assert len(imp) == 1 + 60
        agg = (out / "aggregate_strategy.csv").read_text().splitlines()
        assert agg[0] == "group,delta_t,mean,sd,n"
        baselines = dict(
            line.split(",") for line in (out / "baselines.csv").read_text().splitlines()[1:]
        )
        assert float(baselines["upper"]) > float(baselines["lower"])


class TestProjectCommand:
    def test_outputs(self, world_dir, tmp_path):
        out = tmp_path / "proj"
        assert run(["project", "--inputs-dir", world_dir, "--output-dir", out]) == 0
        assert (out / "projection_model.csv").exists()
        proj_lines = (out / "projections.csv").read_text().splitlines()
        assert proj_lines[0] == "id,label,year,x,y"
        sil = (out / "silhouette.csv").read_text().splitlines()[1]
        assert float(sil.split(",")[1]) > 0.0

    def test_reference_year_without_embeddings_names_the_year(self, world_dir, tmp_path, capsys):
        # 2024 is inside the embedding years, but no row carries it.
        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        rows = (world / "embeddings.csv").read_text().splitlines(keepends=True)
        (world / "embeddings.csv").write_text("".join(r for r in rows if r.split(",")[1] != "2024"))
        out = tmp_path / "proj"
        code = run(["project", "--inputs-dir", world, "--output-dir", out,
                    "--reference-year", "2024"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "degenerate_data"
        assert "year 2024, got 0" in record["message"]
        assert not out.exists() or not any(out.iterdir())


class TestPredictCommand:
    def test_outputs(self, world_dir, tmp_path):
        out = tmp_path / "pred"
        assert run([
            "predict", "--inputs-dir", world_dir, "--output-dir", out,
            "--models", "linear,logistic", "--feature-sets", "covariates,spectral",
            "--folds", "3", "--seed", "5", "--t0", "1",
        ]) == 0
        folds = (out / "folds.csv").read_text().splitlines()
        assert folds[0] == "site_id,fold"
        assert len(folds) == 1 + 30
        agg = (out / "predictions_aggregate.csv").read_text().splitlines()
        assert agg[0] == "task,model,feature_set,metric,mean,sd"
        tasks = {line.split(",")[0] for line in agg[1:]}
        assert tasks == {"future_similarity", "strategy"}

    def test_flags_override_config_file(self, world_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("folds = 4\nseed = 9\n")
        out = tmp_path / "pred2"
        assert run([
            "predict", "--inputs-dir", world_dir, "--output-dir", out,
            "--config", cfg, "--folds", "2",
            "--models", "linear", "--feature-sets", "spectral",
        ]) == 0
        manifest = json.loads((out / "manifest_predict.json").read_text())
        assert manifest["config"]["folds"] == "2"  # flag wins
        assert manifest["config"]["seed"] == "9"  # file beats default
        folds = {line.split(",")[1] for line in (out / "folds.csv").read_text().splitlines()[1:]}
        assert folds == {"0", "1"}


class TestManifestReproducibility:
    def test_rerun_from_manifest_config_is_identical(self, world_dir, tmp_path):
        out1 = tmp_path / "first"
        assert run([
            "predict", "--inputs-dir", world_dir, "--output-dir", out1,
            "--models", "linear,logistic", "--feature-sets", "covariates,spectral",
            "--folds", "3", "--seed", "21", "--t0", "1",
        ]) == 0
        manifest = json.loads((out1 / "manifest_predict.json").read_text())

        # Reconstruct the run from the manifest's config alone.
        cfg = tmp_path / "from_manifest.cfg"
        cfg.write_text(
            "".join(f"{k} = {v}\n" for k, v in manifest["config"].items())
        )
        out2 = tmp_path / "second"
        assert run(["predict", "--config", cfg, "--output-dir", out2]) == 0
        manifest2 = json.loads((out2 / "manifest_predict.json").read_text())
        assert manifest2["artifacts"] == manifest["artifacts"]
        assert manifest2["config_hash"] == manifest["config_hash"]
        for name in manifest["artifacts"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


_INPUTS = ("embeddings", "sites", "spectral", "covariates", "reference_points", "lulc_codes")
_READERS = [
    ["validate"], ["references", "classify"], ["references", "build"],
    ["references", "outliers"], ["trajectories"], ["project"], ["report"],
    ["predict", "--models", "linear", "--feature-sets", "covariates", "--folds", "2"],
]


class TestManifestInputs:
    @pytest.mark.parametrize("command", _READERS, ids=lambda c: "-".join(c[:2]))
    def test_every_input_set_is_hashed(self, world_dir, tmp_path, command):
        out = tmp_path / "out"
        assert run([*command, "--inputs-dir", world_dir, "--output-dir", out]) == 0
        manifest = json.loads((out / f"manifest_{command[0]}.json").read_text())
        assert manifest["inputs"] == {
            str(world_dir / f"{key}.csv"): hashlib.sha256(
                (world_dir / f"{key}.csv").read_bytes()).hexdigest()
            for key in _INPUTS
        }

    def test_only_the_inputs_set_are_hashed(self, world_dir, tmp_path):
        out = tmp_path / "out"
        required = ("embeddings", "sites", "reference_points")
        flags = [f for key in required
                 for f in (f"--{key.replace('_', '-')}", world_dir / f"{key}.csv")]
        assert run(["trajectories", *flags, "--output-dir", out]) == 0
        manifest = json.loads((out / "manifest_trajectories.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(str(world_dir / f"{k}.csv") for k in required)

    def test_each_references_action_names_itself_in_the_shared_manifest(self, world_dir,
                                                                         tmp_path):
        out = tmp_path / "out"
        for action in ("classify", "build", "outliers"):
            assert run(["references", action, "--inputs-dir", world_dir,
                        "--output-dir", out]) == 0
            manifest = json.loads((out / "manifest_references.json").read_text())
            assert manifest["subcommand"] == f"references {action}"


class TestReportCommand:
    def test_outputs(self, world_dir, tmp_path):
        out = tmp_path / "report"
        assert run(["report", "--inputs-dir", world_dir, "--output-dir", out]) == 0
        strategy = (out / "strategy_counts.csv").read_text().splitlines()
        assert strategy[0] == "strategy,count"
        assert sum(int(line.split(",")[1]) for line in strategy[1:]) == 30
        years = (out / "start_year_counts.csv").read_text().splitlines()
        assert years[0] == "start_year,count"
        hist = (out / "area_histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_low,bin_high,count"
        assert sum(int(line.split(",")[2]) for line in hist[1:]) == 30

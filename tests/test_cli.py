"""Command-line surface: subcommand wiring, flag-to-config plumbing,
determinism of emitted files and the exit-code contract."""

import json
from pathlib import Path

import numpy as np
import pytest

from semmap import pipeline
from semmap.cli import main
from semmap.evaluation import evaluate_ate, match_indices
from semmap.io_formats import parse_tum_trajectory

SCENARIO = {"preset": "desk", "seed": 5, "duration": 8.0,
            "frame_rate": 10.0, "laps": 1.25}


def _world_scenario(class_id):
    """An explicit-world scenario whose first object has class_id: the
    camera pans past it and a cube for 3 s."""
    return {
        "world": {
            "objects": [
                {"class_id": class_id, "center": [0.0, 2.0, 1.0], "extent": [0.4, 0.4, 0.4]},
                {"class_id": "cube", "center": [0.5, 2.0, 1.0], "extent": [0.3, 0.3, 0.3]}],
            "path": {"waypoints": [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]],
                     "target": [0.0, 2.0, 1.0], "speed": 0.2},
            "camera": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                       "width": 640, "height": 480},
            "duration": 3.0, "frame_rate": 10.0},
        "noise": {"seed": 3}}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated scenario plus one pipeline run, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
    sim = root / "sim"
    run = root / "run"
    assert main(["simulate", str(scenario), "--out-dir", str(sim)]) == 0
    assert main(["run", "--detections", str(sim / "detections.txt"),
                 "--odometry", str(sim / "odometry.txt"),
                 "--out-dir", str(run), "--seed", "5"]) == 0
    return root


class TestSimulate:
    def test_emits_all_four_inputs(self, workspace):
        sim = workspace / "sim"
        for name in ("ground_truth.txt", "odometry.txt", "detections.txt",
                     "registry.json"):
            assert (sim / name).is_file()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "sim2"
        assert main(["simulate", str(workspace / "scenario.json"),
                     "--out-dir", str(again)]) == 0
        for name in ("ground_truth.txt", "odometry.txt", "detections.txt",
                     "registry.json"):
            assert (again / name).read_bytes() == \
                (workspace / "sim" / name).read_bytes()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["simulate", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("class_id", ["a\tb", "", "coffee cup", "cup\r"])
    def test_class_id_not_one_token_exits_2_before_rendering(self, tmp_path, capsys,
                                                             class_id):
        # rendered, it would make a detection log that `run` rejects
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(_world_scenario(class_id)), encoding="utf-8")
        assert main(["simulate", str(scenario), "--out-dir", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "class_id" in err
        assert not (tmp_path / "sim").exists()

    def test_class_id_not_utf8_exits_2_before_writing(self, tmp_path, capsys):
        # a lone surrogate is one token, but no log line can hold it
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(_world_scenario("\ud800")), encoding="utf-8")
        out = tmp_path / "sim"
        assert main(["simulate", str(scenario), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "class_id" in err
        for name in pipeline.SIMULATE_OUTPUTS:
            assert not (out / name).exists()


class TestRun:
    def test_writes_manifest_and_outputs(self, workspace):
        run = workspace / "run"
        manifest = json.loads((run / "run_manifest.json").read_text())
        for path in manifest["outputs"].values():
            assert Path(path).is_file()
        assert manifest["seed"] == 5
        assert manifest["counts"]["landmarks"] > 0

    def test_flag_overrides_nested_section(self, workspace, tmp_path, capsys):
        sim = workspace / "sim"
        code = main(["run", "--detections", str(sim / "detections.txt"),
                     "--odometry", str(sim / "odometry.txt"),
                     "--out-dir", str(tmp_path / "strict"), "--seed", "5",
                     "--tracker-min-confidence", "0.99"])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        # nothing clears a 0.99 confidence bar, so nothing is tracked
        assert manifest["counts"]["tracklets_promoted"] == 0
        assert manifest["counts"]["landmarks"] == 0

    def test_config_file_plus_flag_override(self, workspace, tmp_path, capsys):
        from semmap.pipeline import PipelineConfig

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PipelineConfig(seed=3, optimize_every=7).to_dict()),
                            encoding="utf-8")
        sim = workspace / "sim"
        code = main(["run", "--detections", str(sim / "detections.txt"),
                     "--odometry", str(sim / "odometry.txt"),
                     "--out-dir", str(tmp_path / "over"),
                     "--config", str(cfg_path), "--seed", "11"])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["seed"] == 11
        expected = PipelineConfig(seed=11, optimize_every=7).hash()
        assert manifest["config_hash"] == expected

    def test_frame_with_two_stamps_exits_2(self, workspace, tmp_path, capsys):
        # one frame id whose records disagree on the timestamp is named by
        # its line, not left for the tracker to trip over
        lines = (workspace / "sim" / "detections.txt").read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        stamp, rest = lines[first].split(" ", 1)
        lines.insert(first + 1, f"{float(stamp) + 1.5:.10f} {rest}")
        bad = tmp_path / "detections.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["run", "--detections", str(bad),
                     "--odometry", str(workspace / "sim" / "odometry.txt"),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line {first + 2}:" in err and "timestamp" in err

    def test_detections_stamped_off_the_odometry_grid(self, workspace, tmp_path):
        # every detection line 19.9 ms after its odometry stamp, inside the
        # 20 ms window, the last frame's past the last stamp: each is seen
        # from its frame's odometry row, so the outputs keep their bytes
        lines = (workspace / "sim" / "detections.txt").read_text().splitlines()
        shifted = []
        for line in lines:
            if not line.startswith("#"):
                stamp, rest = line.split(" ", 1)
                line = f"{float(stamp) + 0.0199:.10f} {rest}"
            shifted.append(line)
        path = tmp_path / "detections.txt"
        path.write_text("\n".join(shifted) + "\n", encoding="utf-8")
        assert main(["run", "--detections", str(path),
                     "--odometry", str(workspace / "sim" / "odometry.txt"),
                     "--out-dir", str(tmp_path / "run"), "--seed", "5"]) == 0
        for name in pipeline.DETERMINISTIC_RUN_OUTPUTS:
            assert (tmp_path / "run" / name).read_bytes() == \
                (workspace / "run" / name).read_bytes()

    @pytest.mark.parametrize("case", ["absent_detections", "dir_detections",
                                      "file_out_dir", "dir_estimate", "dir_map"])
    def test_missing_input_exits_2(self, workspace, tmp_path, capsys, monkeypatch, case):
        # an absent or unreadable input, or an out-dir that is a file, is
        # a data error: exit 2 with an error line, never a traceback.
        # Each fails before any mapping, and a bad out-dir before parsing
        entered = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                entered.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("parse_detection_log", "run_pipeline"):
            monkeypatch.setattr(pipeline, name, recorded(name, getattr(pipeline, name)))
        sim, run = workspace / "sim", workspace / "run"
        a_file = tmp_path / "file.txt"
        a_file.write_text("not a directory\n", encoding="utf-8")
        odometry = ["--odometry", str(sim / "odometry.txt")]
        ground_truth = ["--ground-truth", str(sim / "ground_truth.txt")]
        out = ["--out-dir", str(tmp_path / "out")]
        argv = {
            "absent_detections": ["run", "--detections", str(tmp_path / "absent.txt"),
                                  *odometry, *out],
            "dir_detections": ["run", "--detections", str(tmp_path), *odometry, *out],
            "file_out_dir": ["run", "--detections", str(sim / "detections.txt"),
                             *odometry, "--out-dir", str(a_file)],
            "dir_estimate": ["eval", "--estimate", str(tmp_path), *ground_truth, *out],
            "dir_map": ["eval", "--estimate", str(run / "corrected_trajectory.txt"),
                        *ground_truth, "--map", str(tmp_path),
                        "--registry", str(sim / "registry.json"), *out],
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert "run_pipeline" not in entered
        if case == "file_out_dir":
            assert entered == []


class TestEval:
    def test_full_report(self, workspace, tmp_path, capsys):
        sim, run = workspace / "sim", workspace / "run"
        code = main([
            "eval", "--estimate", str(run / "corrected_trajectory.txt"),
            "--ground-truth", str(sim / "ground_truth.txt"),
            "--baseline", str(sim / "odometry.txt"),
            "--map", str(run / "landmark_map.json"),
            "--registry", str(sim / "registry.json"),
            "--timings", str(run / "timings.json"),
            "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ate_rmse"] >= 0.0
        assert report["alignment"] == "rigid"
        assert "improvement_percent" in report
        assert 0.0 <= report["landmarks"]["precision"] <= 1.0
        assert (tmp_path / "report.json").is_file()
        assert (tmp_path / "aligned_trajectory.csv").is_file()

    def test_aligned_csv_rows_are_the_matched_pairs(self, workspace, tmp_path):
        sim, run = workspace / "sim", workspace / "run"
        assert main(["eval", "--estimate", str(run / "corrected_trajectory.txt"),
                     "--ground-truth", str(sim / "ground_truth.txt"),
                     "--out-dir", str(tmp_path)]) == 0
        est = parse_tum_trajectory(str(run / "corrected_trajectory.txt"))
        gt = parse_tum_trajectory(str(sim / "ground_truth.txt"))
        ate = evaluate_ate(est, gt)
        assert list(ate.pairs) == match_indices(est, gt)[0]
        rows = np.loadtxt(tmp_path / "aligned_trajectory.csv", delimiter=",", skiprows=1)
        est_idx, gt_idx = (list(ix) for ix in zip(*ate.pairs))
        np.testing.assert_allclose(rows[:, 0], est.stamps[est_idx], rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(rows[:, 4:7], gt.positions()[gt_idx], rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(rows[:, 7], ate.per_frame_errors, rtol=0.0, atol=1e-6)
        # the error column is the distance between the aligned pair
        np.testing.assert_allclose(np.linalg.norm(rows[:, 1:4] - rows[:, 4:7], axis=1),
                                   rows[:, 7], rtol=0.0, atol=1e-5)

    def test_without_registry_scoring_is_skipped(self, workspace, tmp_path,
                                                 capsys):
        sim = workspace / "sim"
        code = main(["eval", "--estimate", str(sim / "ground_truth.txt"),
                     "--ground-truth", str(sim / "ground_truth.txt"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ate_rmse"] == pytest.approx(0.0, abs=1e-12)
        assert "skipped" in report["landmarks"]

    @pytest.mark.parametrize("class_id", ["a\tb", ""])
    def test_registry_class_id_not_one_token_exits_2(self, workspace, tmp_path, capsys,
                                                     class_id):
        sim, run = workspace / "sim", workspace / "run"
        doc = json.loads((sim / "registry.json").read_text(encoding="utf-8"))
        doc["objects"][0]["class_id"] = class_id
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", "--estimate", str(run / "corrected_trajectory.txt"),
                     "--ground-truth", str(sim / "ground_truth.txt"),
                     "--map", str(run / "landmark_map.json"),
                     "--registry", str(registry), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "class_id" in err

    def test_collinear_path_aligned_by_translation(self, tmp_path, capsys):
        line = tmp_path / "line.txt"
        rows = [f"{0.1 * i:.1f} {float(i)} 0.0 0.0 0.0 0.0 0.0 1.0"
                for i in range(3)]
        line.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["eval", "--estimate", str(line),
                     "--ground-truth", str(line),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alignment"] == "translation"
        assert report["ate_rmse"] == 0.0
        assert json.loads((tmp_path / "report.json").read_text()) == report


class TestExport:
    def test_merged_and_per_landmark_clouds(self, workspace, tmp_path):
        out = tmp_path / "ply"
        code = main(["export", "--map",
                     str(workspace / "run" / "landmark_map.json"),
                     "--out-dir", str(out), "--per-landmark"])
        assert code == 0
        header = (out / "cloud.ply").read_text().splitlines()
        assert header[0] == "ply"
        n = int(header[2].split()[-1])
        assert n > 0
        per = sorted(out.glob("landmark_*.ply"))
        manifest = json.loads(
            (workspace / "run" / "run_manifest.json").read_text())
        assert len(per) == manifest["counts"]["landmarks"]


class TestMalformedJson:
    """A malformed JSON document exits 2 with an error line, never a
    traceback."""

    @staticmethod
    def _doc(tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    @staticmethod
    def _exits_2(argv, capsys, names):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and names in err

    def _export(self, tmp_path, capsys, text, names):
        self._exits_2(["export", "--map", self._doc(tmp_path, text),
                       "--out-dir", str(tmp_path / "ply")], capsys, names)

    def _run(self, tmp_path, capsys, names, *flags):
        # the config is read before the (absent) inputs
        self._exits_2(["run", "--detections", str(tmp_path / "absent.txt"),
                       "--odometry", str(tmp_path / "absent.txt"),
                       "--out-dir", str(tmp_path / "run"), *flags], capsys, names)

    def test_export_aliases_not_an_object(self, tmp_path, capsys):
        self._export(tmp_path, capsys, '{"landmarks": [], "aliases": [1, 2]}', "aliases")

    def test_export_landmark_id_overflows(self, tmp_path, capsys):
        lm = ('{"id": 1e400, "class_id": "cup", "centroid": [0, 0, 0], '
              '"points": [], "size": 1, "last_association": 0, "n_fused": 1}')
        self._export(tmp_path, capsys, '{"landmarks": [%s]}' % lm, "id")

    def test_export_alias_target_overflows(self, tmp_path, capsys):
        self._export(tmp_path, capsys, '{"landmarks": [], "aliases": {"3": 1e400}}',
                     "alias target")

    @pytest.mark.parametrize("aliases", ['{"1": 2, "2": 1}', '{"5": 9}'])
    def test_export_alias_target_not_a_landmark(self, tmp_path, capsys, aliases):
        self._export(tmp_path, capsys, '{"landmarks": [], "aliases": %s}' % aliases,
                     "alias")

    def test_export_alias_key_is_a_landmark(self, tmp_path, capsys):
        lm = ('{"id": %d, "class_id": "cup", "centroid": [0, 0, 0], '
              '"points": [], "size": 1, "last_association": 0, "n_fused": 1}')
        self._export(tmp_path, capsys, '{"landmarks": [%s, %s], "aliases": {"1": 0}}'
                     % (lm % 0, lm % 1), "alias 1 -> 0")

    def test_run_pixel_noise_sigma_overflows(self, tmp_path, capsys):
        # sigma^2 is inf: rejected with the config, before any input is read
        self._run(tmp_path, capsys, "pixel_noise_sigma", "--pixel-noise-sigma", "1e200")
        assert not (tmp_path / "run").exists()

    def test_run_config_not_an_object(self, tmp_path, capsys):
        self._run(tmp_path, capsys, "top level", "--config", self._doc(tmp_path, "[1]"))

    def test_run_config_section_not_an_object(self, tmp_path, capsys):
        config = self._doc(tmp_path, '{"tracker": 5}')
        self._run(tmp_path, capsys, "tracker", "--config", config)
        # a flag into the same section does not get past it either
        self._run(tmp_path, capsys, "tracker", "--config", config,
                  "--tracker-max-gap", "0.4")

    def test_run_random_walk_seed_rejected(self, tmp_path, capsys):
        # the top-level seed drives the walk, whose section is gone
        config = self._doc(tmp_path, '{"random_walk": {"seed": 0}}')
        self._run(tmp_path, capsys, "'random_walk'", "--config", config)
        # and the flag is gone with the field: a usage error
        assert main(["run", "--detections", "d", "--odometry", "o", "--out-dir",
                     str(tmp_path), "--random-walk-seed", "5"]) == 1

    @pytest.mark.parametrize("section, flag", [
        ("optimizer", "--optimizer-max-iterations 50"),
        ("random_walk", "--random-walk-n-samples 10")])
    def test_run_deleted_section_rejected(self, tmp_path, capsys, section, flag):
        # the solver's settings and the walk's are constants: the section
        # is an unknown key and its flags are usage errors
        config = self._doc(tmp_path, '{"%s": {}}' % section)
        self._run(tmp_path, capsys, f"'{section}'", "--config", config)
        assert main(["run", "--detections", "d", "--odometry", "o", "--out-dir",
                     str(tmp_path), *flag.split()]) == 1

    def test_run_one_view_tracklets_rejected(self, tmp_path, capsys):
        config = self._doc(tmp_path, '{"tracker": {"min_tracklet_size": 1}}')
        self._run(tmp_path, capsys, "min_tracklet_size", "--config", config)
        assert not (tmp_path / "run").exists()

    def test_run_deleted_huber_scale_key_exits_2(self, tmp_path, capsys):
        config = self._doc(tmp_path, '{"optimizer": {"huber_scale_px": 5.0}}')
        self._run(tmp_path, capsys, "'optimizer'", "--config", config)
        # and the flag is gone with the field: a usage error
        assert main(["run", "--detections", "d", "--odometry", "o", "--out-dir",
                     str(tmp_path), "--optimizer-huber-scale-px", "5"]) == 1

    @pytest.mark.parametrize("text, names", [
        ('{"preset": "desk", "seed": 1e400}', "seed"),
        ('{"preset": "desk", "duration": 1e400}', "duration"),
        ('{"preset": "desk", "duration": 2.0, '
         '"noise": {"odom_rotation_bias": ["a", "b", "c"]}}', "odom_rotation_bias"),
        ('{"preset": "desk", "duration": 2.0, '
         '"noise": {"odom_translation_bias": [0.1, 0.2]}}', "odom_translation_bias")])
    def test_simulate_bad_preset_value(self, tmp_path, capsys, text, names):
        self._exits_2(["simulate", self._doc(tmp_path, text),
                       "--out-dir", str(tmp_path / "sim")], capsys, names)


class TestConfigFlags:
    def test_file_and_flag_keys_of_one_section_both_kept(self, tmp_path):
        from semmap.cli import _config_from_args, build_parser
        from semmap.pipeline import PipelineConfig
        from semmap.tracker import TrackerConfig

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"tracker": {"iou_threshold": 0.35}, "seed": 4}',
                            encoding="utf-8")
        args = build_parser().parse_args([
            "run", "--detections", "d", "--odometry", "o", "--out-dir", "x",
            "--config", str(cfg_path), "--tracker-max-gap", "0.75"])
        cfg = _config_from_args(args)
        direct = PipelineConfig(
            seed=4, tracker=TrackerConfig(iou_threshold=0.35, max_gap=0.75))
        assert cfg == direct
        assert cfg.hash() == direct.hash()


class TestUsage:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["run", "--out-dir", "/tmp/x"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

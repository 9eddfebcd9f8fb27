"""File format round-trips and malformed-input diagnostics."""

import json
import logging
import tracemalloc

import numpy as np
import pytest
from oracles import json_dump_landmark_map

from semmap.association import AssociationConfig, LandmarkMap
from semmap.candidate import Candidate
from semmap.errors import (
    ConfigParseError,
    FormatError,
    MalformedLineError,
    NonUnitQuaternionError,
)
from semmap.geometry import CameraIntrinsics, PointCloud, Pose, Trajectory, quat_from_rotvec
from semmap.io_formats import (
    config_hash,
    parse_detection_log,
    parse_landmark_map,
    parse_registry,
    parse_scenario_config,
    parse_tum_trajectory,
    write_detection_log,
    write_g2o,
    write_landmark_map,
    write_ply,
    write_registry,
    write_tum_trajectory,
)
from semmap.posegraph import PoseGraph
from semmap.simulator import desk_preset, ground_truth_bundle
from semmap.tracker import BoundingBox, Measurement, Tracklet


def _random_trajectory(n=25, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        pose = Pose(
            rotation=quat_from_rotvec(axis * rng.uniform(0, 2.0)),
            translation=rng.normal(scale=4.0, size=3),
        )
        pairs.append((0.1 * i, pose))
    return Trajectory.from_pairs(pairs)


class TestTumTrajectory:
    def test_round_trip_within_1e9(self, tmp_path):
        traj = _random_trajectory()
        path = str(tmp_path / "traj.txt")
        write_tum_trajectory(path, traj, header_lines=["config 0123abcd"])
        back = parse_tum_trajectory(path)
        assert len(back) == len(traj)
        for (ta, pa), (tb, pb) in zip(traj, back):
            assert abs(ta - tb) < 1e-9
            np.testing.assert_allclose(pa.translation, pb.translation, atol=1e-9)
            # sign ambiguity: q and -q encode the same rotation
            assert min(np.linalg.norm(pa.rotation - pb.rotation),
                       np.linalg.norm(pa.rotation + pb.rotation)) < 1e-9

    def test_quaternion_order_is_xyzw_in_file(self, tmp_path):
        # 90 degrees about z: internal (w,x,y,z) = (c, 0, 0, s)
        c = np.cos(np.pi / 4)
        s = np.sin(np.pi / 4)
        path = str(tmp_path / "one.txt")
        path_obj = tmp_path / "one.txt"
        write_tum_trajectory(
            path,
            Trajectory([1.5], [Pose(rotation=np.array([c, 0, 0, s]),
                                    translation=np.array([1.0, 2.0, 3.0]))]),
        )
        data_line = [
            l for l in path_obj.read_text().splitlines() if not l.startswith("#")
        ][0]
        fields = [float(x) for x in data_line.split()]
        assert fields[4:8] == pytest.approx([0.0, 0.0, s, c])  # qx qy qz qw

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("# hello\n\n0.0 0 0 0 0 0 0 1\n# tail\n1.0 1 0 0 0 0 0 1\n")
        traj = parse_tum_trajectory(str(p))
        assert len(traj) == 2

    def test_comment_only_file_warns_and_returns_empty(self, tmp_path, caplog):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n")
        with caplog.at_level(logging.WARNING, logger="semmap"):
            traj = parse_tum_trajectory(str(p))
        assert len(traj) == 0
        assert any("no poses" in r.message for r in caplog.records)

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.0 0 0 0 0 0 0 1\n1.0 1 2 3\n")
        with pytest.raises(MalformedLineError) as err:
            parse_tum_trajectory(str(p))
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_unparseable_float_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.0 0 0 zero 0 0 0 1\n")
        with pytest.raises(MalformedLineError):
            parse_tum_trajectory(str(p))

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.0 nan 0 0 0 0 0 1\n")
        with pytest.raises(MalformedLineError):
            parse_tum_trajectory(str(p))

    def test_norm_point_nine_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.0 0 0 0 0 0 0 0.9\n")
        with pytest.raises(NonUnitQuaternionError):
            parse_tum_trajectory(str(p))

    def test_slightly_off_norm_renormalized(self, tmp_path):
        p = tmp_path / "ok.txt"
        p.write_text("0.0 0 0 0 0 0 0 1.0005\n")
        traj = parse_tum_trajectory(str(p))
        assert np.linalg.norm(traj.poses[0].rotation) == pytest.approx(1.0, abs=1e-12)

    def test_backwards_time_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
        with pytest.raises(FormatError):
            parse_tum_trajectory(str(p))


class TestDetectionLog:
    def test_round_trip(self, tmp_path):
        world, noise = desk_preset(seed=2, duration=0.5)
        frames = ground_truth_bundle(world, noise).frames
        path = str(tmp_path / "det.txt")
        write_detection_log(path, frames)
        back = parse_detection_log(path)
        nonempty = [f for f in frames if f.detections]
        assert len(back) == len(nonempty)
        for fa, fb in zip(nonempty, back):
            assert fa.frame_id == fb.frame_id
            assert len(fa.detections) == len(fb.detections)
            for ma, mb in zip(fa.detections, fb.detections):
                assert ma.class_id == mb.class_id
                assert ma.confidence == pytest.approx(mb.confidence, abs=1e-6)
                assert ma.depth_hint == pytest.approx(mb.depth_hint, abs=1e-9)
                assert ma.box.x_min == pytest.approx(mb.box.x_min, abs=1e-6)

    def test_malformed_field_count_reports_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.0 0 cup 0.9 1 2 3 4 5\n0.1 1 cup 0.9 1 2 3\n")
        with pytest.raises(MalformedLineError) as err:
            parse_detection_log(str(p))
        assert err.value.line == 2

    def test_invalid_box_reports_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.0 0 cup 0.9 5 2 3 4 5\n")  # x_max < x_min
        with pytest.raises(MalformedLineError):
            parse_detection_log(str(p))

    def test_class_with_space_rejected_on_write(self, tmp_path):
        from semmap.simulator import FrameDetections

        m = Measurement(0.0, 0, "coffee cup", 0.9, BoundingBox(0, 0, 5, 5), 2.0)
        with pytest.raises(ValueError):
            write_detection_log(
                str(tmp_path / "d.txt"),
                [FrameDetections(0, 0.0, (m,))],
            )

    # each would split into other than the one field the parser reads
    @pytest.mark.parametrize("class_id", ["a\tb", "", " ", "cup\n", "a\u00a0b",
                                          "a\x1cb"])
    def test_class_id_not_one_token_rejected_on_write(self, tmp_path, class_id):
        from semmap.simulator import FrameDetections

        m = Measurement(0.0, 0, class_id, 0.9, BoundingBox(0, 0, 5, 5), 2.0)
        with pytest.raises(ValueError, match="class_id"):
            write_detection_log(
                str(tmp_path / "d.txt"),
                [FrameDetections(0, 0.0, (m,))],
            )


class TestRegistry:
    def test_round_trip_with_dynamic_flag(self, tmp_path):
        world, _ = desk_preset(seed=0)
        path = str(tmp_path / "reg.json")
        write_registry(path, world.objects)
        back = parse_registry(path)
        assert back == world.objects
        doc = json.loads((tmp_path / "reg.json").read_text())
        assert all(rec["dynamic"] is False for rec in doc["objects"])

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "reg.json"
        p.write_text('{"objects": [\n  {"class_id": }\n]}\n')
        with pytest.raises(ConfigParseError) as err:
            parse_registry(str(p))
        assert err.value.line == 2


def _toy_map():
    from semmap.association import Landmark

    lm_map = LandmarkMap()
    rng = np.random.default_rng(0)
    for lid, (cls, c) in enumerate([("cup", [1.0, 0.0, 0.8]),
                                    ("monitor", [0.0, 1.0, 1.1])]):
        pts = np.asarray(c) + rng.normal(scale=0.05, size=(12, 3))
        lm_map.landmarks[lid] = Landmark(
            id=lid, class_id=cls, centroid=np.asarray(c, dtype=float),
            cloud=PointCloud(pts), size=0.3,
            last_association=4.5, n_fused=3,
        )
    lm_map.merged_into = {7: 0}
    lm_map._next_id = 8
    return lm_map


class TestLandmarkMapDocument:
    def test_round_trip(self, tmp_path):
        lm_map = _toy_map()
        path = str(tmp_path / "map.json")
        write_landmark_map(path, lm_map, extra={"config_hash": "abc"})
        back = parse_landmark_map(path)
        assert sorted(back.landmarks) == sorted(lm_map.landmarks)
        for lid, lm in lm_map.landmarks.items():
            got = back.landmarks[lid]
            assert got.class_id == lm.class_id
            assert got.n_fused == lm.n_fused
            np.testing.assert_allclose(got.centroid, lm.centroid)
            np.testing.assert_allclose(got.cloud.points, lm.cloud.points)
        assert back.aliases == {7: 0}
        assert back.resolve(7) == 0

    def test_next_id_not_reused_after_parse(self, tmp_path):
        path = str(tmp_path / "map.json")
        write_landmark_map(path, _toy_map())
        back = parse_landmark_map(path)
        assert back._next_id == 8

    @pytest.mark.parametrize("aliases", [
        {"1": 2, "2": 1},  # a cycle over ids that are no landmarks
        {"5": 9},  # no landmark 9: a later new landmark would take its id
        {"0": 1, "1": 0},  # a cycle over landmarks
        {"7": 1, "1": 0},  # a target that is itself aliased
        {"1": 0},  # a key that is a landmark (or, without landmarks, no target)
    ])
    def test_alias_that_does_not_resolve_rejected(self, tmp_path, aliases):
        path = tmp_path / "map.json"
        write_landmark_map(str(path), _map_of([np.ones((2, 3)), np.zeros((2, 3))]))
        doc = json.loads(path.read_text(encoding="utf-8"))
        for landmarks in (doc["landmarks"], []):
            path.write_text(json.dumps({"landmarks": landmarks, "aliases": aliases}),
                            encoding="utf-8")
            with pytest.raises(ConfigParseError, match="alias"):
                parse_landmark_map(str(path))


def _map_of(clouds, aliases=None, class_ids=None):
    """LandmarkMap with one landmark per (N, 3) cloud, ids 0, 1, ..."""
    from semmap.association import Landmark

    lm_map = LandmarkMap()
    for lid, pts in enumerate(clouds):
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        lm_map.landmarks[lid] = Landmark(
            id=lid, class_id=(class_ids or {}).get(lid, "cup"),
            centroid=pts.mean(axis=0), cloud=PointCloud(pts), size=0.25 + lid,
            last_association=1.5 * lid, n_fused=lid + 1, last_emission=0.5 * lid,
        )
    lm_map.merged_into = dict(aliases or {})
    return lm_map


class TestLandmarkMapBytes:
    """The writer against json.dump (oracles.py): equal bytes,
    and the parser reads the points back exactly."""

    def _check(self, tmp_path, lm_map, extra=None):
        got_path, want_path = tmp_path / "got.json", tmp_path / "want.json"
        write_landmark_map(str(got_path), lm_map, extra)
        json_dump_landmark_map(str(want_path), lm_map, extra)
        assert got_path.read_bytes() == want_path.read_bytes()
        back = parse_landmark_map(str(got_path))
        assert sorted(back.landmarks) == sorted(lm_map.landmarks)
        assert back.aliases == lm_map.aliases
        for lid, lm in lm_map.landmarks.items():
            got = back.landmarks[lid]
            assert got.class_id == lm.class_id
            assert got.cloud.points.tobytes() == lm.cloud.points.tobytes()
            assert got.centroid.tobytes() == lm.centroid.tobytes()
        return got_path.read_text(encoding="utf-8")

    def test_empty_map(self, tmp_path):
        assert self._check(tmp_path, LandmarkMap()) == (
            '{"aliases": {}, "landmarks": []}\n')
        self._check(tmp_path, LandmarkMap(), extra={"config_hash": "abc"})

    def test_aliases_empty_and_multi_digit(self, tmp_path):
        clouds = [np.full((2, 3), float(i)) for i in range(3)]
        self._check(tmp_path, _map_of(clouds))
        text = self._check(tmp_path, _map_of(clouds, {10: 0, 20: 1, 31: 2, 3: 0}))
        # keys sort as strings: "10" before "20" before "3"
        assert text.index('"10"') < text.index('"20"') < text.index('"3"')

    def test_extra_keys(self, tmp_path):
        lm_map = _map_of([np.ones((3, 3))], {4: 0})
        self._check(tmp_path, lm_map, extra=None)
        self._check(tmp_path, lm_map, extra={})
        self._check(tmp_path, lm_map, extra={
            "config_hash": "0123abcd", "b": {"z": [1, [2.5, None]], "a": {}},
            "zz": [], "landmarks_note": "x\ty", "cl\u00e9": 1})

    def test_non_ascii_class_id(self, tmp_path):
        lm_map = _map_of([np.ones((2, 3)), np.zeros((1, 3))],
                         class_ids={0: "chaise_longue_\u00e9", 1: "\u6905\u5b50 \"q\""})
        self._check(tmp_path, lm_map)

    def test_float_spellings(self, tmp_path):
        pts = np.array([
            [-0.0, 0.0, 1e-300],
            [1e22, -1e22, 1e16],
            [1.0, 2.0, -3.0],
            [5e-324, 0.1, 123456789.0],
            [np.pi, -np.e, 1.7976931348623157e308],
        ])
        self._check(tmp_path, _map_of([pts, pts[::-1] * -1.0]))

    def test_random_clouds(self, tmp_path):
        rng = np.random.default_rng(17)
        clouds = [rng.normal(0.0, 10.0 ** rng.integers(-3, 4), (int(rng.integers(1, 60)), 3))
                  for _ in range(8)]
        self._check(tmp_path, _map_of(clouds, {9: 3, 12: 0}), {"config_hash": "f" * 16})


class TestLandmarkMapStreaming:
    """The writer streams the document one landmark record at a time."""

    def test_peak_memory_is_one_record_not_the_document(self, tmp_path):
        rng = np.random.default_rng(3)
        lm_map = _map_of([rng.normal(size=(500, 3)) for _ in range(64)])
        path = tmp_path / "map.json"
        tracemalloc.start()
        try:
            write_landmark_map(str(path), lm_map, {"config_hash": "0" * 16})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one json.dumps of the whole document holds its text and every
        # point as a Python float at once: more than the file's size
        assert peak < path.stat().st_size / 4

    def test_extra_key_replacing_the_records(self, tmp_path):
        lm_map = _map_of([np.ones((2, 3))], {5: 0})
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        for extra in ({"landmarks": [1, {"b": 2, "a": None}]}, {"aliases": "x", "a": 1}):
            write_landmark_map(str(got), lm_map, extra)
            json_dump_landmark_map(str(want), lm_map, extra)
            assert got.read_bytes() == want.read_bytes()


class TestPly:
    def test_header_and_vertices(self, tmp_path):
        pts = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        path = tmp_path / "cloud.ply"
        write_ply(str(path), pts)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 2" in lines
        body = lines[lines.index("end_header") + 1:]
        assert len(body) == 2
        assert [float(v) for v in body[1].split()] == [3.0, 4.0, 5.0]


class TestG2o:
    def test_graph_dump_structure(self, tmp_path):
        k = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                             width=640, height=480)
        g = PoseGraph(k)
        g.add_prior(0, Pose.identity())
        g.add_odometry(0, 1, Pose(rotation=np.array([1.0, 0, 0, 0]),
                                  translation=np.array([0.1, 0.0, 0.0])))
        g.add_observation(1, 4, np.array([320.0, 240.0]), np.eye(2) / 16.0,
                          landmark_position=np.array([0.0, 0.0, 2.0]))
        path = tmp_path / "graph.g2o"
        write_g2o(str(path), g)
        lines = path.read_text().splitlines()
        by_kind = {}
        for line in lines:
            by_kind.setdefault(line.split()[0], []).append(line)
        assert len(by_kind["VERTEX_SE3:QUAT"]) == 2
        assert len(by_kind["VERTEX_TRACKXYZ"]) == 1
        assert by_kind["VERTEX_TRACKXYZ"][0].split()[1] == str(1_000_000 + 4)
        assert by_kind["FIX"] == ["FIX 0"]
        # EDGE_SE3:QUAT: tag + 2 ids + 7 pose + 21 info = 31 tokens
        assert len(by_kind["EDGE_SE3:QUAT"][0].split()) == 31
        # pixel edge: tag + 2 ids + 2 pixel + 3 info = 8 tokens
        pix = by_kind["EDGE_SE3_TRACKXYZ_PIXEL"][0].split()
        assert len(pix) == 8
        assert pix[2] == str(1_000_000 + 4) or pix[1] == str(1_000_000 + 4)


class TestScenarioConfig:
    def test_preset_form_matches_direct_call(self, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(
            {"preset": "desk", "seed": 11, "duration": 2.0,
             "noise": {"depth_sigma": 0.5}}
        ))
        world, noise = parse_scenario_config(str(p))
        world2, noise2 = desk_preset(seed=11, duration=2.0, depth_sigma=0.5)
        assert world == world2
        assert noise == noise2
        assert noise.depth_sigma == 0.5

    def test_unknown_preset_rejected(self, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text('{"preset": "garage"}')
        with pytest.raises(ConfigParseError):
            parse_scenario_config(str(p))

    def test_syntax_error_reports_line_and_column(self, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text('{\n  "preset": desk\n}')
        with pytest.raises(ConfigParseError) as err:
            parse_scenario_config(str(p))
        assert err.value.line == 2
        assert "col" in str(err.value)

    def test_explicit_world_form(self, tmp_path):
        doc = {
            "world": {
                "objects": [
                    {"class_id": "cube", "center": [0.0, 2.0, 1.0],
                     "extent": [0.4, 0.4, 0.4]},
                ],
                "path": {"waypoints": [[0.0, 0.0, 1.0]],
                         "target": [0.0, 2.0, 1.0], "speed": 0.0},
                "camera": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                           "width": 640, "height": 480},
                "duration": 1.0,
                "frame_rate": 10.0,
            },
            "noise": {"depth_sigma": 0.01, "seed": 3},
        }
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        world, noise = parse_scenario_config(str(p))
        assert world.objects[0].class_id == "cube"
        assert world.n_frames == 10
        assert noise.seed == 3

    def test_semantic_error_wrapped(self, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text('{"world": {"objects": []}}')
        with pytest.raises(ConfigParseError):
            parse_scenario_config(str(p))


class TestConfigHash:
    def test_stable_and_sensitive(self):
        a = config_hash('{"seed": 1}')
        assert a == config_hash('{"seed": 1}')
        assert a != config_hash('{"seed": 2}')
        assert len(a) == 16

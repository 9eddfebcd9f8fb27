"""Synthetic scene generator: projection geometry of rendered boxes,
noise statistics, drift integration, presets and well-posedness."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    PanningPath,
    cross_look_at_pose,
    loop_position_at,
    per_object_render,
    pose_chain_odometry,
)

from semmap.errors import DegenerateConfigurationError, IllPosedScenarioError
from semmap.geometry import CameraIntrinsics, Pose
from semmap.simulator import (
    CameraPathSpec,
    SceneObject,
    SensorNoiseSpec,
    WorldSpec,
    desk_preset,
    drift_loop_preset,
    drift_odometry,
    ground_truth_bundle,
    ground_truth_trajectory,
    look_at_pose,
    render_detections,
    walking_preset,
)

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)

QUIET = SensorNoiseSpec()


def _single_cube_world(center=(0.0, 2.0, 1.5), extent=(0.4, 0.4, 0.4)):
    # camera fixed at origin-ish looking +y at the cube
    return WorldSpec(
        objects=(SceneObject("cube", center, extent),),
        path=CameraPathSpec(
            waypoints=((0.0, 0.0, 1.5),), target=(0.0, 2.0, 1.5), speed=0.0
        ),
        camera=K, duration=10.0, frame_rate=10.0,
    )


class TestLookAt:
    def test_axes_follow_right_down_forward_convention(self):
        pose = look_at_pose(np.array([3.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0]))
        rot = pose.rotation_matrix()
        # forward = -x, right = (-1,0,0)x(0,0,1) = (0,1,0), down = -z
        np.testing.assert_allclose(rot[:, 2], [-1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(rot[:, 0], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(rot[:, 1], [0.0, 0.0, -1.0], atol=1e-12)

    def test_position_equals_target_raises(self):
        with pytest.raises(DegenerateConfigurationError):
            look_at_pose(np.zeros(3), np.zeros(3))

    def test_looking_straight_up_raises(self):
        with pytest.raises(DegenerateConfigurationError):
            look_at_pose(np.zeros(3), np.array([0.0, 0.0, 5.0]))


class TestCameraPath:
    def test_constant_speed_interpolation(self):
        path = CameraPathSpec(
            waypoints=((0.0, 0.0, 1.0), (4.0, 0.0, 1.0)), target=(2.0, 5.0, 1.0),
            speed=2.0,
        )
        np.testing.assert_allclose(path.position_at(1.0), [2.0, 0.0, 1.0])
        # open path clamps at the end
        np.testing.assert_allclose(path.position_at(99.0), [4.0, 0.0, 1.0])

    def test_closed_path_wraps(self):
        path = CameraPathSpec(
            waypoints=((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 2.0, 0.0),
                       (0.0, 2.0, 0.0)),
            target=(1.0, 1.0, 5.0), speed=1.0, closed=True,
        )
        # perimeter 8; t=9 is one unit past the start
        np.testing.assert_allclose(path.position_at(9.0), [1.0, 0.0, 0.0])

    def test_zero_speed_stays_at_first_waypoint(self):
        path = CameraPathSpec(waypoints=((1.0, 2.0, 3.0),), target=(0.0, 0.0, 3.0),
                              speed=0.0)
        np.testing.assert_allclose(path.position_at(7.5), [1.0, 2.0, 3.0])


class TestRenderDetections:
    def test_zero_noise_centered_cube_box_and_depth_exact(self):
        world = _single_cube_world()
        dets = render_detections(world, QUIET, 0.0)
        assert len(dets) == 1
        d = dets[0]
        # cube center on the optical axis: box centered at the principal
        # point, depth equals the true range 2.0
        assert d.box.center == pytest.approx((320.0, 240.0))
        assert d.depth_hint == pytest.approx(2.0)
        # near face at 1.8 m: half-width 0.2 m -> 500*0.2/1.8 = 55.55 px
        assert d.box.x_max - 320.0 == pytest.approx(500.0 * 0.2 / 1.8)
        assert d.class_id == "cube"

    def test_all_detections_missed(self):
        world = _single_cube_world()
        noise = SensorNoiseSpec(missed_detection_rate=1.0)
        for t in (0.0, 0.5, 1.0):
            assert render_detections(world, noise, t) == []

    def test_false_positive_count_within_binomial_bound(self):
        # miss everything real so every emitted detection is spurious.
        # sum of 1000 Poisson(0.5) draws: mean 500, sd sqrt(500)=22.36,
        # 3 sigma window = [433, 567]
        world = WorldSpec(
            objects=(SceneObject("cube", (0.0, 2.0, 1.5), (0.4, 0.4, 0.4)),),
            path=CameraPathSpec(waypoints=((0.0, 0.0, 1.5),),
                                target=(0.0, 2.0, 1.5), speed=0.0),
            camera=K, duration=100.0, frame_rate=10.0,
        )
        noise = SensorNoiseSpec(false_positive_rate=0.5,
                                missed_detection_rate=1.0, seed=123)
        count = sum(
            len(render_detections(world, noise, i / 10.0)) for i in range(1000)
        )
        mean = 1000 * 0.5
        bound = 3.0 * math.sqrt(mean)
        assert mean - bound <= count <= mean + bound

    def test_behind_camera_object_not_rendered(self):
        world = WorldSpec(
            objects=(SceneObject("cube", (0.0, -3.0, 1.5), (0.4, 0.4, 0.4)),),
            path=CameraPathSpec(waypoints=((0.0, 0.0, 1.5),),
                                target=(0.0, 2.0, 1.5), speed=0.0),
            camera=K, duration=1.0, frame_rate=10.0,
        )
        assert render_detections(world, QUIET, 0.0) == []

    def test_dynamic_object_box_follows_motion(self):
        world = WorldSpec(
            objects=(SceneObject("ball", (0.0, 4.0, 1.5), (0.3, 0.3, 0.3),
                                 velocity=(0.5, 0.0, 0.0)),),
            path=CameraPathSpec(waypoints=((0.0, 0.0, 1.5),),
                                target=(0.0, 4.0, 1.5), speed=0.0),
            camera=K, duration=4.0, frame_rate=10.0,
        )
        u0 = render_detections(world, QUIET, 0.0)[0].box.center[0]
        u2 = render_detections(world, QUIET, 2.0)[0].box.center[0]
        # box edges come from extreme corners: at t=2 the cube spans
        # x in [0.85, 1.15], z in [3.85, 4.15]; right edge is the near
        # right corner, left edge the far left corner
        expected = 0.5 * (500.0 * 1.15 / 3.85 + 500.0 * 0.85 / 4.15)
        assert u2 - u0 == pytest.approx(expected, abs=1e-9)

    def test_same_frame_renders_identically(self):
        world, noise = desk_preset(seed=9)
        a = render_detections(world, noise, 0.5)
        b = render_detections(world, noise, 0.5)
        assert a == b

    def test_noisy_box_center_stays_near_truth(self):
        world = _single_cube_world()
        noise = SensorNoiseSpec(box_center_sigma=2.0, seed=4)
        centers = np.array([
            render_detections(world, noise, i / 10.0)[0].box.center
            for i in range(50)
        ])
        spread = centers - np.array([320.0, 240.0])
        assert np.abs(spread).max() < 2.0 * 5.0  # 5 sigma
        assert np.abs(spread).max() > 0.1  # noise actually applied


class TestDriftOdometry:
    def test_zero_noise_reproduces_ground_truth(self):
        world, _ = desk_preset(seed=0, duration=2.0)
        gt = ground_truth_trajectory(world)
        odo = drift_odometry(gt, SensorNoiseSpec())
        for (_, a), (_, b) in zip(gt, odo):
            np.testing.assert_allclose(a.translation, b.translation, atol=1e-12)
            assert min(np.linalg.norm(a.rotation - b.rotation),
                       np.linalg.norm(a.rotation + b.rotation)) < 1e-12

    def test_first_pose_exact_even_with_noise(self):
        world, _ = desk_preset(seed=1, duration=2.0)
        gt = ground_truth_trajectory(world)
        odo = drift_odometry(gt, SensorNoiseSpec(odom_translation_sigma=0.05, seed=1))
        np.testing.assert_array_equal(odo.poses[0].translation,
                                      gt.poses[0].translation)

    def test_error_grows_with_path_length(self):
        # straight constant-speed path; terminal drift of a random walk
        # grows with step count, monotone in the mean over 10 seeds
        def mean_terminal_drift(n_steps):
            world = WorldSpec(
                objects=(SceneObject("cube", (0.0, 5.0, 1.0), (0.4, 0.4, 0.4)),),
                path=CameraPathSpec(
                    waypoints=((0.0, 0.0, 1.0), (1000.0, 0.0, 1.0)),
                    target=(500.0, 5.0, 1.0), speed=1.0,
                ),
                camera=K, duration=float(n_steps), frame_rate=1.0,
            )
            gt = ground_truth_trajectory(world)
            drifts = []
            for seed in range(10):
                odo = drift_odometry(
                    gt, SensorNoiseSpec(odom_translation_sigma=0.01, seed=seed)
                )
                drifts.append(np.linalg.norm(
                    odo.poses[-1].translation - gt.poses[-1].translation
                ))
            return np.mean(drifts)

        d = [mean_terminal_drift(n) for n in (25, 100, 400)]
        assert d[0] < d[1] < d[2]

    def test_fixed_seed_bit_identical(self):
        world, noise = desk_preset(seed=7, duration=2.0)
        gt = ground_truth_trajectory(world)
        a = drift_odometry(gt, noise)
        b = drift_odometry(gt, noise)
        for (_, pa), (_, pb) in zip(a, b):
            np.testing.assert_array_equal(pa.translation, pb.translation)
            np.testing.assert_array_equal(pa.rotation, pb.rotation)

    def test_deterministic_bias_accumulates(self):
        world, _ = desk_preset(seed=0, duration=4.0)
        gt = ground_truth_trajectory(world)
        noise = SensorNoiseSpec(odom_rotation_bias=(0.0, 1e-3, 0.0))
        odo = drift_odometry(gt, noise)
        drift = np.linalg.norm(odo.poses[-1].translation - gt.poses[-1].translation)
        assert drift > 0.01


class TestPresetsAndBundle:
    def test_desk_bundle_well_posed_with_full_registry(self):
        world, noise = desk_preset(seed=0, duration=1.0)
        bundle = ground_truth_bundle(world, noise)
        assert len(bundle.registry) == len(world.objects) == 8
        assert len(bundle.frames) == world.n_frames == 30
        assert len(bundle.ground_truth) == len(bundle.odometry)

    def test_desk_frames_mostly_populated(self):
        world, noise = desk_preset(seed=0, duration=2.0)
        bundle = ground_truth_bundle(world, noise)
        per_frame = [len(f.detections) for f in bundle.frames]
        assert np.mean(per_frame) > 4.0

    def test_walking_preset_has_fast_dynamic_object_in_view(self):
        world, noise = walking_preset(seed=0)
        dynamic = [o for o in world.objects if o.dynamic]
        assert len(dynamic) == 1
        assert np.linalg.norm(dynamic[0].velocity) >= 0.5
        bundle = ground_truth_bundle(world, noise)
        seen = sum(
            any(d.class_id == "person" for d in f.detections) for f in bundle.frames
        )
        assert seen >= 20

    def test_walking_motion_clears_deviation_threshold_geometrically(self):
        # per-frame displacement of the walker must exceed the 0.15 m
        # dynamic-object gate at the preset frame rate
        world, _ = walking_preset(seed=0)
        person = next(o for o in world.objects if o.dynamic)
        step = np.linalg.norm(person.velocity) / world.frame_rate
        assert step > 0.15

    def test_drift_loop_preset_two_laps_same_start(self):
        world, noise = drift_loop_preset(seed=0)
        gt = ground_truth_trajectory(world)
        half = len(gt) // 2
        np.testing.assert_allclose(
            gt.poses[0].translation, gt.poses[half].translation, atol=0.05
        )
        odo = drift_odometry(gt, noise)
        mid_drift = np.linalg.norm(
            odo.poses[half].translation - gt.poses[half].translation
        )
        assert 0.2 < mid_drift < 1.2

    def test_ill_posed_scenario_raises(self):
        # camera looks away from the only object
        world = WorldSpec(
            objects=(SceneObject("cube", (0.0, -5.0, 1.5), (0.4, 0.4, 0.4)),),
            path=CameraPathSpec(waypoints=((0.0, 0.0, 1.5),),
                                target=(0.0, 5.0, 1.5), speed=0.0),
            camera=K, duration=1.0, frame_rate=10.0,
        )
        with pytest.raises(IllPosedScenarioError):
            ground_truth_bundle(world, QUIET)

    def test_bundle_deterministic(self):
        world, noise = desk_preset(seed=5, duration=1.0)
        a = ground_truth_bundle(world, noise)
        b = ground_truth_bundle(world, noise)
        assert a.frames == b.frames


class TestSpecValidation:
    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            SceneObject("cube", (0.0, 0.0, 0.0), (0.1, -0.1, 0.1))

    def test_rates_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SensorNoiseSpec(missed_detection_rate=1.5)
        with pytest.raises(ValueError):
            SensorNoiseSpec(false_positive_rate=-0.1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            SensorNoiseSpec(depth_sigma=-1.0)

    def test_world_needs_positive_duration_and_objects(self):
        path = CameraPathSpec(waypoints=((0.0, 0.0, 1.0),), target=(1.0, 0.0, 1.0),
                              speed=0.0)
        with pytest.raises(ValueError):
            WorldSpec(objects=(), path=path, camera=K, duration=1.0, frame_rate=10.0)
        with pytest.raises(ValueError):
            WorldSpec(
                objects=(SceneObject("c", (0, 0, 0), (1, 1, 1)),),
                path=path, camera=K, duration=0.0, frame_rate=10.0,
            )

    def test_frame_count(self):
        world, _ = desk_preset(seed=0)
        assert world.n_frames == 600


def _bits(m):
    """A measurement's fields, floats as their bits."""
    return (m.timestamp.hex(), m.frame_id, m.class_id, m.confidence.hex(),
            tuple(float(v).hex() for v in (m.box.x_min, m.box.y_min, m.box.x_max,
                                             m.box.y_max)),
            float(m.depth_hint).hex())


def _oracle_bits(row):
    t, frame_id, class_id, confidence, box, depth = row
    return (t.hex(), frame_id, class_id, confidence.hex(),
            tuple(float(v).hex() for v in box), float(depth).hex())


def _pose_bits(pose):
    return pose.rotation.tobytes(), pose.translation.tobytes()


def _behind_world():
    # a static camera looking +y: one cube ahead, one behind, a box that
    # straddles the image plane, and a ball that crosses it from behind
    objects = (
        SceneObject("cube", (0.0, 2.0, 1.5), (0.4, 0.4, 0.4)),
        SceneObject("crate", (0.0, -3.0, 1.5), (0.4, 0.4, 0.4)),
        SceneObject("beam", (0.3, 0.3, 1.5), (0.2, 1.0, 0.2)),
        SceneObject("ball", (-0.4, -1.0, 1.4), (0.2, 0.2, 0.2), velocity=(0.0, 1.0, 0.0)),
    )
    return WorldSpec(
        objects=objects,
        path=CameraPathSpec(waypoints=((0.0, 0.0, 1.5),), target=(0.0, 2.0, 1.5),
                            speed=0.0),
        camera=K, duration=4.0, frame_rate=10.0,
    )


def _scene(name):
    if name == "desk":
        return desk_preset(seed=3, duration=3.0)
    if name == "walking":
        return walking_preset(seed=2)
    if name == "drift_loop":
        return drift_loop_preset(seed=1)
    if name == "panning":
        world, noise = desk_preset(seed=0, duration=3.0)
        return replace(world, path=PanningPath(
            (0.9, 0.0, 1.45), (0.0, 0.0, 0.85), sweep=0.9, period=3.0)), noise
    return _behind_world(), SensorNoiseSpec(box_center_sigma=1.0, depth_sigma=0.02,
                                            false_positive_rate=0.3, seed=6)


SCENES = ["desk", "walking", "drift_loop", "panning", "behind"]


class TestBundleBitForBit:
    """ground_truth_bundle renders each frame from its ground-truth pose,
    all objects in one pass, and stacks the odometry: bit for bit the
    frame rendered alone, each object projected on its own, and the
    odometry integrated one Pose at a time."""

    @pytest.fixture(scope="class", params=SCENES)
    def scene(self, request):
        world, noise = _scene(request.param)
        return request.param, world, noise, ground_truth_bundle(world, noise)

    def test_frames_equal_the_frame_rendered_alone(self, scene):
        _, world, noise, bundle = scene
        assert sum(len(f.detections) for f in bundle.frames) > 0
        for frame in bundle.frames:
            alone = render_detections(world, noise, frame.timestamp)
            assert [_bits(m) for m in frame.detections] == [_bits(m) for m in alone]

    def test_frames_equal_each_object_projected_alone(self, scene):
        _, world, noise, bundle = scene
        for frame, pose in zip(bundle.frames, bundle.ground_truth.poses):
            want = per_object_render(world, noise, frame.timestamp, pose)
            assert [_bits(m) for m in frame.detections] == [_oracle_bits(r) for r in want]

    def test_odometry_equals_the_pose_chain(self, scene):
        _, _, noise, bundle = scene
        want = pose_chain_odometry(bundle.ground_truth, noise)
        assert [_pose_bits(p) for p in bundle.odometry.poses] == [_pose_bits(p) for p in want]
        np.testing.assert_array_equal(bundle.odometry.stamps, bundle.ground_truth.stamps)

    def test_behind_camera_objects_are_skipped(self):
        world, noise = _scene("behind")
        bundle = ground_truth_bundle(world, replace(noise, false_positive_rate=0.0))
        seen = {m.class_id for f in bundle.frames for m in f.detections}
        # the crate stays behind and the beam always has corners behind
        assert "crate" not in seen and "beam" not in seen
        assert {"cube", "ball"} <= seen


@pytest.mark.parametrize("name", ["desk", "walking", "drift_loop", "behind"])
def test_poses_equal_the_cross_product_route(name):
    # pose_at walks cached segments and crosses floats: the bits of
    # walking the waypoints and crossing with np.cross
    world, _ = _scene(name)
    for t in world.timestamps().tolist():
        want = cross_look_at_pose(loop_position_at(world.path, t), world.path.target)
        assert _pose_bits(world.path.pose_at(t)) == _pose_bits(want)


class TestOdometryBitForBit:
    @pytest.mark.parametrize("noise", [
        SensorNoiseSpec(),
        SensorNoiseSpec(odom_translation_bias=(1e-3, 0, 0), odom_rotation_bias=(0, 0, 2e-3)),
        SensorNoiseSpec(odom_translation_sigma=0.01, odom_rotation_sigma=0.0, seed=4),
    ])
    def test_equals_the_pose_chain(self, noise):
        gt = ground_truth_trajectory(desk_preset(seed=0, duration=2.0)[0])
        want = pose_chain_odometry(gt, noise)
        got = drift_odometry(gt, noise)
        assert [_pose_bits(p) for p in got.poses] == [_pose_bits(p) for p in want]

    @pytest.mark.parametrize("sigma", ["odom_translation_sigma", "odom_rotation_sigma"])
    def test_infinite_sigma_raises_pose_error_without_warnings(self, sigma):
        # the pose chain raises at its first Pose; the stacked steps
        # raise the same error before any arithmetic on the infinities
        gt = ground_truth_trajectory(desk_preset(seed=0, duration=2.0)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="pose fields must be finite"):
                drift_odometry(gt, SensorNoiseSpec(**{sigma: math.inf}))


class TestDegenerateLookAt:
    @pytest.mark.parametrize("waypoint", [(0.0, 0.0, 3.0), (0.0, 0.0, 1.0)])
    def test_bundle_raises(self, waypoint):
        # straight down at the target, and at the target itself
        world = WorldSpec(
            objects=(SceneObject("cube", (0.0, 0.0, 0.5), (0.4, 0.4, 0.4)),),
            path=CameraPathSpec(waypoints=(waypoint,), target=(0.0, 0.0, 1.0),
                                speed=0.0),
            camera=K, duration=1.0, frame_rate=10.0,
        )
        with pytest.raises(DegenerateConfigurationError):
            ground_truth_bundle(world, QUIET)

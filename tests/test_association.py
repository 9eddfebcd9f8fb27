"""Association, fusion and merge tests.

Cloud NN distances are cross-checked against a brute-force double loop
and merge fixpoints against a transitive-closure oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_force_nn_mean, dict_voxel_thin, repoint_aliases

from semmap.association import (
    AssociationConfig,
    Landmark,
    LandmarkMap,
    Matched,
    NewLandmark,
    fuse,
    gate_radius,
    nn_cloud_distance,
    voxel_thin,
)
from semmap.candidate import Candidate
from semmap.errors import EmptyCloudError
from semmap.geometry import PointCloud
from semmap.tracker import BoundingBox, Measurement, Tracklet


def _tracklet(tid=0, class_id="cup"):
    t = Tracklet(tid, class_id)
    for i in range(2):
        t.append(
            Measurement(0.1 * i, i, class_id, 0.9, BoundingBox(0, 0, 10, 10), 2.0)
        )
    return t


def _cand(center, size=0.3, class_id="cup", seed=0, n=60, tid=0):
    rng = np.random.default_rng(seed)
    pts = np.asarray(center) + rng.uniform(-size / 2, size / 2, size=(n, 3))
    return Candidate(
        tracklet=_tracklet(tid, class_id),
        cloud=PointCloud(pts),
        map_centroid=np.asarray(center, dtype=float),
        size_estimate=size,
        class_id=class_id,
    )


def _landmark(lid, center, size=0.3, class_id="cup", seed=1, n=80, last=0.0):
    rng = np.random.default_rng(seed)
    pts = np.asarray(center) + rng.uniform(-size / 2, size / 2, size=(n, 3))
    return Landmark(
        id=lid, class_id=class_id, centroid=np.asarray(center, dtype=float),
        cloud=PointCloud(pts), size=size, last_association=last,
    )


class TestGateRadius:
    def test_zero_dt_closes_gate(self):
        assert gate_radius(0.0, 10.0, 1.0) == 0.0

    def test_reference_values(self):
        # (10 / 10) * 1 = 1 -> r = 1; (40 / 10) * 0.25 = 1 -> r = 1
        assert gate_radius(10.0, 10.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert gate_radius(40.0, 10.0, 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_one_second_small_object(self):
        # sqrt((1 / 10) * 0.4) = 0.2
        assert gate_radius(1.0, 10.0, 0.4) == pytest.approx(0.2, abs=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_monotone_in_dt_and_size(self, dt, u, s):
        r = gate_radius(dt, u, s)
        assert r >= 0.0
        assert gate_radius(dt + 1.0, u, s) >= r
        assert gate_radius(dt, u, s + 1.0) >= r

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            gate_radius(-1.0, 10.0, 1.0)


class TestNnCloudDistance:
    def test_identical_clouds_zero(self):
        pts = np.random.default_rng(2).normal(size=(40, 3))
        c = PointCloud(pts)
        assert nn_cloud_distance(c, c) == 0.0

    def test_single_points(self):
        a = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        b = PointCloud(np.array([[3.0, 4.0, 0.0]]))
        assert nn_cloud_distance(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_asymmetry(self):
        # candidate covering a superset sees extra far points
        a = PointCloud(np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
        b = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        assert nn_cloud_distance(a, b) == pytest.approx(5.0, abs=1e-12)
        assert nn_cloud_distance(b, a) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            na, nb = rng.integers(1, 120, size=2)
            a = rng.normal(size=(na, 3))
            b = rng.normal(size=(nb, 3))
            got = nn_cloud_distance(
                PointCloud(a), PointCloud(b)
            )
            assert got == pytest.approx(brute_force_nn_mean(a, b), abs=1e-9)

    def test_empty_cloud_raises(self):
        a = PointCloud(np.zeros((0, 3)))
        b = PointCloud(np.zeros((1, 3)))
        with pytest.raises(EmptyCloudError):
            nn_cloud_distance(a, b)


def _thin_cases():
    """Inputs on which voxel_thin must equal the dict-loop oracle."""
    rng = np.random.default_rng(7)
    cases = {
        "duplicates": (np.repeat(rng.normal(size=(60, 3)), 5, axis=0), 100, 0.1),
        # every coordinate a multiple of the edge
        "cell_boundaries": (rng.integers(-6, 6, size=(400, 3)) * 0.25, 50, 0.25),
        "negative_and_signed_zero": (
            rng.choice([-0.0, 0.0, -0.25, 0.25, -1e-300], size=(300, 3)), 10, 0.25),
        "cap_one": (rng.normal(size=(200, 3)), 1, 0.01),
        "tiny_edge": (rng.normal(size=(300, 3)) * 1e-6, 40, 1e-9),
        "below_edge_floor": (rng.normal(size=(300, 3)) * 1e-6, 40, 1e-15),
        "many_doublings": (rng.normal(size=(2000, 3)) * 50.0, 30, 1e-3),
        "far_from_origin": (1e12 + rng.normal(size=(500, 3)), 64, 0.5),
        "landmark_cloud": (rng.normal(size=(4096, 3)) * 0.05, 2048, 0.2 / 32.0),
    }
    # unit edge, integer coordinates: the cells are the coordinates.
    # Spans (64, 64, 16) give 2**16 keys, the most one uint16 key packs
    # (the largest key is 65535); one more cell on the last axis sends
    # the cells to the column-by-column sort
    for name, top in (("spans_at_2_16", 15), ("spans_above_2_16", 16)):
        hi = np.array([63, 63, top], dtype=float)
        corners = np.array([[0, 0, 0], [1, 1, 1], [0, 0, 1]]) * hi
        inner = np.floor(rng.uniform(size=(300, 3)) * (hi + 1))
        pts = np.vstack([corners, inner, inner[:50], hi - inner[:20], hi - [0, 0, 1]])
        cases[name] = (pts, 60, 1.0)
    # spans (64, 64, 17): cell (60, 15, 1 + j) has key 65536 + j, which
    # a uint16 key would wrap onto cell (0, 0, j); 21 cells, cap 20
    past = np.array([[0, 0, j] for j in range(10)] + [[60, 15, 1 + j] for j in range(10)]
                    + [[63, 63, 16]], dtype=float)
    cases["keys_past_uint16"] = (past, 20, 1.0)
    # spans multiplying to 2**60, around keys that float64 cannot tell
    # apart: (2**40 - 1) * 2**20 + z for z in 0..9
    wide = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0 ** 20 - 1]]
                    + [[2.0 ** 40 - 1, 0.0, z] for z in range(10)])
    cases["spans_at_2_60"] = (wide, 11, 1.0)
    # cells above 2**53 in magnitude with small spans: the offsets from
    # the minimum cell are exact although the cells are not dense
    big = 2.0 ** 60 + rng.integers(0, 40, size=(400, 3)) * 256.0
    cases["cells_above_2_53"] = (big, 50, 1.0)
    cases["cells_below_minus_2_53"] = (-big, 50, 1.0)
    cases["cells_far_apart_above_2_53"] = (np.vstack([big, -big]), 50, 1.0)
    return [pytest.param(*args, id=name) for name, args in cases.items()]


def _tiny_cap_clouds():
    """Clouds that keep more than 7 cells for a cap below 8."""
    rng = np.random.default_rng(17)
    straddle = rng.normal(size=(24, 3))  # every octant, all three planes
    one_plane = np.abs(rng.normal(size=(24, 3)))
    one_plane[::2, 0] *= -1.0
    # a negative coordinate so small that dividing it by a large finite
    # edge underflows to -0, moving its point from cell -1 to cell 0
    # before the edge overflows: five cells become four on the way
    underflow = np.array([[-1e-300, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                          [1.0, 1.0, -1.0], [1.0, -1.0, -1.0]])
    underflow = np.repeat(underflow, 3, axis=0)
    return {"straddle": straddle, "one_plane": one_plane, "underflow": underflow}


def _assert_thin_matches_oracle(pts, cap, edge):
    got = voxel_thin(pts, cap, edge)
    want = dict_voxel_thin(pts, cap, edge)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestVoxelThin:
    def test_under_cap_unchanged(self):
        pts = np.random.default_rng(4).normal(size=(10, 3))
        np.testing.assert_array_equal(voxel_thin(pts, 2048, 0.01), pts)

    def test_cap_enforced(self):
        pts = np.random.default_rng(5).normal(size=(5000, 3))
        out = voxel_thin(pts, 100, 0.01)
        assert out.shape[0] <= 100

    def test_deterministic(self):
        pts = np.random.default_rng(6).normal(size=(3000, 3))
        np.testing.assert_array_equal(
            voxel_thin(pts, 500, 0.05), voxel_thin(pts, 500, 0.05)
        )

    @pytest.mark.parametrize("pts, cap, edge", _thin_cases())
    def test_matches_dict_oracle(self, pts, cap, edge):
        _assert_thin_matches_oracle(pts, cap, edge)

    @given(
        st.lists(
            st.tuples(*[st.one_of(
                st.integers(-8, 8).map(lambda i: i * 0.125),
                st.sampled_from([-0.0, 0.0]),
                st.floats(-1e6, 1e6, allow_nan=False),
            )] * 3),
            min_size=2, max_size=120,
        ),
        st.integers(1, 40),
        st.sampled_from([1e-9, 0.125, 0.3, 2.0]),
    )
    def test_matches_dict_oracle_fuzzed(self, rows, cap, edge):
        _assert_thin_matches_oracle(np.array(rows, dtype=float), cap, edge)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [5, 50])
    def test_non_finite_point_rejected(self, bad, n):
        pts = np.random.default_rng(8).normal(size=(n, 3))
        pts[n // 2, 1] = bad
        with pytest.raises(ValueError):
            voxel_thin(pts, 10, 0.1)

    def test_non_finite_cell_index_rejected(self):
        # finite points, but p / edge overflows to inf
        pts = np.random.default_rng(9).normal(size=(50, 3)) * 1e300
        with pytest.raises(ValueError):
            voxel_thin(pts, 10, 1e-9)

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            voxel_thin(np.zeros((3, 3)), 0, 0.1)

    @pytest.mark.parametrize("cap", range(1, 8))
    @pytest.mark.parametrize("name", sorted(_tiny_cap_clouds()))
    def test_tiny_cap_matches_dict_oracle(self, name, cap):
        _assert_thin_matches_oracle(_tiny_cap_clouds()[name], cap, 0.01)

    def test_underflowing_cell_is_not_cut_short(self):
        # four cells remain once -1e-300 / edge underflows, so cap 4
        # keeps four points rather than the overflow pass's one
        out = voxel_thin(_tiny_cap_clouds()["underflow"], 4, 0.01)
        assert out.shape == (4, 3)


class TestAssociate:
    def test_empty_map_creates_landmark(self):
        m = LandmarkMap()
        decision = m.associate(_cand([1.0, 2.0, 0.5]), now=0.0, cfg=AssociationConfig())
        assert isinstance(decision, NewLandmark)
        assert decision.landmark_id == 0
        assert len(m) == 1
        np.testing.assert_allclose(m.landmarks[0].centroid, [1.0, 2.0, 0.5])

    def test_far_candidate_creates_landmark(self):
        m = LandmarkMap()
        cfg = AssociationConfig()
        m.associate(_cand([0.0, 0.0, 0.0]), now=0.0, cfg=cfg)
        # gate after 10 s for size 0.3 is sqrt(0.3) ~ 0.55 m, 5 m is out
        decision = m.associate(_cand([5.0, 0.0, 0.0], seed=7), now=10.0, cfg=cfg)
        assert isinstance(decision, NewLandmark)
        assert len(m) == 2

    def test_reobservation_within_interval_updates_silently(self):
        m = LandmarkMap()
        cfg = AssociationConfig()
        m.associate(_cand([0.0, 0.0, 0.0]), now=0.0, cfg=cfg)
        decision = m.associate(_cand([0.01, 0.0, 0.0], seed=8), now=1.0, cfg=cfg)
        assert isinstance(decision, Matched)
        assert not decision.emit_observation
        assert m.landmarks[0].n_fused == 2  # map updated anyway

    def test_reobservation_after_interval_emits(self):
        m = LandmarkMap()
        cfg = AssociationConfig()
        m.associate(_cand([0.0, 0.0, 0.0]), now=0.0, cfg=cfg)
        decision = m.associate(_cand([0.05, 0.0, 0.0], seed=9), now=3.0, cfg=cfg)
        assert isinstance(decision, Matched)
        assert decision.emit_observation

    def test_matched_resets_last_association(self):
        m = LandmarkMap()
        cfg = AssociationConfig()
        m.associate(_cand([0.0, 0.0, 0.0]), now=0.0, cfg=cfg)
        m.associate(_cand([0.02, 0.0, 0.0], seed=10), now=3.0, cfg=cfg)
        assert m.landmarks[0].last_association == 3.0

    def test_class_separation(self):
        m = LandmarkMap()
        cfg = AssociationConfig()
        m.associate(_cand([0.0, 0.0, 0.0], class_id="cup"), now=0.0, cfg=cfg)
        decision = m.associate(
            _cand([0.0, 0.0, 0.0], class_id="book", seed=11), now=5.0, cfg=cfg
        )
        assert isinstance(decision, NewLandmark)

    def test_ambiguous_gate_resolved_by_cloud_overlap(self):
        # two same-class landmarks inside the gate; candidate cloud sits
        # on top of the second one, so the NN distance must pick it
        m = LandmarkMap()
        cfg = AssociationConfig()
        m.landmarks[0] = _landmark(0, [0.0, 0.0, 0.0], seed=12)
        m.landmarks[1] = _landmark(1, [0.5, 0.0, 0.0], seed=13)
        m._next_id = 2
        cand = _cand([0.25, 0.0, 0.0], seed=14)
        # shift the candidate cloud onto landmark 1 without moving its centroid
        cand = Candidate(
            tracklet=cand.tracklet,
            cloud=PointCloud(cand.cloud.points + [0.25, 0, 0]),
            map_centroid=cand.map_centroid,
            size_estimate=cand.size_estimate,
            class_id=cand.class_id,
        )
        decision = m.associate(cand, now=100.0, cfg=cfg)
        assert isinstance(decision, Matched)
        assert decision.landmark_id == 1
        assert decision.nn_distance is not None
        # cross-check the reported distance against brute force
        want = brute_force_nn_mean(
            cand.cloud.points, _landmark(1, [0.5, 0.0, 0.0], seed=13).cloud.points
        )
        assert decision.nn_distance == pytest.approx(want, abs=1e-9)

    def test_single_gate_entry_skips_cloud_path(self):
        m = LandmarkMap()
        cfg = AssociationConfig()
        m.associate(_cand([0.0, 0.0, 0.0]), now=0.0, cfg=cfg)
        timings = {}
        decision = m.associate(
            _cand([0.01, 0.0, 0.0], seed=15), now=1.0, cfg=cfg, timings=timings
        )
        assert isinstance(decision, Matched)
        assert decision.nn_distance is None
        assert "association_path2" not in timings
        assert "association_path1" in timings
        # the fusion is timed on its own; merging is the caller's stage
        assert set(timings) == {"association_path1", "landmark_update"}


class TestFuse:
    def test_weighted_centroid_mean(self):
        # landmark absorbed 2 candidates at origin, new candidate at x=3:
        # (2 * 0 + 3) / 3 = 1
        lm = _landmark(0, [0.0, 0.0, 0.0])
        lm.n_fused = 2
        out = fuse(lm, _cand([3.0, 0.0, 0.0], seed=16), now=5.0, cfg=AssociationConfig())
        np.testing.assert_allclose(out.centroid, [1.0, 0.0, 0.0], atol=1e-12)
        assert out.n_fused == 3
        assert out.last_association == 5.0

    def test_identical_candidate_is_fixpoint_for_centroid(self):
        cfg = AssociationConfig()
        lm = _landmark(0, [1.0, 1.0, 1.0])
        for k in range(4):
            lm = fuse(lm, _cand([1.0, 1.0, 1.0], seed=17), now=float(k), cfg=cfg)
            np.testing.assert_allclose(lm.centroid, [1.0, 1.0, 1.0], atol=1e-12)

    def test_size_grows_with_new_view(self):
        # front face at x=0 plus back face at x=0.6: extent jumps to 0.6
        cfg = AssociationConfig()
        face = np.random.default_rng(18).uniform(0, 0.4, size=(40, 2))
        front = np.column_stack([np.zeros(40), face])
        lm = Landmark(
            id=0, class_id="cup", centroid=np.array([0.0, 0.2, 0.2]),
            cloud=PointCloud(front), size=0.4, last_association=0.0,
        )
        back = np.column_stack([np.full(40, 0.6), face])
        cand = Candidate(
            tracklet=_tracklet(), cloud=PointCloud(back),
            map_centroid=np.array([0.6, 0.2, 0.2]), size_estimate=0.4, class_id="cup",
        )
        out = fuse(lm, cand, now=1.0, cfg=cfg)
        assert out.size >= 0.6 - 1e-9
        assert out.size >= lm.size

    def test_cloud_cap_respected(self):
        cfg = AssociationConfig(cloud_cap=64)
        lm = _landmark(0, [0.0, 0.0, 0.0], n=400, seed=19)
        out = fuse(lm, _cand([0.0, 0.0, 0.0], n=400, seed=20), now=1.0, cfg=cfg)
        assert len(out.cloud) <= 64


class TestMergeOverlapping:
    def test_disjoint_map_is_noop(self):
        m = LandmarkMap()
        m.landmarks[0] = _landmark(0, [0.0, 0.0, 0.0], seed=21)
        m.landmarks[1] = _landmark(1, [5.0, 0.0, 0.0], seed=22)
        m._next_id = 2
        assert m.merge_overlapping(AssociationConfig()) == []
        assert sorted(m.landmarks) == [0, 1]

    def test_coincident_landmarks_merge_into_lower_id(self):
        m = LandmarkMap()
        m.landmarks[3] = _landmark(3, [0.0, 0.0, 0.0], seed=23)
        m.landmarks[7] = _landmark(7, [0.02, 0.0, 0.0], seed=24)
        m._next_id = 8
        records = m.merge_overlapping(AssociationConfig())
        assert records == [(7, 3)]
        assert sorted(m.landmarks) == [3]
        assert m.merged_into == m.aliases == {7: 3}
        assert m.resolve(7) == 3
        with pytest.raises(AttributeError):
            m.aliases = {}

    def test_different_class_never_merges(self):
        m = LandmarkMap()
        m.landmarks[0] = _landmark(0, [0.0, 0.0, 0.0], class_id="cup", seed=25)
        m.landmarks[1] = _landmark(1, [0.0, 0.0, 0.0], class_id="book", seed=26)
        m._next_id = 2
        assert m.merge_overlapping(AssociationConfig()) == []

    def test_chain_merges_to_single_survivor(self):
        # three landmarks in a row, each overlapping the next; the
        # transitive closure is one cluster -> single survivor, aliases
        # resolve to the lowest id
        m = LandmarkMap()
        for i, x in enumerate([0.0, 0.2, 0.4]):
            m.landmarks[i] = _landmark(i, [x, 0.0, 0.0], size=0.5, seed=30 + i)
        m._next_id = 3
        m.merge_overlapping(AssociationConfig(merge_overlap_ratio=0.3))
        assert sorted(m.landmarks) == [0]
        assert m.resolve(1) == 0 and m.resolve(2) == 0

    def test_fixpoint_no_overlapping_pair_remains(self):
        rng = np.random.default_rng(40)
        m = LandmarkMap()
        cfg = AssociationConfig()
        for i in range(12):
            c = rng.uniform(0, 1.5, 3)
            m.landmarks[i] = _landmark(i, c, size=0.4, seed=50 + i)
        m._next_id = 12
        m.merge_overlapping(cfg)
        from semmap.association import _bounds_overlap_ratio

        ids = sorted(m.landmarks)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                la, lb = m.landmarks[a], m.landmarks[b]
                if la.class_id == lb.class_id:
                    ratio = _bounds_overlap_ratio(la.cloud.bounds(), lb.cloud.bounds())
                    assert ratio < cfg.merge_overlap_ratio

    def test_merge_matches_transitive_closure_oracle(self):
        # survivors == number of connected components of the initial
        # overlap graph when clusters are mutually coincident
        m = LandmarkMap()
        centers = [[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [3.0, 0.0, 0.0],
                   [3.01, 0.0, 0.0], [9.0, 0.0, 0.0]]
        for i, c in enumerate(centers):
            m.landmarks[i] = _landmark(i, c, seed=60 + i)
        m._next_id = 5
        m.merge_overlapping(AssociationConfig())
        assert sorted(m.landmarks) == [0, 2, 4]

    def test_aliases_match_a_scan_of_every_alias(self):
        # landmarks arrive with shuffled ids, so a survivor that already
        # holds aliases is often absorbed by a lower id later; the map
        # starts from merge records, as a parsed map does
        rng = np.random.default_rng(71)
        sites = np.arange(6)[:, None] * [2.0, 0.0, 0.0]
        m = LandmarkMap()
        m.landmarks[500] = _landmark(500, sites[0], seed=500)
        m.landmarks[501] = _landmark(501, sites[3], seed=501)
        initial = {600: 500, 601: 501, 602: 500}
        m.merged_into = dict(initial)
        cfg = AssociationConfig()
        records = []
        for chunk in np.split(rng.permutation(240), 40):
            for lid in map(int, chunk):
                center = sites[rng.integers(6)] + rng.uniform(-0.05, 0.05, 3)
                m.landmarks[lid] = _landmark(lid, center, seed=lid)
            records += m.merge_overlapping(cfg)
        want = repoint_aliases(initial, records)
        assert list(m.aliases.items()) == list(want.items())
        assert set(m.aliases.values()) <= set(m.landmarks)
        # each merge records one entry, which resolve follows
        assert list(m.merged_into.items()) == list(initial.items()) + records
        # survivors that held aliases when absorbed: chains to follow
        repointed = sum(any(v == high for v in repoint_aliases(initial, records[:i]).values())
                        for i, (high, _) in enumerate(records))
        assert len(records) > 200 and repointed > 10

    def test_live_id_with_an_alias_keeps_the_scan_result(self):
        # the map parser accepts an alias key that is also a live id;
        # once 1 is absorbed into 0, absorbing 3 must not move it
        m = LandmarkMap()
        for lid, x in ((0, 0.0), (1, 0.01), (2, 5.0), (3, 5.01)):
            m.landmarks[lid] = _landmark(lid, [x, 0.0, 0.0], seed=80 + lid)
        m.merged_into = {1: 3}
        records = m.merge_overlapping(AssociationConfig())
        assert records == [(1, 0), (3, 2)]
        assert m.aliases == repoint_aliases({1: 3}, records) == {1: 0, 3: 2}

    def test_ids_never_reused_after_merge(self):
        m = LandmarkMap()
        cfg = AssociationConfig()
        m.associate(_cand([0.0, 0.0, 0.0]), now=0.0, cfg=cfg)
        m.associate(_cand([9.0, 0.0, 0.0], seed=27), now=0.1, cfg=cfg)
        m.landmarks[1] = _landmark(1, [0.01, 0.0, 0.0], seed=28)  # force overlap
        m.merge_overlapping(cfg)
        decision = m.associate(_cand([20.0, 0.0, 0.0], seed=29), now=0.2, cfg=cfg)
        assert isinstance(decision, NewLandmark)
        assert decision.landmark_id == 2  # ids 0 and 1 are spent forever


class TestApplyCentroids:
    def test_cloud_translates_rigidly(self):
        m = LandmarkMap()
        m.associate(_cand([1.0, 0.0, 0.0]), now=0.0, cfg=AssociationConfig())
        before = m.landmarks[0].cloud.points.copy()
        m.apply_centroids({0: np.array([2.0, 1.0, 0.0])})
        np.testing.assert_allclose(m.landmarks[0].centroid, [2.0, 1.0, 0.0])
        np.testing.assert_allclose(
            m.landmarks[0].cloud.points, before + [1.0, 1.0, 0.0], atol=1e-12
        )

    def test_aliased_id_routes_to_survivor(self):
        m = LandmarkMap()
        m.landmarks[0] = _landmark(0, [0.0, 0.0, 0.0], seed=31)
        m.landmarks[1] = _landmark(1, [0.01, 0.0, 0.0], seed=32)
        m._next_id = 2
        m.merge_overlapping(AssociationConfig())
        m.apply_centroids({1: np.array([4.0, 0.0, 0.0])})
        np.testing.assert_allclose(m.landmarks[0].centroid, [4.0, 0.0, 0.0])

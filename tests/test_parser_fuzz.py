"""Hypothesis fuzzing of the parsers: whatever the input, only the
documented error classes escape.

Each JSON document is either an arbitrary JSON value or the parser's
own layout with any field swapped for an arbitrary value. The values
take in NaN, +-Infinity, the literal 1e400 (which decodes to inf), an
integer too large for a float, lists where objects belong and strings
where numbers belong.

The TUM trajectory and detection-log files are runs of well-formed
lines with some lines corrupted: a field dropped or added, a token
swapped for NaN, inf or junk, a quaternion off unit norm, and stamps
out of order, repeated, or disagreeing within one frame.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semmap.errors import (
    ConfigParseError,
    FormatError,
    MalformedLineError,
    NonUnitQuaternionError,
)
from semmap.io_formats import (
    parse_detection_log,
    parse_landmark_map,
    parse_registry,
    parse_scenario_config,
    parse_tum_trajectory,
    read_json,
)
from semmap.pipeline import PipelineConfig

# a string value the encoder writes as the bare token 1e400
_HUGE = "<1e400>"

_numbers = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(_HUGE),
    st.just(10**400),
)
_scalars = st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=6))
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)


def _or_any(valid):
    """Mostly the valid value, sometimes any JSON value."""
    return st.one_of(valid, valid, _json)


def _num(lo=-5.0, hi=5.0):
    return _or_any(st.floats(min_value=lo, max_value=hi))


def _vec3(lo=-5.0, hi=5.0):
    return _or_any(st.lists(st.floats(min_value=lo, max_value=hi), min_size=3, max_size=3))


def _doc(valid):
    return st.one_of(_json, valid, valid)


def _encode(doc) -> str:
    return json.dumps(doc).replace(json.dumps(_HUGE), "1e400")


_FUZZ = settings(max_examples=120, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def doc_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "doc.json"


def _pipeline_config_file(path) -> PipelineConfig:
    """A config file as `semmap run --config` reads it."""
    return PipelineConfig.from_dict(read_json(path))


def _parse(parser, path: Path, text: str, allowed):
    """The parser's result on a file holding text, or None when it
    raised one of allowed."""
    path.write_text(text, encoding="utf-8")
    try:
        return parser(str(path))
    except allowed:
        return None


_landmark = st.fixed_dictionaries(
    {"id": _or_any(st.integers(0, 50)), "class_id": _or_any(st.text(max_size=6)),
     "centroid": _vec3(), "points": _or_any(st.lists(_vec3(), max_size=4)),
     "size": _num(0.0), "last_association": _num(), "n_fused": _or_any(st.integers(1, 9))},
    optional={"last_emission": _num()},
)
_landmark_map = st.fixed_dictionaries(
    {"landmarks": _or_any(st.lists(_landmark, max_size=3))},
    optional={"aliases": _or_any(st.dictionaries(st.text("0123456789", min_size=1, max_size=3),
                                                 _or_any(st.integers(0, 50)), max_size=3)),
              "config_hash": _json},
)
_scene_object = st.fixed_dictionaries(
    {"class_id": _or_any(st.text(max_size=6)), "center": _vec3(), "extent": _vec3(0.01)},
    optional={"velocity": _vec3()},
)
_registry = st.fixed_dictionaries({"objects": _or_any(st.lists(_scene_object, max_size=3))},
                                  optional={"config_hash": _json})
# three numbers, or the wrong element type or count
_bias = _or_any(st.one_of(
    st.lists(st.floats(-0.01, 0.01), min_size=3, max_size=3),
    st.just(["a", "b", "c"]),
    st.lists(st.floats(-0.01, 0.01), min_size=2, max_size=2)))
_noise = _or_any(st.fixed_dictionaries({}, optional={
    **{name: _or_any(st.floats(0.0, 1.0))
       for name in ("box_center_sigma", "false_positive_rate", "seed", "depth_sigma",
                    "unknown")},
    "odom_translation_bias": _bias, "odom_rotation_bias": _bias}))
_preset_scenario = st.fixed_dictionaries(
    {"preset": _or_any(st.sampled_from(["desk", "walking", "drift_loop"]))},
    optional={"seed": _or_any(st.integers(0, 99)), "duration": _num(0.0, 60.0),
              "frame_rate": _num(0.0, 30.0), "laps": _num(), "noise": _noise},
)
# the bias terms alone on a preset, so their bad cases come up often
_bias_scenario = st.fixed_dictionaries({
    "preset": st.just("desk"),
    "noise": st.fixed_dictionaries({}, optional={"odom_translation_bias": _bias,
                                                 "odom_rotation_bias": _bias})})
_camera = _or_any(st.fixed_dictionaries(
    {"fx": _num(0.0, 900.0), "fy": _num(0.0, 900.0), "cx": _num(0.0, 640.0),
     "cy": _num(0.0, 480.0), "width": _or_any(st.just(640)), "height": _or_any(st.just(480))}))
_world_scenario = st.fixed_dictionaries({
    "world": _or_any(st.fixed_dictionaries({
        "objects": _or_any(st.lists(_scene_object, max_size=2)),
        "path": _or_any(st.fixed_dictionaries(
            {"waypoints": _or_any(st.lists(_vec3(), min_size=1, max_size=3)),
             "target": _vec3(), "speed": _num(0.0)},
            optional={"closed": _or_any(st.booleans())})),
        "camera": _camera, "duration": _num(0.0, 60.0), "frame_rate": _num(0.0, 30.0),
    })),
}, optional={"noise": _noise})
_sections = {
    "tracker": ["min_confidence", "iou_threshold", "min_tracklet_size", "max_gap"],
    "association": ["ground_uncertainty", "merge_overlap_ratio", "cloud_cap"],
    "camera": ["fx", "cx", "width"],
}
_pipeline_config = st.dictionaries(
    st.sampled_from(["pixel_noise_sigma", "mad_threshold", "seed",
                     "unknown", *_sections]),
    _or_any(st.floats(0.0, 10.0) | st.integers(0, 20)), max_size=4,
) | st.fixed_dictionaries({
    name: _or_any(st.dictionaries(st.sampled_from(keys), _or_any(st.integers(0, 20)),
                                  max_size=2))
    for name, keys in _sections.items()})


# a token that is no finite number
_bad_token = st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e400", "x", "1,5", "0x10"])


@st.composite
def _corrupted(draw, tokens: list[str]) -> str:
    """tokens as a line, sometimes with one token swapped for a bad one,
    or one dropped or added."""
    tokens = list(tokens)
    kind = draw(st.sampled_from(["keep"] * 5 + ["swap", "drop", "add"]))
    at = draw(st.integers(0, len(tokens) - 1))
    if kind == "swap":
        tokens[at] = draw(_bad_token)
    elif kind == "drop":
        del tokens[at]
    elif kind == "add":
        tokens.insert(at, "0.5")
    return " ".join(tokens)


def _fmt(value: float) -> str:
    return repr(float(value))


# stamps drawn from a small set repeat; unsorted lists come out of order
_stamps = st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5]) | st.floats(0.0, 10.0),
                   max_size=6).flatmap(lambda xs: st.sampled_from([sorted(xs), xs]))


@st.composite
def _tum_text(draw) -> str:
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for stamp in draw(_stamps):
        t = draw(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))
        q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
        norm = np.linalg.norm(q)
        q = q / norm if norm > 1e-3 else np.array([0.0, 0.0, 0.0, 1.0])
        # unit, inside the 1e-3 repair tolerance, or off unit norm
        q = q * draw(st.sampled_from([1.0] * 4 + [1.0005, 1.01, 0.5, 0.0]))
        lines.append(draw(_corrupted([_fmt(v) for v in [stamp, *t, *q]])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return "\n".join(lines) + "\n"


@st.composite
def _detection_text(draw) -> str:
    lines = ["# timestamp frame_id class_id confidence x_min y_min x_max y_max depth_hint"]
    for stamp in draw(_stamps):
        # frames at 10 Hz; a record may disagree with its frame's stamp
        frame_id = draw(st.integers(0, 4))
        if draw(st.booleans()):
            stamp = 0.1 * frame_id
        x, y = draw(st.floats(0.0, 600.0)), draw(st.floats(0.0, 440.0))
        box = [x, y, x + draw(st.floats(1.0, 40.0)), y + draw(st.floats(1.0, 40.0))]
        confidence, depth = draw(st.floats(0.0, 1.0)), draw(st.floats(0.1, 8.0))
        # out of range now and then: a flipped box, a confidence above 1,
        # a depth of zero
        fault = draw(st.sampled_from(["none"] * 7 + ["box", "confidence", "depth"]))
        if fault == "box":
            box[0], box[2] = box[2], box[0]
        confidence = 1.5 if fault == "confidence" else confidence
        depth = 0.0 if fault == "depth" else depth
        tokens = [_fmt(stamp), str(frame_id), draw(st.sampled_from(["cup", "chair"])),
                  _fmt(confidence), *map(_fmt, box), _fmt(depth)]
        lines.append(draw(_corrupted(tokens)))
    return "\n".join(lines) + "\n"


_TEXT_ERRORS = (MalformedLineError, NonUnitQuaternionError, FormatError)


class TestTextParserFuzz:
    @_FUZZ
    @given(_tum_text())
    def test_tum_trajectory(self, doc_path, text):
        traj = _parse(parse_tum_trajectory, doc_path, text, _TEXT_ERRORS)
        if traj is not None:
            assert np.all(np.diff(traj.stamps) > 0)
            for pose in traj.poses:
                assert np.all(np.isfinite(pose.translation))
                assert abs(np.linalg.norm(pose.rotation) - 1.0) < 1e-12

    @_FUZZ
    @given(_detection_text())
    def test_detection_log(self, doc_path, text):
        frames = _parse(parse_detection_log, doc_path, text, _TEXT_ERRORS)
        if frames is not None:
            assert [f.timestamp for f in frames] == sorted(f.timestamp for f in frames)
            assert len({f.frame_id for f in frames}) == len(frames)
            for frame in frames:
                # every record of a frame carries the frame's own stamp
                assert all(m.timestamp == frame.timestamp and m.frame_id == frame.frame_id
                           for m in frame.detections)

    def test_frame_stamps_must_agree(self, doc_path):
        doc_path.write_text("0.1 1 cup 0.9 10 10 50 50 2.0\n"
                            "0.1 1 cup 0.8 60 10 90 50 2.0\n"
                            "1.5 1 cup 0.9 10 10 50 50 2.0\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as err:
            parse_detection_log(str(doc_path))
        assert err.value.line == 3


class TestJsonParserFuzz:
    @_FUZZ
    @given(_doc(_landmark_map))
    def test_landmark_map(self, doc_path, doc):
        lm_map = _parse(parse_landmark_map, doc_path, _encode(doc), ConfigParseError)
        if lm_map is not None:
            # every alias of a parsed map resolves, in one step
            assert all(kept in lm_map.landmarks for kept in lm_map.aliases.values())
            # and no alias carries a live landmark's id
            assert not lm_map.aliases.keys() & lm_map.landmarks.keys()
            assert lm_map.aliases == lm_map.merged_into

    @_FUZZ
    @given(_doc(_registry))
    def test_registry(self, doc_path, doc):
        _parse(parse_registry, doc_path, _encode(doc), ConfigParseError)

    @_FUZZ
    @given(_doc(st.one_of(_preset_scenario, _world_scenario, _bias_scenario)))
    def test_scenario_config(self, doc_path, doc):
        parsed = _parse(parse_scenario_config, doc_path, _encode(doc), ConfigParseError)
        if parsed is not None:
            # the frame count only: a huge finite one would allocate
            # its stamps
            assert isinstance(parsed[0].n_frames, int)
            # what the renderer needs of the bias terms
            noise = parsed[1]
            for bias in (noise.odom_translation_bias, noise.odom_rotation_bias):
                assert len(bias) == 3 and all(math.isfinite(v) for v in bias)

    @_FUZZ
    @given(_doc(_pipeline_config))
    def test_pipeline_config(self, doc_path, doc):
        # ConfigParseError for the file, ValueError for a value
        _parse(_pipeline_config_file, doc_path, _encode(doc),
               (ConfigParseError, ValueError))

    @pytest.mark.parametrize("text", ["", "{", "[1]", '"x"', "1e400", "NaN", "{} {}"])
    def test_not_an_object(self, doc_path, text):
        doc_path.write_text(text, encoding="utf-8")
        for parser in (parse_landmark_map, parse_registry, parse_scenario_config,
                       _pipeline_config_file):
            with pytest.raises(ConfigParseError):
                parser(str(doc_path))

    def test_integer_too_large_for_a_float(self, doc_path):
        big = 10**400
        landmark = {"id": 0, "class_id": "cup", "centroid": [0, 0, 0], "points": [],
                    "size": big, "last_association": 0, "n_fused": 1}
        obj = {"class_id": "cup", "center": [big, 0, 0], "extent": [1, 1, 1]}
        for parser, doc in [(parse_landmark_map, {"landmarks": [landmark]}),
                            (parse_registry, {"objects": [obj]}),
                            (parse_scenario_config, {"preset": "desk", "laps": big})]:
            doc_path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ConfigParseError):
                parser(str(doc_path))

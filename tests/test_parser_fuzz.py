"""Hypothesis fuzzing of the JSON parsers: whatever the document, only
the documented error classes escape.

Each document is either an arbitrary JSON value or the parser's own
layout with any field swapped for an arbitrary value. The values take
in NaN, +-Infinity, the literal 1e400 (which decodes to inf), an
integer too large for a float, lists where objects belong and strings
where numbers belong.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semmap.errors import ConfigParseError
from semmap.io_formats import parse_landmark_map, parse_registry, parse_scenario_config
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


def _parse(parser, path: Path, doc, allowed):
    path.write_text(_encode(doc), encoding="utf-8")
    try:
        parser(str(path))
    except allowed:
        pass


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
_noise = _or_any(st.dictionaries(
    st.sampled_from(["box_center_sigma", "false_positive_rate", "odom_rotation_bias",
                     "seed", "depth_sigma", "unknown"]),
    _or_any(st.floats(0.0, 1.0)), max_size=3))
_preset_scenario = st.fixed_dictionaries(
    {"preset": _or_any(st.sampled_from(["desk", "walking", "drift_loop"]))},
    optional={"seed": _or_any(st.integers(0, 99)), "duration": _num(0.0, 60.0),
              "frame_rate": _num(0.0, 30.0), "laps": _num(), "noise": _noise},
)
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
    "random_walk": ["n_samples", "step_sigma", "seed"],
    "optimizer": ["max_iterations", "lambda_init"],
    "camera": ["fx", "cx", "width"],
}
_pipeline_config = st.dictionaries(
    st.sampled_from(["pixel_noise_sigma", "mad_threshold", "optimize_every", "seed",
                     "unknown", *_sections]),
    _or_any(st.floats(0.0, 10.0) | st.integers(0, 20)), max_size=4,
) | st.fixed_dictionaries({
    name: _or_any(st.dictionaries(st.sampled_from(keys), _or_any(st.integers(0, 20)),
                                  max_size=2))
    for name, keys in _sections.items()})


class TestJsonParserFuzz:
    @_FUZZ
    @given(_doc(_landmark_map))
    def test_landmark_map(self, doc_path, doc):
        _parse(parse_landmark_map, doc_path, doc, ConfigParseError)

    @_FUZZ
    @given(_doc(_registry))
    def test_registry(self, doc_path, doc):
        _parse(parse_registry, doc_path, doc, ConfigParseError)

    @_FUZZ
    @given(_doc(st.one_of(_preset_scenario, _world_scenario)))
    def test_scenario_config(self, doc_path, doc):
        _parse(parse_scenario_config, doc_path, doc, ConfigParseError)

    @_FUZZ
    @given(_doc(_pipeline_config))
    def test_pipeline_config(self, doc_path, doc):
        # ConfigParseError for the file, ValueError for a value
        _parse(PipelineConfig.from_json_file, doc_path, doc, (ConfigParseError, ValueError))

    @pytest.mark.parametrize("text", ["", "{", "[1]", '"x"', "1e400", "NaN", "{} {}"])
    def test_not_an_object(self, doc_path, text):
        doc_path.write_text(text, encoding="utf-8")
        for parser in (parse_landmark_map, parse_registry, parse_scenario_config,
                       PipelineConfig.from_json_file):
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

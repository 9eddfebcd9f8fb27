"""Every name the benchmark's probes wrap still lives where they look it up.

mapbench/layers.py replaces functions and methods for the length of a
run through `owner.__dict__[attr]`. A refactor that moves one of them
out of its owner (a function imported from elsewhere, a method
inherited) passes every other test here and then fails the first traced
benchmark round with a KeyError.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "mapbench"))

from layers import FrameClock, Recorder, RenderClock, installed  # noqa: E402

PROBES = (Recorder, FrameClock, RenderClock)


def test_every_probe_target_is_in_its_owner():
    targets = [(owner, attr) for probe in PROBES for owner, attr, _ in probe().targets()]
    assert len(targets) >= 21
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in targets if attr not in vars(owner)]
    assert missing == []


def test_probes_install_and_restore():
    for probe in PROBES:
        targets = probe().targets()
        before = [vars(owner)[attr] for owner, attr, _ in targets]
        with installed(probe()):
            pass
        assert [vars(owner)[attr] for owner, attr, _ in targets] == before

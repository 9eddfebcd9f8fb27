#!/usr/bin/env python3
"""sha256 of every deterministic output of the benchmark's scenes.

Renders each scene of `mapbench/workloads.py` through `cmd_simulate`,
maps it through `cmd_run` with the scene's config, and records the
digest of `corrected_trajectory.txt`, `landmark_map.json` and
`graph.g2o` (each embeds the config hash). Each `landmark_map.json`
also gets a content digest under `<scene>/landmark_map.json#content`:
the sha256 of the parsed document re-dumped with sorted keys, which
stays the same when only the file's layout changes. A refactor that
claims byte-identical outputs compares its digests with the parent's:

    python3 scripts/output_digests.py --out parent.json      # on the parent
    python3 scripts/output_digests.py --compare parent.json  # on the change

--compare prints the files whose bytes differ and, separately, the
maps whose content differs; it exits 1 if any bytes differ. A parent
file without content digests gets only the byte comparison.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "mapbench"))

from semmap.pipeline import DETERMINISTIC_RUN_OUTPUTS, cmd_run, cmd_simulate  # noqa: E402
from workloads import WORKLOADS, pipeline_config  # noqa: E402

CONTENT = "#content"


def content_digest(data: bytes) -> str:
    """sha256 of a JSON document re-dumped with sorted keys."""
    doc = json.loads(data)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def scene_digests(work: Path) -> dict[str, str]:
    """'<scene>/<file>' -> sha256 hex digest, scenes in workload order."""
    out = {}
    for workload in WORKLOADS.values():
        for scene in workload.scenes:
            base = work / scene.name
            base.mkdir(parents=True)
            scenario = base / "scenario.json"
            scenario.write_text(json.dumps(scene.scenario), encoding="utf-8")
            cmd_simulate(scenario, base / "sim")
            cmd_run(base / "sim" / "detections.txt", base / "sim" / "odometry.txt",
                    base / "run", pipeline_config(scenario))
            for name in DETERMINISTIC_RUN_OUTPUTS:
                data = (base / "run" / name).read_bytes()
                out[f"{scene.name}/{name}"] = hashlib.sha256(data).hexdigest()
                if name == "landmark_map.json":
                    out[f"{scene.name}/{name}{CONTENT}"] = content_digest(data)
            print(f"{scene.name}: done", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the digests as JSON")
    parser.add_argument("--compare", type=Path, metavar="PARENT_JSON",
                        help="list the files whose digests differ from these")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        digests = scene_digests(Path(tmp))
    if args.out:
        args.out.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    if args.compare is None:
        return 0
    parent = json.loads(args.compare.read_text(encoding="utf-8"))
    keys = sorted(parent.keys() | digests.keys())
    byte_keys = [k for k in keys if not k.endswith(CONTENT)]
    has_content = any(k.endswith(CONTENT) for k in parent)
    content_keys = [k for k in keys if k.endswith(CONTENT)] if has_content else []
    differ = [k for k in byte_keys if parent.get(k) != digests.get(k)]
    for key in differ:
        print(f"bytes differ: {key}")
    content_differ = [k for k in content_keys if parent.get(k) != digests.get(k)]
    for key in content_differ:
        print(f"content differs: {key.removesuffix(CONTENT)}")
    print(f"{len(byte_keys) - len(differ)}/{len(byte_keys)} outputs byte-identical")
    if content_keys:
        print(f"{len(content_keys) - len(content_differ)}/{len(content_keys)} "
              "landmark maps content-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

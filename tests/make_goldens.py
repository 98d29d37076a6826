"""Regenerate the golden files: the bundled scenario reports and the
decomposition tightness tables.

Run after any intentional change to defaults, solver behavior, report layout
or decomposition arithmetic:  python tests/make_goldens.py

To confirm a change keeps every golden byte-identical, without writing under
tests/golden/:  python tests/make_goldens.py --check  (lists the files that
differ, each with the JSON paths whose values changed, old -> new, then the
largest absolute numeric drift with its path and every changed string leaf,
and exits 1 on any difference).
"""

import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from bvlsc import regions
from bvlsc.bv import BVFunction
from bvlsc.cli import bundled_scenarios, main
from bvlsc.decompose import CoverSpec, local_decompose, verify_properties
from bvlsc.meshing import Domain, interval_mesh_with
from bvlsc.sequences import SequenceSpec, generate

GOLDEN_DIR = Path(__file__).parent / "golden"
DECOMPOSE_GOLDEN = GOLDEN_DIR / "decompose_tables.json"


def decomposition_families():
    """The three sequences and covers of acceptance criterion 6."""
    omega = Domain.interval(0.0, 1.0)
    spec = SequenceSpec("jump_migration", omega, n_max=200)
    yield ("jump_to_boundary",
           [generate(spec, n) for n in range(1, 140)],
           CoverSpec([regions.point([0.0]), regions.box([0.125], [1.0])]))
    members = []
    for n in range(1, 140):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [0.5 - 0.5 / n, 0.5],
                                  domain=omega)
        members.append(BVFunction.indicator_1d(mesh, 0.5 - 0.5 / n, 0.5))
    sides = regions.CompactSet(1).add_segment([0.0], [0.46]).add_segment(
        [0.54], [1.0])
    yield "jump_to_interior", members, CoverSpec([regions.point([0.5]), sides])
    spec3 = SequenceSpec("pure_boundary_concentration", omega, n_max=300)
    ends = regions.CompactSet(1).add_point([0.0]).add_point([1.0])
    yield ("boundary_bumps",
           [generate(spec3, n) for n in range(1, 140)],
           CoverSpec([ends, regions.box([0.08], [0.92])]))


def decompose_tables_json():
    """s_table and charge tables of criterion 6 as JSON text (floats by repr)."""
    out = {}
    for name, members, cover in decomposition_families():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cover-gap note
            res = local_decompose(members, cover, n_max=64)
        rep = verify_properties(res, deltas=(0.1, 0.02, 0.005),
                                charge_threshold=1e-3)
        out[name] = {"s_table": rep["s_table"],
                     "charge_tables": rep["charge_tables"]}
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def regenerate(out_dir=GOLDEN_DIR):
    """Write every golden file into out_dir; returns the paths written."""
    out_dir.mkdir(exist_ok=True)
    written = []
    for name in sorted(bundled_scenarios()):
        with tempfile.TemporaryDirectory() as tmp:
            assert main(["analyze", name, "--out-dir", tmp]) == 0
            written.append(Path(shutil.copy(Path(tmp) / "report.json",
                                            out_dir / f"{name}.report.json")))
    written.append(out_dir / DECOMPOSE_GOLDEN.name)
    written[-1].write_text(decompose_tables_json())
    return written


MISSING = "<missing>"  # the value of a key only one document has


def changed_paths(old, new, path="$"):
    """(path, old, new) for each JSON leaf, or container of another shape,
    whose value differs between two parsed documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [c for k in sorted(old.keys() | new.keys())
                for c in changed_paths(old.get(k, MISSING), new.get(k, MISSING),
                                       f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [c for i, (a, b) in enumerate(zip(old, new))
                for c in changed_paths(a, b, f"{path}[{i}]")]
    return [] if old == new and type(old) is type(new) else [(path, old, new)]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def drift_summary(changes):
    """Two lines on the changes (file, path, old, new): the largest absolute
    numeric drift with its path, and every changed string leaf."""
    drifts = [(abs(new - old), f"{name} {path}") for name, path, old, new in changes
              if _is_number(old) and _is_number(new)]
    largest = max(drifts, default=None)
    strings = [f"{name} {path}" for name, path, old, new in changes
               if any(isinstance(x, str) and x is not MISSING for x in (old, new))]
    return ["largest numeric drift: " + ("none" if largest is None
                                         else f"{largest[0]:.6g} at {largest[1]}"),
            "changed string leaves: " + (", ".join(strings) or "none")]


def check():
    """Regenerate into a temporary directory and list the golden files that
    differ from it, each with its changed JSON paths; returns 1 on any
    difference, else 0."""
    differ, changes = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        fresh = regenerate(Path(tmp))
        for p in fresh:
            golden = GOLDEN_DIR / p.name
            if golden.is_file() and golden.read_bytes() == p.read_bytes():
                continue
            differ += 1
            print(f"differs: {golden}")
            if golden.is_file():
                for path, old, new in changed_paths(json.loads(golden.read_text()),
                                                    json.loads(p.read_text())):
                    print(f"  {path}: {json.dumps(old)} -> {json.dumps(new)}")
                    changes.append((p.name, path, old, new))
    if differ:
        print("\n".join(drift_summary(changes)))
    print(f"{len(fresh) - differ} of {len(fresh)} golden files byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit("usage: python tests/make_goldens.py [--check]")
    for path in regenerate():
        print(f"wrote {path}")

"""Seeded synthetic inputs for the violinmorph benchmark.

Run as a script, this is the benchmark's set-up step: it imports the
library, generates one workload's meshes from ``violinmorph.synthetic``,
writes them as binary PLY next to a ``truth.json`` with the closed-form
ground truth, and prints the time each part took as one JSON line::

    python3 vmbench/inputs.py --workload register_pairs --seed 3 --out DIR

The same workload, seed and size always give byte-identical files.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import violinmorph  # noqa: E402
from violinmorph.assessment import sampling_floor  # noqa: E402
from violinmorph.fileio import save_mesh  # noqa: E402
from violinmorph.mesh import TriangleMesh  # noqa: E402
from violinmorph.registration import SimilarityTransform  # noqa: E402
from violinmorph.synthetic import disc_plate, instrument_body  # noqa: E402

_IMPORTED = time.perf_counter()

# c01's off-centre arching bumps: they pin down tangential slides.
BUMPS = ((18.0, 10.0, 3.0, 14.0), (-15.0, -12.0, -2.0, 12.0), (-5.0, 20.0, 1.5, 9.0))

# Input sizes. "full" is what the benchmark measures; "toy" is the
# self-test size (c13's body, a ~2k-point plate). The full body and
# simplify plate are small so that one run holds about ten (pipeline)
# or twenty (simplify) ops: on a shared 2-vCPU host, one op's wall time
# swung by +-20 % within a minute, and a run's median needs that many
# ops to settle. Op cost is mostly set by the default 1 mm grid and
# slice spacings, so larger meshes bought few extra ops per run.
SIZES = {
    "full": {
        "body": dict(rings=15, sectors=60, rib_rings=4),
        "reg_plate": dict(rings=35, sectors=70),
        "simp_plate": dict(rings=25, sectors=100),
    },
    "toy": {
        "body": dict(rings=25, sectors=100, rib_rings=6),
        "reg_plate": dict(rings=30, sectors=67),
        "simp_plate": dict(rings=20, sectors=80),
    },
}

# pipeline_pair generates this many second acquisitions B of body A; op i
# uses B{i % PIPELINE_PAIRS}. B's registration cost varies with its pose,
# so a run cycles through several rather than repeating one.
PIPELINE_PAIRS = 8

# register_pairs generates this many moving clouds; longer runs cycle them.
REGISTER_PAIRS = 8
YAW_EVERY = 4  # op i is yawed when i % YAW_EVERY == YAW_EVERY - 1


def c01_transform(rng, yaw=False):
    """c01's pose range; ``yaw`` adds a 100-180 degree turn about the plate normal."""
    x = rng.uniform(-1.0, 1.0, 3)
    x *= rng.uniform(0.0, 20.0) / max(np.linalg.norm(x), 1e-12)
    angles = rng.uniform(-5.0, 5.0, 3)
    if yaw:
        angles[2] += rng.choice((-1.0, 1.0)) * rng.uniform(100.0, 180.0)
        angles[2] = (angles[2] + 180.0) % 360.0 - 180.0
    return SimilarityTransform(x, angles, rng.uniform(0.95, 1.05))


def _transform_doc(t):
    return {"translation_mm": t.translation.tolist(),
            "angles_deg": t.angles_deg.tolist(), "scale": t.scale}


def _pipeline_pair(rng, size):
    body, _ = instrument_body(**size["body"])
    meshes = {"A.ply": body}
    transforms = []
    for i in range(PIPELINE_PAIRS):
        t = c01_transform(rng)
        moved = t.apply_points(body.vertices) + rng.normal(0.0, 0.02, body.vertices.shape)
        meshes[f"B{i}.ply"] = TriangleMesh(moved, body.faces)
        transforms.append(_transform_doc(t))
    truth = {"transforms_b": transforms, "vertices": body.n_vertices,
             "faces": body.n_faces}
    return meshes, truth


def _register_pairs(rng, size):
    geometry = dict(radius=60.0, minor=42.0, height=12.0, bumps=BUMPS,
                    **size["reg_plate"])
    reference = disc_plate(**geometry).mesh
    meshes = {"R.ply": reference}
    pairs = []
    for i in range(REGISTER_PAIRS):
        resampled = disc_plate(jitter=0.6, rng=rng, **geometry).mesh
        yaw = i % YAW_EVERY == YAW_EVERY - 1
        t = c01_transform(rng, yaw=yaw)
        # registering M onto R recovers t
        name = f"M{i}.ply"
        meshes[name] = TriangleMesh(t.inverse().apply_points(resampled.vertices),
                                    resampled.faces)
        pairs.append({"moving": name, "yawed": yaw, "transform": _transform_doc(t)})
    truth = {"pairs": pairs, "points": reference.n_vertices}
    return meshes, truth


def _simplify_plate(rng, size):
    plate = disc_plate(radius=50.0, height=12.0, groove_radius=40.0,
                       **size["simp_plate"]).mesh
    # a seeded turn about z and shift in xy: same surface, new lattice placement
    t = SimilarityTransform([*rng.uniform(-5.0, 5.0, 2), 0.0],
                            [0.0, 0.0, rng.uniform(-180.0, 180.0)], 1.0)
    mesh = TriangleMesh(t.apply_points(plate.vertices), plate.faces)
    truth = {"faces": mesh.n_faces, "vertices": mesh.n_vertices,
             "sampling_floor_mm": sampling_floor(mesh),
             "targets": [int(0.4 * mesh.n_faces), int(0.1 * mesh.n_faces)]}
    return {"P.ply": mesh}, truth


BUILDERS = {
    "pipeline_pair": _pipeline_pair,
    "register_pairs": _register_pairs,
    "simplify_plate": _simplify_plate,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # one stream per workload, so seeds do not correlate across workloads
    rng = np.random.default_rng([args.seed, sorted(BUILDERS).index(args.workload)])
    meshes, truth = BUILDERS[args.workload](rng, SIZES[args.size])
    generated = time.perf_counter()
    for name, mesh in meshes.items():
        save_mesh(mesh, out / name, "ply-binary-le")
    with open(out / "truth.json", "w") as fh:
        json.dump(truth, fh, indent=1)
    written = time.perf_counter()
    print(json.dumps({
        "import_s": _IMPORTED - _T0,
        "generate_s": generated - _IMPORTED,
        "write_s": written - generated,
        "setup_s": written - _T0,
        "library": violinmorph.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

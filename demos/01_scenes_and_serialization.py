"""
Synthetic scenes, voxels, and Morton serialization
==================================================

Generates a labeled toy scene, shows how points land in voxels, and walks
through the z-order serialization that turns an unordered cloud into
contiguous local patches.
"""

import os
import tempfile

import numpy as np

import pointpeft as pp
from pointpeft.geometry import stencil_offsets, voxel_keys

# a scene spec is a tiny recipe: primitive classes, points per class, noise
spec = pp.source_spec(points_per_class=32)
cloud = pp.generate_scene(seed=7, spec=spec)
print(f"scene: {cloud.n} points, {cloud.c} feature channels, "
      f"{cloud.num_classes} classes")
print("label histogram:", np.bincount(cloud.labels, minlength=cloud.num_classes))

# features carry the noisy coordinates plus analytic surface normals
print("first point:", np.round(cloud.feats[0], 3))

# voxelization buckets points by integer grid cell; the neighbor index keeps
# the points of each occupied voxel
keys = voxel_keys(cloud.coords, voxel_size=0.5)
nbr = pp.build_neighbor_index(cloud, voxel_size=0.5)
print(f"\n{nbr.num_voxels} occupied voxels at voxel_size=0.5")
print("largest voxel holds", max(len(v) for v in nbr.voxel_points), "points")

# Morton codes interleave the voxel coordinates bit by bit, so nearby cells
# get nearby codes; sorting by code gives a locality-preserving point order
codes = pp.morton_codes(keys)
order = np.argsort(codes, kind="stable")
print("\nfirst 8 points in Morton order:", order[:8])

# serialize = order + chunk into fixed-size patches (last patch padded)
part = pp.serialize(cloud, 0.5, 16)
print(f"{part.num_patches} patches of size {part.patch_size}; "
      f"{int(part.pad_mask.sum())} padded slots")

# patches are spatially tight: compare mean intra-patch distance against
# randomly chosen groups of the same size
def mean_patch_spread(index):
    spreads = []
    for patch in index:
        pts = cloud.coords[patch[patch >= 0]]
        spreads.append(np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean())
    return float(np.mean(spreads))

rng = np.random.default_rng(0)
shuffled = part.index.copy().ravel()
rng.shuffle(shuffled)
print("mean spread, Morton patches:", round(mean_patch_spread(part.index), 3))
print("mean spread, random groups: ",
      round(mean_patch_spread(shuffled.reshape(part.index.shape)), 3))

# the 3x3x3 stencil indexes neighbor voxels for the spatial adapter
offsets = stencil_offsets()
occupied = int((nbr.neighbor_voxels >= 0).sum())
print(f"\nstencil of {len(offsets)} offsets; "
      f"{occupied} occupied neighbor links across {nbr.num_voxels} voxels")

# round-trip through a cloud file, the checkpoint text format the CLI reads
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_cloud.txt")
    pp.save_cloud(path, cloud)
    again = pp.load_cloud(path)
print("save/load round trip bitwise equal:",
      bool(np.array_equal(again.coords, cloud.coords)))

"""
The miniature point transformer
===============================

Runs one forward pass through the frozen backbone: feature embedding,
positional encoding, patch-local attention blocks, and the segmentation
head.  A tracer tallies every multiply-add per call site along the way.
"""

import numpy as np

import pointpeft as pp

config = pp.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16,
                           num_classes=3, voxel_size=0.5)
print(f"backbone: d={config.d}, {config.blocks} blocks, "
      f"{config.heads} heads, stages {config.stages}")

store = pp.init_backbone(config, seed=0)
print("parameters:", store.total_count)

cloud = pp.generate_scene(seed=3, spec=pp.source_spec(points_per_class=48))
part = pp.serialize(cloud, config.voxel_size, config.patch_size)

counter = pp.OpCounter()
result = pp.forward(cloud, part, None, None, store, config, tracer=counter)
print(f"\nlogits: {result.logits.shape} for {cloud.n} points")

pred = np.argmax(result.logits.data, axis=1)
print("prediction histogram:", np.bincount(pred, minlength=config.num_classes))
print("accuracy of the untrained net:",
      round(float((pred == cloud.labels).mean()), 3), "(chance is ~0.33)")

# the op counter names each site; local attention dominates at this scale
print("\nmultiply-adds by site:")
for line in counter.report_csv().strip().splitlines()[1:]:
    site, count = line.split(",")
    print(f"  {site:24s} {int(count):>12,}")
print(f"  {'total':24s} {counter.total():>12,}")

# the same tracer kept a copy of the residual stream leaving each block
print("\nper-block output mean |x|:",
      [round(float(np.abs(counter.arrays[f"block{i}"]["x"]).mean()), 3)
       for i in range(config.blocks)])

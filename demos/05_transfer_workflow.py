"""
Pretrain, shift the domain, fine-tune
=====================================

The end-to-end workflow at toy scale: supervised pre-training on clean
source scenes, then parameter-efficient fine-tuning on a shifted target
distribution (new geometry, more noise, larger extent).  Settings here are
cut down so the whole script runs in well under a minute; the acceptance
suite runs the full-size version.
"""

import numpy as np

import pointpeft as pp

bconfig = pp.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16,
                            num_classes=3, voxel_size=0.5)

# source scenes: floor/wall/box, tight noise, unit scale
source = pp.generate_dataset(pp.source_spec(32), count=32, seed=101)
# target scenes: spheres appear (labeled as boxes), 3x noise, 1.5x scale
target = pp.generate_dataset(pp.target_spec(24), count=16, seed=202)
target_eval = pp.generate_dataset(pp.target_spec(24), count=8, seed=303)

store, record = pp.pretrain(
    source, bconfig, pp.TrainConfig(epochs=30, seed=0, learning_rate=1e-3))
print(f"pretrained {record.total} params in {record.wall_time:.1f}s; "
      f"source allAcc {record.epochs[-1].allacc:.3f}")

# the shift hurts: evaluate the frozen model on target scenes
held_out = pp.prepare(target_eval, bconfig, need_neighbors=True)
zero_shot = pp.evaluate(store, None, held_out, bconfig)
print(f"zero-shot target mIoU {zero_shot['miou']:.3f}\n")

for method in ("linear", "gem"):
    pconfig = pp.PeftConfig(method=method, rank=8, tokens=4, sharing="global")
    tuned, attachment, rec = pp.finetune(
        store, bconfig, pconfig, target,
        pp.TrainConfig(epochs=24, seed=0, learning_rate=3e-3))
    # score the held-out scenes once, after the last epoch
    tuned_miou = pp.evaluate(tuned, attachment, held_out, bconfig)["miou"]
    print(f"{method:8s} trainable {rec.trainable:>6,} "
          f"({100 * rec.trainable / rec.total:.2f}%)  "
          f"target mIoU {tuned_miou:.3f}")

    # freeze discipline: the backbone bytes never moved
    same = all(
        np.array_equal(tuned[name].data, store[name].data)
        for name in store.names() if name.startswith("backbone.")
    )
    print(f"         backbone untouched: {same}")

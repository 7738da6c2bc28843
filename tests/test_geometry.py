import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointpeft import geometry as geo
from pointpeft.errors import DataError, UsageError


def record(name, values, shape=None) -> str:
    """A checkpoint record: its `name shape frozen` line and its value line,
    the little-endian binary64 bytes of `values` in hex."""
    values = np.asarray(values, dtype="<f8")
    shape = values.shape if shape is None else shape
    return f"{name}\t{','.join(map(str, shape))}\t0\n{values.tobytes().hex()}"


def cloud_text(*records, config="classes=1") -> str:
    return "\n".join(["[config]", config, "[params]", *records]) + "\n"


def one_point(label=0):
    """The records of a cloud of one point at the origin with the one feature 1.0."""
    return record("coords", np.zeros((1, 3))), record("feats", [[1.0]]), record("labels", [label])


# the records of a valid two-point cloud with one feature channel
COORDS, FEATS, LABELS = record("coords", np.zeros((2, 3))), record("feats", [[1.0], [1.0]]), record("labels", [0, 0])


def make_cloud(coords, **kw):
    coords = np.asarray(coords, dtype=np.float64)
    return geo.PointCloud(coords=coords, feats=coords.copy(), **kw)


def buckets_of(coords, voxel_size):
    """Voxel key -> sorted point ids, read from the neighbor index's buckets."""
    cloud = make_cloud(coords)
    keys = geo.voxel_keys(cloud.coords, voxel_size)
    nbr = geo.build_neighbor_index(cloud, voxel_size)
    return {tuple(int(v) for v in keys[pts[0]]): sorted(int(i) for i in pts) for pts in nbr.voxel_points}


def oracle_morton_codes(keys):
    """Morton codes one axis at a time: each column's bits spread in 5
    shift-or-and steps, then shifted into its slot."""
    keys = np.asarray(keys, dtype=np.int64)
    shifted = keys - np.minimum(keys.min(axis=0), 0)
    if shifted.max(initial=0) >= 1 << 21:
        raise DataError("voxel index range exceeds 21 bits per axis after offsetting")

    def spread(v):
        v = v.astype(np.uint64)
        for shift, mask in ((32, 0x1F00000000FFFF), (16, 0x1F0000FF0000FF), (8, 0x100F00F00F00F00F),
                            (4, 0x10C30C30C30C30C3), (2, 0x1249249249249249)):
            v = (v | (v << np.uint64(shift))) & np.uint64(mask)
        return v

    x, y, z = (spread(shifted[:, a]) for a in range(3))
    return x | (y << np.uint64(1)) | (z << np.uint64(2))


def oracle_serialize(cloud, voxel_size, p):
    order = np.argsort(oracle_morton_codes(geo.voxel_keys(cloud.coords, voxel_size)), kind="stable")
    return geo.partition(order, cloud.n, p)


def oracle_neighbor_index(cloud, voxel_size):
    """The neighbor index with each key packed by its per-axis ranks (below
    V^3 for V voxels, so no cloud is refused): each axis maps its stencil
    steps to ranks with a `searchsorted` of its own, and the 27 packed
    neighbors are broadcast from the three axes."""
    offsets = geo.stencil_offsets()
    keys = geo.voxel_keys(cloud.coords, voxel_size)
    axes = [np.unique(keys[:, a], return_inverse=True) for a in range(3)]
    (v0, r0), (v1, r1), (v2, r2) = axes
    packed = (r0 * v1.size + r1) * v2.size + r2
    point_order = np.argsort(packed, kind="stable")
    ordered = packed[point_order]
    first = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    voxel_of_point = np.empty(cloud.n, dtype=np.int64)
    voxel_of_point[point_order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    occupied = ordered[starts]
    num_voxels = starts.size
    steps = np.arange(3, dtype=np.int64) - 1
    moved = []
    for values, rank in axes:
        target = values[:, None] + steps
        to = np.minimum(np.searchsorted(values, target), values.size - 1)
        moved.append(np.where(values[to] == target, to, -1)[rank[point_order[starts]]])
    m0, m1, m2 = moved
    wanted = (m0[:, :, None, None] * v1.size + m1[:, None, :, None]) * v2.size + m2[:, None, None, :]
    known = (m0 >= 0)[:, :, None, None] & (m1 >= 0)[:, None, :, None] & (m2 >= 0)[:, None, None, :]
    wanted = wanted.reshape(num_voxels, -1)
    slot = np.minimum(np.searchsorted(occupied, wanted), num_voxels - 1)
    found = known.reshape(num_voxels, -1) & (occupied[slot] == wanted)
    return geo.NeighborIndex(
        num_points=cloud.n,
        offsets=offsets,
        voxel_of_point=voxel_of_point,
        point_order=point_order,
        voxel_starts=np.append(starts, cloud.n),
        neighbor_voxels=np.where(found, slot, -1),
    )


def padded_volume(coords, voxel_size) -> int:
    """The product of the padded key's per-axis radices, extent + 1, as a
    Python int; `build_neighbor_index` refuses a cloud above 2^63."""
    keys = geo.voxel_keys(coords, voxel_size)
    return math.prod(h - lo + 2 for lo, h in zip(keys.min(axis=0).tolist(), keys.max(axis=0).tolist()))


def assert_same_fields(got, want):
    """Every init field of two dataclasses equal; arrays in dtype, shape and bytes."""
    for f in dataclasses.fields(want):
        if not f.init:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


class TestVoxelize:
    """Voxel binning: `voxel_keys` and the buckets of `build_neighbor_index`."""

    def test_single_point_origin_bucket(self):
        assert buckets_of([[0.1, 0.1, 0.1]], 1.0) == {(0, 0, 0): [0]}

    def test_two_buckets_along_x(self):
        assert buckets_of([[0.1, 0, 0], [1.1, 0, 0]], 1.0) == {(0, 0, 0): [0], (1, 0, 0): [1]}

    def test_negative_coordinate_floors_down(self):
        assert geo.voxel_keys(np.array([[-0.5, 0, 0]]), 1.0).tolist() == [[-1, 0, 0]]
        assert buckets_of([[-0.5, 0, 0]], 1.0) == {(-1, 0, 0): [0]}

    def test_nonpositive_size_rejected(self):
        with pytest.raises(UsageError):
            geo.voxel_keys(np.zeros((1, 3)), 0.0)

    def test_every_point_in_exactly_one_bucket(self):
        rng = np.random.default_rng(0)
        cloud = make_cloud(rng.uniform(-3, 3, (100, 3)))
        nbr = geo.build_neighbor_index(cloud, 0.7)
        seen = sorted(int(i) for pts in nbr.voxel_points for i in pts)
        assert seen == list(range(100))
        keys = geo.voxel_keys(cloud.coords, 0.7)
        for pts in nbr.voxel_points:
            assert (keys[pts] == keys[pts[0]]).all()


class TestMorton:
    def test_origin_is_zero(self):
        assert geo.morton_codes(np.array([[0, 0, 0]]))[0] == 0

    def test_unit_diagonal_is_seven(self):
        assert geo.morton_codes(np.array([[1, 1, 1]]))[0] == 7

    def test_x_least_significant(self):
        codes = geo.morton_codes(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert list(codes) == [1, 2, 4]

    def test_negative_keys_offset_before_encoding(self):
        codes = geo.morton_codes(np.array([[-1, 0, 0], [0, 0, 0]]))
        assert list(codes) == [0, 1]

    def test_range_error_beyond_21_bits(self):
        with pytest.raises(DataError):
            geo.morton_codes(np.array([[0, 0, 0], [1 << 21, 0, 0]]))

    def test_order_is_permutation(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(-50, 50, (200, 3))
        order = geo.morton_order(keys)
        assert np.array_equal(np.sort(order), np.arange(200))

    def test_ties_keep_input_order(self):
        keys = np.array([[3, 3, 3], [0, 0, 0], [3, 3, 3]])
        assert list(geo.morton_order(keys)) == [1, 0, 2]

    def test_intra_patch_distance_beats_random_order(self):
        # locality of the space-filling curve, checked statistically
        wins = 0
        for seed in range(24):
            rng = np.random.default_rng(seed)
            coords = rng.uniform(0, 4, (256, 3))
            keys = geo.voxel_keys(coords, 0.25)

            def mean_intra(order):
                total, cnt = 0.0, 0
                for s in range(0, 256, 16):
                    chunk = coords[order[s : s + 16]]
                    d = np.linalg.norm(chunk[:, None] - chunk[None, :], axis=-1)
                    total += d.sum()
                    cnt += d.size - len(chunk)
                return total / cnt

            if mean_intra(geo.morton_order(keys)) < mean_intra(rng.permutation(256)):
                wins += 1
        assert wins == 24


class TestPartition:
    def test_even_split_no_padding(self):
        part = geo.partition(np.arange(10), 10, 5)
        assert part.num_patches == 2
        assert not part.pad_mask.any()

    def test_ceil_split_pads_final_patch(self):
        part = geo.partition(np.arange(10), 10, 4)
        assert part.num_patches == 3
        assert part.pad_mask.sum() == 2
        assert not part.pad_mask[:2].any()
        assert (part.index[2] == [8, 9, -1, -1]).all()

    def test_degenerate_single_point(self):
        part = geo.partition(np.arange(1), 1, 1024)
        assert part.num_patches == 1
        assert part.pad_mask.sum() == 1023

    def test_patches_cover_each_point_once(self):
        rng = np.random.default_rng(2)
        order = rng.permutation(37)
        part = geo.partition(order, 37, 8)
        pts = part.index[~part.pad_mask]
        assert np.array_equal(np.sort(pts), np.arange(37))

    def test_rejects_non_permutation(self):
        with pytest.raises(UsageError):
            geo.partition(np.array([0, 0, 2]), 3, 2)

    @pytest.mark.parametrize("n, p", [(37, 8), (40, 8), (1, 4)])
    def test_derived_fields_follow_from_index(self, n, p):
        """The constants patch attention reads, against their definitions."""
        order = np.random.default_rng(n).permutation(n)
        part = geo.partition(order, n, p)
        assert np.array_equal(part.flat, part.index.ravel())
        assert part.padded is bool((part.index < 0).any())
        assert np.array_equal(part.pad_mask, part.index < 0)
        for point in range(n):
            assert part.flat[part.slot_of_point[point]] == point
        assert part.key_pad.shape == (part.num_patches, 1, 1, p)
        assert np.array_equal(part.key_pad[:, 0, 0], part.index < 0)


def reference_neighbor_voxels(coords, voxel_size):
    """The stencil by dictionary lookup: one probe per voxel and offset."""
    offsets = geo.stencil_offsets()
    uniq = np.unique(geo.voxel_keys(coords, voxel_size), axis=0)
    ids = {tuple(int(v) for v in key): vid for vid, key in enumerate(uniq)}
    out = np.full((uniq.shape[0], offsets.shape[0]), -1, dtype=np.int64)
    for vid, key in enumerate(uniq):
        for s, off in enumerate(offsets):
            out[vid, s] = ids.get(tuple(int(v) for v in key + off), -1)
    return out


class TestNeighborIndex:
    def test_isolated_point_only_center_slot(self):
        nbr = geo.build_neighbor_index(make_cloud([[0.5, 0.5, 0.5]]), 1.0)
        for off in nbr.offsets:
            pts = nbr.neighbors(0, off)
            if tuple(off) == (0, 0, 0):
                assert list(pts) == [0]
            else:
                assert pts.size == 0

    def test_colocated_points_share_center(self):
        nbr = geo.build_neighbor_index(make_cloud([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]]), 1.0)
        assert sorted(nbr.neighbors(0, (0, 0, 0))) == [0, 1]
        assert sorted(nbr.neighbors(1, (0, 0, 0))) == [0, 1]

    def test_adjacent_voxels_along_x(self):
        nbr = geo.build_neighbor_index(make_cloud([[0.5, 0, 0], [1.5, 0, 0]]), 1.0)
        assert list(nbr.neighbors(0, (1, 0, 0))) == [1]
        assert list(nbr.neighbors(1, (-1, 0, 0))) == [0]
        assert nbr.neighbors(0, (-1, 0, 0)).size == 0

    def test_center_always_contains_self(self):
        rng = np.random.default_rng(3)
        cloud = make_cloud(rng.uniform(-2, 2, (200, 3)))
        nbr = geo.build_neighbor_index(cloud, 0.5)
        for i in range(200):
            assert i in nbr.neighbors(i, (0, 0, 0))

    def test_symmetry_brute_force(self):
        rng = np.random.default_rng(4)
        cloud = make_cloud(rng.uniform(0, 2, (120, 3)))
        nbr = geo.build_neighbor_index(cloud, 0.5)
        for i in range(120):
            for off in nbr.offsets:
                for j in nbr.neighbors(i, off):
                    assert i in nbr.neighbors(int(j), -off)

    def test_one_voxel(self):
        nbr = geo.build_neighbor_index(make_cloud(np.full((5, 3), -2.3)), 0.5)
        assert nbr.num_voxels == 1
        want = np.full((1, 27), -1)
        want[0, 13] = 0
        np.testing.assert_array_equal(nbr.neighbor_voxels, want)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        grid=st.booleans(),
        span=st.sampled_from([0.01, 2.0, 1e6]),
        center=st.floats(-1e4, 1e4),
        voxel=st.sampled_from([0.25, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dict_loop_reference(self, n, grid, span, center, voxel, seed):
        rng = np.random.default_rng(seed)
        if grid:  # whole voxels apart, so many stencil slots are occupied
            coords = center + (rng.integers(-3, 3, (n, 3)) + 0.5) * voxel
        else:
            coords = center + rng.uniform(-span, span, (n, 3))
        if padded_volume(coords, voxel) > 1 << 63:  # only 1e6-span draws
            with pytest.raises(DataError, match="span too many voxels"):
                geo.build_neighbor_index(make_cloud(coords), voxel)
            return
        nbr = geo.build_neighbor_index(make_cloud(coords), voxel)
        want = reference_neighbor_voxels(coords, voxel)
        assert nbr.neighbor_voxels.dtype == np.int64
        np.testing.assert_array_equal(nbr.neighbor_voxels, want)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["single-point", "single-voxel", "negative", "grid", "span-1e6"]),
        n=st.integers(1, 80),
        voxel=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fields_match_the_oracles(self, kind, n, voxel, seed):
        """Every `NeighborIndex` field and every `PatchPartition` field of
        `serialize` equals the rank-packed and per-axis oracles' bytes; a
        cloud is refused only where the padded key overflows (index) or
        where the oracle refuses it too (Morton codes)."""
        rng = np.random.default_rng(seed)
        center = rng.uniform(-100, 100, 3)
        if kind == "single-point":
            coords = center[None, :]
        elif kind == "single-voxel":
            coords = np.repeat(center[None, :], n, axis=0)
        elif kind == "negative":
            coords = rng.uniform(-5.0, -0.01, (n, 3))
        elif kind == "grid":
            coords = center + (rng.integers(-3, 3, (n, 3)) + 0.5) * voxel
        else:  # 1e6 on some axes: the index refuses where all three are wide
            coords = center + rng.uniform(-1.0, 1.0, (n, 3)) * rng.choice([1.0, 1e3, 1e6], 3)
        cloud = make_cloud(coords)
        if padded_volume(coords, voxel) > 1 << 63:
            with pytest.raises(DataError, match="span too many voxels"):
                geo.build_neighbor_index(cloud, voxel)
        else:
            assert_same_fields(geo.build_neighbor_index(cloud, voxel), oracle_neighbor_index(cloud, voxel))
        try:
            want = oracle_serialize(cloud, voxel, 16)
        except DataError:
            with pytest.raises(DataError, match="exceeds 21 bits"):
                geo.serialize(cloud, voxel, 16)
            return
        assert_same_fields(geo.serialize(cloud, voxel, 16), want)
        keys = geo.voxel_keys(coords, voxel)
        assert geo.morton_codes(keys).tobytes() == oracle_morton_codes(keys).tobytes()
        assert geo.morton_codes(keys).dtype == np.uint64

    @pytest.mark.parametrize(
        "top, refused",
        [((2**21 - 2,) * 3, False), ((2**21 - 1, 2**21 - 2, 2**21 - 2), True), ((2**40, 0, 0), False)],
        ids=["largest-accepted", "one-past", "one-long-axis"],
    )
    def test_padded_key_refuses_only_past_2_to_the_63(self, top, refused):
        """Radices (extent + 1) multiply to 2^63 at 2^21 - 1 voxels on every
        axis, the largest cloud the key holds; one voxel more is refused,
        and a single long axis is not."""
        coords = np.array([[0.0, 0.0, 0.0], top]) + 0.5
        if refused:
            with pytest.raises(DataError, match=r"from \[0, 0, 0\] to \[2097151, 2097150, 2097150\]"):
                geo.build_neighbor_index(make_cloud(coords), 1.0)
            return
        nbr = geo.build_neighbor_index(make_cloud(coords), 1.0)
        assert_same_fields(nbr, oracle_neighbor_index(make_cloud(coords), 1.0))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        grid=st.booleans(),
        voxel=st.sampled_from([0.25, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slots_are_mirrored(self, n, grid, voxel, seed):
        """Slot s of v holds u exactly when slot 26 - s of u holds v, which
        `autograd.stencil`'s backward relies on."""
        rng = np.random.default_rng(seed)
        if grid:
            coords = (rng.integers(-3, 3, (n, 3)) + 0.5) * voxel
        else:
            coords = rng.uniform(-1.0, 1.0, (n, 3))
        nv = geo.build_neighbor_index(make_cloud(coords), voxel).neighbor_voxels
        v, s = np.nonzero(nv >= 0)
        np.testing.assert_array_equal(nv[nv[v, s], 26 - s], v)
        np.testing.assert_array_equal(geo.stencil_offsets()[26 - s], -geo.stencil_offsets()[s])

    def test_neighbor_count_bound(self):
        rng = np.random.default_rng(5)
        cloud = make_cloud(rng.uniform(0, 2, (150, 3)))
        nbr = geo.build_neighbor_index(cloud, 0.5)
        for i in range(150):
            total = sum(nbr.neighbors(i, off).size for off in nbr.offsets)
            assert total <= 150


class TestSceneGeneration:
    def test_floor_scene(self):
        spec = geo.SceneSpec(classes=("floor",), points_per_class=100, noise_sigma=0.01)
        cloud = geo.generate_scene(7, spec)
        assert cloud.n == 100
        assert (cloud.labels == 0).all()
        assert np.abs(cloud.coords[:, 2]).max() < 0.01 * 6  # z stays within noise

    def test_same_seed_bitwise_identical(self):
        spec = geo.SceneSpec(
            classes=("floor", "wall", "box"), points_per_class=50, noise_sigma=0.02
        )
        a, b = geo.generate_scene(11, spec), geo.generate_scene(11, spec)
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.feats.tobytes() == b.feats.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_label_histogram(self):
        spec = geo.SceneSpec(
            classes=("floor", "wall", "sphere"), points_per_class=100, noise_sigma=0.01
        )
        cloud = geo.generate_scene(3, spec)
        assert list(np.bincount(cloud.labels)) == [100, 100, 100]

    def test_features_are_coords_plus_normals(self):
        spec = geo.SceneSpec(classes=("sphere",), points_per_class=64, noise_sigma=0.0)
        cloud = geo.generate_scene(5, spec)
        assert cloud.c == 6
        np.testing.assert_array_equal(cloud.feats[:, :3], cloud.coords)
        norms = np.linalg.norm(cloud.feats[:, 3:], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_label_remapping_merges_classes(self):
        spec = geo.SceneSpec(
            classes=("floor", "wall", "box", "sphere"),
            points_per_class=10,
            noise_sigma=0.0,
            labels=(0, 1, 2, 2),
        )
        cloud = geo.generate_scene(1, spec)
        assert cloud.num_classes == 3
        assert list(np.bincount(cloud.labels)) == [10, 10, 20]

    def test_scale_stretches_scene(self):
        spec = geo.SceneSpec(classes=("floor",), points_per_class=200, noise_sigma=0.0)
        big = geo.SceneSpec(
            classes=("floor",), points_per_class=200, noise_sigma=0.0, scale=1.5
        )
        a, b = geo.generate_scene(9, spec), geo.generate_scene(9, big)
        np.testing.assert_allclose(b.coords, a.coords * 1.5, atol=1e-12)

    def test_empty_spec_rejected(self):
        with pytest.raises(UsageError):
            geo.SceneSpec(classes=(), points_per_class=10, noise_sigma=0.0)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(UsageError):
            geo.SceneSpec(classes=("cone",), points_per_class=10, noise_sigma=0.0)

    @pytest.mark.parametrize(
        "noise_sigma, scale",
        [
            (float("nan"), 1.0),
            (float("inf"), 1.0),
            (-0.1, 1.0),
            (0.0, float("nan")),
            (0.0, float("inf")),
            (0.0, float("-inf")),
            (0.0, 0.0),
            (0.0, -1.5),
        ],
        ids=[
            "nan-noise", "inf-noise", "negative-noise",
            "nan-scale", "inf-scale", "-inf-scale", "zero-scale", "negative-scale",
        ],
    )
    def test_non_finite_or_out_of_range_noise_and_scale_rejected(self, noise_sigma, scale):
        with pytest.raises(UsageError):
            geo.SceneSpec(
                classes=("floor",), points_per_class=10, noise_sigma=noise_sigma, scale=scale
            )


class TestCloudIO:
    def test_round_trip_bitwise(self, tmp_path):
        spec = geo.SceneSpec(
            classes=("floor", "box"), points_per_class=30, noise_sigma=0.02
        )
        cloud = geo.generate_scene(13, spec)
        path = tmp_path / "cloud.txt"
        geo.save_cloud(path, cloud)
        loaded = geo.load_cloud(path)
        assert loaded.coords.tobytes() == cloud.coords.tobytes()
        assert loaded.feats.tobytes() == cloud.feats.tobytes()
        assert np.array_equal(loaded.labels, cloud.labels)
        assert loaded.num_classes == cloud.num_classes

    def test_unannotated_round_trip(self, tmp_path):
        cloud = geo.PointCloud(
            coords=np.zeros((2, 3)), feats=np.zeros((2, 6)), labels=None, num_classes=3
        )
        path = tmp_path / "cloud.txt"
        geo.save_cloud(path, cloud)
        loaded = geo.load_cloud(path)
        assert loaded.labels is None

    def test_saved_bytes_are_pinned(self, tmp_path):
        """A checkpoint holding `classes=C` and the records coords, feats and
        labels, each value line the little-endian binary64 bytes in hex:
        -0.0, the smallest subnormal, 1.0, the empty line of no feature
        channels and the -1 labels of an unannotated cloud."""
        cloud = geo.PointCloud(
            coords=np.array([[-0.0, 5e-324, 1.0], [0.0, -5e-324, -2.5]]),
            feats=np.zeros((2, 0)),
            num_classes=2,
        )
        path = tmp_path / "cloud.txt"
        geo.save_cloud(path, cloud)
        assert path.read_bytes() == (
            b"# hash: 6213385b8133cc992806fee603863fbc482f483c5fd8e11e583826f82781515f\n"
            b"[config]\nclasses=2\n[params]\ncoords\t2,3\t0\n"
            b"0000000000000080" b"0100000000000000" b"000000000000f03f"
            b"0000000000000000" b"0100000000000080" b"00000000000004c0\n"
            b"feats\t2,0\t0\n\nlabels\t2\t0\n" b"000000000000f0bf" b"000000000000f0bf\n"
        )
        loaded = geo.load_cloud(path)
        assert loaded.coords.tobytes() == cloud.coords.tobytes()
        assert loaded.feats.shape == (2, 0) and loaded.labels is None

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0" * 80 + "\n")
        with pytest.raises(DataError, match=r"missing \[config\] block"):
            geo.load_cloud(path)

    # each config would load if `classes` were read with int() or looked up
    # among other keys: as C=3, the label 2 would be in range
    @pytest.mark.parametrize(
        "config",
        [
            "channels=1\nclasses=3",
            "classes=3 labels",
            "classes=3 4",
            "clases=3",
            "classes=３",
            "classes=0_3",
            "classes=+3",
            "classes= 3",
        ],
        ids=[
            "swapped-keywords", "extra-token", "extra-count", "misspelled-keyword",
            "fullwidth-digit", "underscore", "plus-sign", "leading-space",
        ],
    )
    def test_header_keywords_checked(self, tmp_path, config):
        path = tmp_path / "bad.txt"
        path.write_text(cloud_text(*one_point(label=2), config=config))
        with pytest.raises(DataError, match="the one line 'classes=C', C in the digits 0-9"):
            geo.load_cloud(path)

    def test_point_count_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(cloud_text(record("coords", np.zeros((2, 3))), *one_point()[1:]))
        with pytest.raises(DataError, match="feats rows 1 disagree with n=2"):
            geo.load_cloud(path)

    # two points, one feature channel, one class
    @pytest.mark.parametrize(
        "records, reason",
        [
            ([COORDS, record("feats", [1.0], shape=(2, 1)), LABELS], "hex digits"),  # ragged: a value short
            ([COORDS, record("feats", [1.0], shape=(2, 1)), record("labels", [0, 0, 0], shape=(2,))], "hex digits"),
            ([COORDS, FEATS, LABELS[:-1] + "z"], "hex digits"),
            ([COORDS, record("feats", [[1.0], [np.nan]]), LABELS], "feats must be finite"),
            ([FEATS, COORDS, LABELS], "records must be coords, feats and labels in that order"),
            ([COORDS, FEATS], "records must be coords, feats and labels in that order"),
            ([record("coords", np.zeros((2, 4))), FEATS, LABELS], "coords must be n x 3"),
            ([COORDS, record("feats", [1.0, 1.0]), LABELS], "feats must be n x c and labels length n"),
            ([COORDS, FEATS, record("labels", [0.0])], "feats must be n x c and labels length n"),
            ([COORDS, FEATS, record("labels", [0, 1])], r"labels must be integers in \[-1, 1\)"),
            ([COORDS, FEATS, record("labels", [0, -1])], r"labels outside \[0, 1\) in annotated cloud"),
        ],
        ids=[
            "ragged", "shifted", "non-numeric", "nan-feature", "swapped-records", "missing-record",
            "coords-width", "flat-feats", "short-labels", "label-past-classes", "partly-annotated",
        ],
    )
    def test_malformed_rows_raise_data_error(self, tmp_path, records, reason):
        path = tmp_path / "bad.txt"
        path.write_text(cloud_text(*records))
        with pytest.raises(DataError, match=reason) as info:
            geo.load_cloud(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_empty_cloud_raises_data_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            cloud_text(record("coords", np.zeros((0, 3))), record("feats", np.zeros((0, 1))), record("labels", []))
        )
        with pytest.raises(DataError, match="at least one"):
            geo.load_cloud(path)


class TestSceneSpecIO:
    def test_parse_round_trip(self):
        spec = geo.SceneSpec(
            classes=("floor", "wall", "box", "sphere"),
            points_per_class=64,
            noise_sigma=0.03,
            scale=1.5,
            labels=(0, 1, 2, 2),
        )
        assert geo.parse_scene_spec(geo.scene_spec_text(spec)) == spec

    def test_comments_and_spacing_tolerated(self):
        spec = geo.parse_scene_spec(
            "# source domain\nclasses = floor, wall\npoints_per_class=32\n"
            "noise_sigma = 0.01\n"
        )
        assert spec.classes == ("floor", "wall")
        assert spec.scale == 1.0

    def test_seed_key_points_to_the_gen_data_flag(self):
        with pytest.raises(DataError, match="gen-data --seed"):
            geo.parse_scene_spec("classes = floor\npoints_per_class = 1\nnoise_sigma = 0\nseed = 7")

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError):
            geo.parse_scene_spec("classes = floor\npoints_per_class = 1\nnoise_sigma = 0\nfoo = 1")

    def test_missing_required_key_rejected(self):
        with pytest.raises(DataError):
            geo.parse_scene_spec("classes = floor\nnoise_sigma = 0.01")

    def test_repeated_key_rejected(self):
        with pytest.raises(DataError, match="repeats key 'points_per_class'"):
            geo.parse_scene_spec(
                "classes = floor\npoints_per_class = 1\nnoise_sigma = 0\npoints_per_class = 2"
            )

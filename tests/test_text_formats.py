"""Property tests of the cloud, checkpoint, scene-spec, sweep-config and
attention-dump text formats.

Whatever `save_cloud`, `save_checkpoint` or `dump_attention` writes loads
back bitwise, and mutated text either loads as a valid object or raises
DataError; no other exception reaches the caller. Scene-spec text parses to
a `SceneSpec` that round-trips through `scene_spec_text`, or raises
DataError or UsageError. Sweep-config text expands to grid cells or raises
UsageError.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pointpeft import autograd as ag
from pointpeft import backbone as bb
from pointpeft import cli
from pointpeft import geometry as geo
from pointpeft import instrumentation as ins
from pointpeft import peft as pf
from pointpeft import training as tr
from pointpeft.errors import ContractError, DataError, UsageError

from test_geometry import cloud_text, one_point

# each example rewrites one file under the test's tmp_path
FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

finite = st.floats(allow_nan=False, allow_infinity=False)

# Pieces a mutation splices into saved text: separators, signs, exponents,
# hex digits, header words, numbers at and past the edges, and tokens that
# float() takes but the loaders refuse.
PIECES = (
    list(" \t\n.-+eE#=,_[]x0123456789abcdefABCDEF")
    + ["0000000000000000", "000000000000f07f", "000000000000f8ff", "0000000000000080"]
    + ["0100000000000000", "000000000000f03f", "000000000000f0bf", "0000000000000840"]
    + ["nan", "inf", "-1", "1e999", "5e-324", "99999999999999999999", "1_000", "١٢"]
    + ["\u00a0", "\u2003", "\x00", "\x0c", "#points", "channels", "classes"]
    + ["[config]", "[params]", "\t0\t", ",", "0,3"]
)


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 8))
    c = draw(st.integers(0, 3))
    coords = draw(arrays(np.float64, (n, 3), elements=finite))
    feats = draw(arrays(np.float64, (n, c), elements=finite))
    num_classes = draw(st.integers(0, 4))
    labels = None
    if num_classes and draw(st.booleans()):
        labels = draw(arrays(np.int64, (n,), elements=st.integers(0, num_classes - 1)))
    return geo.PointCloud(coords=coords, feats=feats, labels=labels, num_classes=num_classes)


# names and config entries the checkpoint format can hold
names = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), max_size=6).filter(
    lambda s: not s.startswith("#")
)
keys = st.text(st.characters(codec="utf-8", exclude_characters="=\n\r"), max_size=6).filter(
    lambda s: not s.startswith("#")
)
values = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=6)


@st.composite
def stores(draw):
    store = ag.ParamStore()
    for name in draw(st.lists(names, max_size=4, unique=True)):
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        data = draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False)))
        store.add(name, data, frozen=draw(st.booleans()))
    return draw(st.dictionaries(keys, values, max_size=3)), store


@st.composite
def mutations(draw):
    """Up to four edits: (position as a fraction of the text, cut length, piece)."""
    edit = st.tuples(
        st.floats(0.0, 1.0), st.integers(0, 3), st.sampled_from(PIECES) | st.just("")
    )
    return draw(st.lists(edit, min_size=1, max_size=4))


def mutate(text: str, edits) -> str:
    for where, cut, piece in edits:
        at = int(where * len(text))
        text = text[:at] + piece + text[at + cut :]
    return text


def load_or_none(load, path):
    """The loaded object, or None when the loader raised DataError."""
    try:
        return load(path)
    except DataError:
        return None


def cloud_fields(cloud):
    """What a cloud round trip keeps bitwise; asserts what every loaded cloud holds."""
    assert np.isfinite(cloud.coords).all() and np.isfinite(cloud.feats).all()
    assert cloud.feats.shape[0] == cloud.n
    if cloud.labels is not None:
        assert 0 <= cloud.labels.min() and cloud.labels.max() < cloud.num_classes
    labels = None if cloud.labels is None else cloud.labels.tobytes()
    return cloud.coords.tobytes(), cloud.feats.shape, cloud.feats.tobytes(), cloud.num_classes, labels


def entry_fields(entry):
    """What a checkpoint round trip keeps bitwise; asserts what every loaded checkpoint holds."""
    config, store = entry
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in config.items())
    assert all(t.data.dtype == np.float64 for _, t in store.items())
    return config, [(name, t.shape, t.data.tobytes(), store.frozen(name)) for name, t in store.items()]


ZERO_COORDS = "0" * 48  # the coords value line of one point at the origin


def one_point_text(coords_line):
    """The file of a one-point cloud whose coords value line is `coords_line`."""
    coords, feats, labels = one_point()
    return cloud_text(coords.split("\n")[0] + "\n" + coords_line, feats, labels)


class TestCloudText:
    @FUZZ
    @given(cloud=clouds())
    def test_round_trip_bitwise(self, tmp_path, cloud):
        path = tmp_path / "cloud.txt"
        geo.save_cloud(path, cloud)
        assert cloud_fields(geo.load_cloud(path)) == cloud_fields(cloud)

    @FUZZ
    @given(cloud=clouds(), edits=mutations())
    def test_mutated_text_loads_or_raises_data_error(self, tmp_path, cloud, edits):
        path = tmp_path / "cloud.txt"
        geo.save_cloud(path, cloud)
        path.write_text(mutate(path.read_text(encoding="utf-8"), edits), encoding="utf-8")
        got = load_or_none(geo.load_cloud, path)
        if got is not None:
            cloud_fields(got)

    @FUZZ
    @given(cloud=clouds(), at=st.floats(0.0, 1.0), junk=st.binary(min_size=1, max_size=3))
    def test_mutated_bytes_load_or_raise_data_error(self, tmp_path, cloud, at, junk):
        path = tmp_path / "cloud.txt"
        geo.save_cloud(path, cloud)
        raw = path.read_bytes()
        cut = int(at * len(raw))
        path.write_bytes(raw[:cut] + junk + raw[cut:])
        load_or_none(geo.load_cloud, path)

    def test_non_finite_features_are_not_written(self, tmp_path):
        cloud = geo.PointCloud(coords=np.zeros((1, 3)), feats=np.array([[np.inf]]))
        with pytest.raises(DataError):
            geo.save_cloud(tmp_path / "cloud.txt", cloud)
        assert not (tmp_path / "cloud.txt").exists()

    # float() and int(s, 16) take these; spliced into the coords value line
    # they keep its length, and the hex reader refuses them
    @pytest.mark.parametrize(
        "token",
        ["1_000", "١٢", "１２"],
        ids=["underscore", "arabic-indic-digits", "fullwidth-digits"],
    )
    def test_tokens_float_takes_raise_data_error(self, tmp_path, token):
        path = tmp_path / "cloud.txt"
        line = ZERO_COORDS[:32] + token + ZERO_COORDS[32 + len(token) :]
        path.write_text(one_point_text(line), encoding="utf-8")
        with pytest.raises(DataError, match="hex digits"):
            geo.load_cloud(path)

    # two blanks in place of two digits keep the line's length; `fromhex`
    # skips ASCII whitespace, so only the decoded byte count shows them
    @pytest.mark.parametrize("space", ["  ", "\t\t"], ids=["space", "tab"])
    def test_whitespace_inside_a_row_raises_data_error(self, tmp_path, space):
        path = tmp_path / "cloud.txt"
        path.write_text(one_point_text(ZERO_COORDS[:16] + space + ZERO_COORDS[18:]), encoding="utf-8")
        with pytest.raises(DataError, match="hex digits"):
            geo.load_cloud(path)

    # the coords of one point are 3 values, 48 hex digits; a `#points` file
    # of decimal rows is the format from before clouds were checkpoints
    @pytest.mark.parametrize(
        "text, reason",
        [
            (one_point_text("0" * 47), "hex digits"),
            (one_point_text("0" * 64), "hex digits"),
            ("#points 1 channels 1 classes 1\n1.0 0.0 0.0 1.0 0\n", "`pointpeft gen-data` with the same spec"),
        ],
        ids=["odd-digit-count", "wrong-width", "decimal"],
    )
    def test_malformed_hex_row_raises_data_error(self, tmp_path, text, reason):
        path = tmp_path / "cloud.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=reason):
            geo.load_cloud(path)

    def test_non_integer_label_raises_data_error(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text(cloud_text(*one_point(label=1.5), config="classes=3"))
        with pytest.raises(DataError, match="labels must be integers"):
            geo.load_cloud(path)


class TestCheckpointText:
    @FUZZ
    @given(entry=stores())
    def test_round_trip_bitwise(self, tmp_path, entry):
        config, store = entry
        path = tmp_path / "m.ckpt"
        ag.save_checkpoint(path, store, config, command="pointpeft 'a\nb'")
        assert entry_fields(ag.load_checkpoint(path)) == entry_fields(entry)

    @FUZZ
    @given(entry=stores(), edits=mutations())
    def test_mutated_text_loads_or_raises_data_error(self, tmp_path, entry, edits):
        config, store = entry
        path = tmp_path / "m.ckpt"
        ag.save_checkpoint(path, store, config)
        path.write_text(mutate(path.read_text(encoding="utf-8"), edits), encoding="utf-8")
        got = load_or_none(ag.load_checkpoint, path)
        if got is not None:
            entry_fields(got)

    @FUZZ
    @given(entry=stores(), at=st.floats(0.0, 1.0), junk=st.binary(min_size=1, max_size=3))
    def test_mutated_bytes_load_or_raise_data_error(self, tmp_path, entry, at, junk):
        config, store = entry
        path = tmp_path / "m.ckpt"
        ag.save_checkpoint(path, store, config)
        raw = path.read_bytes()
        cut = int(at * len(raw))
        path.write_bytes(raw[:cut] + junk + raw[cut:])
        load_or_none(ag.load_checkpoint, path)

    @pytest.mark.parametrize(
        "name, config",
        [("#w", {}), ("a\tb", {}), ("a\nb", {}), ("w", {"k=1": "v"}), ("w", {"#k": "v"}), ("w", {"k": "a\rb"})],
        ids=["comment-name", "tab-name", "newline-name", "equals-key", "comment-key", "newline-value"],
    )
    def test_unwritable_entries_raise_contract_error(self, tmp_path, name, config):
        store = ag.ParamStore()
        store.add(name, np.zeros(2))
        with pytest.raises(ContractError):
            ag.save_checkpoint(tmp_path / "m.ckpt", store, config)
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "config, why",
        [("foo\nk=1", "'foo' has no '='"), ("k=1\nk=2", "'k=2' repeats the key 'k'"), ("k=\nk=", "'k=' repeats the key 'k'")],
        ids=["no-equals", "repeated-key", "repeated-empty-key"],
    )
    def test_malformed_config_line_raises_data_error(self, tmp_path, config, why):
        path = tmp_path / "m.ckpt"
        path.write_text(f"[config]\n{config}\n[params]\n")
        with pytest.raises(DataError) as info:
            ag.load_checkpoint(path)
        assert str(info.value) == f"{path}: config line {why}"

    def test_repeated_name_raises_data_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_text(
            "[config]\n[params]\nw\t1\t0\n000000000000f03f\nw\t1\t0\n0000000000000040\n"
        )
        with pytest.raises(DataError, match="duplicate parameter name"):
            ag.load_checkpoint(path)

    # float() and int(s, 16) take these; spliced into a 16-digit value they
    # keep its length, and the hex reader refuses them
    @pytest.mark.parametrize(
        "token",
        ["1_000", "١٢", "１２"],
        ids=["underscore", "arabic-indic-digits", "fullwidth-digits"],
    )
    def test_tokens_float_takes_raise_data_error(self, tmp_path, token):
        path = tmp_path / "m.ckpt"
        value = "000000000000f03f"[: 16 - len(token)] + token
        path.write_text(f"[config]\n[params]\nw\t1\t0\n{value}\n", encoding="utf-8")
        with pytest.raises(DataError, match="hex digits"):
            ag.load_checkpoint(path)

    # two values, 1.0 and 2.0, are 000000000000f03f0000000000000040
    @pytest.mark.parametrize(
        "line, reason",
        [
            ("000000000000f03f000000000000004", "hex digits"),
            ("000000000000f03f00000000000000400000", "hex digits"),
            ("000000000000f03f  00000000000040", "hex digits"),  # fromhex skips the spaces
            ("000000000000f03f\t000000000000040", "hex digits"),
            ("000000000000f03f\x0c\x0c00000000000040", "hex digits"),
            ("000000000000f03f\u00a0\u00a000000000000040", "hex digits"),
            ("000000000000f03f\u2003\u200300000000000040", "hex digits"),
            ("1.0 2.0", "decimals, the encoding before hex: re-run `pointpeft pretrain`"),
        ],
        ids=[
            "odd-digit-count", "not-a-multiple-of-16", "inner-space", "inner-tab",
            "form-feed", "no-break-space", "em-space", "decimal",
        ],
    )
    def test_malformed_hex_line_raises_data_error(self, tmp_path, line, reason):
        path = tmp_path / "m.ckpt"
        path.write_text(f"[config]\n[params]\nw\t2\t0\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=reason):
            ag.load_checkpoint(path)

    def test_load_peak_memory_stays_near_the_file_size(self, tmp_path):
        """Parsing record by record keeps the tracemalloc peak under 2.5x the
        file's bytes at the acceptance config; numpy's reader widens its
        input to 4 bytes a character, so one joined string would pass 7x."""
        bconfig = bb.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16, num_classes=3, voxel_size=0.5)
        store = bb.init_backbone(bconfig, seed=0)
        assert len(store.names()) == 74 and store.total_count == 52387
        path = tmp_path / "backbone.ckpt"
        bb.save_backbone(path, store, bconfig)
        ag.load_checkpoint(path)  # first-call allocations belong to numpy, not the loader
        tracemalloc.start()
        try:
            ag.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * os.path.getsize(path)


@st.composite
def scene_specs(draw):
    classes = tuple(draw(st.lists(st.sampled_from(geo.SHAPE_NAMES), min_size=1, max_size=5)))
    n = len(classes)
    labels = draw(st.just(()) | st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return geo.SceneSpec(
        classes=classes,
        points_per_class=draw(st.integers(1, 10**6)),
        noise_sigma=draw(st.floats(min_value=0.0, allow_infinity=False)),
        scale=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        labels=tuple(labels),
    )


# `key = value` lines over the spec's keys and one unknown key; values are
# numbers at and past the edges, class and label lists, mutation pieces and
# arbitrary text
EDGES = ["nan", "-inf", "inf", "0", "-0.0", "-1", "5e-324", "1e999", "floor, wall", "cone", "2, 1"]
spec_lines = st.tuples(
    st.sampled_from(sorted(geo._SPEC_KEYS) + ["colour", "seed"]),
    st.sampled_from(EDGES) | st.sampled_from(PIECES) | st.text(max_size=8),
).map(" = ".join)


@st.composite
def spec_texts(draw):
    """Lines over a valid spec's text or none; a line that repeats a key raises."""
    base = draw(st.just([]) | scene_specs().map(lambda spec: [geo.scene_spec_text(spec)]))
    return "\n".join(base + draw(st.lists(spec_lines, max_size=6)))


def parse_or_none(text):
    """The parsed spec, or None when the parser raised DataError or UsageError."""
    try:
        return geo.parse_scene_spec(text)
    except (DataError, UsageError):
        return None


class TestSceneSpecText:
    @FUZZ
    @given(spec=scene_specs())
    def test_round_trip(self, spec):
        assert geo.parse_scene_spec(geo.scene_spec_text(spec)) == spec

    @FUZZ
    @given(text=spec_texts() | st.text())
    def test_any_text_parses_or_raises_a_typed_error(self, text):
        spec = parse_or_none(text)
        if spec is not None:
            assert geo.parse_scene_spec(geo.scene_spec_text(spec)) == spec

    @FUZZ
    @given(spec=scene_specs(), edits=mutations())
    def test_mutated_text_parses_or_raises_a_typed_error(self, spec, edits):
        got = parse_or_none(mutate(geo.scene_spec_text(spec), edits))
        if got is not None:
            assert geo.parse_scene_spec(geo.scene_spec_text(got)) == got


# ---------------------------------------------------------------------------
# sweep configs

SWEEP_BACKBONE = bb.BackboneConfig(d=16, blocks=2, patch_size=8, heads=2)
SWEEP_VALUES = [*pf.METHODS, *EDGES, "global", "per_block", "3", "0.05", "0.9999", "1e-9"]
sweep_lines = st.tuples(
    st.sampled_from([*cli._SWEEP_LIST_KEYS, *cli._SWEEP_SCALAR_KEYS, "colour"]),
    st.lists(st.sampled_from(SWEEP_VALUES) | st.sampled_from(PIECES) | st.text(max_size=6), max_size=3)
    .map(", ".join),
).map(" = ".join)


class TestSweepConfigText:
    @FUZZ
    @given(text=st.lists(sweep_lines, max_size=6).map("\n".join) | st.text())
    def test_any_text_gives_cells_or_a_usage_error(self, text):
        try:
            cells = cli.expand_sweep_cells(cli.parse_sweep_config(text), SWEEP_BACKBONE)
        except UsageError:
            return
        assert all(isinstance(cell, pf.PeftConfig) for cell in cells)


# ---------------------------------------------------------------------------
# attention dumps

# block -> token -> point -> weight, as `load_attention_dump` returns it
attention = st.dictionaries(
    st.integers(0, 3),
    st.dictionaries(st.integers(0, 3), st.dictionaries(st.integers(0, 5), finite, min_size=1, max_size=3), max_size=2),
    max_size=2,
)


def dump_text(dump) -> str:
    lines = ["# hash: 0", "token_id,point_id,weight"]
    for block, rows in dump.items():
        lines.append(f"# block {block}")
        lines += [f"{t},{j},{w!r}" for t, row in rows.items() for j, w in row.items()]
    return "\n".join(lines) + "\n"


class TestAttentionDumpText:
    @FUZZ
    @given(dump=attention, edits=mutations())
    def test_mutated_text_loads_or_raises_data_error(self, tmp_path, dump, edits):
        path = tmp_path / "attn.csv"
        path.write_text(dump_text(dump), encoding="utf-8")
        assert ins.load_attention_dump(path) == dump
        path.write_text(mutate(dump_text(dump), edits), encoding="utf-8")
        load_or_none(ins.load_attention_dump, path)

    @FUZZ
    @given(blob=st.binary(max_size=64) | st.text().map(lambda t: t.encode("utf-8")))
    def test_any_bytes_load_or_raise_data_error(self, tmp_path, blob):
        path = tmp_path / "attn.csv"
        path.write_bytes(blob)
        load_or_none(ins.load_attention_dump, path)

    @settings(FUZZ, max_examples=15)
    @given(method=st.sampled_from(["gem", "gem_ca_only"]), seed=st.integers(0, 2**31 - 1))
    def test_dump_round_trips_the_weights(self, tmp_path, method, seed):
        """The weights `dump_attention` writes load back bitwise: every
        block's stage-1 rows, as a traced forward of the same model gives them."""
        bconfig = bb.BackboneConfig(d=16, blocks=2, patch_size=8, heads=2, num_classes=3)
        store = bb.init_backbone(bconfig, seed)
        attachment = pf.attach(pf.PeftConfig(method=method, rank=2, tokens=2), store, bconfig, seed=seed)
        cloud = tr.generate_dataset(tr.target_spec(4), 1, seed)[0]
        path = tmp_path / "attn.csv"
        ins.dump_attention(cloud, store, bconfig, attachment, path)
        pc, tracer = ins._prepare(cloud, bconfig, attachment), ins.OpCounter()
        bb.forward(cloud, pc.part, pc.nbr, attachment, store, bconfig, tracer=tracer)
        want = {
            block: {
                t: {j: float(w) for j, w in enumerate(row)}
                for t, row in enumerate(tracer.arrays[f"block{block}.ca.stage1"]["weights"])
            }
            for block in range(bconfig.blocks)
        }
        assert ins.load_attention_dump(path) == want

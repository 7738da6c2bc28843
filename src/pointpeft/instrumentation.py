"""The forward tracer, operation counting and attention capture.

`OpCounter` is the tracer `backbone.forward` accepts.  Multiply-adds are
tallied analytically from operand shapes at each named call site (matmul work
only; elementwise maps and normalizations are not multiply-accumulate work),
so scaling assertions are exact up to padding.  Attention dumps expose the
global-token rows of one traced pass for external plotting.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import backbone as bb
from . import training as tr
from .autograd import ParamStore
from .errors import DataError, UsageError
from .geometry import PointCloud, read_text
from .peft import PeftAttachment

Array = np.ndarray


class OpCounter:
    """Forward tracer: per-site multiply-add tallies and array copies.

    `sites` sums the multiply-adds every record reports; a record without
    any adds no key.  `arrays[site]` holds copies of the arrays last
    reported at that site, by keyword.
    """

    def __init__(self):
        self.sites: dict[str, int] = {}
        self.arrays: dict[str, dict[str, Array]] = {}

    def record(self, site: str, madds: int = 0, **arrays: Array) -> None:
        if madds:
            self.sites[site] = self.sites.get(site, 0) + int(madds)
        if arrays:
            self.arrays[site] = {k: v.copy() for k, v in arrays.items()}

    def total(self, substring: str = "") -> int:
        return sum(v for k, v in self.sites.items() if substring in k)

    def report_csv(self) -> str:
        rows = ["site,count"]
        rows += [f"{k},{self.sites[k]}" for k in sorted(self.sites)]
        return "\n".join(rows) + "\n"


def _prepare(cloud: PointCloud, bconfig: bb.BackboneConfig, attachment) -> tr.Prepared:
    need_neighbors = attachment is not None and attachment.config.has_spatial
    return tr.prepare([cloud], bconfig, need_neighbors=need_neighbors)[0]


def count_pass(
    cloud: PointCloud,
    store: ParamStore,
    bconfig: bb.BackboneConfig,
    attachment: PeftAttachment | None = None,
) -> OpCounter:
    """Exact multiply-add counts per site for one forward pass."""
    pc = _prepare(cloud, bconfig, attachment)
    counter = OpCounter()
    bb.forward(cloud, pc.part, pc.nbr, attachment, store, bconfig, tracer=counter)
    return counter


def js_divergence(p: Array, q: Array) -> float:
    """Jensen-Shannon divergence (natural log) between two distributions."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise UsageError(f"distributions differ in size: {p.size} vs {q.size}")
    p = p / p.sum()
    q = q / q.sum()
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float((a[mask] * np.log(a[mask] / b[mask])).sum())

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def dump_attention(
    cloud: PointCloud,
    store: ParamStore,
    bconfig: bb.BackboneConfig,
    attachment: PeftAttachment,
    path,
    command: str = "",
) -> None:
    """Write `token_id,point_id,weight` rows per block.

    Context-adapter methods dump the stage-1 rows (each latent token's
    distribution over all points).  Prompt tuning dumps each point's
    head-averaged attention onto the prompt tokens.  Only the attachment's
    insertion blocks are written, each after a `# block i` comment line.
    """
    method = attachment.config.method
    if not attachment.config.has_context and method != "prompt":
        raise UsageError(f"method {method!r} has no global tokens to dump")

    pc = _prepare(cloud, bconfig, attachment)
    part = pc.part
    tracer = OpCounter()
    bb.forward(cloud, part, pc.nbr, attachment, store, bconfig, tracer=tracer)
    lines = []
    if command:
        lines.append(ag.cmd_comment(command))
    lines.append(f"# hash: {ag.config_hash({**bconfig.to_dict(), **attachment.config.to_dict()})}")
    lines.append("token_id,point_id,weight")
    for block in attachment.config.active_blocks(bconfig.blocks):
        lines.append(f"# block {block}")
        if attachment.config.has_context:
            stage1 = tracer.arrays[f"block{block}.ca.stage1"]["weights"]  # (m, n)
            for t in range(stage1.shape[0]):
                for j in range(stage1.shape[1]):
                    lines.append(f"{t},{j},{float(stage1[t, j])!r}")
        else:
            w = tracer.arrays[f"block{block}.local_attn"]["weights"]
            per_head = w.reshape(part.num_patches, bconfig.heads, part.patch_size, -1).mean(axis=1)
            for pi in range(part.num_patches):
                for slot in range(part.patch_size):
                    point = int(part.index[pi, slot])
                    if point < 0:
                        continue
                    for t in range(attachment.config.tokens):
                        lines.append(f"{t},{point},{float(per_head[pi, slot, t])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_attention_dump(path) -> dict[int, dict[int, dict[int, float]]]:
    """Inverse of dump_attention: block -> token -> point -> weight.

    A malformed line raises `DataError` naming the file and the line.
    """
    out: dict[int, dict[int, dict[int, float]]] = {}
    rows = None  # the current block's tokens
    for number, ln in enumerate(read_text(path).split("\n"), start=1):
        ln = ln.strip()
        try:
            if ln.startswith("# block "):
                rows = out[int(ln.split()[-1])] = {}
            elif ln and not ln.startswith("#") and not ln.startswith("token_id"):
                t, j, w = ln.split(",")
                if rows is None:
                    raise ValueError("a row before the first '# block' line")
                rows.setdefault(int(t), {})[int(j)] = float(w)
        except ValueError as exc:
            raise DataError(f"{path} line {number}: {exc}: {ln!r}") from None
    return out

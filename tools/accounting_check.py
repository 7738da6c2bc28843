"""Per-method parameter accounting: every count, fraction and budget fit.

    PYTHONPATH=src python tools/accounting_check.py > out.json

Prints one JSON object. `cases` holds, for every method at the acceptance
transfer backbone (d=32, 4 blocks) and the CLI default (d=64, 8 blocks),
and for five capacity settings each (the defaults, rank 1 with 1 token,
rank 3 with 5 tokens, rank 16 with 8 tokens, and insertion blocks 1 and 3),
`peft_param_count`, `trainable_param_count` and `trainable_fraction` as
`float.hex`. `budget_fit` holds the rank and tokens `budget_fit` returns for
each method at five budgets on both backbones, or the error it raises.
`digest` is a SHA-256 over both, so two commits that account alike print
the same digest.
"""

import hashlib
import json

from pointpeft import backbone as bb
from pointpeft import peft as pf
from pointpeft.errors import PointPeftError

BACKBONES = {
    "acceptance": bb.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16, num_classes=3),
    "cli-default": bb.BackboneConfig(),
}
SETTINGS = {
    "default": {},
    "r1-m1": {"rank": 1, "tokens": 1},
    "r3-m5": {"rank": 3, "tokens": 5},
    "r16-m8": {"rank": 16, "tokens": 8},
    "blocks-1-3": {"blocks": (1, 3)},
}
BUDGETS = (0.001, 0.005, 0.016, 0.05, 0.2)


def main() -> None:
    cases, fits = {}, {}
    for label, bconfig in BACKBONES.items():
        for method in pf.METHODS:
            for setting, kw in SETTINGS.items():
                config = pf.PeftConfig(method=method, **kw)
                cases[f"{label}/{method}/{setting}"] = {
                    "peft": pf.peft_param_count(config, bconfig),
                    "trainable": pf.trainable_param_count(config, bconfig),
                    "fraction": pf.trainable_fraction(config, bconfig).hex(),
                }
            for budget in BUDGETS:
                try:
                    fit = pf.budget_fit(method, budget, bconfig)
                    fits[f"{label}/{method}/{budget}"] = {"rank": fit.rank, "tokens": fit.tokens}
                except PointPeftError as exc:
                    fits[f"{label}/{method}/{budget}"] = f"{type(exc).__name__}: {exc}"
    body = json.dumps({"cases": cases, "budget_fit": fits}, sort_keys=True)
    out = {"digest": hashlib.sha256(body.encode("utf-8")).hexdigest(), "cases": cases, "budget_fit": fits}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()

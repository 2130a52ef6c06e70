"""Rewrite perfbench/digests.json with the input digests of seeds 0..10.

Run from the root of a checkout whose inputs are known to be right::

    python3 perfbench/pin_digests.py

A benchmark run on a pinned seed fails when its inputs hash differently.
"""

from __future__ import annotations

import json

import inputs
from run import build_inputs, preflight
from workloads import WORKLOADS

PINNED_SEEDS = range(11)


def main() -> None:
    preflight()
    table = {
        name: {str(seed): build_inputs(w, seed)["digests"] for seed in PINNED_SEEDS}
        for name, w in WORKLOADS.items()
    }
    inputs.DIGESTS_FILE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Traced memory of each array layer on one subset-topology array.

Run from anywhere in a checkout:

    python3 tools/layer_memory.py [--lambda 1024] [--r 1] [--alpha 1]

It imports the package from the checkout's ``src`` and, under
``tracemalloc``, runs in turn: ``algorithm1(lambda, r, alpha)``, its
``stats``, its ``shuffle_plan``, ``serialize``, ``parse_array`` of that text
and ``validate_mra`` of the parsed array (a fresh array, so that call builds
its own census and plan).  Each layer's peak is the most traced memory
allocated during its call, and its kept bytes what of that is still held
when the call returns (a cached property counts what the array caches).
It prints one JSON object: the point, the grid's and the text's bytes, and
each layer's ``peak_mib`` and ``kept_mib``.  At lambda = 1024 it takes a
few seconds on a 2-core VM; tracemalloc slows the calls several times.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from codedshuffle import algorithm1, parse_array, validate_mra  # noqa: E402

MIB = 2**20


def traced(call):
    """``call()``, its traced peak and the traced bytes it left held."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--lambda", dest="mappers", type=int, default=1024)
    parser.add_argument("--r", type=int, default=1)
    parser.add_argument("--alpha", type=int, default=1)
    args = parser.parse_args(argv)
    layers = {}

    def layer(name, call):
        out, peak, kept = traced(call)
        layers[name] = {"peak_mib": round(peak / MIB, 2), "kept_mib": round(kept / MIB, 2)}
        return out

    arr = layer("algorithm1", lambda: algorithm1(args.mappers, args.r, args.alpha))
    layer("stats", lambda: arr.stats)
    layer("shuffle_plan", lambda: arr.shuffle_plan)
    text = layer("serialize", arr.serialize)
    parsed = layer("parse_array", lambda: parse_array(text))
    layer("validate_mra", lambda: validate_mra(parsed))
    print(json.dumps({
        "point": [args.mappers, args.r, args.alpha],
        "grid_mib": round(arr.grid.nbytes / MIB, 2),
        "text_mib": round(len(text) / MIB, 2),
        "layers": layers,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

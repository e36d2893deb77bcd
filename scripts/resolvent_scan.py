#!/usr/bin/env python3
"""Smallest-singular-value scan of the absorbed model operator over the
default h ladder 1/50 .. 1/400. Extra flags go to `loxokit resolvent`,
e.g. --h 1/50,1/100 or --config scan.json.
"""

import sys

from loxokit.cli import main

args = sys.argv[1:]
if "--out" not in args:
    args += ["--out", "results/resolvent"]
sys.exit(main(["resolvent"] + args))

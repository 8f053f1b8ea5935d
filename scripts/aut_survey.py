#!/usr/bin/env python3
"""Compare generated and brute-force automorphism group orders.

For each signature in the sweep, build the quotient graph, read the
order of the group generated by translations, the point reflection, and
any admitted cyclic shift off its lattice in closed form, then compare
against full brute-force search.
Signatures where the two differ carry extra symmetry beyond the generic
construction.  The exact search runs on every graph of the sweep; the
script has no vertex cap, and HEAWOOD_CAP does not touch it.

Usage:
    python3 scripts/aut_survey.py [--max-entry 2] [--n 3]
"""

import argparse
from itertools import product

from heawood_kit.cli import emit
from heawood_kit.lattice import KSignature
from heawood_kit.quotient import build_heawood_graph
from heawood_kit.symmetry import brute_force_automorphisms, generated_order


def survey(n: int, max_entry: int) -> list[dict]:
    rows = []
    for entries in product(range(1, max_entry + 1), repeat=n):
        k = KSignature(entries)
        g = build_heawood_graph(k)
        generated = generated_order(g.lattice)
        brute = brute_force_automorphisms(g).order
        rows.append({
            "k": list(entries),
            "vertices": g.vertex_count,
            "cyclic_order": n // g.lattice.least_rotation(),
            "generated": generated,
            "brute": brute,
            "exceptional": brute != generated,
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="signature length")
    parser.add_argument("--max-entry", type=int, default=2)
    parser.add_argument("-o", "--output")
    args = parser.parse_args()
    if args.n < 3:
        parser.error(f"--n must be at least 3: the tiling needs d >= 2, not {args.n}")
    return emit(lambda: {"survey": survey(args.n, args.max_entry)}, args.output)


if __name__ == "__main__":
    raise SystemExit(main())

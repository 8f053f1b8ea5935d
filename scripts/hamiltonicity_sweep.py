#!/usr/bin/env python3
"""Sweep the alternating-walk construction over many signatures.

For every signature in the sweep and every direction index i, run the
alternating walk and record whether it closes Hamiltonian or prematurely.
The rows where every direction closes prematurely are listed on stderr;
the sweep does not settle them.  Up to entry 8 there are 9 such rows,
among them (3,5,4) and (2,7,6), with 120 and 168 vertices.

Usage:
    python3 scripts/hamiltonicity_sweep.py [--max-entry 3] [--n 3] [-o out.json]
"""

import argparse
import json
import sys
from itertools import product

from heawood_kit.analysis import hamiltonian_alternating
from heawood_kit.lattice import KSignature
from heawood_kit.limits import SCHEMA
from heawood_kit.quotient import build_heawood_graph


def sweep(n: int, max_entry: int) -> list[dict]:
    rows = []
    for entries in product(range(1, max_entry + 1), repeat=n):
        g = build_heawood_graph(KSignature(entries))
        walks = {i: hamiltonian_alternating(g, i) for i in range(1, n + 1)}
        outcomes = {
            i: {"outcome": r.outcome, "length": r.length} for i, r in walks.items()
        }
        rows.append({
            "k": list(entries),
            "vertices": g.vertex_count,
            "alternating": outcomes,
            "any_alternating_hamiltonian": any(
                o["outcome"] == "hamiltonian-cycle" for o in outcomes.values()
            ),
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="signature length")
    parser.add_argument("--max-entry", type=int, default=3)
    parser.add_argument("-o", "--output")
    args = parser.parse_args()
    if args.n != 3:
        parser.error(f"--n must be 3: the alternating walk needs d = 2, not {args.n}")
    rows = sweep(args.n, args.max_entry)
    text = json.dumps({"schema": SCHEMA, "sweep": rows}, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    failures = [r["k"] for r in rows if not r["any_alternating_hamiltonian"]]
    print(
        f"# {len(rows)} signatures, {len(failures)} where no alternating "
        f"direction closes Hamiltonian: {failures}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Tabulate the weight-space polytope of complete topologically ordered DAGs.

For each node count: ambient dimension |E|, polytope dimension, vertex count
(= number of generic CI structures) and, where cheap, the f-vector.

Usage: python scripts/complete_dag_table.py [--up-to N] [--f-vectors]
The 6-node row takes a long time; it is only attempted with --up-to 6.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from maxoid.fan import enumerate_maximal_cones, lineality_dimension
from maxoid.graph import Dag
from maxoid.polytope import face_lattice, polytope_vertices


def complete_dag(n: int) -> Dag:
    return Dag(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--up-to", type=int, default=5)
    ap.add_argument("--f-vectors", action="store_true",
                    help="also compute f-vectors (about 0.1 s at 5 nodes)")
    args = ap.parse_args()

    print(f"{'n':>3} {'|E|':>4} {'dim':>4} {'vertices':>9} {'lineality':>10}"
          f"{'  f-vector' if args.f_vectors else ''}")
    for n in range(3, args.up_to + 1):
        t0 = time.time()
        g = complete_dag(n)
        entries = enumerate_maximal_cones(g)
        points = [p for _, p in polytope_vertices(g, entries)]
        # the fan is the polytope's normal fan: dim P = |E| - lineality, and
        # every maximal cone has the fan's lineality space, its rows' null space
        lineality = lineality_dimension(entries[0])
        row = (f"{n:>3} {len(g.edges):>4} {len(g.edges) - lineality:>4} {len(points):>9} "
               f"{lineality:>10}")
        if args.f_vectors:
            row += f"  {face_lattice(points).f_vector()}"
        print(row + f"   ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()

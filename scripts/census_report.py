#!/usr/bin/env python3
"""Count the distinct CI structures realized over all TDAGs on n nodes.

Set MAXOID_CACHE_DIR to make large runs resumable across invocations; a
resumed run with any cache miss still searches the complete fan once.

Usage: python scripts/census_report.py --nodes 4 [--jobs 4] [--dump FILE]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from maxoid.census import all_top_ordered_tdags, census_structures


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--nodes", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--dump", metavar="FILE", help="write every structure as JSON")
    args = ap.parse_args()

    t0 = time.time()
    family = all_top_ordered_tdags(args.nodes)
    print(f"graphs: {len(family.masks)}  isomorphism classes: {len(family.classes)}")
    generic, everything = census_structures(family, jobs=args.jobs)
    print(f"generic structures: {len(generic)}  ({time.time() - t0:.0f}s)")
    print(f"all structures: {len(everything)}  ({time.time() - t0:.0f}s)")
    if args.dump:
        data = sorted(m.to_json() for m in everything)
        Path(args.dump).write_text(json.dumps(data, indent=1))
        print(f"wrote {args.dump}")


if __name__ == "__main__":
    main()

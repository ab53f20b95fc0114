#!/usr/bin/env python3
"""Print graded ranks of the standard web state spaces for a range of N.

Every generator family of ``WEB_FAMILIES`` is ranked at each argument tuple
with entries in 1..N-1 that it accepts, and every relation of
``MOY_RELATIONS`` is checked at its default thicknesses.

Usage: python scripts/rank_report.py [max_N]
"""

import itertools
import sys

sys.path.insert(0, "src")

from foamlab.cli import laurent_text
from foamlab.errors import InputError
from foamlab.statespace import (
    MOY_RELATIONS,
    WEB_FAMILIES,
    graded_rank,
    moy_check,
)


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    print("family ranks")
    for name, (arity, build) in WEB_FAMILIES.items():
        for N in range(2, max_n + 1):
            for args in itertools.product(range(1, N), repeat=arity):
                try:
                    L = graded_rank(build(*args, N))
                except InputError:
                    continue
                spec = f"{name}:" + ",".join(map(str, args)) if args else name
                print(f"  {spec:17s} N={N}: {laurent_text(L)}")
    print("relation checks")
    for relation in MOY_RELATIONS:
        for N in range(2, max_n + 1):
            try:
                rep = moy_check(relation, N)
            except InputError as exc:
                print(f"  {relation:10s} N={N}: n/a ({exc})")
                continue
            status = "ok" if rep.ok else "FAIL"
            print(f"  {relation:10s} N={N}: {status}  {rep.detail or ''}")


if __name__ == "__main__":
    main()

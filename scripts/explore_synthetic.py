#!/usr/bin/env python3
"""Full design-space sweep on a synthetic SmartCity-style corpus.

Generates a five-sensor SenML dataset, enumerates every configuration of
the matching five-predicate AND query (modes x block lengths = 32767
points), evaluates FPR and proxy cost for each, and prints the Pareto
front. The `explore` call of the full sweep takes about 0.5 s (0.36-0.56 s)
on a 2-core machine with Python 3.11 and numpy 2.4, the whole script about
1 s; use --cap/--records to shrink it. --csv PATH writes every report, so
two versions' outputs can be compared byte for byte.
"""

import argparse
from decimal import Decimal

from rawfilter import ExplorerOptions, explore, parse_query
from rawfilter.explorer import reports_to_csv
from rawfilter.datagen import AttrSpec, GenSpec, generate_dataset, query_for_spec


def build_spec(records: int, seed: int) -> GenSpec:
    attrs = (
        AttrSpec("temperature", "decimal", Decimal(-20), Decimal(60), Decimal("0.7"), Decimal("35.1"), 0.8),
        AttrSpec("humidity", "int", Decimal(0), Decimal(150), Decimal(20), Decimal(69), 0.8),
        AttrSpec("light", "int", Decimal(0), Decimal(30000), Decimal(0), Decimal(5153), 0.8),
        AttrSpec("dust", "decimal", Decimal(0), Decimal(6000), Decimal("83.36"), Decimal("3322.67"), 0.8),
        AttrSpec("airquality_raw", "int", Decimal(0), Decimal(400), Decimal(12), Decimal(49), 0.8),
    )
    return GenSpec("senml", records, attrs, seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--cap", type=int, default=10**6)
    parser.add_argument("--sample", type=int, default=None)
    parser.add_argument("--csv", help="also write every report as CSV to this path")
    args = parser.parse_args()

    spec = build_spec(args.records, args.seed)
    corpus, _ = generate_dataset(spec)
    query = parse_query(query_for_spec(spec))
    print(f"corpus: {args.records} records, {len(corpus)} bytes")
    print(f"query:  {query.notation()}")

    options = ExplorerOptions(cap=args.cap, sample=args.sample, seed=args.seed)
    reports, front = explore(query, corpus, options)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(reports_to_csv(reports))
    print(f"evaluated {len(reports)} configurations; {len(front)} Pareto points:\n")
    print(f"{'FPR':>7}  {'cost':>6}  configuration")
    for report in front:
        print(f"{report.fpr:7.3f}  {report.cost:6g}  {report.notation}")


if __name__ == "__main__":
    main()

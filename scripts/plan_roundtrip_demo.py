#!/usr/bin/env python3
"""Plan between two far-apart configurations and replay the result.

Builds the complex for a chosen graph and color vector, picks the first and
last 0-cells in canonical order (or accepts explicit cells), runs both the
constructive planner and the breadth-first planner, and verifies both plans.

Usage:
    python scripts/plan_roundtrip_demo.py [--graph K4] [--colors 2,1,1,1]
"""

import argparse

from stirling_complexes import (
    ColorVector,
    ComplexSpec,
    enumerate_cells,
    format_cell,
    format_plan,
    parse_cell,
    parse_graph_name,
    plan,
    plan_bfs,
    verify_plan,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph", default="P3", help="named graph, e.g. P3, T4, C4, K4")
    parser.add_argument("--colors", default="2,2,1")
    parser.add_argument("--start", help="explicit start cell text")
    parser.add_argument("--end", help="explicit end cell text")
    args = parser.parse_args()

    try:
        g = parse_graph_name(args.graph)
    except ValueError as exc:
        parser.error(str(exc))
    spec = ComplexSpec(g, ColorVector.parse(args.colors))
    cells = list(enumerate_cells(spec, dim=0))
    if not cells:
        raise SystemExit("the complex is empty")
    start = parse_cell(args.start) if args.start else cells[0]
    goal = parse_cell(args.end) if args.end else cells[-1]

    print(f"graph {args.graph}, colors {spec.colors.sizes}: {len(cells)} configurations")
    print(f"start: {format_cell(start)}")
    print(f"goal : {format_cell(goal)}")

    constructed = plan(spec, start, goal)
    print(f"\nconstructive plan, {len(constructed.moves)} moves "
          f"(verified: {bool(verify_plan(constructed))}):")
    print(format_plan(constructed))

    searched = plan_bfs(spec, start, goal)
    print(f"shortest plan, {len(searched.moves)} moves "
          f"(verified: {bool(verify_plan(searched))}):")
    print(format_plan(searched))


if __name__ == "__main__":
    main()

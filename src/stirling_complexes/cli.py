"""Command-line interface: counting, enumeration, components, planning, verification.

Exit codes are a stable contract: 0 success, 1 failed plan verification,
2 usage error, 3 empty complex or unreachable goal, 4 constructive-planning
hypotheses not met, 5 internal planner failure.  All counts are emitted as
decimal strings so consumers never hit integer-width limits.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .complexes import (
    ColorVector,
    ComplexSpec,
    EmptyComplexError,
    _one_skeleton,
    _zero_cells,
    enumerate_cells,
    f_vector,
    format_cell,
    parse_cell,
)
from .counting import two_one_cell_counts, uniform_cell_counts, wedge_count
from .graphs import EdgeListError, SimpleGraph, _labels, is_connected, parse_edge_list, parse_graph_name
from .planner import (
    HypothesisNotMetError,
    InternalPlanningError,
    PlanFormatError,
    PlanningError,
    format_plan,
    parse_plan,
    plan,
    plan_bfs,
    verify_plan,
)
from .skeleton import (
    SkeletonGraph,
    euler_characteristic,
    skeleton_edge_list_text,
    skeleton_node_lines,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_EMPTY_OR_UNREACHABLE = 3
EXIT_HYPOTHESIS_NOT_MET = 4
EXIT_INTERNAL = 5


class UsageError(ValueError):
    pass


def _load_graph(args) -> SimpleGraph:
    if (args.graph is None) == (args.graph_file is None):
        raise UsageError("provide exactly one of --graph or --graph-file")
    if args.graph is not None:
        try:
            return parse_graph_name(args.graph)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return parse_edge_list(_read_text(args.graph_file, "graph file"))


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of an input file; a file that cannot be read is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"{what} {path} does not exist") from None
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"{what} {path} is not UTF-8 text") from None


def _write_text(path: Path, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _load_spec(args) -> ComplexSpec:
    try:
        colors = ColorVector.parse(args.colors)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return ComplexSpec(_load_graph(args), colors, require_cover=args.cover)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                print(f"{key}_{sub}\t{_tsv_value(v)}")
        else:
            print(f"{key}\t{_tsv_value(value)}")


def _tsv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _decimal(values) -> list[str]:
    return [str(v) for v in values]


def _pad_agree(a, b) -> bool:
    width = max(len(a), len(b))
    pa = tuple(a) + (0,) * (width - len(a))
    pb = tuple(b) + (0,) * (width - len(b))
    return pa == pb


def _count_report(spec: ComplexSpec) -> dict:
    g = spec.graph
    fv = f_vector(spec)
    # a non-empty complex always has 0-cells (every cell snaps to one)
    empty = fv == (0,)
    report = {
        "n": str(g.n),
        "m": str(g.m),
        "colors": _decimal(spec.colors.sizes),
        "require_cover": spec.require_cover,
        "empty": empty,
        "f_vector": _decimal(fv),
        "euler_characteristic": str(euler_characteristic(fv)),
    }
    sizes = spec.colors.sizes
    n = g.n
    if (
        spec.require_cover
        and n >= 2
        and len(sizes) == n
        and sorted(sizes, reverse=True) == [2] + [1] * (n - 1)
    ):
        f0, f1 = two_one_cell_counts(g)
        report["formula"] = {
            "family": "two_one",
            "f_vector": _decimal((f0, f1)),
            "agree": _pad_agree(fv, (f0, f1)),
        }
        if is_connected(g):
            report["formula"]["wedge_count"] = str(wedge_count(g))
    elif (
        spec.require_cover
        and len(sizes) >= 2
        and n >= 2
        and all(l == n - 1 for l in sizes)
    ):
        formula = uniform_cell_counts(g, len(sizes))
        report["formula"] = {
            "family": "uniform",
            "f_vector": _decimal(formula),
            "agree": _pad_agree(fv, formula),
        }
    return report


def cmd_count(args) -> int:
    spec = _load_spec(args)
    _emit(_count_report(spec), args.format)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    spec = _load_spec(args)
    for cell in enumerate_cells(spec, dim=args.dim):
        print(format_cell(cell))
    return EXIT_OK


def cmd_components(args) -> int:
    spec = _load_spec(args)
    try:
        keys, firsts, seconds = _one_skeleton(spec)
    except EmptyComplexError:
        print("the complex is empty", file=sys.stderr)
        return EXIT_EMPTY_OR_UNREACHABLE
    count, labels = _labels(len(keys), zip(firsts, seconds))
    sizes = [0] * count
    for label in labels:
        sizes[label] += 1
    report = {
        "components": str(count),
        "component_sizes": _decimal(sizes),
        "nodes": str(len(keys)),
        "arcs": str(len(firsts)),
    }
    if args.export_skeleton:
        sk = SkeletonGraph(_zero_cells(spec, keys), tuple(zip(firsts, seconds)))
        base = Path(args.export_skeleton)
        _write_text(base.with_suffix(".edgelist"), skeleton_edge_list_text(sk))
        _write_text(base.with_suffix(".nodes"), "\n".join(skeleton_node_lines(sk)) + "\n")
    _emit(report, args.format)
    return EXIT_OK


def cmd_plan(args) -> int:
    spec = _load_spec(args)
    try:
        start = parse_cell(args.start)
        goal = parse_cell(args.end)
    except ValueError as exc:
        raise UsageError(f"bad cell: {exc}") from None
    if args.mode == "constructive":
        result = plan(spec, start, goal)
    else:
        result = plan_bfs(spec, start, goal)
        if result is None:
            print("unreachable: the cells lie in different components", file=sys.stderr)
            return EXIT_EMPTY_OR_UNREACHABLE
    text = format_plan(result)
    if args.out:
        _write_text(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_spec(args)
    result = parse_plan(spec, _read_text(args.plan_file, "plan file"))
    check = verify_plan(result)
    report = {
        "ok": check.ok,
        "moves": str(len(result.moves)),
    }
    if not check.ok:
        report["failed_at"] = str(check.failed_at)
    _emit(report, args.format)
    return EXIT_OK if check.ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", help="named graph such as K5, P3, T4, C4")
    common.add_argument("--graph-file", help="edge-list file: 'n m' header then 'u v' lines")
    common.add_argument("--colors", required=True, help="comma-separated group sizes, e.g. 2,1,1")
    common.add_argument(
        "--cover",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="require every vertex to host a robot (default: on)",
    )
    common.add_argument("--format", choices=("json", "tsv"), default="json")

    parser = argparse.ArgumentParser(
        prog="stirling",
        description="Cell counts, connectivity, and motion plans for grouped "
        "Stirling complexes of simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="f-vector, with closed-form cross-check")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", parents=[common], help="list cells in canonical order")
    p.add_argument("--dim", type=int, default=None, help="restrict to one dimension")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("components", parents=[common], help="connected components of the 1-skeleton")
    p.add_argument("--export-skeleton", help="write BASE.edgelist and BASE.nodes files")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("plan", parents=[common], help="move plan between two 0-cells")
    p.add_argument("--start", required=True, help="start 0-cell, e.g. '{0,1}|{0,2}|{0}'")
    p.add_argument("--end", required=True, help="goal 0-cell")
    p.add_argument("--mode", choices=("constructive", "bfs"), default="constructive")
    p.add_argument("--out", help="write the plan here instead of stdout")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", parents=[common], help="replay and check a plan file")
    p.add_argument("--plan-file", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, so that importing
    stays cheap, and only once, as each build leaves argparse's reference
    cycles for the garbage collector."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, EdgeListError, PlanFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisNotMetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS_NOT_MET
    except InternalPlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point tying the toolkit together for batch use.

Machine-readable JSON goes to the output path (or stdout), human diagnostics
to stderr. Every JSON payload embeds the resolved run manifest and the tool
version, and identical manifests reproduce byte-identical output. Exit codes:
0 success/true, 1 verified-false/fail, 2 rejected input, 3 budget exhausted
or inconclusive.

A payload is written as the exact bytes of ``json.dumps(payload, indent=2,
sort_keys=True)``. ``indent`` turns off CPython's C encoder, so :func:`_dumps`
lays out dicts and nested lists itself and hands each list of plain scalars
(a part's edge indices, a label vector) to the C encoder in one call, with
``",\n"`` plus the indentation as its item separator.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from lidecomp import __version__
from lidecomp.constants import (
    ConstantProfile,
    REFERENCE_PROFILE,
    check_profile,
    min_feasible_d,
    optimize_profile,
)
from lidecomp.dcs import DcsInstance, solve as dcs_solve
from lidecomp.errors import BudgetError, InputError, json_int
from lidecomp.exact import is_decomposable, min_parts, witness_parts
from lidecomp.graphs import (
    Graph,
    generate_circulant,
    generate_regular,
    read_graph,
    validate_edge_subset,
    write_graph,
)
from lidecomp.pipeline import decompose_to_four, verify_decomposition
from lidecomp.rounding import FractionalEdgeWeights, balanced_round, verify_rounding


def _manifest(command: str, args: argparse.Namespace, keys: list[str]) -> dict:
    data = {"command": command}
    for key in keys:
        data[key] = getattr(args, key)
    return data


_SCALARS = frozenset((int, float, str, bool, type(None)))


def _dumps(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, each line after the first led by ``pad``.

    Dicts with string keys and lists recurse here; a list of scalars is one
    call of the C encoder, which ``indent`` would turn off. Anything else is
    left to ``json.dumps`` itself (JSON text has no raw newline inside a
    string, so indenting its lines is safe).
    """
    inner = pad + "  "
    if type(obj) is dict and obj and set(map(type, obj)) == {str}:
        body = (",\n" + inner).join(
            f"{json.dumps(key)}: {_dumps(obj[key], inner)}" for key in sorted(obj)
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if type(obj) in (list, tuple) and obj:
        if set(map(type, obj)) <= _SCALARS:
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join(_dumps(item, inner) for item in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _emit(payload: dict, out: str | None) -> None:
    text = _dumps(payload) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_profile(path: str | None) -> ConstantProfile:
    if path is None:
        return REFERENCE_PROFILE
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read profile: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"profile is not valid JSON: {exc}") from None
    profile = ConstantProfile.from_json(data)
    profile.validate()
    return profile


def _load_json(path: str) -> dict | list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def cmd_gen_regular(args: argparse.Namespace) -> tuple[dict, bool]:
    g = generate_regular(args.n, args.d, seed=args.seed)
    write_graph(g, args.out_graph)
    payload = {
        "manifest": _manifest("gen-regular", args, ["n", "d", "seed", "out_graph"]),
        "vertices": g.n,
        "edges": g.m,
        "path": args.out_graph,
    }
    return payload, True


def cmd_gen_circulant(args: argparse.Namespace) -> tuple[dict, bool]:
    try:
        offsets = [int(tok) for tok in args.offsets.split(",") if tok]
    except ValueError:
        raise InputError(f"offsets must be comma-separated integers: {args.offsets!r}") from None
    g = generate_circulant(args.n, offsets)
    write_graph(g, args.out_graph)
    payload = {
        "manifest": _manifest("gen-circulant", args, ["n", "offsets", "out_graph"]),
        "vertices": g.n,
        "edges": g.m,
        "degree": g.degrees[0] if g.n else 0,
        "path": args.out_graph,
    }
    return payload, True


def cmd_decompose(args: argparse.Namespace) -> tuple[dict, bool]:
    g = read_graph(args.input)
    profile = _load_profile(args.profile)
    result = decompose_to_four(
        g,
        profile,
        mode=args.mode,
        seed=args.seed,
        max_rounds=args.max_rounds,
        restarts=args.restarts,
    )
    payload = result.to_json()
    payload["manifest"] = _manifest(
        "decompose", args, ["input", "profile", "mode", "seed", "max_rounds", "restarts"]
    )
    return payload, result.success


def cmd_verify(args: argparse.Namespace) -> tuple[dict, bool]:
    g = read_graph(args.graph)
    data = _load_json(args.decomp)
    if not isinstance(data, dict) or "parts" not in data:
        raise InputError(f"{args.decomp}: expected a JSON object with a 'parts' field")
    try:
        parts = tuple(frozenset(json_int(i) for i in part) for part in data["parts"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{args.decomp}: malformed parts: {exc}") from None
    for part in parts:
        validate_edge_subset(g, part)
    cover_ok, verdicts, conflicts = verify_decomposition(g, parts)
    ok = cover_ok and all(verdicts)
    if not cover_ok:
        print("parts do not partition the edge set", file=sys.stderr)
    eu, ev = g.endpoint_arrays()
    for part_idx, conf in enumerate(conflicts):
        for i in conf:
            u, v = eu[i], ev[i]
            print(f"part {part_idx}: conflicting edge {i} = ({u},{v})", file=sys.stderr)
    payload = {
        "manifest": _manifest("verify", args, ["graph", "decomp"]),
        "cover_ok": cover_ok,
        "verdicts": list(verdicts),
        "conflicts": [list(c) for c in conflicts],
        "passed": ok,
    }
    return payload, ok


def cmd_exact(args: argparse.Namespace) -> tuple[dict, bool]:
    g = read_graph(args.input)
    payload: dict = {
        "manifest": _manifest(
            "exact", args, ["input", "k", "min_parts", "node_budget", "force"]
        )
    }
    if args.min_parts:
        best = min_parts(g, args.k, node_budget=args.node_budget, force=args.force)
        payload["min_parts"] = best
        return payload, best is not None
    ok, witness = is_decomposable(g, args.k, node_budget=args.node_budget, force=args.force)
    payload["decomposable"] = ok
    if ok and witness is not None:
        payload["parts"] = [sorted(p) for p in witness_parts(g, witness, args.k)]
        payload["verdicts"] = [True] * args.k
    return payload, ok


def cmd_round(args: argparse.Namespace) -> tuple[dict, bool]:
    g = read_graph(args.input)
    if (args.z is None) == (args.z_file is None):
        raise InputError("provide exactly one of --z and --z-file")
    if args.z is not None:
        try:
            weights = FractionalEdgeWeights.constant(g, Fraction(args.z))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"cannot parse weight {args.z!r}") from None
    else:
        values = []
        try:
            fh = open(args.z_file, "r", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read {args.z_file}: {exc}") from None
        with fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    values.append(Fraction(line))
                except (ValueError, ZeroDivisionError):
                    raise InputError(f"{args.z_file}: line {ln}: bad weight {line!r}") from None
        weights = FractionalEdgeWeights.from_values(g, values)
    labels = balanced_round(weights)
    report = verify_rounding(weights, labels)
    payload = {
        "manifest": _manifest("round", args, ["input", "z", "z_file", "seed"]),
        "x": list(labels.values),
        "passed": report.passed,
        "drifts": list(report.drifts),
    }
    return payload, report.passed


def _targets(path: str, values) -> tuple[int, ...]:
    try:
        return tuple(json_int(x) for x in values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed targets: {exc}") from None


def cmd_dcs(args: argparse.Namespace) -> tuple[dict, bool]:
    g = read_graph(args.input)
    data = _load_json(args.t_file)
    if isinstance(data, dict):
        if "lambda" in data and args.lam is not None:
            raise InputError("instance file already fixes lambda; drop --lambda")
        if "lambda" in data:
            inst = DcsInstance.from_json(g, data)
        else:
            if args.lam is None:
                raise InputError("need --lambda when the instance file has none")
            if "t" not in data:
                raise InputError(f"{args.t_file}: instance object has no 't' field")
            inst = DcsInstance(g, (args.lam,) * g.n, _targets(args.t_file, data["t"]))
    elif isinstance(data, list):
        if args.lam is None:
            raise InputError("need --lambda with a bare target list")
        inst = DcsInstance(g, (args.lam,) * g.n, _targets(args.t_file, data))
    else:
        raise InputError(f"{args.t_file}: expected an object or list")
    cert = dcs_solve(inst, seed=args.seed, restarts=args.restarts, strict=not args.relaxed)
    payload = cert.to_json()
    payload["manifest"] = _manifest(
        "dcs", args, ["input", "lam", "t_file", "seed", "restarts", "relaxed"]
    )
    return payload, cert.passed


def cmd_constants_check(args: argparse.Namespace) -> tuple[dict, bool]:
    profile = _load_profile(args.profile)
    report = check_profile(profile, args.d)
    payload = report.to_json()
    payload["profile"] = profile.to_json()
    payload["manifest"] = _manifest("constants check", args, ["d", "profile"])
    return payload, report.passed


def cmd_constants_min_d(args: argparse.Namespace) -> tuple[dict, bool]:
    profile = _load_profile(args.profile)
    d = min_feasible_d(profile)
    payload = {
        "manifest": _manifest("constants min-d", args, ["profile"]),
        "profile": profile.to_json(),
        "min_d": d,
    }
    return payload, True


def cmd_constants_optimize(args: argparse.Namespace) -> tuple[dict, bool]:
    profile, d = optimize_profile(seed=args.seed, budget=args.budget)
    payload = {
        "manifest": _manifest("constants optimize", args, ["seed", "budget"]),
        "profile": profile.to_json(),
        "min_d": d,
    }
    return payload, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidecomp",
        description="Decompose regular graphs into four locally irregular subgraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-regular", help="sample a random regular graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out_graph", required=True, help="graph file to write")
    p.set_defaults(func=cmd_gen_regular, out=None)

    p = sub.add_parser("gen-circulant", help="build a deterministic circulant graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--offsets", required=True, help="comma-separated offsets in 1..n/2")
    p.add_argument("--out", dest="out_graph", required=True, help="graph file to write")
    p.set_defaults(func=cmd_gen_circulant, out=None)

    p = sub.add_parser("decompose", help="run the full four-part pipeline")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--profile", default=None, help="profile JSON (default: built-in constants)")
    p.add_argument("--mode", choices=["strict", "best-effort"], default="strict")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=200)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="verify a decomposition JSON against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--decomp", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exhaustive small-graph decomposability oracle")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--min-parts", action="store_true")
    p.add_argument("--node-budget", type=int, default=2_000_000)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("round", help="balanced 0/1 rounding of edge weights")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--z", default=None, help="constant weight, e.g. 0.5 or 1/2")
    p.add_argument("--z-file", default=None, help="file with one weight per edge")
    p.add_argument(
        "--seed", type=int, default=0, help="recorded in the manifest; rounding is deterministic"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("dcs", help="degree-constrained subgraph solver")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--t-file", required=True, help="instance JSON: list of targets or object")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--relaxed", action="store_true", help="skip the degree preconditions")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dcs)

    p = sub.add_parser("constants", help="feasibility system for the constant profile")
    csub = p.add_subparsers(dest="subcommand", required=True)

    c = csub.add_parser("check", help="evaluate every constraint at a degree")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--profile", default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_constants_check)

    c = csub.add_parser("min-d", help="smallest feasible degree for a profile")
    c.add_argument("--profile", default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_constants_min_d)

    c = csub.add_parser("optimize", help="search for a profile with a smaller feasible degree")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--budget", type=int, default=200)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_constants_optimize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, ok = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    payload["version"] = __version__
    _emit(payload, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: list manifolds, run identity suites, classify, integrate.

Exit codes are a stable CI contract: 0 all checks pass, 1 identity violation
(or unconfirmed truth tag), 2 usage or configuration errors and any other
``Weyl4Error``, such as a metric that fails at a sampled point, printed as one
``error:`` line, and 3 an internal error: any other exception, a defect of
weyl4 rather than of its input, with its traceback on stderr.  Reports embed
full convention metadata and are byte-identical for identical flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Optional, Sequence

from . import Weyl4Error
from .catalog import (
    ManifoldSpec,
    builtin_manifolds,
    get_manifold,
    load_manifold_config,
    normalize_tag,
)
from .conditions import (
    CONVENTIONS,
    QuadratureSpec,
    check_integral_formulas,
    classify_structure,
    evaluate_integrand,
    integrate_density,
    run_suite,
)

DENSITIES = {
    "qJ": "q_j",
    "rt2": "rt2",
    "ricstarminus2": "ric_star_minus2",
    "nablaJ2": "nabla_j2",
    "nablaJ4": "nabla_j4",
    "S": "s",
    "wplus2": "wplus2",
    "S2": "s2",
}

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


def _resolve_manifold(args) -> ManifoldSpec:
    if getattr(args, "config", None):
        if getattr(args, "manifold", None):
            raise UsageError("give either a manifold id or --config, not both")
        return load_manifold_config(args.config)
    name = getattr(args, "manifold", None)
    if not name:
        raise UsageError("a manifold id (or --config PATH) is required")
    return get_manifold(name)


class UsageError(Weyl4Error):
    pass


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_list(args) -> int:
    specs = builtin_manifolds()
    if args.tags:
        wanted = {normalize_tag(t) for t in args.tags.split(",")}
        specs = [s for s in specs if wanted <= set(s.tags)]
    if args.format == "json":
        rows = [
            {
                "id": s.id,
                "coords": list(s.coords),
                "tags": sorted(s.tags),
                "compact": s.compact,
                "domain": [[lo, hi] for lo, hi in s.domain],
                "has_structure": s.has_j,
                "notes": s.notes,
            }
            for s in specs
        ]
        _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)
        return EXIT_OK
    lines = [f"{'id':26s} {'compact':8s} {'tags':42s} domain"]
    for s in specs:
        tags = ",".join(sorted(s.tags) + (["compact"] if s.compact else []))
        dom = " ".join(f"[{lo:g},{hi:g}]" for lo, hi in s.domain)
        lines.append(f"{s.id:26s} {str(s.compact).lower():8s} {tags:42s} {dom}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    spec = _resolve_manifold(args)
    identities = [t.strip() for t in args.identities.split(",")] if args.identities else None
    report = run_suite(spec, n_points=args.points, seed=args.seed, tol_pass=args.tol_pass, tol_fail=args.tol_fail,
                       identities=identities, rotations=args.rotations)
    _emit({"json": report.to_json, "csv": report.to_csv}.get(args.format, report.to_text)(), args.out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_classify(args) -> int:
    spec = _resolve_manifold(args)
    verdict, residuals = classify_structure(
        spec, n_points=args.points, seed=args.seed,
        tol_pass=args.tol_pass, tol_fail=args.tol_fail,
    )
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "manifold": spec.id,
            "points": args.points,
            "seed": args.seed,
            "verdict": verdict,
            "residuals": residuals,
            "conventions": dict(CONVENTIONS),
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(f"{spec.id}: {verdict}\n"
              + "".join(f"  {k}: {v:.3e}\n" for k, v in sorted(residuals.items())), args.out)
    return EXIT_OK if verdict != "indeterminate" else EXIT_VIOLATION


def cmd_integrate(args) -> int:
    spec = _resolve_manifold(args)
    if args.density and args.formula:
        raise UsageError("give either --density or --formula, not both: each reports its own error estimate")
    if not args.density and not args.formula:
        raise UsageError("integrate needs --density NAME or --formula eq117|eq118|both")
    quad = QuadratureSpec(seed=args.seed)
    payload = {
        "schema_version": 1,
        "manifold": spec.id,
        "seed": args.seed,
        "conventions": dict(CONVENTIONS),
    }
    if args.density:
        if args.density not in DENSITIES:
            raise UsageError(f"unknown density '{args.density}' (known: {', '.join(DENSITIES)})")
        key = DENSITIES[args.density]
        result = integrate_density(spec, lambda p: evaluate_integrand(spec, p)[key], quad, spec.read_axes())
        payload.update(density=args.density, value=float(result.value), error=float(result.error),
                       volume=float(result.volume), used_constancy_shortcut=result.used_constancy_shortcut)
    else:
        report = check_integral_formulas(spec, quad)
        names = {"eq117": "i117", "eq118": "i118", "eq116_integrated": "eq116_integrated"}
        payload.update(formula={k: report[v] for k, v in names.items() if args.formula in (k, "both")},
                       volume=report["volume"], Q=report["Q"], error=report["error_estimate"],
                       used_constancy_shortcut=report["used_constancy_shortcut"])
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = [f"{spec.id}: volume = {payload['volume']!r}"]
        if "value" in payload:
            lines.append(f"  {args.density} integral = {payload['value']!r} +/- {payload['error']:.3e}")
        if "formula" in payload:
            for k, v in sorted(payload["formula"].items()):
                lines.append(f"  {k} = {v!r}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyl4",
        description="Curvature and integrability-identity checks for almost Hermitian 4-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list builtin manifolds")
    p_list.add_argument("--tags", help="comma-separated tag filter")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.add_argument("--out")
    p_list.set_defaults(func=cmd_list)

    def common(p):
        p.add_argument("manifold", nargs="?", help="builtin manifold id")
        p.add_argument("--config", help="manifold config file instead of a builtin id")
        p.add_argument("--seed", type=non_negative_int, default=0)
        p.add_argument("--out")

    def sampling(p):
        common(p)
        p.add_argument("--points", type=int, default=25)
        p.add_argument("--tol-pass", type=float, default=1e-8, dest="tol_pass")
        p.add_argument("--tol-fail", type=float, default=1e-4, dest="tol_fail")

    p_check = sub.add_parser("check", help="run the identity suite")
    sampling(p_check)
    p_check.add_argument("--identities", help="comma-separated identity filter (e.g. EQ01,EQ42)")
    p_check.add_argument("--rotations", type=int, default=0,
                         help="extra random quaternionic-supplement rotations per point")
    p_check.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_check.set_defaults(func=cmd_check)

    p_cls = sub.add_parser("classify", help="Kahler / almost-Kahler / Hermitian / generic verdict")
    sampling(p_cls)
    p_cls.add_argument("--format", choices=("json", "text"), default="text")
    p_cls.set_defaults(func=cmd_classify)

    p_int = sub.add_parser("integrate", help="compact-domain integrals")
    common(p_int)
    p_int.add_argument("--density", help=f"density name ({', '.join(DENSITIES)})")
    p_int.add_argument("--formula", choices=("eq117", "eq118", "both"))
    p_int.add_argument("--format", choices=("json", "text"), default="json")
    p_int.set_defaults(func=cmd_integrate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Weyl4Error as exc:
        # usage errors, bad configs, and manifolds that fail at a point the
        # config validation did not sample
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # never 1, which would read a crash as a violation
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

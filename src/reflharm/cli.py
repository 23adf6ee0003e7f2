"""Command-line surface over the library.

Five commands: `group` summarises a reflection group (order, hyperplane
arrangement, invariant degrees, skew product), `harmonics` prints the
graded harmonic basis, `factorise` runs the full tensor-factorisation
verification, `fake-degrees` emits character-table degrees with their
fake-degree polynomials, and `count` evaluates the split or twisted
counting polynomial for a root-system pair.

Groups come either from the built-in catalog (--catalog weyl:C:3) or
from a JSON file of generator matrices (--generators FILE).  Output is
JSON by default, deterministic byte-for-byte: objects are emitted with
sorted keys and a trailing newline.  --format text renders the same data
for reading; each command builds only the format requested, so no JSON
dict is built for text and no text line for JSON.  --out writes to a file
instead of stdout.

Exit codes: 0 success (for factorise: every check passed), 1 usage
error (a --group-cap below 1 among them), 2 resource cap exceeded, 3
verification or domain failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .characters import character_table, fake_degrees
from .errors import CapError, DomainError, UsageError, VerificationError
from .factorisation import verify_factorisation
from .groups import ReflectionGroup, catalog, matrix_from_json
from .harmonics import harmonic_basis, harmonic_poincare, invariant_degrees
from .rootdata import subsystem_preset
from .scalars import RatPoly
from .weyl import TwistData, split_report, twisted_report

GROUP_CAP = 10000
DEGREE_CAP = 40


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the
    # library's usage error instead so main() can map it to exit 1
    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args fills a
    fresh namespace on every call, so no option carries over."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default="json", help="output format")
    common.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")

    gspec = argparse.ArgumentParser(add_help=False)
    gspec.add_argument("--catalog", metavar="NAME",
                       help="catalog name such as weyl:B:2 or cyclic:6")
    gspec.add_argument("--generators", metavar="FILE",
                       help="JSON file with generator matrices")
    gspec.add_argument("--group-cap", type=int, default=GROUP_CAP,
                       metavar="N", help="group closure cap")

    parser = _Parser(prog="reflharm",
                     description="exact harmonic and counting computations "
                                 "for finite reflection groups")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    sub.add_parser("group", parents=[common, gspec],
                   help="summarise a reflection group")
    p = sub.add_parser("harmonics", parents=[common, gspec],
                       help="graded harmonic basis")
    p.add_argument("--max-degree", type=int, default=DEGREE_CAP,
                   metavar="D", help="largest degree to emit")
    p = sub.add_parser("factorise", parents=[common, gspec],
                       help="verify the harmonic tensor factorisation")
    p.add_argument("--subgroup-reflections", metavar="LIST", required=True,
                   help="comma-separated indices into the group's "
                        "reflection list, defining the subgroup")
    sub.add_parser("fake-degrees", parents=[common, gspec],
                   help="character degrees and fake-degree polynomials")
    p = sub.add_parser("count", parents=[common],
                       help="counting polynomial for a subsystem")
    p.add_argument("datum", help="root datum label such as C2 or G2")
    p.add_argument("subsystem",
                   help="subsystem name such as long-A1A1, A1C2 or full")
    p.add_argument("--twist", metavar="FILE",
                   help="JSON twist description (F0 matrix plus weight)")
    return parser


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:
        raise UsageError("malformed JSON in %s: %s" % (path, exc))


def _resolve_group(args) -> ReflectionGroup:
    by_catalog, by_file = args.catalog, args.generators
    if (by_catalog is None) == (by_file is None):
        raise UsageError("give exactly one of --catalog or --generators")
    if args.group_cap < 1:
        raise UsageError("--group-cap must be at least 1, got %d"
                         % args.group_cap)
    if by_catalog is not None:
        return catalog(by_catalog, cap=args.group_cap)
    data = _load_json_file(by_file)
    if not isinstance(data, dict) or \
            not isinstance(data.get("generators"), list):
        raise UsageError("generator file needs a 'generators' array")
    mats = [matrix_from_json(mat) for mat in data["generators"]]
    return ReflectionGroup(mats, cap=args.group_cap,
                           name=str(data.get("name", "custom")))


def _poly_text(poly: RatPoly, var: str) -> str:
    if not poly:
        return "0"
    parts = []
    for k, c in enumerate(poly.coeffs):
        if not c:
            continue
        positive = c > 0
        mag = c if positive else -c
        if k == 0:
            term = str(mag)
        else:
            body = var if k == 1 else "%s^%d" % (var, k)
            term = body if mag == 1 else "%s*%s" % (mag, body)
        if not parts:
            parts.append(term if positive else "-" + term)
        else:
            parts.append(("+ " if positive else "- ") + term)
    return " ".join(parts)


def _cmd_group(args):
    group = _resolve_group(args)
    degrees = invariant_degrees(group)
    poincare = harmonic_poincare(group)
    planes = group.hyperplanes()
    skew = group.skew_contravariant()
    if args.format == "json":
        return {
            "name": group.name,
            "dim": group.dim,
            "order": group.order,
            "reflection_count": group.reflection_count,
            "degrees": list(degrees),
            "poincare": poincare.to_json(),
            "hyperplanes": [{"form": str(pl.form), "order": pl.order,
                             "reflections": len(pl.reflections)}
                            for pl in planes],
            "skew": skew.to_json(),
            "skew_text": str(skew),
        }, 0
    lines = ["group %s" % group.name,
             "dimension: %d" % group.dim,
             "order: %d" % group.order,
             "reflections: %d" % group.reflection_count,
             "degrees: %s" % " ".join(str(d) for d in degrees),
             "poincare: %s" % _poly_text(poincare, "t"),
             "skew product: %s" % skew,
             "hyperplanes:"]
    lines += ["  %s  (order %d)" % (pl.form, pl.order) for pl in planes]
    return lines, 0


def _cmd_harmonics(args):
    group = _resolve_group(args)
    basis = harmonic_basis(group)
    shown = [d for d in sorted(basis.degrees) if d <= args.max_degree]
    if args.format == "json":
        return {
            "name": group.name,
            "order": group.order,
            "dimension": basis.dimension(),
            "poincare": basis.poincare().to_json(),
            "degrees": {str(d): [p.to_json() for p in basis.basis(d)]
                        for d in shown},
        }, 0
    lines = ["harmonics of %s" % group.name,
             "dimension: %d" % basis.dimension(),
             "poincare: %s" % _poly_text(basis.poincare(), "t")]
    for d in shown:
        lines.append("degree %d:" % d)
        lines += ["  %s" % p for p in basis.basis(d)]
    return lines, 0


def _cmd_factorise(args):
    group = _resolve_group(args)
    picks = []
    for chunk in args.subgroup_reflections.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            picks.append(int(chunk))
        except ValueError:
            raise UsageError("reflection index %r is not an integer"
                             % (chunk,))
    if not picks:
        raise UsageError("no subgroup reflections given")
    sub = group.reflection_subgroup(picks, name="%s-sub" % group.name)
    report = verify_factorisation(group, sub)
    ok = (report.bijective and report.dim_identity
          and report.poincare_equal
          and all(flag for _, flag in report.equivariance_checks)
          and all(entry["collinear"] for entry in report.dual_scalars))
    code = 0 if ok else 3
    if args.format == "json":
        return report.to_json(), code
    return ["factorisation of %s over %s" % (group.name, sub.name),
            "degrees: %s" % " ".join(str(d) for d in report.degrees),
            "subgroup degrees: %s" % " ".join(str(d)
                                              for d in report.sub_degrees),
            "bijective: %s" % report.bijective,
            "dimension identity: %s" % report.dim_identity,
            "poincare equal: %s" % report.poincare_equal,
            "equivariance checks passed: %d/%d"
            % (sum(1 for _, f in report.equivariance_checks if f),
               len(report.equivariance_checks)),
            "dual pairs collinear: %d/%d"
            % (sum(1 for e in report.dual_scalars if e["collinear"]),
               len(report.dual_scalars)),
            "all checks passed" if ok else "CHECKS FAILED"], code


def _cmd_fake_degrees(args):
    group = _resolve_group(args)
    table = character_table(group)
    fakes = fake_degrees(group)
    if args.format == "json":
        return {
            "name": group.name,
            "order": group.order,
            "class_sizes": list(table.classes.sizes),
            "degrees": list(table.degrees),
            "fake_degrees": [poly.to_json() for poly in fakes],
        }, 0
    lines = ["fake degrees of %s (%d irreducibles)"
             % (group.name, len(table))]
    for deg, poly in zip(table.degrees, fakes):
        lines.append("  dim %d: %s" % (deg, _poly_text(poly, "t")))
    return lines, 0


def _cmd_count(args):
    name = "%s:%s" % (args.datum, args.subsystem)
    sub = subsystem_preset(name)
    datum = sub.datum
    if args.twist is None:
        report = split_report(datum, sub)
    else:
        twist = TwistData.from_json(_load_json_file(args.twist))
        report = twisted_report(datum, sub, twist)
    if args.format == "json":
        return report, 0
    poly = RatPoly.from_json(report["polynomial"])
    lines = ["count for %s subsystem %s" % (args.datum, args.subsystem),
             "N: %d" % report["N"],
             "N': %d" % report["Nprime"],
             "|C|: %d" % report["C_order"],
             "polynomial: %s" % _poly_text(poly, "q")]
    if "stabilizes_ambient_simples" in report:
        lines.append("twist stabilizes ambient simples: %s"
                     % report["stabilizes_ambient_simples"])
    return lines, 0


# each command returns (output, exit code): the JSON data under
# --format json, the text lines under --format text
_COMMANDS = {
    "group": _cmd_group,
    "harmonics": _cmd_harmonics,
    "factorise": _cmd_factorise,
    "fake-degrees": _cmd_fake_degrees,
    "count": _cmd_count,
}


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (out_path, exc))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        out, code = _COMMANDS[args.command](args)
        if args.format == "json":
            text = json.dumps(out, indent=2, sort_keys=True) + "\n"
        else:
            text = "\n".join(out) + "\n"
        _emit(text, args.out)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except CapError as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 2
    except (DomainError, VerificationError) as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

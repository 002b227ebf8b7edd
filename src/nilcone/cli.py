"""Command-line surface for the library.

Weights on the command line are comma-separated pairings with the simple
coroots (fundamental-weight coordinates).  For adjoint presets only
root-lattice weights exist, so e.g. A1-adj labels must be even; results are
printed back in the same coordinates.  Output is deterministic: everything
is sorted, polynomials serialize as exponent/coefficient pairs with decimal
strings, never floats.

Exit codes: 0 success, 1 domain/configuration error, 2 resource error.
"""

import argparse
import sys

from .errors import ConfigurationError, DomainError, ResourceError, require_int
from .roots import build_datum, supported_presets
from . import characters, qanalog, reps, homspaces, sl2

SCHEMA = "nilcone-satake/1"


def _parse_weight(datum, text):
    try:
        coords = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise DomainError("weight must be comma-separated integers, got %r" % text)
    return datum.weight_from_pairing(coords)


def _show_weight(datum, weight):
    return ",".join(str(c) for c in datum.pairing_coords(weight))


def _parse_subset(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise DomainError("subset must be comma-separated integers, got %r" % text)


def _dim_cap(text):
    """--dim-cap, by the library's rule: DomainError unless an int >= 1."""
    try:
        cap = int(text)
    except ValueError:
        cap = text
    return require_int(cap, "dim_cap", 1, None)


def _poly_tsv(poly):
    return "\n".join("%d\t%s" % (e, c) for e, c in poly.pairs()) or "0\t0"


def _emit(args, result, tsv_text):
    """Write the result as JSON or as tsv_text, to --out or stdout.  json
    is imported only here, so tsv output and error lines never load it."""
    if args.output == "json":
        import json
        text = json.dumps({"schema": SCHEMA, "result": result},
                          sort_keys=True, separators=(",", ":"))
    else:
        text = tsv_text
    if args.out_path:
        try:
            with open(args.out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise DomainError("cannot write %r: %s"
                              % (args.out_path, exc.strerror or exc))
    else:
        sys.stdout.write(text + "\n")


def _decomposition_payload(datum, entries):
    items = sorted(entries.items(),
                   key=lambda kv: (datum.pair_2rho_check(kv[0]), kv[0]))
    as_json = {_show_weight(datum, w): m for w, m in items}
    as_tsv = "\n".join("%s\t%d" % (_show_weight(datum, w), m) for w, m in items)
    return as_json, as_tsv


def cmd_roots(args):
    datum = build_datum(args.preset)
    roots = datum.positive_roots()
    payload = [{"weight": _show_weight(datum, r.weight),
                "height": r.height} for r in roots]
    tsv = "\n".join("%s\t%d" % (row["weight"], row["height"]) for row in payload)
    _emit(args, payload, tsv)


def cmd_tensor(args):
    datum = build_datum(args.preset)
    lhs = _parse_weight(datum, args.lhs)
    rhs = _parse_weight(datum, args.rhs)
    dec = characters.tensor_decompose(datum, lhs, rhs)
    as_json, as_tsv = _decomposition_payload(datum, dec)
    _emit(args, as_json, as_tsv)


def cmd_branch(args):
    datum = build_datum(args.preset)
    subset = _parse_subset(args.subset)
    lam = _parse_weight(datum, args.weight)
    dec = characters.restrict_to_levi(datum, subset, lam)
    as_json, as_tsv = _decomposition_payload(datum, dec)
    _emit(args, as_json, as_tsv)


def cmd_qanalog(args):
    datum = build_datum(args.preset)
    lam = _parse_weight(datum, args.lam)
    mu = _parse_weight(datum, args.mu)
    poly = qanalog.lusztig_q_analog(datum, lam, mu)
    _emit(args, poly.to_json(), _poly_tsv(poly))


def cmd_bk_verify(args):
    datum = build_datum(args.preset)
    nu = _parse_weight(datum, args.nu)
    lam = _parse_weight(datum, args.lam)
    ok, actual, predicted = reps.verify_theorem_filtrations(
        datum, nu, lam, dim_cap=args.dim_cap)
    result = {"equal": ok, "filtration": actual.to_json(),
              "predicted": predicted.to_json()}
    tsv = "equal\t%s\nfiltration\t%s\npredicted\t%s" % (
        ok, str(actual), str(predicted))
    _emit(args, result, tsv)
    return 0 if ok else 1


def _parse_free_object(datum, text):
    summands = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "@" in part:
            wtext, dtext = part.split("@", 1)
            try:
                degree = int(dtext)
            except ValueError:
                raise DomainError("degree must be an integer, got %r" % dtext)
        else:
            wtext, degree = part, 0
        summands.append((_parse_weight(datum, wtext), degree))
    return homspaces.free_object(summands)


def cmd_hom(args):
    datum = build_datum(args.preset)
    source = _parse_free_object(datum, args.source)
    target = _parse_free_object(datum, args.target)
    if args.route in ("kostant", "both"):
        kostant = homspaces.hom_profile_kostant(datum, source, target)
    if args.route in ("slice", "both"):
        slice_table = homspaces.hom_profile_slice(datum, source, target,
                                                  dim_cap=args.dim_cap)
    if args.route == "kostant":
        table = kostant
    elif args.route == "slice":
        table = slice_table
    else:
        if kostant != slice_table:
            key = min(k for k in kostant.keys() | slice_table.keys()
                      if kostant.get(k) != slice_table.get(k))
            raise DomainError(
                "dual-route disagreement on %s at (internal %d, cohomological "
                "%d): kostant %d, slice %d; this is a bug"
                % (datum.name, key[0], key[1], kostant.get(key, 0),
                   slice_table.get(key, 0)))
        table = kostant
    payload = homspaces.profile_to_json(source, target, table)
    tsv = "\n".join("%d\t%d\t%d" % (d, k, v)
                    for (d, k), v in sorted(table.items()))
    _emit(args, payload, tsv)


def cmd_hilbert(args):
    datum = build_datum(args.preset)
    poly = qanalog.hilbert_series_nilcone(datum, args.truncation)
    _emit(args, poly.to_json(), _poly_tsv(poly))


def cmd_poincare(args):
    datum = build_datum(args.preset)
    poly = reps.poincare_gr(datum, args.truncation)
    _emit(args, poly.to_json(), _poly_tsv(poly))


_SL2_KINDS = {"delta": "standard", "nabla": "costandard", "proj": "projective"}


def cmd_sl2_table(args):
    kind = _SL2_KINDS.get(args.object, args.object)
    try:
        labels = [int(t) for t in args.labels.split(",")] if args.labels else \
            list(range(-8, 10, 2))
    except ValueError:
        raise DomainError("labels must be comma-separated integers, got %r"
                          % args.labels)
    rows = sl2.table_rows((kind,), labels)
    payload = [list(r) for r in rows]
    tsv = "\n".join("%s\t%d\t%d\t%d\t%d" % r for r in rows)
    _emit(args, payload, tsv)


def cmd_sl2_profile(args):
    try:
        lo, hi = (int(t) for t in args.window.split(":"))
    except ValueError:
        raise DomainError("window must be lo:hi, got %r" % args.window)
    profiles = sl2.hom_complex_profile(args.k, (lo, hi))
    payload = {str(i): {str(n): d for n, d in sorted(profiles[i].items())}
               for i in sorted(profiles)}
    lines = []
    for i in sorted(profiles, reverse=True):
        for n in sorted(profiles[i]):
            lines.append("%d\t%d\t%d" % (i, n, profiles[i][n]))
    _emit(args, payload, "\n".join(lines))


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError: one error line and exit 1, where
    argparse would print its usage and exit 2, the resource-error code."""

    def error(self, message):
        raise DomainError(message)


def build_parser():
    parser = _Parser(
        prog="nilcone",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", required=True,
                       help="one of: %s" % ", ".join(supported_presets()))
        p.add_argument("--output", choices=("json", "tsv"), default="json")
        p.add_argument("--out", dest="out_path", default=None,
                       help="write the result to this file instead of stdout")

    p = sub.add_parser("roots", help="positive roots of a preset")
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("tensor", help="tensor product decomposition")
    common(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("branch", help="restriction to a Levi subgroup")
    common(p)
    p.add_argument("--subset", default="",
                   help="comma-separated simple root indices (empty = torus)")
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("qanalog", help="Lusztig q-analog of a weight multiplicity")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_qanalog)

    p = sub.add_parser("bk-verify",
                       help="kernel filtration against the q-analog prediction")
    common(p)
    p.add_argument("--nu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--dim-cap", dest="dim_cap", type=_dim_cap,
                   default=reps.DEFAULT_DIM_CAP)
    p.set_defaults(func=cmd_bk_verify)

    p = sub.add_parser("hom", help="graded Hom profile between free objects")
    common(p)
    p.add_argument("--source", required=True,
                   help="semicolon-separated summands weight@degree")
    p.add_argument("--target", required=True)
    p.add_argument("--route", choices=("kostant", "slice", "both"),
                   default="kostant")
    p.add_argument("--dim-cap", dest="dim_cap", type=_dim_cap,
                   default=reps.DEFAULT_DIM_CAP)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("hilbert", help="Hilbert series of the cone ring")
    common(p)
    p.add_argument("--truncation", type=int, default=20)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("poincare", help="series of the centralizer symmetric algebra")
    common(p)
    p.add_argument("--truncation", type=int, default=20)
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("sl2-table", help="rank-one flag tables")
    p.add_argument("--object", required=True,
                   help="delta | nabla | proj (or the long names)")
    p.add_argument("--labels", default="",
                   help="comma-separated even labels (default -8..8)")
    p.add_argument("--output", choices=("json", "tsv"), default="tsv")
    p.add_argument("--out", dest="out_path", default=None)
    p.set_defaults(func=cmd_sl2_table)

    p = sub.add_parser("sl2-profile", help="rank-one Hom-complex profiles")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--window", default="-6:0", help="index window lo:hi")
    p.add_argument("--output", choices=("json", "tsv"), default="json")
    p.add_argument("--out", dest="out_path", default=None)
    p.set_defaults(func=cmd_sl2_profile)

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        return 0 if code is None else code
    except (DomainError, ConfigurationError) as exc:
        sys.stderr.write("error\tdomain\t%s\n" % exc)
        return 1
    except ResourceError as exc:
        sys.stderr.write("error\tresource\t%s\n" % exc)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

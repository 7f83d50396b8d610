"""Command-line front end.

One subcommand per library surface, each with ``--format {text,json}``
(default text).  Exit codes: 0 success, 1 domain error (a machine-readable
JSON object goes to stderr), 2 usage error.  All numeric flags are parsed
as arbitrary-precision integers; divisibilities easily exceed 64 bits.

Importing this module loads none of the library layers, nor ``argparse``
or ``json``: each subcommand imports what it runs when it runs, so a
process pays only for the layers its subcommand uses.  The imports read
each module's attributes at call time, so a function rebound there (by a
tracer, say) is the one called.
"""

from __future__ import annotations

import os
import sys

from . import __version__

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    import argparse

    from ._record import Family

__all__ = ["main", "build_parser"]


def _family(text: str) -> Family:
    from ._record import Family

    families = {**Family.__members__, "CPHALF": Family.CPHALF_TIMES_SPHERE}
    try:
        return families[text.upper()]
    except KeyError:
        import argparse

        raise argparse.ArgumentTypeError(
            f"unknown family {text!r}; choose CPN or CPHALF_TIMES_SPHERE"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="circleact",
        description=(
            "Decide whether a highly connected odd-dimensional manifold "
            "admits a free circle action, and inspect every number in the "
            "computation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, run) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(run=run)

    p = sub.add_parser("classify", help="decide a manifold class (n, b_n, l)")
    p.add_argument("--n", type=int, required=True, help="dimension parameter, 5 or 7 mod 8")
    p.add_argument("--bn", type=int, required=True, help="middle Betti number")
    p.add_argument("--l", type=int, default=None, help="middle Pontrjagin divisibility")
    add_common(p, _cmd_classify)

    p = sub.add_parser("bernoulli", help="table of B_k, den(B_k), den(B_k/4k)")
    p.add_argument("--max", type=int, required=True, help="largest index k")
    add_common(p, _cmd_bernoulli)

    p = sub.add_parser("imj", help="den(B_k/4k), the image-of-J index")
    p.add_argument("--k", type=int, required=True)
    add_common(p, _cmd_imj)

    p = sub.add_parser("ahat", help="degree-k multiplicative-sequence polynomial")
    p.add_argument("--k", type=int, required=True)
    add_common(p, _cmd_ahat)

    p = sub.add_parser("divisor", help="divisor report for n = 7 mod 8")
    p.add_argument("--n", type=int, required=True)
    add_common(p, _cmd_divisor)

    p = sub.add_parser("gysin", help="total-space cohomology over a standard orbit model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", type=_family, required=True, help="CPN or CPHALF_TIMES_SPHERE")
    p.add_argument("--r", type=int, required=True, help="number of handle summands")
    add_common(p, _cmd_gysin)

    p = sub.add_parser("recipe", help="orbit-space recipe for an admitting class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bn", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    add_common(p, _cmd_recipe)

    p = sub.add_parser("selftest", help="run the library invariant suites")
    p.add_argument("--only", action="append", default=None, metavar="SUBSTRING",
                   help="run only checks whose name contains this (repeatable)")
    add_common(p, _cmd_selftest)

    return parser


def _emit(payload: dict, text_lines: list[str], fmt: str, out) -> None:
    if fmt == "json":
        import json

        print(json.dumps(payload), file=out)
    else:
        for line in text_lines:
            print(line, file=out)


def _fail(error: dict) -> int:
    """Report a domain error as one JSON line on stderr; exit code 1."""
    _emit(error, [], "json", sys.stderr)
    return 1


def _cmd_classify(args, out) -> int:
    from .classifier import ManifoldInvariants, classify

    result = classify(ManifoldInvariants(n=args.n, b_n=args.bn, l=args.l))
    lines = [
        f"admits free circle action: {'yes' if result.admits else 'no'}",
        f"reason: {result.reason.value}",
    ]
    if result.divisors:
        lines.append(f"required divisor: {result.divisors.required}")
        lines.append(f"realizability divisor: {result.divisors.kervaire}")
    if result.witness:
        w = result.witness
        n = args.n
        parts = []
        if w.sphere_product_copies:
            parts.append(f"#_{w.sphere_product_copies}(S^{n} x S^{n + 1})")
        if w.bundle_divisibility is not None:
            parts.append(
                f"S^{n}-bundle over S^{n + 1} with divisibility {w.bundle_divisibility}"
            )
        desc = " # ".join(parts) if parts else f"S^{2 * n + 1} (homotopy sphere)"
        lines.append(f"normal form: {desc}")
    if result.orbit:
        lines.append(f"orbit space: {result.orbit.describe()}")
    for note in result.notes:
        lines.append(f"note: {note}")
    _emit(result.to_json_dict(), lines, args.format, out)
    return 0


def _cmd_bernoulli(args, out) -> int:
    from .bernoulli import table_rows

    rows = table_rows(args.max)
    payload = [{"k": k, "bernoulli": str(b), "den": d, "j_index": j} for k, b, d, j in rows]
    # CSV with csv.writer's \r\n line ends (print adds the \n); no field
    # ever needs quoting
    lines = ["k,bernoulli,den,j_index\r", *(",".join(map(str, row)) + "\r" for row in rows)]
    _emit(payload, lines, args.format, out)
    return 0


def _cmd_imj(args, out) -> int:
    from .bernoulli import im_j_order

    value = im_j_order(args.k)
    _emit({"k": args.k, "j_index": value}, [str(value)], args.format, out)
    return 0


def _cmd_ahat(args, out) -> int:
    from .genus import multiplicative_sequence

    poly = multiplicative_sequence(args.k)
    _emit(poly.to_json_dict(), [str(poly)], args.format, out)
    return 0


def _cmd_divisor(args, out) -> int:
    from .classifier import required_divisor

    report = required_divisor(args.n)
    payload = report.to_json_dict()
    lines = [f"{key}: {value}" for key, value in payload.items()]
    _emit(payload, lines, args.format, out)
    return 0


def _cmd_gysin(args, out) -> int:
    from .gradedtop import gysin_total_space, standard_orbit_model

    model = standard_orbit_model(args.n, args.family, args.r)
    h = gysin_total_space(model)
    lines = []
    for j, rank in enumerate(h.ranks):
        if rank:
            lines.append(f"H^{j} = Z" + (f"^{rank}" if rank > 1 else ""))
    _emit(h.to_json_dict(), lines, args.format, out)
    return 0


def _cmd_recipe(args, out) -> int:
    from .classifier import ManifoldInvariants, classify

    result = classify(ManifoldInvariants(n=args.n, b_n=args.bn, l=args.l))
    if not result.admits:
        return _fail({
            "admits": False,
            "reason": result.reason.value,
            "error": "no free circle action up to almost diffeomorphism",
        })
    lines = [result.orbit.describe(), *(f"note: {note}" for note in result.notes)]
    _emit(result.orbit.to_json_dict(), lines, args.format, out)
    return 0


def _cmd_selftest(args, out) -> int:
    from .selftest import run

    report = run(args.only)
    payload = {
        "passed": report.passed,
        "failed": report.failed,
        "failures": [{"name": n, "error": e} for n, e in report.failures],
    }
    lines = [
        *(f"FAIL {name}: {error}" for name, error in report.failures),
        f"passed {report.passed}, failed {report.failed}",
    ]
    _emit(payload, lines, args.format, out)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code (argparse exits 2 on usage errors,
    and a reader that closes stdout early gets exit 1 with no message).

    The interpreter's int<->str digit limit is lifted while ``main`` runs,
    so numeric flags and outputs of any length convert exactly.  stderr
    carries only machine-readable errors.
    """
    # Python < 3.10.7 has neither the limit nor its setter
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.run(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so the
        # interpreter's final flush stays quiet, as the signal docs advise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError) as exc:
        from .classifier import InvalidInvariantsError

        if isinstance(exc, InvalidInvariantsError):
            return _fail({
                "admits": False,
                "reason": "UNREALIZABLE",
                "error": "invalid manifold invariants",
                "violations": exc.violations,
            })
        return _fail({"error": str(exc)})
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())

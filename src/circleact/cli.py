"""Command-line front end.

One subcommand per library surface, each with ``--format {text,json}``
(default text).  Exit codes: 0 success, 2 usage error, 1 domain error, with
one JSON line on stderr: the object the error carries as ``to_json_dict()``,
else ``{"error": message}``.  All numeric flags are parsed as
arbitrary-precision integers; divisibilities easily exceed 64 bits.

Importing this module loads none of the library layers, nor ``argparse``
or ``json``: each subcommand imports what it runs when it runs, so a
process pays only for the layers its subcommand uses.  The imports read
each module's attributes at call time, so a function rebound there (by a
tracer, say) is the one called.

Each subcommand computes its result once and returns two zero-argument
views of it, its JSON payload and its text lines; ``main`` calls only the
view that ``--format`` asks for.  One writer, ``_write``, prints every line
the CLI prints, the JSON error line on stderr included.
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


def _write(lines, file=None) -> None:
    """Print each line to ``file`` (stdout by default); the CLI's one writer."""
    for line in lines:
        print(line, file=file)


def _json(payload) -> list[str]:
    import json

    return [json.dumps(payload)]


class _Refusal(ValueError):
    """A domain error that carries its own JSON error object."""

    def to_json_dict(self) -> dict:
        return self.args[0]


def _cmd_classify(args):
    from .classifier import ManifoldInvariants, classify

    result = classify(ManifoldInvariants(n=args.n, b_n=args.bn, l=args.l))

    def text():
        yield f"admits free circle action: {'yes' if result.admits else 'no'}"
        yield f"reason: {result.reason.value}"
        if result.divisors:
            yield f"required divisor: {result.divisors.required}"
            yield f"realizability divisor: {result.divisors.kervaire}"
        if result.witness:
            w, n = result.witness, args.n
            parts = []
            if w.sphere_product_copies:
                parts.append(f"#_{w.sphere_product_copies}(S^{n} x S^{n + 1})")
            if w.bundle_divisibility is not None:
                parts.append(
                    f"S^{n}-bundle over S^{n + 1} with divisibility {w.bundle_divisibility}"
                )
            desc = " # ".join(parts) if parts else f"S^{2 * n + 1} (homotopy sphere)"
            yield f"normal form: {desc}"
        if result.orbit:
            yield f"orbit space: {result.orbit.describe()}"
        for note in result.notes:
            yield f"note: {note}"

    return result.to_json_dict, text


def _cmd_bernoulli(args):
    from .bernoulli import table_rows

    rows = table_rows(args.max)
    return (
        lambda: [{"k": k, "bernoulli": str(b), "den": d, "j_index": j} for k, b, d, j in rows],
        # CSV with csv.writer's \r\n line ends (print adds the \n); no field
        # ever needs quoting
        lambda: ["k,bernoulli,den,j_index\r", *(",".join(map(str, row)) + "\r" for row in rows)],
    )


def _cmd_imj(args):
    from .bernoulli import im_j_order

    value = im_j_order(args.k)
    return lambda: {"k": args.k, "j_index": value}, lambda: [str(value)]


def _cmd_ahat(args):
    from .genus import multiplicative_sequence

    poly = multiplicative_sequence(args.k)
    return poly.to_json_dict, lambda: [str(poly)]


def _cmd_divisor(args):
    from .classifier import required_divisor

    report = required_divisor(args.n)
    return report.to_json_dict, lambda: (
        f"{key}: {value}" for key, value in report.to_json_dict().items()
    )


def _cmd_gysin(args):
    from .gradedtop import gysin_total_space, standard_orbit_model

    h = gysin_total_space(standard_orbit_model(args.n, args.family, args.r))
    return h.to_json_dict, lambda: (
        f"H^{j} = Z" + (f"^{rank}" if rank > 1 else "") for j, rank in enumerate(h.ranks) if rank
    )


def _cmd_recipe(args):
    from .classifier import ManifoldInvariants, classify

    result = classify(ManifoldInvariants(n=args.n, b_n=args.bn, l=args.l))
    if not result.admits:
        raise _Refusal({"admits": False, "reason": result.reason.value,
                        "error": "no free circle action up to almost diffeomorphism"})
    orbit, notes = result.orbit, result.notes
    return orbit.to_json_dict, lambda: [orbit.describe(), *(f"note: {note}" for note in notes)]


def _cmd_selftest(args):
    """The views, and exit code 1 when a check failed."""
    from .selftest import run

    report = run(args.only)
    return (
        lambda: {
            "passed": report.passed,
            "failed": report.failed,
            "failures": [{"name": n, "error": e} for n, e in report.failures],
        },
        lambda: [
            *(f"FAIL {name}: {error}" for name, error in report.failures),
            f"passed {report.passed}, failed {report.failed}",
        ],
        0 if report.ok else 1,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code (argparse exits 2 on usage errors,
    and a reader that closes stdout early gets exit 1 with no message).

    The interpreter's int<->str digit limit is lifted while ``main`` runs,
    so numeric flags and outputs of any length convert exactly.
    """
    # Python < 3.10.7 has neither the limit nor its setter
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        json_view, text_view, *code = args.run(args)
        _write(_json(json_view()) if args.format == "json" else text_view())
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code[0] if code else 0  # only selftest returns an exit code
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so the
        # interpreter's final flush stays quiet, as the signal docs advise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError) as exc:
        to_json_dict = getattr(exc, "to_json_dict", None)
        _write(_json(to_json_dict() if to_json_dict else {"error": str(exc)}), sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())

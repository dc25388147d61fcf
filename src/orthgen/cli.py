"""Command line over the JSON interchange formats.

Verbs: gen prints one generator matrix, verify runs a predicate on a
matrix, decompose and factor emit factorization records, identities
replays the relation battery, check-horrocks judges a splitting
certificate.  Exit codes: 0 success or accept, 1 verified false or
reject (including decomposition preconditions that fail on otherwise
well-formed input), 2 usage or parse error, which main catches as an
OrthgenError, ValueError or OSError.  Indices on the command line are
1-based.  Payloads travel on stdin/stdout unless --file is given.
ORTHGEN_SEED, when set, replaces the default suite seed.  Integer flags
and ORTHGEN_SEED are read like the ring grammar's integers: an optional
minus and ASCII digits, so 4_2, +3 and other scripts' digits exit 2.
"""

import argparse
import functools
import json
import os
import sys

from .decompose import (
    HorrocksInstance,
    check_horrocks_instance,
    factor_alt,
    factor_to,
    factor_unipotent,
    local_decompose,
    tmt_decompose,
)
from .errors import IndexOutOfRange, JSONFormatError, NotMonomial, OrthgenError
from .generators import eval_word, gen_F, gen_oe
from .identity_suite import run_suite
from .quadratic_space import (
    FormContext,
    Matrix,
    embed_blocks,
    is_orthogonal,
    matrices_congruent,
    monomial_pattern,
    unitriangular_inverse,
)
from .rings import (
    IdealDescriptor,
    _parse_int,
    canonical_json,
    ring_from_string,
    scalar_from_string,
)

__all__ = ["main", "main_entry"]


def _emit(obj) -> None:
    """Write one line of canonical JSON: a dict by the encoder, anything else by its own to_text."""
    sys.stdout.write((canonical_json(obj) if isinstance(obj, dict) else obj.to_text()) + "\n")


def _complain(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_payload(path):
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise JSONFormatError("payload nests too deeply") from None


def _odd_context(m: Matrix) -> FormContext:
    if m.dim < 3 or m.dim % 2 == 0:
        raise IndexOutOfRange(f"no odd split space has dimension {m.dim}")
    return FormContext((m.dim - 1) // 2)


# --- verb handlers ------------------------------------------------------------


def _cmd_gen(args) -> int:
    ring = ring_from_string(args.ring)
    z = scalar_from_string(ring, args.z)
    if args.fam == "OE":
        if args.j is None:
            raise IndexOutOfRange("OE needs --j")
        m = gen_oe(FormContext(args.n, odd=False), args.i, args.j, z)
    else:
        m = gen_F(FormContext(args.n), args.fam, args.i, args.j, z)
    _emit(m)
    return 0


def _cmd_verify(args) -> int:
    m = Matrix.from_json(_read_payload(args.file))
    if args.what == "orthogonal":
        ok = is_orthogonal(m, FormContext(m.dim // 2, odd=m.dim % 2 == 1))
        detail = "preserves the form" if ok else "does not preserve the form"
    elif args.what == "monomial":
        try:
            ok, detail = True, [r + 1 for r in monomial_pattern(m)]
        except NotMonomial as exc:
            ok, detail = False, str(exc)
    else:
        ok = matrices_congruent(m, Matrix.identity(m.ring, m.dim), IdealDescriptor(args.ideal))
        word = "congruent" if ok else "not congruent"
        detail = f"{word} to the identity mod {args.ideal}"
    _emit({"detail": detail, "ok": ok})
    return 0 if ok else 1


def _cmd_decompose(args) -> int:
    m = Matrix.from_json(_read_payload(args.file))
    upper = not args.lower
    try:
        if args.mode in ("tmt", "local"):
            split = tmt_decompose if args.mode == "tmt" else local_decompose
            dec = split(m, _odd_context(m))
            expect, redone, result = m, dec.recompose(), dec
        else:
            if args.mode == "unipotent":
                ctx = FormContext(m.dim)
                word = factor_unipotent(m, upper, ctx)
                expect = embed_blocks(ctx, m.ring, uu=m, vv=unitriangular_inverse(m.transpose()))
            elif args.mode == "alt":
                ctx = FormContext(m.dim)
                word = factor_alt(m, upper, ctx)
                expect = embed_blocks(ctx, m.ring, uv=m) if upper else embed_blocks(ctx, m.ring, vu=m)
            else:
                word = factor_to(m, _odd_context(m))
                expect = m
            redone, result = eval_word(word), word
        if args.check and redone != expect:
            raise OrthgenError("recomposition mismatch")
    except OrthgenError as exc:
        return _complain(str(exc), 1)
    _emit(result)  # past the try, so an unprintable result exits 2 through main
    return 0


def _cmd_identities(args) -> int:
    if args.samples < 1:
        return _complain(f"--samples must be at least 1, got {args.samples}", 2)
    if args.all:
        selection = "all"
    else:
        selection = tuple(
            s for s in (t.strip() for t in args.items.split(",")) if s
        )
    seed = args.seed
    if seed is None:
        raw = os.environ.get("ORTHGEN_SEED", "42")
        seed = _parse_int(raw.strip(), ValueError(f"ORTHGEN_SEED must be an integer, got {raw!r}"))
    report = run_suite(selection, seed, args.samples)
    _emit(report.to_json())
    return 0 if report.total_failures == 0 else 1


def _cmd_check_horrocks(args) -> int:
    verdict = check_horrocks_instance(HorrocksInstance.from_json(_read_payload(args.file)))
    _emit(verdict)
    return 0 if verdict["accepted"] else 1


# --- parser -------------------------------------------------------------------


def _int_flag(text: str) -> int:
    """An integer flag read like every other integer: optional minus, ASCII digits."""
    return _parse_int(text.strip(), argparse.ArgumentTypeError(f"invalid int value: {text!r}"))


def _add_file_flag(sub) -> None:
    sub.add_argument("--file", default=None, help="input path, stdin when absent")


def _add_block_flags(sub) -> None:
    side = sub.add_mutually_exclusive_group()
    side.add_argument(
        "--upper",
        action="store_true",
        help="block orientation for alt/unipotent inputs (default)",
    )
    side.add_argument("--lower", action="store_true")
    sub.add_argument(
        "--check",
        action="store_true",
        help="re-multiply and require exact recomposition before printing",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and
    # building it takes over a millisecond, a tenth of a small request.
    parser = argparse.ArgumentParser(
        prog="orthgen",
        description="Generators, verification, and decompositions for odd "
        "split orthogonal groups, over exact JSON payloads.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    gen = verbs.add_parser("gen", help="print one generator matrix")
    gen.add_argument("--fam", required=True, choices=("F1", "F2", "F3", "F4", "F5", "OE"))
    gen.add_argument("--i", type=_int_flag, required=True)
    gen.add_argument("--j", type=_int_flag, default=None)
    gen.add_argument("--z", required=True, help="parameter scalar, e.g. 2, -1/2, or scalar JSON")
    gen.add_argument("--n", type=_int_flag, required=True, help="hyperbolic rank")
    gen.add_argument("--ring", required=True, help="e.g. Q, Fp:5, Zpk:3:2, trunc:F5:3, poly:Q, laurent:Q")
    gen.set_defaults(func=_cmd_gen)

    verify = verbs.add_parser("verify", help="run a predicate on a matrix")
    verify.add_argument(
        "--what", required=True, choices=("orthogonal", "monomial", "congruent")
    )
    verify.add_argument(
        "--ideal",
        default="max",
        choices=IdealDescriptor.KINDS,
        help="ideal for --what congruent",
    )
    _add_file_flag(verify)
    verify.set_defaults(func=_cmd_verify)

    decompose = verbs.add_parser("decompose", help="factor a matrix")
    decompose.add_argument(
        "--mode", required=True, choices=("tmt", "local", "to", "alt", "unipotent")
    )
    _add_file_flag(decompose)
    _add_block_flags(decompose)
    decompose.set_defaults(func=_cmd_decompose)

    factor = verbs.add_parser("factor", help="closed-form block factorizations")
    factor.add_argument("--mode", required=True, choices=("to", "alt", "unipotent"))
    _add_file_flag(factor)
    _add_block_flags(factor)
    factor.set_defaults(func=_cmd_decompose)

    ident = verbs.add_parser("identities", help="replay the relation battery")
    which = ident.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--items", help="comma-separated item ids")
    ident.add_argument("--seed", type=_int_flag, default=None)
    ident.add_argument("--samples", type=_int_flag, default=100)
    ident.set_defaults(func=_cmd_identities)

    horrocks = verbs.add_parser(
        "check-horrocks", help="judge a splitting certificate"
    )
    _add_file_flag(horrocks)
    horrocks.set_defaults(func=_cmd_check_horrocks)
    return parser


def _fuse_scalar_flags(argv):
    # argparse reads "-1/2" as an unknown flag; fuse such values onto --z.
    out = []
    skip = False
    for pos, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[pos + 1] if pos + 1 < len(argv) else None
        if tok == "--z" and nxt is not None and nxt.startswith("-") and nxt != "-":
            out.append(f"--z={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_fuse_scalar_flags(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except (OrthgenError, ValueError, OSError) as exc:
        # Bad input, an unreadable file and what no verb maps to exit 1,
        # such as an entry too large to print, exit 2 with nothing written.
        return _complain(str(exc), 2)


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()

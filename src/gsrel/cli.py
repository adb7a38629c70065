"""Command-line front end.

Subcommands:
  check-semiring SPEC           semiring axioms and derived property flags
  classify SPEC --variant V     dual-oracle monad flags + Kleisli flags
  eval TERMFILE INTERP          evaluate a diagram term to a weighted relation
  eq TERMFILE TERMFILE INTERP   decide equality of two diagram terms
  taxonomy                      the full law suite over the catalog

Exit codes: 0 pass, 1 refutation / oracle disagreement / term inequality,
2 usage or file-format errors.  Structured output is deterministic under a
fixed seed, so the suite doubles as a CI gate and its reports diff cleanly.

Each run builds one document: its rows for taxonomy, one JSON object for
the other subcommands.  --format structured writes that document and
--format human renders it as text, from the document alone, so the two
formats carry the same facts.  For the other subcommands, --format
structured writes exactly the bytes of json.dumps(doc, indent=2); a test
checks it.

SPEC is a catalog name (listed by `gsrel check-semiring --help`) or a path
to a JSON table file.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .diagram import (
    DiagramError,
    check_term_equality,
    evaluate_term,
    load_interpretation,
    parse_term_file,
    print_term,
)
from .report import DEFAULT_BUDGET
from .semiring import (
    CATALOG,
    SemiringError,
    check_semiring_laws,
    classify_semiring,
    load_semiring,
)
from .taxonomy import (
    DEFAULT_OPS,
    SuiteArgumentError,
    classify_kleisli,
    classify_monad,
    entries_to_jsonl,
    entries_to_table,
    run_theorem_suite,
    suite_failures,
    _json_safe,
)
from .weightmap import VARIANTS, WeightMapError
from .wrel import BoundaryError, WRelFormatError, wrel_to_doc


class UsageError(ValueError):
    """Bad configuration or malformed input file; maps to exit code 2."""


def _parse_sizes(raw: str) -> tuple:
    try:
        sizes = tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise UsageError(f"--sizes expects comma-separated integers, got {raw!r}") from None
    if not sizes:
        raise UsageError(f"--sizes is an empty list, got {raw!r}")
    if any(s < 0 for s in sizes):
        raise UsageError(f"--sizes expects nonnegative entries, got {raw!r}")
    return sizes


def _check_options(args) -> None:
    """Parse --sizes in place and reject a nonpositive --budget or --samples."""
    if "sizes" in vars(args):
        args.sizes = _parse_sizes(args.sizes)
    for name in ("budget", "samples"):
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise UsageError(f"--{name} must be positive")


def _load_semiring_arg(spec: str):
    try:
        return load_semiring(_read_json(spec) if os.path.exists(spec) else spec)
    except SemiringError as e:
        raise UsageError(str(e)) from None


def _emit(text: str, out: str | None) -> None:
    """Write to --out or stdout; an unwritable --out path exits 2."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"{out}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def _read_text(path: str) -> str:
    """The one reader of input files; unreadable or non-UTF-8 files exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"{path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from None


def _suite_kwargs(args) -> dict:
    """Keyword arguments shared by the law suites, which check them."""
    kwargs = {"sizes": args.sizes, "budget": args.budget, "seed": args.seed}
    if args.samples is not None:
        kwargs["samples"] = args.samples
    return kwargs


# ---------------------------------------------------------------------------
# subcommands


def _indented_json(o, pad: str = "\n") -> str:
    """json.dumps(o, indent=2), byte for byte, for o nested at pad's depth.

    Strings, ints, and non-empty lists and str-keyed dicts of them are
    written here, a list of strings in one join.  Any other value, the
    empty containers included, goes to json.dumps itself, re-indented to the
    depth: its ASCII text has no newline but those of its layout.  With an
    indent, json.dumps on Python 3.11 runs its pure-Python encoder, which
    takes about twice as long over eval and eq documents."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is list and o:
        inner = pad + "  "
        sep = "," + inner
        if type(o[0]) is str:
            try:
                return "[" + inner + sep.join(map(encode_basestring_ascii, o)) + pad + "]"
            except TypeError:  # an item past the first is not a str
                pass
        return "[" + inner + sep.join([_indented_json(x, inner) for x in o]) + pad + "]"
    if t is dict and o and all(type(k) is str for k in o):
        inner = pad + "  "
        items = [encode_basestring_ascii(k) + ": " + _indented_json(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if t is int:
        return int.__repr__(o)
    return json.dumps(o, indent=2).replace("\n", pad)


def _write(args, doc: dict, render) -> None:
    """Write the run's one document: as JSON, or as the human lines that
    render makes from the document alone, so both formats carry one set of
    facts."""
    lines = [_indented_json(doc)] if args.format == "structured" else render(doc)
    _emit("\n".join(lines) + "\n", args.out)


def cmd_check_semiring(args) -> int:
    sr = _load_semiring_arg(args.semiring)
    reports = check_semiring_laws(sr, budget=args.budget, seed=args.seed)
    doc = {
        "semiring": sr.name,
        "laws": [
            {
                "law": r.law,
                "status": r.status,
                "witness": _json_safe(r.witness),
                "checks_performed": r.checks_performed,
            }
            for r in reports
        ],
        "profile": {
            name: {"value": r.passed, "status": r.status, "witness": _json_safe(r.witness)}
            for name, r in classify_semiring(sr, seed=args.seed).reports.items()
        },
    }
    _write(args, doc, _semiring_lines)
    return 0 if all(r.passed for r in reports) else 1


def _semiring_lines(doc: dict) -> list:
    lines = [f"semiring: {doc['semiring']}"]
    for r in doc["laws"]:
        tail = "" if r["witness"] is None else f" witness={r['witness']}"
        lines.append(f"  {r['law']}: {r['status']} ({r['checks_performed']} checks){tail}")
    lines.append("profile:")
    for name, flag in doc["profile"].items():
        tail = "" if flag["witness"] is None else f"  witness: {flag['witness']}"
        lines.append(f"  {name}: {json.dumps(flag['value'])} [{flag['status']}]{tail}")
    return lines


def cmd_classify(args) -> int:
    variants = list(dict.fromkeys(args.variant or ["M"]))
    if len(variants) > 1:
        raise UsageError(f"classify takes one --variant; got {', '.join(variants)}")
    sr = _load_semiring_arg(args.semiring)
    [variant] = variants
    kwargs = _suite_kwargs(args)
    mc = classify_monad(variant, sr, ops=args.ops, **kwargs)
    kc = classify_kleisli(variant, sr, **kwargs)
    doc = {
        "semiring": sr.name,
        "variant": variant,
        "monad_flags": {
            name: {
                "value": fv.value,
                "pointwise": fv.pointwise.passed,
                "diagram": fv.diagram.passed,
                "well_posed": fv.well_posed,
                "consistent": fv.consistent,
            }
            for name, fv in mc.flags.items()
        },
        "closure": {
            name: {"status": r.status, "witness": _json_safe(r.witness)}
            for name, r in mc.closure.items()
        },
        "kleisli_flags": kc.flags,
        "kleisli_witnesses": {
            name: _json_safe(r.witness) for name, r in kc.reports.items() if r.witness is not None
        },
        "oracle_disagreements": [f for f, fv in mc.flags.items() if not fv.consistent],
    }
    _write(args, doc, _classify_lines)
    return 1 if doc["oracle_disagreements"] else 0


def _classify_lines(doc: dict) -> list:
    lines = [f"semiring: {doc['semiring']}", f"variant: {doc['variant']}", "monad flags:"]
    for name, flag in doc["monad_flags"].items():
        gate = "" if flag["well_posed"] else " (not well-posed: closure failed)"
        mark = "" if flag["consistent"] else "  ORACLE DISAGREEMENT"
        lines.append(
            f"  {name}: {json.dumps(flag['value'])} [pointwise={json.dumps(flag['pointwise'])}"
            f" diagram={json.dumps(flag['diagram'])}]{gate}{mark}"
        )
    lines.append("closure:")
    for name, r in doc["closure"].items():
        lines.append(f"  {name}: {r['status']}")
        if r["witness"] is not None:
            lines.append(f"    witness: {r['witness']}")
    lines.append("kleisli flags:")
    witnesses = doc["kleisli_witnesses"]
    for name, value in doc["kleisli_flags"].items():
        lines.append(f"  {name}: {json.dumps(value)}")
        if name in witnesses:
            lines.append(f"    witness: {witnesses[name]}")
    if doc["oracle_disagreements"]:
        lines.append(f"oracle disagreements: {', '.join(doc['oracle_disagreements'])}")
    return lines


def _select_term(terms: dict, path: str, requested: str | None):
    if requested is not None:
        if requested not in terms:
            raise UsageError(
                f"{path}: no term named {requested!r}; available: {', '.join(sorted(terms))}"
            )
        return terms[requested]
    if "main" in terms:
        return terms["main"]
    if len(terms) == 1:
        return next(iter(terms.values()))
    raise UsageError(
        f"{path}: multiple terms and no 'main'; pick one with --term "
        f"(available: {', '.join(sorted(terms))})"
    )


def cmd_eval(args) -> int:
    terms = parse_term_file(_read_text(args.termfile))
    interp = load_interpretation(_read_json(args.interp))
    term = _select_term(terms, args.termfile, args.term)
    doc = {
        "term": print_term(term),
        "semiring": interp.semiring.name,
        "arrow": wrel_to_doc(interp.semiring, evaluate_term(term, interp)),
    }
    _write(args, doc, _eval_lines)
    return 0


def _eval_lines(doc: dict) -> list:
    arrow = doc["arrow"]
    dom, cod = (",".join(s["name"] for s in arrow[side]) for side in ("dom", "cod"))
    lines = [f"term: {doc['term']}", f"boundary: [{dom}] -> [{cod}]"]
    if not arrow["entries"]:
        lines.append("  (zero arrow)")
    for x, y, value in arrow["entries"]:
        lines.append(f"  ({','.join(x)}) -> ({','.join(y)}) : {value}")
    return lines


def cmd_eq(args) -> int:
    left_terms = parse_term_file(_read_text(args.left))
    right_terms = parse_term_file(_read_text(args.right))
    interp = load_interpretation(_read_json(args.interp))
    t1 = _select_term(left_terms, args.left, args.left_term)
    t2 = _select_term(right_terms, args.right, args.right_term)
    report = check_term_equality(t1, t2, interp, law="cmd/eq")
    doc = {
        "left": print_term(t1),
        "right": print_term(t2),
        "semiring": interp.semiring.name,
        "status": report.status,
        "witness": _json_safe(report.witness),
        "checks_performed": report.checks_performed,
    }
    _write(args, doc, _eq_lines)
    return 0 if report.passed else 1


def _eq_lines(doc: dict) -> list:
    lines = [f"left:  {doc['left']}", f"right: {doc['right']}"]
    w = doc["witness"]
    if w is None:
        lines.append(f"equal ({doc['status']}, {doc['checks_performed']} entries compared)")
    else:
        lines.append(
            f"NOT EQUAL at row {w['row']}, column {w['col']}: "
            f"left={w['left']} right={w['right']}"
        )
    return lines


def cmd_taxonomy(args) -> int:
    loaded = [_load_semiring_arg(s) for s in args.semiring or CATALOG]
    variants = args.variant or VARIANTS
    entries = run_theorem_suite(loaded, variants, ops=args.ops, **_suite_kwargs(args))
    write = entries_to_jsonl if args.format == "structured" else entries_to_table
    _emit(write(entries), args.out)
    return 1 if suite_failures(entries) else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, laws=True, sizes=True):
    if laws:
        budget = (
            "upper bound on --samples"
            if sizes
            else "enumerate a finite carrier's triples up to this many, else sample"
        )
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=budget)
        p.add_argument("--seed", type=int, default=0, help="base seed for sampled checks")
    if sizes:
        p.add_argument("--sizes", default="0,1,2", help="comma-separated set sizes, default 0,1,2")
        p.add_argument("--samples", type=int, default=None, help="sampled cases per law")
    p.add_argument(
        "--format", choices=("human", "structured"), default="human", help="output format"
    )
    p.add_argument("--out", default=None, help="write the report to this path")


def _check_semiring_args(p) -> None:
    p.add_argument("semiring", help=f"catalog name ({', '.join(CATALOG)}) or JSON table path")
    _add_common(p, sizes=False)
    p.set_defaults(func=cmd_check_semiring)


def _classify_args(p) -> None:
    p.add_argument("semiring", help="catalog name or JSON table path")
    p.add_argument(
        "--variant",
        action="append",
        default=None,
        help=f"one of {', '.join(VARIANTS)} (default M); a repeat of it runs once",
    )
    _add_common(p)
    p.set_defaults(func=cmd_classify)


def _eval_args(p) -> None:
    p.add_argument("termfile", help="diagram term file")
    p.add_argument("interp", help="interpretation JSON file")
    p.add_argument("--term", default=None, help="binding to evaluate (default: main)")
    _add_common(p, laws=False, sizes=False)
    p.set_defaults(func=cmd_eval)


def _eq_args(p) -> None:
    p.add_argument("left", help="first term file")
    p.add_argument("right", help="second term file")
    p.add_argument("interp", help="interpretation JSON file")
    p.add_argument("--left-term", default=None, help="binding in the first file")
    p.add_argument("--right-term", default=None, help="binding in the second file")
    _add_common(p, laws=False, sizes=False)
    p.set_defaults(func=cmd_eq)


def _taxonomy_args(p) -> None:
    p.add_argument(
        "--semiring",
        action="append",
        default=None,
        help="restrict to this semiring (repeatable)",
    )
    p.add_argument(
        "--variant", action="append", default=None, help="restrict to this variant (repeatable)"
    )
    _add_common(p)
    p.set_defaults(func=cmd_taxonomy)


# name: (help, adds its arguments and function), in the order --help lists them
_COMMANDS = {
    "check-semiring": ("check semiring axioms and derived flags", _check_semiring_args),
    "classify": ("dual-oracle classification of a variant over a semiring", _classify_args),
    "eval": ("evaluate a diagram term file under an interpretation", _eval_args),
    "eq": ("decide equality of two diagram term files", _eq_args),
    "taxonomy": ("run the full law suite over the catalog", _taxonomy_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The gsrel parser with every subcommand, or with only the one named."""
    parser = argparse.ArgumentParser(
        prog="gsrel",
        description="Semiring-weighted relations: law checking, classification, diagram evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        if command in (None, name):
            add_args(sub.add_parser(name, help=help_text))
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """build_parser().parse_args(argv), building only the subparser that
    argv[0] names.  A help request, an unknown command and any argument
    that subparser leaves over go to the full tree, so every help and usage
    text is the full tree's: an extra argument, say, is refused with the
    usage line that lists every command."""
    if argv and argv[0] in _COMMANDS and "-h" not in argv and "--help" not in argv:
        args, rest = build_parser(argv[0]).parse_known_args(argv)
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None, _ops_override=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    args.ops = _ops_override or DEFAULT_OPS
    try:
        _check_options(args)
        return args.func(args)
    except (
        UsageError,
        DiagramError,
        SuiteArgumentError,
        WRelFormatError,
        BoundaryError,
        WeightMapError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

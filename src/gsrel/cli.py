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

SPEC is a catalog name (listed by `gsrel check-semiring --help`) or a path
to a JSON table file.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

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
    classify_kleisli,
    classify_monad,
    entries_to_jsonl,
    entries_to_table,
    run_theorem_suite,
    suite_failures,
    _json_safe,
)
from .weightmap import VARIANTS, WeightMapError, word_labels
from .wrel import BoundaryError, WRelFormatError, _value_label, _word_str, wrel_to_doc


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


def _suite_kwargs(args, variants) -> dict:
    """Keyword arguments shared by the law suites, once the variants check out."""
    for v in variants:
        if v not in VARIANTS:
            raise UsageError(f"--variant must be one of {', '.join(VARIANTS)}; got {v!r}")
    kwargs = {"sizes": args.sizes, "budget": args.budget, "seed": args.seed}
    if args.samples is not None:
        kwargs["samples"] = args.samples
    return kwargs


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_semiring(args) -> int:
    sr = _load_semiring_arg(args.semiring)
    reports = check_semiring_laws(sr, budget=args.budget, seed=args.seed)
    profile = classify_semiring(sr, seed=args.seed)
    flags = profile.flags()
    if args.format == "structured":
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
                name: {
                    "value": value,
                    "status": profile.reports[name].status,
                    "witness": _json_safe(profile.reports[name].witness),
                }
                for name, value in flags.items()
            },
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"semiring: {sr.name}"]
        for r in reports:
            lines.append(f"  {r.brief()}")
        lines.append("profile:")
        for name, value in flags.items():
            rep = profile.reports[name]
            extra = ""
            if rep.witness is not None:
                extra = f"  witness: {_json_safe(rep.witness)}"
            lines.append(f"  {name}: {str(value).lower()} [{rep.status}]{extra}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_classify(args) -> int:
    variants = list(dict.fromkeys(args.variant or ["M"]))
    if len(variants) > 1:
        raise UsageError(f"classify takes one --variant; got {', '.join(variants)}")
    sr = _load_semiring_arg(args.semiring)
    [variant] = variants
    kwargs = _suite_kwargs(args, variants)
    mc = classify_monad(variant, sr, ops=args.ops, **kwargs)
    kc = classify_kleisli(variant, sr, **kwargs)
    disagreements = [f for f, fv in mc.flags.items() if not fv.consistent]
    if args.format == "structured":
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
            "kleisli_flags": {
                name: kc.flags[name] for name in kc.flags
            },
            "kleisli_witnesses": {
                name: _json_safe(r.witness)
                for name, r in kc.reports.items()
                if r.witness is not None
            },
            "oracle_disagreements": disagreements,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"semiring: {sr.name}", f"variant: {variant}", "monad flags:"]
        for name, fv in mc.flags.items():
            mark = "" if fv.consistent else "  ORACLE DISAGREEMENT"
            gate = "" if fv.well_posed else " (not well-posed: closure failed)"
            lines.append(
                f"  {name}: {str(fv.value).lower()}"
                f" [pointwise={str(fv.pointwise.passed).lower()}"
                f" diagram={str(fv.diagram.passed).lower()}]{gate}{mark}"
            )
        lines.append("closure:")
        for name, r in mc.closure.items():
            lines.append(f"  {name}: {r.status}")
            if r.witness is not None:
                lines.append(f"    witness: {_json_safe(r.witness)}")
        lines.append("kleisli flags:")
        for name, value in kc.flags.items():
            rep = kc.reports.get(name)
            lines.append(f"  {name}: {str(value).lower()}")
            if rep is not None and rep.witness is not None:
                lines.append(f"    witness: {_json_safe(rep.witness)}")
        if disagreements:
            lines.append(f"oracle disagreements: {', '.join(disagreements)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if disagreements else 0


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
    arrow = evaluate_term(term, interp)
    if args.format == "structured":
        doc = {
            "term": print_term(term),
            "semiring": interp.semiring.name,
            "arrow": wrel_to_doc(interp.semiring, arrow),
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        sr = interp.semiring
        lines = [f"term: {print_term(term)}"]
        dom, cod = arrow.boundary()
        lines.append(f"boundary: {_word_str(dom)} -> {_word_str(cod)}")
        if not arrow.rows:
            lines.append("  (zero arrow)")
        for x, row in arrow.rows:
            for y, v in row.entries:
                lines.append(
                    f"  {_key_str(dom, x)} -> {_key_str(cod, y)} : {_value_label(sr, v)}"
                )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _key_str(word, key) -> str:
    return "(" + ",".join(word_labels(word, key)) + ")"


def cmd_eq(args) -> int:
    left_terms = parse_term_file(_read_text(args.left))
    right_terms = parse_term_file(_read_text(args.right))
    interp = load_interpretation(_read_json(args.interp))
    t1 = _select_term(left_terms, args.left, args.left_term)
    t2 = _select_term(right_terms, args.right, args.right_term)
    report = check_term_equality(t1, t2, interp, law="cmd/eq")
    if args.format == "structured":
        doc = {
            "left": print_term(t1),
            "right": print_term(t2),
            "semiring": interp.semiring.name,
            "status": report.status,
            "witness": _json_safe(report.witness),
            "checks_performed": report.checks_performed,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"left:  {print_term(t1)}", f"right: {print_term(t2)}"]
        if report.passed:
            lines.append(f"equal ({report.status}, {report.checks_performed} entries compared)")
        else:
            w = report.witness
            lines.append(
                f"NOT EQUAL at row {w['row']}, column {w['col']}: "
                f"left={w['left']} right={w['right']}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 1


def cmd_taxonomy(args) -> int:
    semirings = args.semiring if args.semiring else list(CATALOG)
    loaded = [_load_semiring_arg(s) for s in semirings]
    names = [sr.name for sr in loaded]
    for name in names:
        if names.count(name) > 1:
            raise UsageError(f"--semiring {name!r} is given twice")
    variants = args.variant if args.variant else list(VARIANTS)
    kwargs = _suite_kwargs(args, variants)
    entries = run_theorem_suite(loaded, variants, ops=args.ops, **kwargs)
    if args.format == "structured":
        _emit(entries_to_jsonl(entries), args.out)
    else:
        _emit(entries_to_table(entries), args.out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsrel",
        description="Semiring-weighted relations: law checking, classification, diagram evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-semiring", help="check semiring axioms and derived flags")
    p.add_argument("semiring", help=f"catalog name ({', '.join(CATALOG)}) or JSON table path")
    _add_common(p, sizes=False)
    p.set_defaults(func=cmd_check_semiring)

    p = sub.add_parser("classify", help="dual-oracle classification of a variant over a semiring")
    p.add_argument("semiring", help="catalog name or JSON table path")
    p.add_argument(
        "--variant",
        action="append",
        default=None,
        help=f"one of {', '.join(VARIANTS)} (default M); a repeat of it runs once",
    )
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="evaluate a diagram term file under an interpretation")
    p.add_argument("termfile", help="diagram term file")
    p.add_argument("interp", help="interpretation JSON file")
    p.add_argument("--term", default=None, help="binding to evaluate (default: main)")
    _add_common(p, laws=False, sizes=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eq", help="decide equality of two diagram term files")
    p.add_argument("left", help="first term file")
    p.add_argument("right", help="second term file")
    p.add_argument("interp", help="interpretation JSON file")
    p.add_argument("--left-term", default=None, help="binding in the first file")
    p.add_argument("--right-term", default=None, help="binding in the second file")
    _add_common(p, laws=False, sizes=False)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("taxonomy", help="run the full law suite over the catalog")
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
    return parser


def main(argv=None, _ops_override=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.ops = _ops_override or DEFAULT_OPS
    try:
        _check_options(args)
        return args.func(args)
    except (UsageError, DiagramError, WRelFormatError, BoundaryError, WeightMapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The names importable from gsrel.

A refactor that moves a function between modules must keep it exported;
this list fails the suite when a re-export is dropped or one is added
without updating it.
"""
import importlib
import inspect
import json
from pathlib import Path

import gsrel

PUBLIC = [
    "ArrowFlags", "BoundaryError", "CATALOG", "COUNTEREXAMPLE", "Copy",
    "DEFAULT_BUDGET", "DEFAULT_OPS", "Del", "DiagramError", "Dom", "EXHAUSTIVE_PASS",
    "FinSet", "FlagVerdict", "Gen", "Id", "InterpFormatError", "Interpretation",
    "KleisliClassification", "LawReport", "MONAD_FLAGS", "Mass",
    "MonadClassification", "MonadOps", "ParseError", "SAMPLED_PASS", "Semiring",
    "SemiringError", "SemiringProfile", "Seq", "Signature", "Structure", "SuiteEntry",
    "Swap", "TableFormatError", "Tensor", "TypecheckError", "UnknownGeneratorError",
    "UnknownSemiringError", "VARIANTS", "WRel", "WRelFormatError", "WeightMap",
    "WeightMapError", "Word", "arrow_in_variant", "canonical_semigroup_mul",
    "check_cases", "check_gsm_axioms", "check_monad_laws", "check_semiring_laws",
    "check_term_equality", "classify_kleisli", "classify_monad", "classify_semiring",
    "crosscheck_dom_paths", "derive_rng", "diagram", "entries_to_jsonl",
    "entries_to_table", "enumerate_arrows", "enumerate_maps", "evaluate_term",
    "finset_from_doc", "finset_to_doc", "gsm_axiom_pairs", "hom_scalar_mul",
    "in_variant", "load_interpretation", "load_semiring", "load_table_semiring",
    "mul_inverse", "parse_term", "parse_term_file", "print_term", "render_map",
    "report", "run_theorem_suite", "sample_arrows", "sample_maps", "semiring",
    "suite_failures", "taxonomy", "typecheck_term", "variant_arrows",
    "variant_closure_reports", "variant_maps", "weightmap", "wm_antipode",
    "wm_empty", "wm_eta", "wm_make", "wm_mu", "wm_psi", "wm_psi0",
    "wm_pushforward", "wm_total", "word_elements", "word_labels", "word_size", "wrel",
    "wrel_classify", "wrel_compose", "wrel_copy", "wrel_del", "wrel_dom",
    "wrel_dom_closed", "wrel_dom_via_kleisli_path", "wrel_eq", "wrel_from_doc",
    "wrel_id", "wrel_make", "wrel_mass", "wrel_swap", "wrel_tensor", "wrel_to_doc",
]


def test_public_names_are_pinned():
    assert sorted(gsrel.__all__) == PUBLIC



def test_benchmark_span_names_are_traced():
    """Each per-layer span that BENCHMARK.json reads is one that
    perfbench/tracer.py records: WeightMap, WRel, or a public function
    defined in the module of its layer.  A function moved to another module,
    or made private, would leave its span missing from every traced run."""
    doc = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    spans = [
        m["name"].rsplit(".", 1)[0]
        for m in doc["per_layer"]
        if m["name"].endswith((".calls", ".s", ".constructed"))
    ]
    assert spans
    missing = []
    for span in spans:
        layer, attr = span.split(".", 1)
        module = importlib.import_module(f"gsrel.{layer}")
        fn = getattr(module, attr, None)
        traced = span in ("weightmap.WeightMap", "wrel.WRel") or (
            not attr.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == module.__name__
        )
        if not traced:
            missing.append(span)
    assert missing == []

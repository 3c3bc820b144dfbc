"""Decision engine and type-inference tool for finite partial groupoids.

A pargoid is a finite set with a partial binary product. This package
decides whether a pargoid admits a typing by arrow types, constructs the
typing when it exists, and otherwise produces a certificate — an
application-order cycle or a definite-operation violation — that can be
re-checked against the product table alone.

The names below are loaded on first use (PEP 562), so importing the
package, or a submodule that needs no clone, does not import numpy.
"""

import importlib

# submodule -> the public names it defines
_MODULES = {
    "congruence": ("Partition", "is_congruence", "leibniz", "make_partition",
                   "separator"),
    "defaults": ("DEFAULT_BUDGET",),
    "errors": ("InputError", "InternalError", "PargoidError", "ResourceExhausted"),
    "generators": ("GenConfig", "SplitMix64", "gen_arbitrary", "gen_typed"),
    "pargoid": ("ElementId", "Pargoid", "apply", "less_than", "parse",
                "product_triples", "serialize"),
    "polyclone": ("VAR", "CloneResult", "Const", "Prod", "UnaryPolyOp", "Var",
                  "classify", "compute_clone", "format_term", "lemma2_check",
                  "parse_term", "term_graph"),
    "typability": ("Certificate", "ClaimStarReport", "Cycle", "Decision",
                   "DefiniteViolation", "Typable", "Untypable",
                   "check_claim_star", "check_condition_i", "check_condition_ii",
                   "construct_typing", "decide", "validate_certificate"),
    "types": ("Arrow", "Ground", "TypeTerm", "Typing", "format_type",
              "parse_type", "type_size"),
    "verifier": ("VerifyReport", "lemma1_check", "parse_typing",
                 "serialize_typing", "typing_isomorphic", "verify"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

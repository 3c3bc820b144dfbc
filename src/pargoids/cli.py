"""Command-line front end with deterministic, scriptable output.

Results go to stdout, diagnostics to stderr. Exit codes are stable API:
0 typable/verified/ok, 1 untypable/rejected, 2 input error, 3 resource
exhausted, 4 internal error (a bug alarm, never a verdict). JSON outputs
carry "schema": 1 and validate against the files shipped in
pargoids/schemas/. In literal mode, verify's text output labels totality
failures as informational, since they do not decide acceptance.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import congruence, generators, pargoid, polyclone, typability, verifier
from .errors import InputError, InternalError
from .errors import ResourceExhausted as ResourceExhaustedError
from .types import format_type

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _load_pargoid(path):
    data = _read_bytes(path)
    head = data.lstrip()
    fmt = "json" if head.startswith(b"{") else "text"
    try:
        return pargoid.parse(data, fmt)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get("PARGOID_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"PARGOID_BUDGET must be an integer, got {env!r}") from None
    return polyclone.DEFAULT_BUDGET


def _emit(text):
    sys.stdout.write(text)


def _emit_json(doc):
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _op_json(g, op):
    return {
        "graph": {g.names[i]: (None if v is None else g.names[v])
                  for i, v in enumerate(op.graph)},
        "witness": polyclone.format_term(op.witness),
        "trivial": op.is_trivial,
        "constant": op.is_constant,
        "definite": op.is_definite,
    }


def _format_cycle(cert):
    return " < ".join(e.name for e in reversed(cert.path))


def _cmd_decide(args):
    g = _load_pargoid(args.pargoid)
    decision = typability.decide(g, _budget(args), args.reading)
    if isinstance(decision, typability.Typable):
        if args.json:
            doc = {"schema": 1, "verdict": "typable",
                   "typing": {"types": {g.names[e]: format_type(t)
                                        for e, t in enumerate(decision.typing.types)}}}
            _emit_json(doc)
        else:
            _emit("typable\n")
            for e, t in enumerate(decision.typing.types):
                _emit(f"{g.names[e]}: {format_type(t)}\n")
        return EXIT_OK
    if isinstance(decision, typability.Untypable):
        cert = decision.certificate
        if args.json:
            if isinstance(cert, typability.Cycle):
                cert_doc = {"kind": "cycle", "path": [e.name for e in cert.path]}
            else:
                cert_doc = {"kind": "definite-violation",
                            "op": _op_json(g, cert.op),
                            "a": cert.a.name, "c": cert.c.name,
                            "separator": _op_json(g, cert.separator)}
            _emit_json({"schema": 1, "verdict": "untypable", "certificate": cert_doc})
        else:
            _emit("untypable\n")
            if args.cert:
                if isinstance(cert, typability.Cycle):
                    _emit(f"cycle: {_format_cycle(cert)}\n")
                else:
                    _emit(f"definite violation: {polyclone.format_term(cert.op.witness)}"
                          f" converges on {cert.a.name} and {cert.c.name}\n")
                    _emit(f"separator: {polyclone.format_term(cert.separator.witness)}\n")
        return EXIT_REJECTED
    if args.json:
        _emit_json({"schema": 1, "verdict": "resource-exhausted",
                    "stage": decision.stage, "budget": decision.budget})
        return EXIT_RESOURCE
    raise ResourceExhaustedError(decision.stage, decision.budget)


def _cmd_type(args):
    g = _load_pargoid(args.pargoid)
    decision = typability.decide(g, _budget(args), args.reading)
    if isinstance(decision, typability.Typable):
        sys.stdout.buffer.write(verifier.serialize_typing(g, decision.typing))
        return EXIT_OK
    if isinstance(decision, typability.Untypable):
        print("error: the pargoid is untypable", file=sys.stderr)
        return EXIT_REJECTED
    raise ResourceExhaustedError(decision.stage, decision.budget)


def _cmd_verify(args):
    g = _load_pargoid(args.pargoid)
    typing = verifier.parse_typing(g, _read_bytes(args.typing))
    mode = "strong" if args.strong else "literal"
    report = verifier.verify(g, typing, mode)
    if args.json:
        _emit_json({
            "schema": 1,
            "mode": mode,
            "accepted": report.accepted,
            "checks": {
                "partition": report.partition_ok,
                "injectivity": report.injectivity_ok,
                "strictness": report.strictness_ok,
                "axiom1_forward": report.axiom1_forward_ok,
                "axiom1_totality": report.axiom1_totality_ok,
            },
            "failures": [{"check": v.check, "detail": v.detail}
                         for v in report.failures],
        })
    else:
        _emit("accepted\n" if report.accepted else "rejected\n")
        for v in report.failures:
            label = v.check
            if v.check == "axiom1-totality" and mode == "literal":
                label += " (informational; literal mode)"
            _emit(f"{label}: {v.detail}\n")
    return EXIT_OK if report.accepted else EXIT_REJECTED


def _closed_clone(g, args):
    clone = polyclone.compute_clone(g, _budget(args), exact=True)
    return polyclone.classify(clone, args.reading)


def _cmd_clone(args):
    g = _load_pargoid(args.pargoid)
    clone = _closed_clone(g, args)
    if args.json:
        _emit_json({"schema": 1, "reading": clone.reading,
                    "ops": [_op_json(g, op) for op in clone.ops]})
    else:
        for i, op in enumerate(clone.ops):
            pairs = " ".join(f"{g.names[a]}->{g.names[v]}"
                             for a, v in enumerate(op.graph) if v is not None)
            flags = ",".join(name for name, on in
                             (("trivial", op.is_trivial),
                              ("constant", op.is_constant),
                              ("definite", op.is_definite)) if on)
            line = f"{i}: {polyclone.format_term(op.witness)} ::"
            if pairs:
                line += f" {pairs}"
            if flags:
                line += f" [{flags}]"
            _emit(line + "\n")
    return EXIT_OK


def _cmd_congruence(args):
    g = _load_pargoid(args.pargoid)
    clone = polyclone.compute_clone(g, _budget(args), exact=True)
    part = congruence.leibniz(g, clone)
    if args.json:
        _emit_json({"schema": 1,
                    "blocks": [[g.names[e] for e in blk] for blk in part.blocks]})
    else:
        for blk in part.blocks:
            _emit(" ".join(g.names[e] for e in blk) + "\n")
    return EXIT_OK


def _gen_config(args):
    return generators.GenConfig(
        size=args.size, seed=args.seed, mode=args.mode, density=args.density,
        type_depth=args.type_depth, ground_count=args.ground_count)


def _cmd_gen(args):
    cfg = _gen_config(args)
    if cfg.mode == "arbitrary":
        if args.with_typing:
            raise InputError("arbitrary mode generates no typing")
        g = generators.gen_arbitrary(cfg)
    else:
        g, typing = generators.gen_typed(cfg)
        if args.with_typing:
            with open(args.with_typing, "wb") as fh:
                fh.write(verifier.serialize_typing(g, typing))
    sys.stdout.buffer.write(pargoid.serialize(g, "json" if args.json else "text"))
    return EXIT_OK


def _cmd_stats(args):
    budget = _budget(args)
    _emit("seed,n,density,verdict,certificate_kind,clone_size,"
          "class_count,strong_totality\n")
    for s in range(args.seed, args.seed + args.count):
        cfg = generators.GenConfig(
            size=args.size, seed=s, mode=args.mode, density=args.density,
            type_depth=args.type_depth, ground_count=args.ground_count)
        if cfg.mode == "arbitrary":
            g = generators.gen_arbitrary(cfg)
        else:
            g, _ = generators.gen_typed(cfg)
        clone = polyclone.compute_clone(g, budget)
        decision = typability.decide(g, budget, args.reading, clone=clone)
        classes = ""
        if not clone.budget_hit:
            classes = len(congruence.leibniz(g, clone).blocks)
        verdict, kind, strong = "", "", ""
        if isinstance(decision, typability.Typable):
            verdict = "typable"
            strong = str(verifier.verify(g, decision.typing, "strong")
                         .accepted_strong).lower()
        elif isinstance(decision, typability.Untypable):
            verdict = "untypable"
            kind = ("cycle" if isinstance(decision.certificate, typability.Cycle)
                    else "definite-violation")
        else:
            verdict = "resource-exhausted"
        _emit(f"{s},{args.size},{args.density},{verdict},{kind},"
              f"{clone.op_count},{classes},{strong}\n")
    return EXIT_OK


def _cmd_claim_star(args):
    g = _load_pargoid(args.pargoid)
    clone = _closed_clone(g, args)
    varpi = congruence.leibniz(g, clone)
    report = typability.check_claim_star(g, clone, varpi)
    decision = typability.decide(g, _budget(args), args.reading, clone=clone)
    if isinstance(decision, typability.Typable):
        verdict, code = "typable", EXIT_OK
    else:
        verdict, code = "untypable", EXIT_REJECTED
    if args.json:
        co_ce = eq_ce = div_ce = None
        if report.coconvergence_counterexample:
            a, c, op = report.coconvergence_counterexample
            co_ce = {"a": a.name, "c": c.name, "op": _op_json(g, op)}
        if report.equivalence_counterexample:
            a, c = report.equivalence_counterexample
            eq_ce = {"a": a.name, "c": c.name}
        if report.divergence_counterexample:
            div_ce = {"element": report.divergence_counterexample.name}
        _emit_json({
            "schema": 1,
            "clauses": {
                "coconvergence_implies_equivalence":
                    report.coconvergence_implies_equivalence,
                "equivalence_implies_coconvergence":
                    report.equivalence_implies_coconvergence,
                "eventual_divergence": report.eventual_divergence,
            },
            "counterexamples": {
                "coconvergence": co_ce,
                "equivalence": eq_ce,
                "divergence": div_ce,
            },
            "holds": report.holds,
            "verdict": verdict,
        })
    else:
        if report.coconvergence_implies_equivalence:
            _emit("coconvergence-implies-equivalence: holds\n")
        else:
            a, c, op = report.coconvergence_counterexample
            _emit(f"coconvergence-implies-equivalence: fails "
                  f"({a.name} {c.name} via {polyclone.format_term(op.witness)})\n")
        if report.equivalence_implies_coconvergence:
            _emit("equivalence-implies-coconvergence: holds\n")
        else:
            a, c = report.equivalence_counterexample
            _emit(f"equivalence-implies-coconvergence: fails ({a.name} {c.name})\n")
        if report.eventual_divergence:
            _emit("eventual-divergence: holds\n")
        else:
            _emit(f"eventual-divergence: fails "
                  f"({report.divergence_counterexample.name})\n")
        _emit(f"claim: {'holds' if report.holds else 'fails'}\n")
        _emit(f"verdict: {verdict}\n")
    return code


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit structured JSON")
    common.add_argument("--budget", type=int, default=None, metavar="N",
                        help="max clone op count (default: PARGOID_BUDGET or "
                             f"{polyclone.DEFAULT_BUDGET})")
    common.add_argument("--constant-reading", dest="reading",
                        choices=polyclone.READINGS, default="total",
                        help="which maps count as constant operations")
    common.add_argument("--seed", type=int, default=0,
                        help="generator seed")

    parser = argparse.ArgumentParser(
        prog="pargoid",
        description="Decide typability of finite partial groupoids, construct "
                    "typings, and check certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", parents=[common],
                       help="decide typability and print the typing or verdict")
    p.add_argument("pargoid", help="pargoid file (text or JSON)")
    p.add_argument("--cert", action="store_true",
                   help="print the untypability certificate")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("type", parents=[common],
                       help="infer a typing and emit it as a typing file")
    p.add_argument("pargoid")
    p.set_defaults(func=_cmd_type)

    p = sub.add_parser("verify", parents=[common],
                       help="check a typing file against a pargoid")
    p.add_argument("pargoid")
    p.add_argument("typing", help="typing file (JSON)")
    p.add_argument("--strong", action="store_true",
                   help="require matching types to force defined products")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("clone", parents=[common],
                       help="dump the unary polynomial operations")
    p.add_argument("pargoid")
    p.set_defaults(func=_cmd_clone)

    p = sub.add_parser("congruence", parents=[common],
                       help="print the convergence-profile partition")
    p.add_argument("pargoid")
    p.set_defaults(func=_cmd_congruence)

    gen_flags = argparse.ArgumentParser(add_help=False)
    gen_flags.add_argument("--size", type=int, required=True,
                           help="carrier size")
    gen_flags.add_argument("--density", type=float, default=0.5,
                           help="probability each product is defined")
    gen_flags.add_argument("--mode", choices=generators.MODES,
                           default="arbitrary")
    gen_flags.add_argument("--type-depth", type=int, default=2,
                           help="max arrow nesting in typed modes")
    gen_flags.add_argument("--ground-count", type=int, default=1,
                           help="number of ground types in typed modes")

    p = sub.add_parser("gen", parents=[common, gen_flags],
                       help="generate a pseudo-random pargoid")
    p.add_argument("--with-typing", metavar="PATH",
                   help="also write the generating typing (typed modes)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", parents=[common, gen_flags],
                       help="run the decision over a seed range, emit CSV")
    p.add_argument("--count", type=int, required=True,
                   help="number of consecutive seeds starting at --seed")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("claim-star", parents=[common],
                       help="evaluate the strengthened-conditions diagnostics")
    p.add_argument("pargoid")
    p.set_defaults(func=_cmd_claim_star)
    return parser


def run(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nests too deeply to process", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Command-line front end: problem-file ingestion, command dispatch, and
deterministic report emission (json or text) with a content hash."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .dgla import (
    DgLieAlgebra, cohomology_lie, dgla_is_valid, validate_dgla,
    validate_morphism,
)
from .formality import (
    InsufficientBounds, euler_class, formality_verdict, kaledin_class,
    minimal_model, obstruction_sequence, transfer_criterion,
)
from .linf import (
    ce_linf_self, derived_brackets, linf_structure, validate_linf,
)
from .mc import TruncatedElement, mc_check, mc_lift, quadraticity_check
from .problems import ProblemError, format_rational, load_problem
from .specseq import page, r_max as page_bound

USAGE_EXIT = 64
INVALID_EXIT = 1
BOUNDS_EXIT = 2

COMMANDS = (
    "validate", "cohomology", "ce-pages", "euler", "obstructions",
    "minimal-model", "formality", "transfer", "derived-brackets",
    "kaledin", "mc-check", "mc-lift", "quadraticity",
)

# commands acting on the one algebra of a problem, which morphism problems
# (a map between two algebras) do not have
ALGEBRA_COMMANDS = (
    "cohomology", "ce-pages", "euler", "obstructions", "minimal-model",
    "formality", "kaledin",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _render_text(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            lines.extend(_render_text(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            lines.extend(_render_text(v, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix[:-1]} = {obj}")
    return lines


def emit(report, fmt):
    body = json.dumps(_jsonify(report), sort_keys=True, indent=2)
    digest = hashlib.sha256(body.encode()).hexdigest()
    report = dict(report)
    report["run_hash"] = digest
    if fmt == "json":
        print(json.dumps(_jsonify(report), sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(_jsonify(report))))
    return 0


def _taylor_table(alg):
    table = []
    for n in sorted(alg.taylor):
        qn = alg.taylor[n]
        for c, tup in enumerate(alg.ctx.pb[n].elements):
            terms = [[alg.space.labels[r], qn.matrix[r][c]]
                     for r in range(alg.space.dim) if qn.matrix[r][c]]
            if terms:
                table.append({
                    "arity": n,
                    "inputs": [alg.space.labels[i] for i in tup],
                    "terms": terms})
    return table


def _page_table(ftc, max_page, q_shift):
    """Nonzero cell dimensions of pages 1..max_page, each cell (p, q)
    labelled (p, q + q_shift)."""
    top = min(max_page, page_bound(ftc))
    table = {}
    for r in range(1, top + 1):
        pg = page(ftc, r)
        cells = {}
        for (p, q) in sorted(pg.cells):
            d = pg.dim(p, q)
            if d:
                cells[f"({p},{q + q_shift})"] = d
        table[f"E{r}"] = cells
    return table


def _algebra(problem, weight):
    """Resolve the object a structural command acts on.

    Voronov problems carry an ambient Lie algebra; the object of interest
    is the induced higher structure on the abelian complement.
    The page oracle of ``perfbench/run.py`` calls ``_algebra(problem,
    weight)``, so this signature must not change.
    """
    if problem["kind"] == "voronov":
        alg, _ = derived_brackets(problem["algebra"], problem["subalgebra"],
                                  problem["derivation"], weight)
        return alg
    return problem["algebra"]


def _minimal_of(problem, weight):
    v = linf_structure(_algebra(problem, weight), weight)
    if v.is_minimal():
        return v
    return minimal_model(v, weight)["minimal"]


def _element(problem, key):
    if key not in problem:
        raise ProblemError(f"problem file lacks an {key!r} section")
    deg = 1 if key == "element" else 0
    spec = problem[key]
    return TruncatedElement(problem["algebra"], spec["order"],
                            spec["coefficients"], deg)


def run(args):
    problem = load_problem(args.input)
    kind = problem["kind"]
    report = {
        "command": args.command,
        "input": args.input,
        "kind": kind,
        "engine": {"name": "ceformality", "version": __version__},
        "bounds": {"weight": args.weight, "columns": args.columns,
                   "max_page": args.max_page, "t_order": args.t_order,
                   "order": args.order},
    }
    cmd = args.command
    if kind == "morphism" and cmd in ALGEBRA_COMMANDS:
        raise ProblemError(f"{cmd} needs an algebra, not a morphism problem")

    if cmd == "validate":
        ok = True
        if kind in ("dgla", "voronov", "mc"):
            checks = validate_dgla(problem["algebra"])
            ok = all(c["ok"] for c in checks)
            report["checks"] = checks
        elif kind == "linf":
            res = validate_linf(problem["algebra"])
            ok = res["ok"]
            report["checks"] = res
        elif kind == "morphism":
            src_ok = dgla_is_valid(problem["source"])
            tgt_ok = dgla_is_valid(problem["target"])
            mor = validate_morphism(problem["map"], problem["source"],
                                    problem["target"])
            ok = src_ok and tgt_ok and mor["ok"]
            report["checks"] = {"source_valid": src_ok,
                                "target_valid": tgt_ok, "morphism": mor}
        report["valid"] = ok
        code = emit(report, args.format)
        return code if ok else INVALID_EXIT

    if cmd == "cohomology":
        if kind == "linf":
            raise ProblemError(
                "cohomology needs a dg-Lie algebra, not a linf problem")
        h, con = cohomology_lie(problem["algebra"])
        report["dimensions"] = {
            str(d): h.space.dim_in_degree(d) for d in h.space.degree_support()}
        table = []
        pb = h.bracket.pb
        for c, (i, j) in enumerate(pb.elements):
            terms = [[h.space.labels[r], h.bracket.matrix[r][c]]
                     for r in range(h.space.dim) if h.bracket.matrix[r][c]]
            if terms:
                table.append({"inputs": [h.space.labels[i],
                                         h.space.labels[j]],
                              "terms": terms})
        report["bracket"] = table
        report["contraction_ok"] = all(con.verify().values())
        return emit(report, args.format)

    if cmd == "ce-pages":
        alg = _algebra(problem, args.weight)
        # a dg-Lie algebra's pages are read on the coderivation complex of
        # its décalage, whose cell (p, q) is the CE cell (p, q + 1)
        q_shift = int(isinstance(alg, DgLieAlgebra))
        if q_shift:
            alg = linf_structure(alg, max(args.columns - 1, 2))
        ftc = ce_linf_self(alg, args.columns).total
        report["pages"] = _page_table(ftc, args.max_page, q_shift)
        return emit(report, args.format)

    if cmd == "euler":
        obj = _algebra(problem, args.weight)
        res = euler_class(obj, args.columns)
        report["euler"] = {"cell": list(res["cell"]), "page": res["page"],
                           "computed_on": res["computed_on"],
                           "coordinates": res["coordinates"],
                           "is_zero": res["is_zero"]}
        return emit(report, args.format)

    if cmd == "obstructions":
        v = _minimal_of(problem, args.weight)
        r_top = args.max_page if args.max_page else args.columns - 2
        res = obstruction_sequence(v, args.columns, r_top)
        report["obstructions"] = res
        return emit(report, args.format)

    if cmd == "minimal-model":
        v = linf_structure(_algebra(problem, args.weight), args.weight)
        mm = minimal_model(v, args.weight)
        w = mm["minimal"]
        report["dimensions"] = {
            str(d): w.space.dim_in_degree(d)
            for d in w.space.degree_support()}
        report["taylor"] = _taylor_table(w)
        report["minimal"] = w.is_minimal()
        return emit(report, args.format)

    if cmd == "formality":
        res = formality_verdict(_algebra(problem, args.weight), args.weight,
                                args.columns)
        report["verdict"] = res["verdict"]
        report["weight"] = res["weight"]
        report["columns"] = res["columns"]
        if res["witness"] is not None:
            report["witness"] = {"r": res["witness"]["r"],
                                 "cell": list(res["witness"]["cell"]),
                                 "coordinates": res["witness"]["coordinates"]}
        report["gauge_stages"] = [s["stage"] for s in res.get("steps", [])]
        return emit(report, args.format)

    if cmd == "transfer":
        if kind != "morphism":
            raise ProblemError("transfer needs a morphism problem")
        res = transfer_criterion(
            problem["map"], problem["source"], problem["target"],
            args.columns,
            m_formal_assumed=bool(problem["declared"].get("M_formal")))
        report["transfer"] = res
        return emit(report, args.format)

    if cmd == "derived-brackets":
        if kind != "voronov":
            raise ProblemError("derived-brackets needs a voronov problem")
        alg, res = derived_brackets(
            problem["algebra"], problem["subalgebra"],
            problem["derivation"], args.weight)
        report["taylor"] = _taylor_table(alg)
        report["relations_ok"] = res["ok"]
        return emit(report, args.format)

    if cmd == "kaledin":
        v = _minimal_of(problem, args.weight)
        res = kaledin_class(v, args.weight, args.t_order)
        report["kaledin"] = {
            "identities": res["identities"],
            "t_order": res["t_order"], "weight": res["weight"],
            "class_is_zero": res["class_is_zero"],
            "primitive": res["primitive"]}
        return emit(report, args.format)

    if cmd == "mc-check":
        if kind != "mc":
            raise ProblemError("mc-check needs an mc problem")
        res = mc_check(_element(problem, "element"))
        report["mc"] = res
        return emit(report, args.format)

    if cmd == "mc-lift":
        if kind != "mc":
            raise ProblemError("mc-lift needs an mc problem")
        res = mc_lift(_element(problem, "element"))
        report["lift"] = res
        return emit(report, args.format)

    if cmd == "quadraticity":
        if kind != "mc":
            raise ProblemError("quadraticity needs an mc problem")
        alg = problem["algebra"]
        cert = formality_verdict(alg, args.weight, args.columns)
        if cert["verdict"] == "NotFormal":
            raise ProblemError("quadraticity requires a formal algebra")
        res = quadraticity_check(alg, problem["samples"], cert)
        report["quadraticity"] = {
            "all_agree": res["all_agree"],
            "n_checked": res["n_checked"],
            "samples": res["samples"]}
        return emit(report, args.format)

    raise ProblemError(f"unhandled command {cmd!r}")


def build_parser():
    parser = _Parser(prog="ceformality",
                     description="Exact formality and deformation "
                                 "computations for graded Lie structures")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="problem file (json)")
    parser.add_argument("--weight", type=int, default=5, metavar="N",
                        help="weight truncation (default 5)")
    parser.add_argument("--columns", type=int, default=5, metavar="L",
                        help="column truncation (default 5)")
    parser.add_argument("--max-page", type=int, default=3, metavar="R",
                        help="highest spectral page to report (default 3)")
    parser.add_argument("--t-order", type=int, default=3, metavar="M",
                        help="t-adic truncation order (default 3)")
    parser.add_argument("--order", type=int, default=3, metavar="K",
                        help="lifting order for mc commands (default 3)")
    parser.add_argument("--format", choices=("json", "text"),
                        default="text")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except InsufficientBounds as exc:
        print(f"insufficient bounds: {exc}", file=sys.stderr)
        return BOUNDS_EXIT
    except (ProblemError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return INVALID_EXIT


if __name__ == "__main__":
    sys.exit(main())

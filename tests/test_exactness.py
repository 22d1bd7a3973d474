"""Exactness: every number the engine builds or reports is a rational.

Signs (-1)^e with negative e must stay integers, so décalage (which shifts
degree-0 generators to degree -1) and the CE complexes of fixtures with
negative degrees are covered here.
"""

import os
from fractions import Fraction

import pytest

from ceformality.cecomplex import build_ce
from ceformality.dgla import adjoint_module, cohomology_lie, dgla_is_valid
from ceformality.formality import minimal_model
from ceformality.linf import ce_linf_self, decalage, derived_brackets
from ceformality.problems import load_problem
from linf_oracle import projection

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
NAMES = sorted(os.listdir(FIXTURES))


def inexact(matrix):
    return [x for row in matrix for x in row if type(x) is not Fraction]


def linf_matrices(alg):
    return {f"q{n}": qn.matrix for n, qn in alg.taylor.items()}


def dgla_matrices(alg):
    """d, the bracket's matrix and, read apart from it, the entries of
    every bracket column over every ordered pair of basis vectors."""
    n = alg.space.dim
    return {"d": alg.differential.matrix, "bracket": alg.bracket.matrix,
            "bracket.columns": [[e for _, e in alg.bracket_column(i, j)]
                                for i in range(n) for j in range(n)]}


def total_complex(ftc, name="ce"):
    """The dense total differential and, read apart from it, the entries
    of each of its sparse columns."""
    return {name: ftc.differential.matrix,
            f"{name}.columns": [list(col.values()) for col in ftc.columns]}


def minimal_model_matrices(v):
    mm = minimal_model(v, v.bound)
    con = mm["contraction"]
    out = {f"minimal.{k}": m for k, m in linf_matrices(mm["minimal"]).items()}
    # f first: its solve and checks memoize values of g too
    for side, mor in (("onto", projection(mm)), ("into", mm["into"])):
        for j, m in mor.components.items():
            out[f"{side}.f{j}"] = m
        # the values the checks memoized, one row per weight
        out[f"{side}.values"] = [list(part.values())
                                 for value in mor._values.values()
                                 for part in value.values()]
    out.update({"i": con.i.matrix, "p": con.p.matrix, "h": con.h.matrix})
    return out


def structures(problem):
    """Name → matrix for every structure built from a problem."""
    kind = problem["kind"]
    if kind == "morphism":
        src = problem["source"]
        out = {"map": problem["map"].matrix}
        out.update({f"source.{k}": m for k, m in dgla_matrices(src).items()})
        out.update({f"target.{k}": m for k, m in
                    dgla_matrices(problem["target"]).items()})
        out.update(total_complex(build_ce(src, adjoint_module(src), 3)))
        return out
    alg = problem["algebra"]
    if kind == "linf":
        out = linf_matrices(alg)
        out.update(total_complex(ce_linf_self(alg, 3).total))
        out.update(minimal_model_matrices(alg))
        return out
    out = dgla_matrices(alg)
    if not dgla_is_valid(alg):
        return out
    h_alg, _ = cohomology_lie(alg)
    out.update({f"cohomology.{k}": m for k, m in dgla_matrices(h_alg).items()})
    v = decalage(alg, 3)
    out.update({f"decalage.{k}": m for k, m in linf_matrices(v).items()})
    out.update(total_complex(build_ce(alg, adjoint_module(alg), 3)))
    out.update(minimal_model_matrices(v))
    if kind == "voronov":
        a, _ = derived_brackets(alg, problem["subalgebra"],
                                problem["derivation"], 3)
        out.update({f"derived.{k}": m for k, m in linf_matrices(a).items()})
        out.update(total_complex(ce_linf_self(a, 3).total, "derived.ce"))
    return out


def test_fixtures_cover_negative_degrees():
    problem = load_problem(os.path.join(FIXTURES, "endu.json"))
    assert min(problem["algebra"].space.degrees) < 0


@pytest.mark.parametrize("name", NAMES)
def test_every_built_entry_is_a_fraction(name):
    problem = load_problem(os.path.join(FIXTURES, name))
    mats = structures(problem)
    bad = {what: inexact(m)[:3] for what, m in mats.items() if inexact(m)}
    assert not bad

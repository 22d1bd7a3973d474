"""JSON problem files: exact-rational descriptions of graded spaces with
structure constants, in five kinds (dgla, linf, voronov, morphism, mc)."""

from __future__ import annotations

import json
from fractions import Fraction

from .dgla import DgLieAlgebra
from .graded import GradedVectorSpace, PowerBasis, PowerMap, SYMMETRIC
from .linalg import zeros
from .linf import LInfinityAlgebra

KINDS = ("dgla", "linf", "voronov", "morphism", "mc")


class ProblemError(ValueError):
    """Malformed problem file."""


def parse_rational(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemError(f"bad rational {s!r}: {exc}") from exc


def format_rational(x):
    return str(Fraction(x))


def _field(obj, key, path=""):
    """``obj[key]``, or ProblemError naming the field's JSON path (such as
    ``differential[0].input``) when obj is not a JSON object or lacks it."""
    if not isinstance(obj, dict) or key not in obj:
        raise ProblemError(f"missing field {path + '.' if path else ''}{key}")
    return obj[key]


def _entries(data, key, path=""):
    """(JSON path, entry) for each entry of the optional list data[key]."""
    at = f"{path}.{key}" if path else key
    return [(f"{at}[{i}]", e) for i, e in enumerate(data.get(key, []))]


def _parse_space(data):
    comps = {}
    for deg, labels in data.items():
        try:
            d = int(deg)
        except ValueError as exc:
            raise ProblemError(f"bad degree key {deg!r}") from exc
        comps[d] = list(labels)
    return GradedVectorSpace(comps)


def _terms(space, terms):
    out = []
    for entry in terms:
        if len(entry) != 2:
            raise ProblemError(f"bad term {entry!r}")
        label, coeff = entry
        if label not in space.labels:
            raise ProblemError(f"unknown label {label!r}")
        out.append((label, parse_rational(coeff)))
    return out


def _parse_dgla(data, path=""):
    space = _parse_space(_field(data, "space", path))
    comps = {d: list(ls) for d, ls in space.components.items()}
    d_images = {}
    for at, entry in _entries(data, "differential", path):
        d_images[_field(entry, "input", at)] = _terms(
            space, _field(entry, "terms", at))
    brackets = {}
    for at, entry in _entries(data, "brackets", path):
        ins = _field(entry, "inputs", at)
        if len(ins) != 2:
            raise ProblemError("brackets take two inputs")
        brackets[tuple(ins)] = _terms(space, _field(entry, "terms", at))
    try:
        return DgLieAlgebra.from_data(comps, d_images, brackets, check=False)
    except (ValueError, KeyError) as exc:
        raise ProblemError(str(exc)) from exc


def _parse_linf(data):
    space = _parse_space(_field(data, "space"))
    bound = int(data.get("weight", 5))
    by_arity = {}
    for at, entry in _entries(data, "taylor"):
        ins = _field(entry, "inputs", at)
        by_arity.setdefault(len(ins), []).append(
            (ins, _terms(space, _field(entry, "terms", at))))
    taylor = {}
    for arity, rules in by_arity.items():
        pb = PowerBasis(space, SYMMETRIC, arity)
        m = zeros(space.dim, len(pb))
        for ins, terms in rules:
            tup = tuple(space.index(lab) for lab in ins)
            sign, canon = pb.normalize(tup)
            if sign == 0:
                raise ProblemError(f"inputs {ins!r} collapse to zero")
            c = pb.index(canon)
            for lab, coeff in terms:
                m[space.index(lab)][c] += sign * coeff
        try:
            taylor[arity] = PowerMap(pb, space, 1, m)
        except ValueError as exc:
            raise ProblemError(str(exc)) from exc
    try:
        return LInfinityAlgebra(space, taylor, bound)
    except ValueError as exc:
        raise ProblemError(str(exc)) from exc


def load_problem(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from exc
    return parse_problem(data)


def parse_problem(data):
    if not isinstance(data, dict):
        raise ProblemError("the problem must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ProblemError(f"kind must be one of {KINDS}, got {kind!r}")
    if data.get("field", "Q") != "Q":
        raise ProblemError("only exact rational coefficients are supported")
    out = {"kind": kind, "raw": data}
    if kind == "dgla":
        out["algebra"] = _parse_dgla(data)
    elif kind == "linf":
        out["algebra"] = _parse_linf(data)
    elif kind == "voronov":
        out["algebra"] = _parse_dgla(data)
        out["subalgebra"] = list(_field(data, "subalgebra"))
        out["derivation"] = _field(data, "derivation")
    elif kind == "morphism":
        out["source"] = _parse_dgla(_field(data, "source"), "source")
        out["target"] = _parse_dgla(_field(data, "target"), "target")
        src, tgt = out["source"], out["target"]
        from .graded import GradedMap
        images = {_field(e, "input", at):
                  _terms(tgt.space, _field(e, "terms", at))
                  for at, e in _entries(data, "map")}
        m = zeros(tgt.space.dim, src.space.dim)
        for lab, terms in images.items():
            if lab not in src.space.labels:
                raise ProblemError(f"unknown source label {lab!r}")
            for tl, coeff in terms:
                m[tgt.space.index(tl)][src.space.index(lab)] += coeff
        try:
            out["map"] = GradedMap(src.space, tgt.space, 0, m)
        except ValueError as exc:
            raise ProblemError(str(exc)) from exc
        out["declared"] = dict(data.get("declared", {}))
    elif kind == "mc":
        out["algebra"] = _parse_dgla(data)
        space = out["algebra"].space
        out["samples"] = [_vector(space, s) for s in data.get("samples", [])]
        for key in ("element", "gauge"):
            if key in data:
                coeffs = _field(data[key], "coefficients", key)
                out[key] = {
                    "order": int(_field(data[key], "order", key)),
                    "coefficients": {
                        int(k): _vector(space, v)
                        for k, v in coeffs.items()},
                }
    return out


def _vector(space, terms):
    vec = [Fraction(0)] * space.dim
    for lab, coeff in _terms(space, terms):
        vec[space.index(lab)] += coeff
    return vec

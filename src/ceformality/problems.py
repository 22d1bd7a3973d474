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


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _typed(value, kind, at):
    """``value``, or ProblemError naming its JSON path when it is not of
    ``kind`` (dict, list or str)."""
    if not isinstance(value, kind):
        raise ProblemError(f"field {at} must be {_JSON_TYPES[kind]}")
    return value


def _field(obj, key, path="", kind=None):
    """``obj[key]``, or ProblemError naming the field's JSON path (such as
    ``differential[0].input``) when obj is not a JSON object, lacks it, or
    holds a value not of ``kind``."""
    at = f"{path}.{key}" if path else key
    if not isinstance(obj, dict) or key not in obj:
        raise ProblemError(f"missing field {at}")
    return obj[key] if kind is None else _typed(obj[key], kind, at)


def _entries(data, key, path=""):
    """(JSON path, entry) for each entry of the optional list data[key]."""
    at = f"{path}.{key}" if path else key
    return [(f"{at}[{i}]", e)
            for i, e in enumerate(_typed(data.get(key, []), list, at))]


def _integer(value, at):
    """``int(value)``, or ProblemError naming the JSON path ``at``."""
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"field {at} must be an integer") from exc


def _parse_space(data, path=""):
    at = f"{path}.space" if path else "space"
    comps = {}
    for deg, labels in _field(data, "space", path, dict).items():
        try:
            d = int(deg)
        except ValueError as exc:
            raise ProblemError(f"bad degree key {deg!r}") from exc
        comps[d] = list(_typed(labels, list, f"{at}.{deg}"))
    return GradedVectorSpace(comps)


def _terms(space, terms, at):
    """The (label, coefficient) pairs of the JSON array ``terms`` at
    path ``at``."""
    out = []
    for term in _typed(terms, list, at):
        if not isinstance(term, list) or len(term) != 2:
            raise ProblemError(f"bad term {term!r} in {at}")
        label, coeff = term
        if label not in space.labels:
            raise ProblemError(f"unknown label {label!r}")
        out.append((label, parse_rational(coeff)))
    return out


def _parse_dgla(data, path=""):
    space = _parse_space(data, path)
    comps = {d: list(ls) for d, ls in space.components.items()}
    d_images = {}
    for at, entry in _entries(data, "differential", path):
        d_images[_field(entry, "input", at, str)] = _terms(
            space, _field(entry, "terms", at), f"{at}.terms")
    brackets = {}
    for at, entry in _entries(data, "brackets", path):
        ins = _field(entry, "inputs", at, list)
        if len(ins) != 2:
            raise ProblemError("brackets take two inputs")
        brackets[tuple(ins)] = _terms(
            space, _field(entry, "terms", at), f"{at}.terms")
    try:
        return DgLieAlgebra.from_data(comps, d_images, brackets, check=False)
    except (ValueError, KeyError) as exc:
        raise ProblemError(str(exc)) from exc


def _parse_linf(data):
    space = _parse_space(data)
    bound = _integer(data.get("weight", 5), "weight")
    by_arity = {}
    for at, entry in _entries(data, "taylor"):
        ins = _field(entry, "inputs", at, list)
        by_arity.setdefault(len(ins), []).append(
            (ins, _terms(space, _field(entry, "terms", at), f"{at}.terms")))
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
        out["subalgebra"] = list(_field(data, "subalgebra", kind=list))
        out["derivation"] = _field(data, "derivation", kind=str)
        named = [(f"subalgebra[{i}]", lab)
                 for i, lab in enumerate(out["subalgebra"])]
        for at, lab in named + [("derivation", out["derivation"])]:
            if lab not in out["algebra"].space.labels:
                raise ProblemError(f"unknown label {lab!r} at {at}")
    elif kind == "morphism":
        out["source"] = _parse_dgla(_field(data, "source"), "source")
        out["target"] = _parse_dgla(_field(data, "target"), "target")
        src, tgt = out["source"], out["target"]
        from .graded import GradedMap
        images = {_field(e, "input", at, str):
                  _terms(tgt.space, _field(e, "terms", at), f"{at}.terms")
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
        out["samples"] = [_vector(space, s, at)
                          for at, s in _entries(data, "samples")]
        for key in ("element", "gauge"):
            if key in data:
                coeffs = _field(data[key], "coefficients", key, dict)
                out[key] = {
                    "order": _integer(_field(data[key], "order", key),
                                      f"{key}.order"),
                    "coefficients": {
                        int(k): _vector(space, v, f"{key}.coefficients.{k}")
                        for k, v in coeffs.items()},
                }
    return out


def _vector(space, terms, at):
    vec = [Fraction(0)] * space.dim
    for lab, coeff in _terms(space, terms, at):
        vec[space.index(lab)] += coeff
    return vec

"""Seeded problem-file generator for the benchmark.

Two sources of inputs:

* ``voronov(n)``: the Voronov derived-bracket family.  Member n has ``u`` in
  degree 0 and ``v0..vn`` in degree 1, brackets ``[v_i, u] = -i v_{i-1}``,
  subalgebra ``v1..vn`` and inner derivation ``vn``.  ``voronov(3)`` is the
  shipped ``voronov5.json``.
* ``conjugate(problem, rng)``: a graded change of basis of any problem.  Within
  each degree the basis labels are permuted and every basis vector is rescaled
  by a small nonzero rational.  Verdicts, witness pages, Euler-class zero-ness
  and page dimensions are invariant under such a change, so a seed changes the
  numbers the engine sees without changing the answers.

The base fixtures in ``fixtures/`` are frozen copies of the shipped test
fixtures, so the benchmark's inputs do not move when the test suite's do.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Small nonzero powers of two, ±2^k with |k| ≤ 2: enough to change every
# structure constant without letting coefficient growth dominate the
# arithmetic cost.  They are powers of two because at the commit that defines
# the benchmark floats enter the engine's arithmetic (ROADMAP item 1), and a
# float holds a power of two exactly but not 1/3: other scales make some endu
# ops crash, which ``workloads.KNOWN_DEFECTS`` shows on every run.  A base
# with few basis vectors has few conjugates over them (linf_min, one vector
# per degree, has 26), so InputFactory widens the pool of a base whose
# conjugates run out (see ``widen``).
SCALE_BOUND = 2


@functools.lru_cache(maxsize=None)
def widen(bound):
    """Every ±2^k with |k| ≤ ``bound``, by increasing |k|."""
    ks = sorted(range(-bound, bound + 1), key=lambda k: (abs(k), -k))
    return tuple(x for k in ks for x in (Fraction(2) ** k, -Fraction(2) ** k))


SCALES = widen(SCALE_BOUND)


def load_fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return json.load(fh)


def voronov(n):
    """Problem dict of the Voronov family member n (n ≥ 1)."""
    v = [f"v{i}" for i in range(n + 1)]
    return {
        "kind": "voronov",
        "field": "Q",
        "space": {"0": ["u"], "1": v},
        "differential": [],
        "brackets": [{"inputs": [v[i], "u"], "terms": [[v[i - 1], str(-i)]]}
                     for i in range(1, n + 1)],
        "subalgebra": v[1:],
        "derivation": v[n],
    }


class _Basis:
    """New basis f_{rename(l)} = scale(l) · e_l of one graded space."""

    def __init__(self, space, rng, scales, fixed=()):
        self.rename = {}
        self.scale = {}
        for deg in sorted(space, key=int):
            labels = list(space[deg])
            perm = labels[:]
            rng.shuffle(perm)
            for old, new in zip(labels, perm):
                self.rename[old] = new
                self.scale[old] = Fraction(1) if old in fixed \
                    else rng.choice(scales)

    def terms(self, terms, factor=Fraction(1)):
        """Coordinates of factor · Σ c_l e_l on the new basis."""
        return [[self.rename[lab], _fmt(factor * Fraction(c) / self.scale[lab])]
                for lab, c in terms]

    def inputs(self, labels):
        factor = Fraction(1)
        for lab in labels:
            factor *= self.scale[lab]
        return [self.rename[lab] for lab in labels], factor


def _fmt(x):
    return str(Fraction(x))


def _conjugate_structure(data, basis):
    out = dict(data)
    out["differential"] = [
        {"input": basis.rename[e["input"]],
         "terms": basis.terms(e["terms"], basis.scale[e["input"]])}
        for e in data.get("differential", [])]
    brackets = []
    for e in data.get("brackets", []):
        ins, factor = basis.inputs(e["inputs"])
        brackets.append({"inputs": ins, "terms": basis.terms(e["terms"], factor)})
    out["brackets"] = brackets
    if "taylor" in data:
        taylor = []
        for e in data["taylor"]:
            ins, factor = basis.inputs(e["inputs"])
            taylor.append({"inputs": ins,
                           "terms": basis.terms(e["terms"], factor)})
        out["taylor"] = taylor
    return out


def conjugate(problem, rng, scales=SCALES):
    """A graded change-of-basis conjugate of ``problem`` (a problem dict),
    each basis vector rescaled by a member of ``scales``.

    Every vector-valued field moves with the basis: brackets, differential,
    Taylor coefficients, morphism map, samples, MC element and gauge, the
    subalgebra and the inner derivation.  The derivation's basis vector keeps
    scale 1, so the derivation names the same element as before.
    """
    kind = problem["kind"]
    if kind == "morphism":
        src = _Basis(problem["source"]["space"], rng, scales)
        tgt = _Basis(problem["target"]["space"], rng, scales)
        out = dict(problem)
        out["source"] = _conjugate_structure(problem["source"], src)
        out["target"] = _conjugate_structure(problem["target"], tgt)
        out["map"] = [{"input": src.rename[e["input"]],
                       "terms": tgt.terms(e["terms"], src.scale[e["input"]])}
                      for e in problem.get("map", [])]
        return out
    fixed = (problem["derivation"],) if kind == "voronov" else ()
    basis = _Basis(problem["space"], rng, scales, fixed)
    out = _conjugate_structure(problem, basis)
    if kind == "voronov":
        out["subalgebra"] = [basis.rename[lab] for lab in problem["subalgebra"]]
        out["derivation"] = basis.rename[problem["derivation"]]
    if "samples" in problem:
        out["samples"] = [basis.terms(s) for s in problem["samples"]]
    for key in ("element", "gauge"):
        if key in problem:
            spec = problem[key]
            out[key] = {"order": spec["order"],
                        "coefficients": {k: basis.terms(v) for k, v
                                         in spec["coefficients"].items()}}
    return out


class _Uniform:
    """A stand-in rng for ``conjugate``: no permutation, one scale for all."""

    def __init__(self, scale):
        self.scale = Fraction(scale)

    def shuffle(self, items):
        pass

    def choice(self, items):
        return self.scale


def rescale(problem, scale):
    """``problem`` with every basis vector multiplied by ``scale``."""
    return conjugate(problem, _Uniform(scale))


def problem_text(problem):
    return json.dumps(problem, sort_keys=True, indent=1)


class InputFactory:
    """Writes distinct seeded conjugates of base problems into a directory.

    Every file it writes differs from every earlier one, so no two ops in a
    run share an input.  Conjugates of a base are drawn over SCALES; after
    ``MISSES`` draws in a row that repeat an earlier input, that base's pool
    widens to the ±2^k with twice the bound on |k| (``widen``).  The pools
    grow without end, so a run never runs out of inputs, however many rounds
    it makes; only a base with few conjugates, such as linf_min, ever widens.
    Seen inputs are kept as 20-byte digests, not as texts.
    """

    MISSES = 20

    def __init__(self, seed, directory):
        self.rng = random.Random(seed)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._seen = set()
        self._bound = {}    # base name -> its scale bound, once widened
        self._count = 0

    def draw(self, name, problem):
        """Text of a conjugate of ``problem`` unlike every earlier one."""
        while True:
            bound = self._bound.get(name, SCALE_BOUND)
            scales = widen(bound)
            for _ in range(self.MISSES):
                text = problem_text(conjugate(problem, self.rng, scales))
                digest = hashlib.sha1(text.encode()).digest()
                if digest not in self._seen:
                    self._seen.add(digest)
                    return text
            self._bound[name] = 2 * bound

    def write(self, name, problem):
        text = self.draw(name, problem)
        self._count += 1
        path = self.directory / f"{self._count:05d}-{name}.json"
        path.write_text(text)
        return str(path)

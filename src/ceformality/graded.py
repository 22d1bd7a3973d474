"""Graded vector spaces, homogeneous maps, Koszul signs, and power bases."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, compress

from .linalg import Q0, identity, is_zero_mat, mat_add, mat_mul, mat_vec, zeros


def parity_sign(e):
    """(-1)^e as an int, for any integer e (negative included)."""
    return -1 if e & 1 else 1


def koszul_sign(degrees, permutation, antisymmetric=False):
    """Sign picked up when reordering graded factors by a permutation.

    ``permutation`` is a sequence p such that the reordered tuple is
    (v_{p[0]}, ..., v_{p[n-1]}), with 0-based entries.  The plain Koszul sign
    is the product of (-1)^(d_i d_j) over inversions; the antisymmetric
    variant multiplies by sgn(p).
    """
    n = len(degrees)
    perm = list(permutation)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                if (degrees[perm[i]] * degrees[perm[j]]) & 1:
                    sign = -sign
                if antisymmetric:
                    sign = -sign
    return sign


def sort_sign(items, degrees, antisymmetric=False):
    """Insertion-sort ``items`` ascending; return (sign, sorted items).

    ``degrees[i]`` is the degree of ``items[i]`` before sorting.  The sign
    accumulates Koszul factors for every adjacent swap.
    """
    seq = list(zip(items, degrees))
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1][0] > seq[j][0]:
            da, db = seq[j - 1][1], seq[j][1]
            if (da * db) & 1:
                sign = -sign
            if antisymmetric:
                sign = -sign
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            j -= 1
    return sign, tuple(x for x, _ in seq)


class GradedVectorSpace:
    """Finite-support graded space with a flat ordered basis.

    The flat order sorts by degree first, then by the given listing inside
    each degree; every helper below refers to flat indices.
    """

    def __init__(self, components):
        comps = {}
        for deg, labels in components.items():
            labels = list(labels)
            if labels:
                comps[int(deg)] = labels
        self.components = comps
        labels, degrees = [], []
        for deg in sorted(comps):
            for lab in comps[deg]:
                labels.append(lab)
                degrees.append(deg)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique across all degrees")
        self.labels = labels
        self.degrees = degrees
        self.dim = len(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}

    def index(self, label):
        return self._index[label]

    def degree(self, i):
        return self.degrees[i]

    def dim_in_degree(self, deg):
        return len(self.components.get(deg, ()))

    def indices_in_degree(self, deg):
        return [i for i, d in enumerate(self.degrees) if d == deg]

    def degree_support(self):
        return sorted(self.components)

    def shift(self, by):
        """Same labels with all degrees shifted down by ``by`` (V[by])."""
        comps = {}
        for deg, labs in self.components.items():
            comps[deg - by] = list(labs)
        return GradedVectorSpace(comps)

    def __eq__(self, other):
        return (
            isinstance(other, GradedVectorSpace)
            and self.labels == other.labels
            and self.degrees == other.degrees
        )

    def __repr__(self):
        return f"GradedVectorSpace({self.components!r})"


class GradedMap:
    """Degree-homogeneous linear map between graded spaces.

    Stored as one dense matrix on the flat bases; entries connecting basis
    vectors of incompatible degrees must vanish (checked at construction).
    """

    def __init__(self, source, target, degree, matrix, check=True):
        if len(matrix) != target.dim or any(len(r) != source.dim for r in matrix):
            raise ValueError("matrix shape does not match the flat bases")
        if check:
            bad = self._homogeneity_violation(source, target, degree, matrix)
            if bad is not None:
                raise ValueError(
                    f"entry {bad} violates degree {degree} homogeneity")
        self.source = source
        self.target = target
        self.degree = degree
        self.matrix = matrix

    @staticmethod
    def _homogeneity_violation(source, target, degree, matrix):
        """The first (row label, column label) of a nonzero entry between
        incompatible degrees, reading only the nonzero entries."""
        for r, row in enumerate(matrix):
            want = target.degrees[r] - degree
            for c in compress(range(source.dim), row):
                if source.degrees[c] != want:
                    return (target.labels[r], source.labels[c])
        return None

    def homogeneity_violation(self):
        return self._homogeneity_violation(
            self.source, self.target, self.degree, self.matrix)

    @classmethod
    def zero(cls, source, target, degree):
        return cls(source, target, degree, zeros(target.dim, source.dim))

    @classmethod
    def from_images(cls, source, target, degree, images, check=True):
        """Build from {source label: [(target label, coeff), ...]}."""
        m = zeros(target.dim, source.dim)
        for lab, terms in images.items():
            c = source.index(lab)
            for tlab, coeff in terms:
                m[target.index(tlab)][c] = Fraction(coeff)
        return cls(source, target, degree, m, check=check)

    @classmethod
    def identity_map(cls, space):
        return cls(space, space, 0, identity(space.dim))

    def apply(self, v):
        return mat_vec(self.matrix, v)

    def compose(self, other):
        """self ∘ other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        return GradedMap(
            other.source, self.target, self.degree + other.degree,
            mat_mul(self.matrix, other.matrix),
        )

    def is_zero(self):
        return is_zero_mat(self.matrix)


SYMMETRIC = "symmetric"
EXTERIOR = "exterior"


class PowerBasis:
    """Canonical basis of V^⊙n (symmetric) or V^∧n (exterior).

    Elements are weakly increasing tuples of flat indices into V.  The
    symmetric kind drops tuples repeating an odd-degree index, the exterior
    kind drops tuples repeating an even-degree index (square-zero in both
    cases).  ``normalize`` resolves an arbitrary tuple to (sign, canonical
    tuple), with sign 0 on square-zero collisions.
    """

    def __init__(self, space, kind, arity):
        if kind not in (SYMMETRIC, EXTERIOR):
            raise ValueError(f"unknown power basis kind {kind!r}")
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.space = space
        self.kind = kind
        self.arity = arity
        elems = []
        for tup in combinations_with_replacement(range(space.dim), arity):
            if self._forbidden(tup):
                continue
            elems.append(tup)
        self.elements = elems
        self._index = {t: i for i, t in enumerate(elems)}

    def _forbidden(self, tup):
        parity = 1 if self.kind == SYMMETRIC else 0
        for a, b in zip(tup, tup[1:]):
            if a == b and self.space.degrees[a] % 2 == parity:
                return True
        return False

    def __len__(self):
        return len(self.elements)

    def index(self, tup):
        return self._index[tuple(tup)]

    def degree(self, tup_or_pos):
        tup = self.elements[tup_or_pos] if isinstance(tup_or_pos, int) else tup_or_pos
        return sum(self.space.degrees[i] for i in tup)

    def normalize(self, tup):
        """(sign, canonical tuple) for an arbitrary index tuple; sign may be 0."""
        degs = [self.space.degrees[i] for i in tup]
        sign, sorted_tup = sort_sign(tup, degs, antisymmetric=(self.kind == EXTERIOR))
        if self._forbidden(sorted_tup):
            return 0, None
        return sign, sorted_tup

    def label(self, pos):
        sep = "." if self.kind == SYMMETRIC else "^"
        return sep.join(self.space.labels[i] for i in self.elements[pos])


class PowerMap:
    """Multilinear graded map V^⊙n (or V^∧n) → W of uniform degree.

    Stored as a matrix on the canonical power basis; evaluation on arbitrary
    tuples routes through normalization signs.
    """

    def __init__(self, pb, target, degree, matrix):
        if len(matrix) != target.dim or any(len(r) != len(pb) for r in matrix):
            raise ValueError("matrix shape does not match power basis / target")
        for r in range(target.dim):
            for c in range(len(pb)):
                if matrix[r][c] != 0 and target.degrees[r] != pb.degree(c) + degree:
                    raise ValueError("power map entry violates homogeneity")
        self.pb = pb
        self.target = target
        self.degree = degree
        self.matrix = matrix

    @property
    def arity(self):
        return self.pb.arity

    @classmethod
    def zero(cls, pb, target, degree):
        return cls(pb, target, degree, zeros(target.dim, len(pb)))

    def column(self, c):
        return [self.matrix[r][c] for r in range(self.target.dim)]

    def eval_tuple(self, tup):
        """Value on an arbitrary index tuple, as a vector in the target."""
        sign, canon = self.pb.normalize(tup)
        out = [Q0] * self.target.dim
        if sign == 0 or canon not in self.pb._index:
            return out
        c = self.pb.index(canon)
        for r in range(self.target.dim):
            v = self.matrix[r][c]
            if v:
                out[r] = sign * v
        return out

    def is_zero(self):
        return is_zero_mat(self.matrix)

    def add(self, other):
        if other.pb is not self.pb and other.pb.elements != self.pb.elements:
            raise ValueError("power basis mismatch")
        return PowerMap(self.pb, self.target, self.degree,
                        mat_add(self.matrix, other.matrix))

    def scale(self, c):
        c = Fraction(c)
        return PowerMap(self.pb, self.target, self.degree,
                        [[c * x for x in row] for row in self.matrix])

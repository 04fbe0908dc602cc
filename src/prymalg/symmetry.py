"""Permutation action on algebra bases and symmetric-group characters.

All basis classes have even degree, so the index-permutation action is an
unsigned permutation of basis monomials and traces are fixed-point
counts.  ``counted_character`` counts the fixed points without listing a
basis: ``counted_trace`` builds the sigma-invariant set partitions from
the set partitions of sigma's cycles, never filtering all Bell(r) of
them.  ``permutation_character`` enumerates the basis and is its oracle.
Characters are taken over a concrete deck group only: the trace of a
swap, for instance, is a torsion count, which the order alone does not
determine.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .abelian_group import concrete_order
from .algebra import DEFAULT_BASIS_DEGREE_CAP, basis, relabel_monomial
from .errors import CapExceededError, InvalidParameterError, OracleMismatchError, _Value
from .partitions import (
    enumerate_set_partitions,
    integer_partitions,
    validate_permutation,
)

MAX_CHARACTER_R = 8


class SrCharacter(_Value):
    """Class function on the symmetric group, indexed by cycle types."""

    __slots__ = ("r", "values")

    def __init__(self, r: int, values: tuple[tuple[tuple[int, ...], int], ...]):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dict(cls, r, mapping):
        expected = cycle_types(r)
        if sorted(mapping) != sorted(expected):
            raise InvalidParameterError("values must cover every cycle type")
        return cls(r, tuple((ct, int(mapping[ct])) for ct in expected))

    def as_dict(self):
        return dict(self.values)

    def value(self, cycle_type):
        ct = tuple(sorted(cycle_type, reverse=True))
        for key, val in self.values:
            if key == ct:
                return val
        raise InvalidParameterError("unknown cycle type %r" % (cycle_type,))

    @property
    def dimension(self):
        return self.value((1,) * self.r) if self.r else self.value(())


def cycle_types(r):
    """Cycle types of S_r as descending tuples, ascending lexicographic."""
    return sorted(integer_partitions(r))


def centralizer_order(cycle_type):
    """z = prod(i^{m_i} m_i!) over cycle lengths i with multiplicity m_i."""
    mult = {}
    for part in cycle_type:
        mult[part] = mult.get(part, 0) + 1
    z = 1
    for part, m in mult.items():
        z *= part**m * math.factorial(m)
    return z


def representative_permutation(cycle_type):
    """Canonical permutation of 1..r with the given cycle type (1-indexed)."""
    r = sum(cycle_type)
    sigma = list(range(1, r + 1))
    start = 1
    for length in cycle_type:
        for offset in range(length):
            src = start + offset
            dst = start + (offset + 1) % length
            sigma[src - 1] = dst
        start += length
    return tuple(sigma)


def fixed_point_count(spec, degree, sigma, basis_list=None):
    """Number of degree-slice basis monomials fixed by the relabeling."""
    if basis_list is None:
        basis_list = basis(spec, degree)
    return sum(1 for mon in basis_list if relabel_monomial(mon, sigma) == mon)


def _check_character_r(r):
    if r > MAX_CHARACTER_R:
        raise CapExceededError("characters computed for r <= %d only" % MAX_CHARACTER_R)


def permutation_character(spec, degree):
    """Trace of each cycle type on the degree slice of the algebra."""
    _check_character_r(spec.r)
    basis_list = basis(spec, degree)
    values = {}
    for ct in cycle_types(spec.r):
        sigma = representative_permutation(ct)
        values[ct] = fixed_point_count(spec, degree, sigma, basis_list)
    return SrCharacter.from_dict(spec.r, values)


def _cycles(step, points):
    """Cycles of the permutation ``step`` of ``points``, each as a list."""
    seen = set()
    cycles = []
    for p in points:
        if p in seen:
            continue
        cycle = []
        while p not in seen:
            seen.add(p)
            cycle.append(p)
            p = step(p)
        cycles.append(cycle)
    return cycles


def counted_trace(spec, degree, sigma):
    """Number of degree-slice basis monomials fixed by sigma, without a basis.

    sigma fixes a normal monomial only if it maps the monomial's set
    partition P onto itself.  The blocks of such a P fall into
    sigma-cycles C = (B -> sigma B -> ...) of some length L, and the
    blocks of one C cover a group S of sigma's cycles.  L divides every
    length in S, B meets each cycle c of S in l_c / L points, and once B
    holds the first point of S's first cycle, the first point of each
    other cycle of S may lie in any of C's L blocks.  So P is a set
    partition of sigma's cycles into groups S, an L_S dividing the gcd of
    S's lengths, and one of L_S^(|S| - 1) placements, of which the count
    needs only (S, L_S): P has sum L_S blocks, and a group {c} with
    l_c = L_S gives L_S singletons.

    Weights: those on B determine those on the rest of C and must be
    fixed, up to a common shift, by tau = sigma^L on B, whose cycles are
    S's, shortened by the factor L.  A weighting w is fixed when
    w(tau i) = w(i) + c for one c in D; c must then be killed by
    g = gcd(l_c / L), and w is free on one point of each cycle.  Dividing
    out the shift leaves |D[g]| * |D|^(|S| - 1) choices, which is 1 for a
    singleton block and for the untwisted variants' trivial group.  With
    its placements, S weighs (L * m)^(|S| - 1) * |D[g]|, m = |D|.

    Exponents: they are constant along C, so with t the half-degree left
    after the blocks' own degree and the singleton minima, they are the
    solutions of sum_C L_C x_C = t in nonnegative integers, counted by a
    coin-change table, so the degree is capped like a basis's.
    """
    if degree < 0:
        raise InvalidParameterError("degree must be >= 0")
    if degree > DEFAULT_BASIS_DEGREE_CAP:
        raise CapExceededError(
            "degree %d exceeds cap %d" % (degree, DEFAULT_BASIS_DEGREE_CAP)
        )
    sigma = validate_permutation(sigma, spec.r)
    group = spec.concrete_group()
    if degree % 2:
        return 0
    lengths = [len(c) for c in _cycles(lambda i: sigma[i - 1], range(1, spec.r + 1))]
    m = concrete_order(group)
    torsion = {g: group.torsion_count(g) for g in range(1, spec.r + 1)}
    base = degree // 2 - spec.r
    minimum = spec.variant.singleton_min_exponent
    total = 0
    for groups in enumerate_set_partitions(len(lengths)):
        # per group S: (L, weight of its placements, singletons) for each L
        choices = []
        for cycles in groups:
            ls = [lengths[c - 1] for c in cycles]
            choices.append([
                (L, (L * m) ** (len(ls) - 1) * torsion[math.gcd(*(l // L for l in ls))],
                 L if ls == [L] else 0)
                for L in range(1, min(ls) + 1)
                if all(l % L == 0 for l in ls)
            ])
        for choice in itertools.product(*choices):
            t = base + sum(L - minimum * s for L, _, s in choice)
            if t < 0:
                continue
            weights = 1
            ways = [1] + [0] * t
            for L, weight, _ in choice:
                weights *= weight
                for v in range(L, t + 1):
                    ways[v] += ways[v - L]
            total += weights * ways[t]
    return total


def counted_character(spec, degree):
    """``permutation_character`` computed by ``counted_trace``.

    The group enters only through its order and torsion counts, so deck
    groups far too large to enumerate work.
    """
    _check_character_r(spec.r)
    values = {
        ct: counted_trace(spec, degree, representative_permutation(ct))
        for ct in cycle_types(spec.r)
    }
    return SrCharacter.from_dict(spec.r, values)


def _beta_to_partition(beta_desc):
    k = len(beta_desc)
    parts = tuple(
        b - (k - 1 - i) for i, b in enumerate(beta_desc) if b - (k - 1 - i) > 0
    )
    return parts


@functools.lru_cache(maxsize=None)
def murnaghan_nakayama(lam, mu):
    """Irreducible character value chi_lam at cycle type mu.

    Recursive border-strip removal on first-column hook lengths: a strip
    of size t removes beta -> beta - t when the target is vacant, with
    sign (-1)^(number of occupied slots jumped over).
    """
    lam = tuple(sorted(lam, reverse=True))
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise InvalidParameterError("partition and cycle type sizes differ")
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    occupied = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((occupied - {b}) | {nb}, reverse=True)
        total += (-1) ** height * murnaghan_nakayama(
            _beta_to_partition(tuple(new_beta)), rest
        )
    return total


def sr_character_table(r):
    """Irreducible characters of S_r indexed by partitions of r."""
    _check_character_r(r)
    classes = cycle_types(r)
    table = {}
    for lam in sorted(integer_partitions(r), reverse=True):
        table[lam] = SrCharacter.from_dict(
            r, {ct: murnaghan_nakayama(lam, ct) for ct in classes}
        )
    return table


def decompose(character):
    """Multiplicities of the irreducibles in a genuine character.

    A fractional or negative multiplicity cannot come from an actual
    representation, so it is treated as an upstream bug and raised, never
    returned.
    """
    table = sr_character_table(character.r)
    values = character.as_dict()
    out = {}
    for lam, irr in table.items():
        total = Fraction(0)
        for ct in cycle_types(character.r):
            total += Fraction(values[ct] * irr.value(ct), centralizer_order(ct))
        if total.denominator != 1 or total < 0:
            raise OracleMismatchError(
                "multiplicity of %r is %s; input is not a genuine character"
                % (lam, total)
            )
        out[lam] = int(total)
    return out


def character_report_json(spec, degree, character, decomposition):
    """JSON shape: values per cycle type plus the irreducible decomposition."""
    group = spec.concrete_group()
    return {
        "r": spec.r,
        "degree": degree,
        "group": str(group),
        "values": [
            {"cycle_type": list(ct), "trace": val} for ct, val in character.values
        ],
        "decomposition": [
            {"partition": list(lam), "multiplicity": mult}
            for lam, mult in sorted(decomposition.items(), reverse=True)
            if mult != 0
        ],
    }

"""Permutation action on algebra bases and symmetric-group characters.

All basis classes have even degree, so the index-permutation action is an
unsigned permutation of basis monomials and traces are fixed-point
counts.  ``counted_character`` counts the fixed points over the
sigma-invariant set partitions without listing a basis;
``permutation_character`` enumerates the basis and is its oracle.
Characters are taken over a concrete deck group only: the trace of a
swap, for instance, is a torsion count, which the order alone does not
determine.
"""

from __future__ import annotations

import functools
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


def _block_cycles(blocks, sigma):
    """Cycles of the permutation sigma induces on the blocks, or None.

    None when sigma does not map the set partition onto itself.  Each
    cycle is (first block, length).  It suffices that every block lands
    inside one block: the induced map on blocks is then onto, hence a
    bijection, and each block maps onto its image.
    """
    block_of = {i: b for b, blk in enumerate(blocks) for i in blk}
    image = []
    for blk in blocks:
        target = block_of[sigma[blk[0] - 1]]
        if any(block_of[sigma[i - 1]] != target for i in blk[1:]):
            return None
        image.append(target)
    return [
        (blocks[cycle[0]], len(cycle))
        for cycle in _cycles(image.__getitem__, range(len(blocks)))
    ]


def counted_trace(spec, degree, sigma, partitions=None):
    """Number of degree-slice basis monomials fixed by sigma, without a basis.

    sigma fixes a normal monomial only if it maps the monomial's set
    partition P onto itself; for each such P the blocks fall into
    sigma-cycles C = (B -> sigma B -> ...).

    Weights: those on B determine those on the rest of C and must be
    fixed, up to a common shift, by tau = sigma^|C| on B.  The cycles of
    tau are the s cycles of sigma that meet B, shortened by the factor
    |C|.  A weighting w is fixed when w(tau i) = w(i) + c for one c in D;
    c must then be killed by every cycle length of tau, hence by their
    gcd g, and w is free on one point of each cycle.  Dividing out the
    shift leaves |D[g]| * |D|^(s - 1) choices, which is 1 for a singleton
    block and for the untwisted variants' trivial group.

    Exponents: they are constant along C, so with t the half-degree left
    after the blocks' own degree and the singleton minima, they are the
    solutions of sum_C |C| x_C = t in nonnegative integers, counted by a
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
    if partitions is None:
        partitions = enumerate_set_partitions(spec.r)
    sigma_cycles = _cycles(lambda i: sigma[i - 1], range(1, spec.r + 1))
    cycle_of = {i: c for c, cycle in enumerate(sigma_cycles) for i in cycle}
    m = concrete_order(group)
    torsion = {g: group.torsion_count(g) for g in range(1, spec.r + 1)}
    q = degree // 2
    minimum = spec.variant.singleton_min_exponent
    total = 0
    for blocks in partitions:
        singletons = sum(1 for blk in blocks if len(blk) == 1)
        t = q - (spec.r - len(blocks)) - minimum * singletons
        if t < 0:
            continue
        cycles = _block_cycles(blocks, sigma)
        if cycles is None:
            continue
        weights = 1
        ways = [1] + [0] * t
        for first, length in cycles:
            met = {cycle_of[i] for i in first}
            g = math.gcd(*(len(sigma_cycles[c]) // length for c in met))
            weights *= torsion[g] * m ** (len(met) - 1)
            for v in range(length, t + 1):
                ways[v] += ways[v - length]
        total += weights * ways[t]
    return total


def counted_character(spec, degree):
    """``permutation_character`` computed by ``counted_trace``.

    The group enters only through its order and torsion counts, so deck
    groups far too large to enumerate work.
    """
    _check_character_r(spec.r)
    partitions = enumerate_set_partitions(spec.r)
    values = {
        ct: counted_trace(spec, degree, representative_permutation(ct), partitions)
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

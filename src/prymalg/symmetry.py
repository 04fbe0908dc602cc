"""Permutation action on algebra bases and symmetric-group characters.

All basis classes have even degree, so the index-permutation action is an
unsigned permutation of basis monomials and traces are fixed-point
counts.  A character is a class function, so it is computed per cycle
type: ``counted_character`` counts the fixed points without listing a
basis, by ``_class_trace``, which builds the invariant set partitions
from the set partitions of the cycles, never filtering all Bell(r) of
them.  ``permutation_character`` enumerates the basis and is its oracle.
Characters are taken over a concrete deck group only: the trace of a
swap, for instance, is a torsion count, which the order alone does not
determine.  A character is a dict {cycle type: value} in ``cycle_types``
order; ``decompose`` checks that one it is given covers every cycle type.
The CLI's ``character`` command renders a character and its
decomposition.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .abelian_group import concrete_order
from .algebra import basis, check_basis_degree, relabel_monomial
from .errors import CapExceededError, InvalidParameterError, OracleMismatchError
from .partitions import enumerate_set_partitions, integer_partitions

MAX_CHARACTER_R = 8


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
    """Trace of each cycle type on the degree slice of the algebra, as a
    dict {cycle type: trace} in ``cycle_types`` order."""
    _check_character_r(spec.r)
    basis_list = basis(spec, degree)
    values = {}
    for ct in cycle_types(spec.r):
        sigma = representative_permutation(ct)
        values[ct] = fixed_point_count(spec, degree, sigma, basis_list)
    return values


def _class_trace(cycle_type, degree, m, torsion, minimum):
    """Number of degree-slice basis monomials fixed by any permutation
    sigma of the given cycle type, over a group of order m with
    ``torsion[g]`` = |D[g]| for g <= r, singleton blocks starting at
    exponent ``minimum``; no basis is built.

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
    if degree % 2:
        return 0
    base = degree // 2 - sum(cycle_type)
    total = 0
    for groups in enumerate_set_partitions(len(cycle_type)):
        # per group S: (L, weight of its placements, singletons) for each L
        choices = []
        for cycles in groups:
            ls = [cycle_type[c - 1] for c in cycles]
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
    """``permutation_character`` computed by ``_class_trace``, one call
    per cycle type; a single trace is ``counted_character(spec,
    degree)[cycle_type]``.

    The group enters only through its order and torsion counts, so deck
    groups far too large to enumerate work.
    """
    _check_character_r(spec.r)
    check_basis_degree(degree)
    group = spec.concrete_group()
    m = concrete_order(group)
    torsion = {g: group.torsion_count(g) for g in range(1, spec.r + 1)}
    minimum = spec.variant.singleton_min_exponent
    return {
        ct: _class_trace(ct, degree, m, torsion, minimum) for ct in cycle_types(spec.r)
    }


@functools.lru_cache(maxsize=None)
def _border_strips(beta, mu):
    """chi at cycle type mu of the partition whose beta-numbers (first
    column hook lengths) are the frozenset beta.

    A strip of size t moves b -> b - t when the target is vacant, with
    sign (-1)^(number of occupied slots jumped over).
    """
    if not mu:
        return 1
    t, rest = mu[0], mu[1:]
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for c in beta if nb < c < b)
        total += (-1) ** height * _border_strips(beta - {b} | {nb}, rest)
    return total


def murnaghan_nakayama(lam, mu):
    """Irreducible character value chi_lam at cycle type mu, by
    recursive border-strip removal on lam's beta-numbers; a zero part of
    lam adds the beta-number 0 and shifts the others by one, which moves
    no strip and changes no sign."""
    lam = tuple(sorted(lam, reverse=True))
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise InvalidParameterError("partition and cycle type sizes differ")
    k = len(lam)
    return _border_strips(frozenset(part + k - 1 - i for i, part in enumerate(lam)), mu)


def sr_character_table(r):
    """Irreducible characters of S_r indexed by partitions of r, each a
    dict {cycle type: value} in ``cycle_types`` order."""
    _check_character_r(r)
    classes = cycle_types(r)
    return {
        lam: {ct: murnaghan_nakayama(lam, ct) for ct in classes}
        for lam in sorted(integer_partitions(r), reverse=True)
    }


def decompose(character):
    """Multiplicities of the irreducibles in a genuine character, given as
    a dict {cycle type: value} that covers every cycle type of one S_r.

    Each is sum(chi * psi * r!/z) over the classes, divided by r!.  A
    fractional or negative multiplicity cannot come from an actual
    representation, so it is treated as an upstream bug and raised, never
    returned.
    """
    r = sum(next(iter(character), ()))
    table = sr_character_table(r)
    classes = cycle_types(r)
    if sorted(character) != classes:
        raise InvalidParameterError("values must cover every cycle type")
    order = math.factorial(r)
    weighted = [(ct, character[ct] * (order // centralizer_order(ct))) for ct in classes]
    out = {}
    for lam, irr in table.items():
        mult, rest = divmod(sum(value * irr[ct] for ct, value in weighted), order)
        if rest or mult < 0:
            raise OracleMismatchError(
                "multiplicity of %r is %s; input is not a genuine character"
                % (lam, Fraction(mult * order + rest, order))
            )
        out[lam] = mult
    return out

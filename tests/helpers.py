"""Shared test utilities: independent oracles and generators."""

import bisect
import itertools
import math
from fractions import Fraction

from prymalg import linalg
from prymalg.abelian_group import FiniteAbelianGroup, concrete_order
from prymalg.algebra import (
    AlgebraElement,
    NormalMonomial,
    _SliceComponents,
    _covers_all_indices,
    _oracle_generators,
    _oracle_ideal,
    format_monomial,
    multiply,
    parse_monomial,
)
from prymalg.errors import CapExceededError, InvalidParameterError
from prymalg.rigidity import (
    AbelianSymplecticAction,
    as_matrix,
    commutes_with,
    is_symplectic,
    standard_symplectic_form,
)
from prymalg.partitions import (
    MAX_SET_PARTITION_R,
    DWeightedPartition,
    _compositions,
    block_offsets,
    block_singleton_counts,
    enumerate_set_partitions,
    integer_partitions,
    merge_offsets,
    rebase_offsets,
    validate_permutation,
)
from prymalg.polynomial import IntPoly
from prymalg.series import twisted_cohomology_dims
from prymalg.symmetry import centralizer_order


def prime_factorization(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def abelian_groups_of_order(n):
    """Every isomorphism type of abelian group of order n."""
    if n == 1:
        return [FiniteAbelianGroup(())]
    per_prime = []
    for p, e in sorted(prime_factorization(n).items()):
        per_prime.append([[p**a for a in part] for part in integer_partitions(e)])
    groups = [[]]
    for options in per_prime:
        groups = [g + opt for g in groups for opt in options]
    return [FiniteAbelianGroup(tuple(g)) for g in groups]


def all_abelian_groups(max_order):
    out = []
    for n in range(1, max_order + 1):
        out.extend(abelian_groups_of_order(n))
    return out


def bell_by_recurrence(n):
    """Bell numbers via B(k+1) = sum C(k, j) B(j)."""
    bells = [1]
    for k in range(n):
        bells.append(sum(math.comb(k, j) * bells[j] for j in range(k + 1)))
    return bells[n]


def partition_count_brute(q):
    """Number of integer partitions of q by direct enumeration."""
    return len(integer_partitions(q))


def partition_counts_pentagonal(max_q):
    """Partition counts p(0..max_q) by Euler's pentagonal number theorem:
    p(n) = sum over k >= 1 of (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2))."""
    counts = [1]
    for n in range(1, max_q + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for pent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pent <= n:
                    total += sign * counts[n - pent]
            k += 1
        counts.append(total)
    return counts


def reference_stable_dims(p, max_degree):
    """Even-degree stable ring dimensions 0, 2, ..., by p prefix-sum
    passes over the partition counts, one per degree-2 class."""
    ways = partition_counts_pentagonal(max_degree // 2)
    for _ in range(p):
        ways = list(itertools.accumulate(ways))
    return ways


def torsion_count_brute(group, n):
    identity = group.identity()
    count = 0
    for x in group.elements():
        y = identity
        for _ in range(n):
            y = group.add(y, x)
        if y == identity:
            count += 1
    return count


def random_symmetric(h, rng, spread=2):
    mat = [[Fraction(0)] * h for _ in range(h)]
    for i in range(h):
        for j in range(i, h):
            val = Fraction(rng.randint(-spread, spread))
            mat[i][j] = val
            mat[j][i] = val
    return tuple(tuple(row) for row in mat)


def random_unimodular(h, rng, steps=4):
    mat = [list(row) for row in linalg.identity(h)]
    for _ in range(steps):
        i = rng.randrange(h)
        j = rng.randrange(h)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(h):
            mat[i][k] += c * mat[j][k]
    return tuple(tuple(row) for row in mat)


def dense_rref(rows):
    """Reference reduced row echelon form by dense Gauss-Jordan elimination.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = Fraction(1, 1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def dense_null_space(rows, ncols):
    """Reference null space of dense rows from ``dense_rref``, in the
    (basis_vectors, free_columns) form of ``linalg.null_space``."""
    reduced, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis, free


def dense_commutant_system(action):
    """Reference commutant system as dense rows over the (2h)^2 entries
    of X: X^T J + J X = 0, then X M - M X = 0 for each generator."""
    n = 2 * action.h
    J = standard_symplectic_form(action.h)
    rows = []
    # (X^T J + J X)[i][j] = sum_k X[k][i] J[k][j] + J[i][k] X[k][j]
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + i] += J[k][j]
                row[k * n + j] += J[i][k]
            rows.append(row)
    for M in action.generators:
        # (X M - M X)[i][j] = sum_k X[i][k] M[k][j] - M[i][k] X[k][j]
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += M[k][j]
                    row[k * n + j] -= M[i][k]
                rows.append(row)
    return rows


def cover_action(group, genus):
    """Permutation model of the Prym action of an unbranched regular
    D-cover of the closed genus-g surface: by Chevalley-Weil its rational
    homology is Q^2 + Q[D]^(2g-2), modelled as one trivial hyperbolic
    plane plus Q[D]^(g-1) on the alpha side, so h = 1 + |D|(g-1).  Each
    cyclic generator of D acts by diag(P, P) with P its translation
    permutation, which is orthogonal, so diag(P, P) preserves J.  This
    models the capped cover; it claims nothing about punctures."""
    elements = group.elements()
    index = {x: i for i, x in enumerate(elements)}
    h = 1 + len(elements) * (genus - 1)
    gens = []
    for f in range(len(group.cyclic_factors)):
        shift = group.element([int(i == f) for i in range(len(group.cyclic_factors))])
        perm = [0]  # the trivial plane is fixed
        for copy in range(genus - 1):
            base = 1 + copy * len(elements)
            perm += [base + index[group.add(x, shift)] for x in elements]
        M = [[Fraction(0)] * (2 * h) for _ in range(2 * h)]
        for src, dst in enumerate(perm):
            M[dst][src] = M[h + dst][h + src] = Fraction(1)
        gens.append(tuple(tuple(row) for row in M))
    return AbelianSymplecticAction(h, tuple(gens))


def cover_commutant_dimension(group, genus):
    """dim of the commutant of ``cover_action`` by isotypic components:
    the trivial character gives sp(2g), each of the t2 - 1 nontrivial
    real characters sp(2g-2), and each of the (|D| - t2)/2 conjugate
    pairs gl(2g-2), where t2 is the number of x with 2x = 0."""
    g = genus
    t2 = group.torsion_count(2)
    pairs = (group.order() - t2) // 2
    return g * (2 * g + 1) + (t2 - 1) * (g - 1) * (2 * g - 1) + pairs * (2 * g - 2) ** 2


def dense_determinant(mat):
    """Reference determinant by dense elimination with partial pivoting."""
    n = len(mat)
    rows = [list(map(Fraction, r)) for r in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] == 0:
                continue
            factor = rows[i][col] * inv
            for j in range(col, n):
                rows[i][j] -= factor * rows[col][j]
    return det


def random_symplectic(h, rng, factors=4):
    """Random element of Sp(2h, Q) from elementary symplectic generators."""
    n = 2 * h
    total = linalg.identity(n)
    for _ in range(factors):
        kind = rng.randrange(3)
        if kind == 0:
            B = random_symmetric(h, rng)
            blocked = [
                [linalg.identity(h)[i][j] for j in range(h)] + list(B[i])
                for i in range(h)
            ] + [
                [Fraction(0)] * h + list(linalg.identity(h)[i])
                for i in range(h)
            ]
        elif kind == 1:
            C = random_symmetric(h, rng)
            blocked = [
                list(linalg.identity(h)[i]) + [Fraction(0)] * h for i in range(h)
            ] + [
                list(C[i]) + list(linalg.identity(h)[i]) for i in range(h)
            ]
        else:
            A = random_unimodular(h, rng)
            Ainv_t = linalg.transpose(mat_inv(A))
            blocked = [
                list(A[i]) + [Fraction(0)] * h for i in range(h)
            ] + [
                [Fraction(0)] * h + list(Ainv_t[i]) for i in range(h)
            ]
        total = linalg.mat_mul(total, tuple(tuple(r) for r in blocked))
    return total


def set_partition_shape_count(shape):
    """Number of set partitions of {1..r} with the given block-size multiset."""
    r = sum(shape)
    count = math.factorial(r)
    for part in shape:
        count //= math.factorial(part)
    mult = {}
    for part in shape:
        mult[part] = mult.get(part, 0) + 1
    for m in mult.values():
        count //= math.factorial(m)
    return count


def graded_dimension_by_shapes(spec, degree):
    """Reference graded dimension: one term per integer partition of r,
    the block sizes of the set partitions it counts."""
    m_value = concrete_order(spec.group)
    symbolic = m_value is None
    minimum = spec.variant.singleton_min_exponent
    if degree % 2 == 1:
        return IntPoly.zero() if symbolic else 0
    q = degree // 2
    coeffs = [0] * (spec.r + 1)
    total = 0
    for shape in integer_partitions(spec.r):
        b = len(shape)
        base = spec.r - b
        singletons = sum(1 for part in shape if part == 1)
        t = q - base - singletons * minimum
        if t < 0:
            continue
        if b == 0:
            ways = 1 if t == 0 else 0
        else:
            ways = math.comb(t + b - 1, b - 1)
        contrib = set_partition_shape_count(shape) * ways
        if contrib == 0:
            continue
        power = base if spec.variant.twisted else 0
        if symbolic:
            coeffs[power] += contrib
        else:
            total += contrib * (m_value**power)
    return IntPoly(coeffs) if symbolic else total


def j_factor_dimensions_by_walk(j_vector, degrees):
    """Reference J-factor slices, one per degree: one term per set
    partition of {1..r+1}, visiting the partitions once for all degrees."""
    r = len(j_vector)
    hot = {a for a in range(2, r + 2) if j_vector.entries[a - 2] == 1}
    totals = {degree: IntPoly.zero() for degree in degrees}
    m_poly = IntPoly((0, 1))
    for sp in enumerate_set_partitions(r + 1):
        first = sp[0]
        if set(first) & hot:
            continue
        b = len(sp)
        base = (r + 1) - b
        mins = sum(1 for blk in sp[1:] if len(blk) == 1)
        other_power = sum(len(blk) - 1 for blk in sp[1:])
        weight = (m_poly - 1) ** (len(first) - 1) * m_poly**other_power
        for degree in degrees:
            t = degree // 2 - base - mins
            if degree % 2 == 1 or t < 0:
                continue
            totals[degree] = totals[degree] + weight * math.comb(t + b - 1, b - 1)
    return [totals[degree] for degree in degrees]


def matrix_group(generators, n, cap=1000):
    """Every product of the generators, by breadth-first search from the
    n x n identity; a finite group is closed under products alone."""
    identity = linalg.identity(n)
    elements = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for g in frontier:
            for s in generators:
                gs = linalg.mat_mul(g, s)
                if gs not in elements:
                    elements.add(gs)
                    found.append(gs)
        if len(elements) > cap:
            raise ValueError("group order exceeds %d" % cap)
        frontier = found
    return elements


def invariant_sp_dimension(generators, n):
    """dim sp(V)^G from characters: sp(V) and Sym^2 V are isomorphic
    G-modules, so it is (1/|G|) sum_g (tr(g)^2 + tr(g^2)) / 2 (Serre,
    Linear Representations of Finite Groups, 2.3)."""

    def trace(mat):
        return sum(mat[i][i] for i in range(n))

    group = matrix_group(generators, n)
    total = sum(trace(g) ** 2 + trace(linalg.mat_mul(g, g)) for g in group)
    dim = Fraction(total, 2 * len(group))
    assert dim.denominator == 1
    return int(dim)


def reference_relabel(partition, sigma):
    """Reference relabel: one offset dict per block, singletons included,
    moved along sigma and re-based on its new minimal index by adding the
    negated base offset, without ``rebase_offsets`` or ``subtract``."""
    group = partition.group
    sigma = validate_permutation(sigma, partition.r)
    new_blocks = []
    for idx, weights in partition.blocks:
        offsets = block_offsets(group, idx, weights)
        image = {sigma[i - 1]: off for i, off in offsets.items()}
        new_idx = tuple(sorted(image))
        neg_base = group.negate(image[new_idx[0]])
        new_weights = tuple(group.add(image[i], neg_base) for i in new_idx[1:])
        new_blocks.append((new_idx, new_weights))
    new_blocks.sort(key=lambda b: b[0][0])
    return DWeightedPartition._trusted(group, tuple(new_blocks), partition.r)


def reference_multiply(spec, x, y, rng=None):
    """Reference product: after each merge every pair of blocks is
    rescanned for an overlap, and the first one merged next, or a random
    one when rng is given, so the merge order can be varied."""
    if not spec.variant.is_full:
        raise InvalidParameterError("multiply is defined on the full variants")
    group = spec.concrete_group()
    items = [
        (block_offsets(group, idx, weights), exponent)
        for mon in (x, y)
        for (idx, weights), exponent in zip(mon.partition.blocks, mon.exponents)
    ]
    while True:
        overlaps = []
        for a in range(len(items)):
            for b in range(a + 1, len(items)):
                if items[a][0].keys() & items[b][0].keys():
                    overlaps.append((a, b))
        if not overlaps:
            break
        a, b = overlaps[0] if rng is None else overlaps[rng.randrange(len(overlaps))]
        (off_a, exp_a), (off_b, exp_b) = items[a], items[b]
        merged = merge_offsets(group, off_a, off_b)
        if merged is None:
            return AlgebraElement.zero()
        exponent = exp_a + exp_b + len(off_a.keys() & off_b.keys()) - 1
        items = [it for i, it in enumerate(items) if i not in (a, b)]
        items.append((merged, exponent))
    blocks = sorted(
        ((rebase_offsets(group, offsets.items()), exponent) for offsets, exponent in items),
        key=lambda be: be[0][0][0],
    )
    partition = DWeightedPartition._trusted(group, tuple(b for b, _ in blocks), spec.r)
    monomial = NormalMonomial._trusted(partition, tuple(e for _, e in blocks))
    assert monomial.degree == x.degree + y.degree
    return element_of_monomial(monomial)


def live_component_coverage(spec, degree):
    """For a primed spec, {label: set of _covers_all_indices values} over
    every member of each live component of the oracle's degree slice.  The
    reference for oracle_graded_dimension, which tests component roots
    only: its count is the number of labels whose set holds True."""
    components, monomials, gens = _oracle_ideal(spec.r, spec.concrete_group(), degree)
    minimum = spec.variant.singleton_min_exponent
    width = (degree // 2).bit_length()
    coverage = {}
    for label, mon in zip(components.labels, monomials):
        if label is not None:
            covered = _covers_all_indices(mon, gens, spec.r, minimum, width)
            coverage.setdefault(label, set()).add(covered)
    return coverage


def reference_degree(monomial):
    """Degree summed block by block: 2 per exponent, plus 2|S| - 2 for the
    a-class of every block S of two or more indices."""
    base = sum(
        2 * len(idx) - 2 for idx, _ in monomial.partition.blocks if len(idx) >= 2
    )
    return 2 * sum(monomial.exponents) + base


def element_of_monomial(monomial):
    return AlgebraElement(((Fraction(1), monomial),))


def element_of_terms(pairs):
    """The element summing (coefficient, monomial) pairs, in canonical
    order, without zero terms."""
    acc = {}
    for coeff, mon in pairs:
        acc[mon] = acc.get(mon, Fraction(0)) + Fraction(coeff)
    ordered = sorted(
        acc.items(),
        key=lambda kv: (kv[0].degree, kv[0].partition.blocks, kv[0].exponents),
    )
    terms = tuple((c, m) for m, c in ordered if c != 0)
    return AlgebraElement(terms)


def unit_monomial(r, group):
    """The empty product: every index a singleton with exponent 0."""
    blocks = tuple(((i,), ()) for i in range(1, r + 1))
    return NormalMonomial._trusted(DWeightedPartition._trusted(group, blocks, r), (0,) * r)


def element_multiply(spec, ex, ey):
    """Bilinear extension of multiply to algebra elements."""
    out = []
    for cx, mx in ex.terms:
        for cy, my in ey.terms:
            for cp, mp in multiply(spec, mx, my).terms:
                out.append((cx * cy * cp, mp))
    return element_of_terms(out)


def pair_monomials_of_degree(gens, degree):
    """Reference listing of the oracle's monomials in (index, exponent) pair
    form: the nonzero (generator index, exponent) pairs in decreasing index
    order, so v_1^2 * a is ((index of a, 1), (0, 2))."""
    if degree % 2 or not gens:
        return [] if degree else [()]
    degrees = [d for _, d in gens]
    out = []

    def extend(top, remaining, prefix):
        out.append(prefix + ((0, remaining // 2),) if remaining else prefix)
        for i in range(min(top, bisect.bisect_right(degrees, remaining) - 1), 0, -1):
            d = degrees[i]
            for e in range(1, remaining // d + 1):
                extend(i - 1, remaining - e * d, prefix + ((i, e),))

    extend(len(gens) - 1, degree, ())
    return out


def pair_times(term, monomial):
    """The product of two monomials in pair form, by merging exponents."""
    exponents = dict(monomial)
    for g, e in term:
        exponents[g] = exponents.get(g, 0) + e
    return tuple(sorted(exponents.items(), reverse=True))


def pair_oracle_relations(gens, group, degree):
    """Reference encoding of the oracle's relations, terms in pair form:
    every pair of a-classes is visited and kept when its product fits."""
    index_of = {key: i for i, (key, _) in enumerate(gens)}
    relations = []
    a_gens = [(i, key[1], d) for i, (key, d) in enumerate(gens) if key[0] == "a"]
    for gi, (S, _), d in a_gens:
        if d + 2 <= degree:
            for i, j in itertools.combinations(S, 2):
                term1 = ((gi, 1), (index_of[("v", i)], 1))
                term2 = ((gi, 1), (index_of[("v", j)], 1))
                relations.append((d + 2, (term1, term2)))
    for ia, (gi_a, key_a, d_a) in enumerate(a_gens):
        for gi_b, key_b, d_b in a_gens[ia:]:
            shared = set(key_a[0]) & set(key_b[0])
            if d_a + d_b > degree or not shared:
                continue
            lhs = ((gi_b, 1), (gi_a, 1)) if gi_b > gi_a else ((gi_a, 2),)
            merged = merge_offsets(
                group, block_offsets(group, *key_a), block_offsets(group, *key_b)
            )
            if merged is None:
                relations.append((d_a + d_b, (lhs,)))
                continue
            rhs = ((index_of[("a", rebase_offsets(group, merged.items()))], 1),)
            if len(shared) > 1:
                rhs += ((index_of[("v", min(shared))], len(shared) - 1),)
            relations.append((d_a + d_b, (lhs, rhs)))
    return relations


def pair_oracle_rows(group, degree, gens):
    """Reference rows of the oracle's degree slice: each relation times each
    complementary monomial, as a tuple of one or two pair-form monomials."""
    rows = []
    for rel_degree, terms in pair_oracle_relations(gens, group, degree):
        for f in pair_monomials_of_degree(gens, degree - rel_degree):
            rows.append(tuple(pair_times(term, f) for term in terms))
    return rows


def packed_monomials_of_degree(gens, width, total):
    """Reference listing of the oracle's degree-``total`` monomials, packed
    at ``width``, by a recursive search of its own: v_1^(total/2), then for
    each generator i from the last down to 1 and each exponent e >= 1,
    g_i^e times the monomials over gens[0..i-1] of the degree left."""
    if total % 2 or not gens:
        return [] if total else [0]
    degrees = [d for _, d in gens]
    out = []

    def extend(top, remaining, code):
        out.append(code + remaining // 2)
        for i in range(min(top, bisect.bisect_right(degrees, remaining) - 1), 0, -1):
            d = degrees[i]
            field = 1 << (width * i)
            for e in range(1, remaining // d + 1):
                extend(i - 1, remaining - e * d, code + e * field)

    extend(len(gens) - 1, total, 0)
    return out


def reference_oracle_ideal(r, group, degree):
    """``_oracle_ideal`` computed the plain way, as the same
    (components, monomials, gens): each degree listed by its own recursive
    search (``packed_monomials_of_degree``), each relation's a-class
    merge made afresh by ``pair_oracle_relations``, and the ideal carried
    through every union as each monomial row is made."""
    gens = tuple(_oracle_generators(r, group, degree))
    width = (degree // 2).bit_length()
    monomials = tuple(packed_monomials_of_degree(gens, width, degree))
    column = {code: c for c, code in enumerate(monomials)}
    parent = list(range(len(monomials)))
    dead = [False] * len(monomials)

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    factors = {}
    for rel_degree, terms in pair_oracle_relations(gens, group, degree):
        terms = [indices_to_packed(pair_to_indices(term), width) for term in terms]
        rest = degree - rel_degree
        if rest not in factors:
            factors[rest] = packed_monomials_of_degree(gens, width, rest)
        for f in factors[rest]:
            if len(terms) == 1:
                dead[find(column[terms[0] + f])] = True
                continue
            a = find(column[terms[0] + f])
            b = find(column[terms[1] + f])
            if a != b:
                parent[a] = b
                dead[b] = dead[b] or dead[a]
    roots = [find(c) for c in range(len(monomials))]
    live = sum(1 for c, root in enumerate(roots) if root == c and not dead[c])
    labels = tuple(None if dead[root] else root for root in roots)
    return _SliceComponents(labels, len(monomials) - live), monomials, gens


def pair_to_indices(monomial):
    """Pair form to the ascending tuple of generator indices, each repeated
    by its exponent, so v_1^2 * a is (0, 0, index of a)."""
    return tuple(sorted(g for g, e in monomial for _ in range(e)))


def indices_to_packed(indices, width):
    """Ascending-index form to the oracle's packed exponent vector, in which
    generator i owns the bits [width * i, width * (i + 1))."""
    return sum(1 << (width * g) for g in indices)


def packed_to_indices(code, width):
    """The oracle's packed exponent vector to the ascending-index form."""
    assert width > 0 or code == 0, "a nonzero code has no fields of width 0"
    mask = (1 << width) - 1
    out = []
    g = 0
    while code:
        out.extend([g] * (code & mask))
        code >>= width
        g += 1
    return tuple(out)


# Functions with no caller in the package: checks and conversions that
# only the tests use.


def stirling2(n, k):
    """Number of set partitions of an n-set into k blocks."""
    return sum(count for b, _, count in block_singleton_counts(n) if b == k)


def bell_number(n):
    return sum(stirling2(n, k) for k in range(n + 1))


def block_containing(partition, i):
    for idx, weights in partition.blocks:
        if i in idx:
            return idx, weights
    raise InvalidParameterError("index %d not in partition" % i)


def compatible_with(partition, j_vector):
    """Compatibility of a partition of {1..r+1} with a length-r J-vector.

    The block containing index 1 must carry no identity weight, and must
    not contain an index a >= 2 whose slot tag J_{a-1} is 1.
    """
    if partition.r != len(j_vector) + 1:
        raise InvalidParameterError(
            "partition of %d indices does not match J of length %d"
            % (partition.r, len(j_vector))
        )
    idx, weights = block_containing(partition, 1)
    if partition.group.identity() in weights:
        return False
    for a in idx:
        if a >= 2 and j_vector.entries[a - 2] == 1:
            return False
    return True


def enumerate_weighted_partitions(r, max_total_weight):
    """Kawazumi's weighted partitions, weight sum at most max_total_weight:
    tuples of (block, weight) pairs with weight + |block| >= 2."""
    if r > MAX_SET_PARTITION_R:
        raise CapExceededError("r=%d exceeds enumeration cap" % r)
    result = []
    for sp in enumerate_set_partitions(r):
        mins = [1 if len(b) == 1 else 0 for b in sp]
        budget = max_total_weight - sum(mins)
        if budget < 0:
            continue
        # the last part of each composition is the unused slack
        for extra in _compositions(budget, len(sp) + 1):
            weights = [m + e for m, e in zip(mins, extra)]
            result.append(tuple(zip(sp, weights)))
    return result


def half_degree(pairs):
    """Half-degree of a weighted partition: sum of weight + |block| - 1."""
    return sum(w + len(b) - 1 for b, w in pairs)


def matrix_rank(rows):
    reducer = linalg.RowReducer()
    for r in rows:
        reducer.add(linalg.sparse_row(r))
    return reducer.rank


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def kron(a, b):
    """Kronecker product consistent with row-major flattening of u (x) v."""
    nb = len(b)
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0])))
        for i in range(len(a))
        for k in range(nb)
    )


def mat_inv(mat):
    """Inverse via Gauss-Jordan; raises ValueError on singular input."""
    n = len(mat)
    ident = linalg.identity(n)
    aug = [list(row) + list(ident[i]) for i, row in enumerate(mat)]
    reduced, pivots = linalg.rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def preserves_form_infinitesimally(X):
    """X^T J + J X = 0, that is X^T J = J^T X since J^T = -J, for J the
    standard form of X's size."""
    J = standard_symplectic_form(len(X) // 2)
    return linalg.mat_mul(linalg.transpose(X), J) == linalg.mat_mul(
        linalg.transpose(J), X
    )


def _flatten(M):
    return tuple(x for row in M for x in row)


def free_coordinates(basis):
    """The free column of each reduced-echelon basis matrix: the index of
    its last nonzero flattened entry, where it holds 1 and every other
    basis matrix holds 0."""
    coords = []
    for B in basis:
        flat = _flatten(B)
        coords.append(max(i for i, x in enumerate(flat) if x))
    return tuple(coords)


def adjoint_matrix(action, F, basis):
    """Matrix of X -> F X F^(-1) in the commutant basis ``commutant_sp``
    returns."""
    F = as_matrix(F)
    if not is_symplectic(F):
        raise InvalidParameterError("F is not in the commutant group: not symplectic")
    for i, M in enumerate(action.generators):
        if not commutes_with(F, M):
            raise InvalidParameterError(
                "F is not in the commutant group: does not commute with generator #%d"
                % i
            )
    Finv = mat_inv(F)
    free = free_coordinates(basis)
    cols = []
    for B in basis:
        image = linalg.mat_mul(linalg.mat_mul(F, B), Finv)
        flat = _flatten(image)
        coords = [flat[c] for c in free]
        # the basis is echelon over the free coordinates, so coordinates
        # read off directly; verify the residual vanishes exactly
        recon = [Fraction(0)] * len(flat)
        for coeff, vec in zip(coords, basis):
            fv = _flatten(vec)
            for t in range(len(flat)):
                recon[t] += coeff * fv[t]
        if tuple(recon) != flat:
            raise InvalidParameterError(
                "conjugation left the commutant; basis does not match action"
            )
        cols.append(coords)
    n = len(basis)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def tensor_square_embedding(X):
    """Image of X in the tensor square, flattened row-major.

    The embedding sends X to sum_j beta_j (x) X alpha_j - alpha_j (x) X beta_j
    over the standard symplectic basis alpha_j = e_j, beta_j = e_(h+j), so
    X alpha_j and X beta_j are columns j and h + j of X; it is linear and
    injective and intertwines conjugation with the diagonal tensor-square
    action.
    """
    X = as_matrix(X)
    if not preserves_form_infinitesimally(X):
        raise InvalidParameterError("X is not in the symplectic Lie algebra")
    n = len(X)
    h = n // 2
    out = [Fraction(0)] * (n * n)
    for j in range(h):
        for k in range(n):
            out[(h + j) * n + k] = X[k][j]
            out[j * n + k] = -X[k][h + j]
    return tuple(out)


def in_commutant_group(action, F):
    """Whether F is symplectic and commutes with every generator."""
    if not is_symplectic(F):
        return False
    return all(commutes_with(F, M) for M in action.generators)


def element_to_json(element):
    """JSON form: list of (numerator, denominator, monomial string)."""
    return [
        [coeff.numerator, coeff.denominator, format_monomial(mon)]
        for coeff, mon in element.terms
    ]


def element_from_json(data, spec):
    pairs = []
    for num, den, text in data:
        pairs.append((Fraction(int(num), int(den)), parse_monomial(text, spec)))
    return element_of_terms(pairs)


def class_size(cycle_type):
    r = sum(cycle_type)
    return math.factorial(r) // centralizer_order(cycle_type)


def permutation_with_cycle_type(cycle_type, rng):
    """Random permutation of the given cycle type (for class-constancy checks)."""
    r = sum(cycle_type)
    points = list(range(1, r + 1))
    rng.shuffle(points)
    sigma = [0] * r
    pos = 0
    for length in cycle_type:
        cycle = points[pos : pos + length]
        for i, src in enumerate(cycle):
            sigma[src - 1] = cycle[(i + 1) % length]
        pos += length
    return tuple(sigma)


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


def bell_walk_trace(spec, degree, sigma, partitions):
    """The trace of sigma by filtering all set partitions of {1..r}.

    ``partitions`` is ``enumerate_set_partitions(spec.r)``, shared by the
    caller across traces.  Each set partition sigma maps onto itself
    contributes its block cycles' weights times the coin-change count of
    their exponents, as the ``symmetry._class_trace`` docstring derives; the
    partitions sigma moves are skipped.  No checks: sigma must be a
    permutation of 1..r and the degree at least 0.
    """
    if degree % 2:
        return 0
    sigma_cycles = _cycles(lambda i: sigma[i - 1], range(1, spec.r + 1))
    cycle_of = {i: c for c, cycle in enumerate(sigma_cycles) for i in cycle}
    group = spec.concrete_group()
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


def two_table_gap(r, p, k, level, genus):
    """``putman_gap``'s pair from two whole tables: the k-entry of the
    full-mcg table, and that of the level table at m = level^(2 genus)."""
    lhs = twisted_cohomology_dims(r, p, mode="full-mcg", genus=genus, max_k=k)
    rhs = twisted_cohomology_dims(r, p, mode="level", level=level, genus=genus, max_k=k)
    return lhs.entries[k], rhs.entries[k]


def table_to_json_dict(table):
    """JSON form of a DimensionTable: its r and genus and its rows, with
    the concrete value as a string."""
    return {
        "metadata": {"r": table.r, "genus": table.genus},
        "rows": [
            {
                **row,
                "dim_at_concrete_m": (
                    str(row["dim_at_concrete_m"])
                    if row["dim_at_concrete_m"] is not None
                    else None
                ),
            }
            for row in table.rows()
        ],
    }

"""Independent counts that the benchmark checks spanlab's reports against.

Plain Python only: nothing here imports spanlab, so a fault in the program
cannot leak into its own oracle.  Each count is derived from the finite
combinatorics of the construction (sizes of hom-sets between finite sets,
monotone maps between posets, orbit-stabilizer), not from the program's
enumeration code.

Conventions shared with spanlab's CLI: ``finset:b`` is the skeleton of
finite sets of size at most ``b``, so |hom(A, X)| = X ** A (and
0 ** 0 == 1).  A Lambda cell is a tuple of intervals of length at most one,
one per direction; cell c lies below cell d when every interval of d is
contained in the matching interval of c, and a diagram sends c <= d to a
morphism obj(c) -> obj(d).
"""
from __future__ import annotations

from itertools import product
from math import factorial, prod

# Enumeration ceiling spanlab applies when SPANLAB_MAX_CELLS is unset; Segal
# runs exhaustively when (free data) x (cells of the full shape) fits under it.
DEFAULT_CEILING = 50000


# ---------------------------------------------------------------------------
# shapes


def short_intervals(n: int):
    """Subintervals (i, j) of [n] of length at most one."""
    return [(i, j) for i in range(n + 1) for j in range(i, min(i + 1, n) + 1)]


def sigma_cell_count(arities) -> int:
    """Cells of the full shape: (n+1)(n+2)/2 intervals per direction."""
    return prod((n + 1) * (n + 2) // 2 for n in arities)


def lambda_poset(arities):
    """The Lambda cells and their order, built from interval containment."""
    cells = list(product(*[short_intervals(n) for n in arities]))

    def below(c, d):
        return all(i <= i2 and j2 <= j for (i, j), (i2, j2) in zip(c, d))

    return cells, below


# ---------------------------------------------------------------------------
# free data over finset:b


def _sizes(b: int):
    return range(b + 1)


def lambda_data_count(n: int, b: int) -> int:
    """Free data for arity (n,) over finset:b: the sum over vertex sizes
    X0..Xn and apex sizes A1..An of prod (X_{i-1} * X_i) ** A_i."""
    total = 0
    for xs in product(_sizes(b), repeat=n + 1):
        term = 1
        for i in range(1, n + 1):
            term *= sum((xs[i - 1] * xs[i]) ** a for a in _sizes(b))
        total += term
    return total


def level_morphism_count(n: int, b: int) -> int:
    """Morphisms of the arity-(n,) level over finset:b by orbit-stabilizer:
    natural isomorphisms out of a datum are exactly the families of
    permutations of its Lambda cells, so each datum counts prod |cell|!."""
    total = 0
    for xs in product(_sizes(b), repeat=n + 1):
        term = prod(factorial(x) for x in xs)
        for i in range(1, n + 1):
            term *= sum(factorial(a) * (xs[i - 1] * xs[i]) ** a for a in _sizes(b))
        total += term
    return total


def vertex_lower_bound(arities, b: int) -> int:
    """A lower bound on free data over finset:b: the all-vertex cells are
    maximal, so each choice of their sizes extends (every other cell can be
    the empty set, which maps uniquely anywhere)."""
    return (b + 1) ** prod(n + 1 for n in arities)


# ---------------------------------------------------------------------------
# free data over posets


def finset1_leq(u: int, v: int) -> bool:
    """finset:1 is the poset 0 < 1: |hom(u, v)| = v ** u is 0 or 1."""
    return v ** u == 1


def divisor_poset(n: int):
    """The divisors of n ordered by divisibility."""
    elems = [d for d in range(1, n + 1) if n % d == 0]
    return elems, (lambda u, v: v % u == 0)


def monotone_map_count(cells, below, elems, leq) -> int:
    """Brute-force count of maps f: cells -> elems with c <= d implying
    f(c) <= f(d): the functors from the Lambda poset into a poset."""
    related = [
        [(k, below(cells[k], c), below(c, cells[k])) for k in range(i)]
        for i, c in enumerate(cells)
    ]
    values = [None] * len(cells)

    def rec(i):
        if i == len(cells):
            return 1
        count = 0
        for v in elems:
            if all(
                (not down or leq(values[k], v)) and (not up or leq(v, values[k]))
                for k, down, up in related[i]
            ):
                values[i] = v
                count += rec(i + 1)
        return count

    return rec(0)


def poset_level_count(arities, elems, leq) -> int:
    cells, below = lambda_poset(arities)
    return monotone_map_count(cells, below, elems, leq)


# ---------------------------------------------------------------------------
# plain spans over finset:b


def span_count(b: int) -> int:
    """Spans X <- A -> Y with sizes up to b: sum over A of (sum_X X ** A) ** 2."""
    return sum(sum(x ** a for x in _sizes(b)) ** 2 for a in _sizes(b))


def invertible_span_count(b: int) -> int:
    """Spans with both legs bijections: (n!) ** 2 of them for each size n."""
    return sum(factorial(n) ** 2 for n in _sizes(b))


def mapping_fiber_objects(x: int, y: int, b: int) -> int:
    """Homotopy fiber over the feet (x, y): spans with those feet times the
    isomorphisms of the feet."""
    return sum((x * y) ** a for a in _sizes(b)) * factorial(x) * factorial(y)


def slice_objects(x: int, y: int, b: int) -> int:
    """Objects of the slice over x * y: a set A and a map A -> x * y."""
    return sum((x * y) ** a for a in _sizes(b))


# ---------------------------------------------------------------------------
# labeled spans, from hom-count tables of the coefficient categories


def cyclic_coefficients(n: int):
    """One object, the cyclic group of order n: (homs, invertible homs)."""
    return [[n]], [[n]]


def arrow_coefficients():
    """Objects 0 and 1 with one arrow 0 -> 1 besides identities."""
    return [[1, 1], [0, 1]], [[1, 0], [0, 1]]


def comma_size(homs, xi, eta) -> int:
    """Triples (x, y, m: xi(x) -> eta(y))."""
    return sum(homs[u][v] for u in xi for v in eta)


def labeled_feet(homs, b: int):
    """Labeled sets (X, xi) with X <= b."""
    objects = range(len(homs))
    return [xi for x in _sizes(b) for xi in product(objects, repeat=x)]


def labeled_span_matrix(homs, b: int):
    """W[L][R]: labeled spans with feet L and R.  Each of the A apex points
    picks a pair (x, y) of foot points and a label xi(x) -> eta(y)."""
    feet = labeled_feet(homs, b)
    return [
        [sum(comma_size(homs, xi, eta) ** a for a in _sizes(b)) for eta in feet]
        for xi in feet
    ]


def labeled_span_count(homs, b: int) -> int:
    return sum(map(sum, labeled_span_matrix(homs, b)))


def composable_triples(homs, b: int) -> int:
    """Triples (s, t, u) glued along equal labeled feet: the entry sum of W^3."""
    w = labeled_span_matrix(homs, b)
    size = range(len(w))
    w2 = [[sum(w[i][k] * w[k][j] for k in size) for j in size] for i in size]
    return sum(w2[i][k] * w[k][j] for i in size for k in size for j in size)


def invertible_labeled_spans(invertible, b: int) -> int:
    """Both legs bijections and every label invertible: (n!) ** 2 leg pairs,
    then each apex point independently an invertible label, I ** n in all."""
    total_invertible = sum(map(sum, invertible))
    return sum(factorial(n) ** 2 * total_invertible ** n for n in _sizes(b))


def labeled_fiber_objects(homs, xi, eta, b: int) -> int:
    """Labeled spans with fixed labeled feet: sets over the comma set."""
    k = comma_size(homs, xi, eta)
    return sum(k ** a for a in _sizes(b))

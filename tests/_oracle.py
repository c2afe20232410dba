"""Independent brute-force reference computations for the test suite.

Everything here is deliberately written from scratch against the defining
equations, sharing no code with the package: a plain forward-elimination
rank routine, a textbook Gauss-Jordan rref and kernel, and direct
enumeration of the derivation / inner-derivation linear systems.  Expected
values asserted in the tests were computed by these routines and then
frozen.
"""

from fractions import Fraction


def brute_rank(rows):
    """Rank by plain forward elimination, no pivoting cleverness."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while col < ncols and rank < len(work):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(rank + 1, len(work)):
            if work[r][col] != 0:
                scale = work[r][col] / pv
                for c in range(col, ncols):
                    work[r][c] -= scale * work[rank][c]
        rank += 1
        col += 1
    return rank


def brute_rref(rows, ncols):
    """Textbook Gauss-Jordan: the reduced row echelon form, zero rows dropped.

    Scans the columns left to right; in each, swaps up the first row at or
    below the current one with a nonzero entry, divides it by that entry
    and clears the column in every other row.  Returns ``(rows, pivots)``.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work[:r], pivots


def brute_kernel(rows, ncols):
    """The rref basis of the solutions of ``rows @ v = 0``, from brute_rref alone."""
    reduced, pivots = brute_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return brute_rref(basis, ncols)[0]


def brute_image_of_kernel(constraints, values):
    """The rref basis of {sum_i w_i values[i] : sum_i w_i constraints[i] = 0}.

    Row i of each list is a dense row; all constraint rows have one width,
    all value rows another.  The weights w are brute_kernel of the
    constraints transposed; their images are combined entry by entry.
    """
    n = len(constraints)
    if n == 0:
        return []
    width = len(values[0])
    transposed = [[row[c] for row in constraints] for c in range(len(constraints[0]))]
    images = []
    for w in brute_kernel(transposed, n):
        image = [Fraction(0)] * width
        for wi, row in zip(w, values):
            if wi:
                for c, x in enumerate(row):
                    image[c] += wi * x
        images.append(image)
    return brute_rref(images, width)[0]


def brute_solution_dim(rows, unknowns):
    """Dimension of the solution space of a homogeneous system."""
    if not rows:
        return unknowns
    return unknowns - brute_rank(rows)


def _triple(mult, i, j):
    return mult[i][j]


def brute_z1_dim(mult, left=None, right=None, module_dim=None):
    """dim of {d : d(e_i e_j) = e_i d(e_j) + d(e_i) e_j} by enumeration.

    ``mult[i][j][k]`` are the structure constants of the algebra; when the
    action tensors are omitted the algebra acts on itself.  Unknowns are
    indexed column-major (target-major) on purpose, differently from the
    package convention.
    """
    n = len(mult)
    if left is None:
        m = n
        left = [[mult[i][p] for p in range(n)] for i in range(n)]
        right = [[mult[p][i] for i in range(n)] for p in range(n)]
    else:
        m = module_dim
    unknowns = n * m

    def var(p, q):
        return q * n + p  # column-major on purpose

    rows = []
    for i in range(n):
        for j in range(n):
            for q in range(m):
                row = [Fraction(0)] * unknowns
                for k in range(n):
                    c = _triple(mult, i, j)[k]
                    if c:
                        row[var(k, q)] += c
                for p in range(m):
                    if left[i][p][q]:
                        row[var(j, p)] -= left[i][p][q]
                    if right[p][j][q]:
                        row[var(i, p)] -= right[p][j][q]
                rows.append(row)
    return brute_solution_dim(rows, unknowns)


def brute_n1_dim(mult, left=None, right=None, module_dim=None):
    """dim of the span of the maps a -> a x - x a, by rank of generators."""
    n = len(mult)
    if left is None:
        m = n
        left = [[mult[i][p] for p in range(n)] for i in range(n)]
        right = [[mult[p][i] for i in range(n)] for p in range(n)]
    else:
        m = module_dim
    gens = []
    for p in range(m):
        flat = []
        for i in range(n):
            for q in range(m):
                flat.append(left[i][p][q] - right[p][i][q])
        gens.append(flat)
    return brute_rank(gens) if gens else 0


def brute_h1_dim(mult, left=None, right=None, module_dim=None):
    return (brute_z1_dim(mult, left, right, module_dim)
            - brute_n1_dim(mult, left, right, module_dim))


def dual_numbers_mult():
    f = Fraction
    return [
        [[f(1), f(0)], [f(0), f(1)]],
        [[f(0), f(1)], [f(0), f(0)]],
    ]


def matrix2_mult():
    f = Fraction
    mult = [[[f(0)] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for l in range(2):
                for t in range(2):
                    if j == l:
                        mult[i * 2 + j][l * 2 + t][i * 2 + t] = f(1)
    return mult


def scalars_mult():
    return [[[Fraction(1)]]]


def upper_triangular_mult():
    f = Fraction
    mult = [[[f(0)] * 3 for _ in range(3)] for _ in range(3)]
    mult[0][0][0] = f(1)
    mult[0][1][1] = f(1)
    mult[1][2][1] = f(1)
    mult[2][2][2] = f(1)
    return mult


def brute_product(mult, u, v):
    """The product uv of two coordinate vectors, expanded from ``mult[i][j][k]``."""
    n = len(mult)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += Fraction(u[i]) * v[j] * mult[i][j][k]
    return out


def brute_vector_times(vec, rows):
    """The row vector ``vec`` times the dense matrix ``rows``: sum_p vec[p] rows[p]."""
    out = [Fraction(0)] * (len(rows[0]) if rows else 0)
    for x, row in zip(vec, rows):
        for q, y in enumerate(row):
            out[q] += Fraction(x) * y
    return out


def brute_assoc_sides(mult, i, j, k):
    """The two sides ((e_i e_j) e_k, e_i (e_j e_k)), expanded from ``mult[i][j][k]``."""
    n = len(mult)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    return (brute_product(mult, brute_product(mult, basis[i], basis[j]), basis[k]),
            brute_product(mult, basis[i], brute_product(mult, basis[j], basis[k])))


def brute_assoc_failures(mult):
    """Every basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k).

    Both sides are expanded straight from the structure constants
    ``mult[i][j][k]``; the triples come in lexicographic order.
    """
    n = len(mult)
    failures = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs, rhs = brute_assoc_sides(mult, i, j, k)
                if lhs != rhs:
                    failures.append((i, j, k))
    return failures


def dense(tensor, width):
    """The dense ``[i][j][k]`` lists of a grid of slices.

    Slice ``tensor[i][j]`` lists the nonzero ``(k, c)`` coordinates of one
    product; ``width`` is the range of k.
    """
    out = []
    for slab in tensor:
        rows = []
        for entries in slab:
            vec = [Fraction(0)] * width
            for k, c in entries:
                vec[k] = c
            rows.append(vec)
        out.append(rows)
    return out


def brute_inverse(p):
    """P^-1 read off brute_rref of [P | I]; P must be square and invertible."""
    n = len(p)
    reduced, pivots = brute_rref([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(p)], 2 * n)
    assert pivots == list(range(n)), "singular matrix"
    return [row[n:] for row in reduced]


def brute_transport(tensor, xs, ys, out):
    """The dense grid of x_i y_j = sum_ab x_i[a] y_j[b] tensor[a][b], read through out.

    ``tensor[a][b][k]`` is dense; each product is first the triple sum over
    a, b and k in the old coordinates, then mapped to sum_k w_k out[k].
    """
    width = len(out[0]) if out else 0
    grid = []
    for x in xs:
        slab = []
        for y in ys:
            w = [Fraction(0)] * len(out)
            for a, xa in enumerate(x):
                for b, yb in enumerate(y):
                    for k, c in enumerate(tensor[a][b]):
                        if xa and yb and c:
                            w[k] += Fraction(xa) * yb * c
            slab.append([sum((w[k] * out[k][l] for k in range(len(out)) if w[k]), Fraction(0))
                         for l in range(width)])
        grid.append(slab)
    return grid


def brute_change_basis(tensor, xs, ys, p):
    """``tensor`` in the new basis f_i = sum_j P[i][j] e_j of its product's space.

    xs and ys are the new bases of the two factors, as rows; for an algebra
    all three are P.  A product w in e-coordinates is w P^-1 in f-coordinates.
    """
    return brute_transport(tensor, xs, ys, brute_inverse(p))


def brute_word_span_dim(mult, gens):
    """dim of the span of the words in the basis vectors ``gens``, from ``mult[i][j][k]``.

    That span is the smallest subspace holding every e_g and closed under
    right multiplication by each e_g, since a word of length l + 1 is a word
    of length l times a generator.  Vectors are added while they raise the
    rank, and each added one is multiplied on by every generator in turn.
    """
    n = len(mult)
    span = []
    todo = [[Fraction(int(i == g)) for i in range(n)] for g in gens]
    while todo:
        v = todo.pop()
        if brute_rank(span + [v]) == len(span):
            continue
        span.append(v)
        for g in gens:
            w = [Fraction(0)] * n
            for i, vi in enumerate(v):
                if vi:
                    for k, c in enumerate(mult[i][g]):
                        w[k] += vi * c
            todo.append(w)
    return len(span)


def brute_radical_dim(mult):
    """dim rad A from ``mult[i][j][k]``, by Dickson's trace criterion on the unitization.

    A+ = A + Q1 has a unit, so over Q its radical is {x : tr L_(xy) = 0 for
    every y}: the kernel of the form T(x, y) = tr L_(xy).  Since A+/A is Q,
    which has no nonzero nilpotent ideal, rad A+ lies in A and is rad A.
    Basis index n of A+ is the adjoined unit.
    """
    n = len(mult)

    def product(a, b):
        if n in (a, b):
            other = b if a == n else a
            return [Fraction(int(k == other)) for k in range(n + 1)]
        return [Fraction(x) for x in mult[a][b]] + [Fraction(0)]

    trace = [sum(product(a, j)[j] for j in range(n + 1)) for a in range(n + 1)]
    form = [[sum(c * t for c, t in zip(product(a, b), trace)) for b in range(n + 1)]
            for a in range(n + 1)]
    return n + 1 - brute_rank(form)

"""Exact linear algebra over the rationals, on one sparse elimination engine.

Everything downstream reduces to the calculus in this module: reduced row
echelon forms, kernels, images, and the sum/intersection/quotient arithmetic
of subspaces of Q^d.  Scalars enter as ints or :class:`fractions.Fraction`
and leave as Fractions, so every equality test is exact and every subspace
has one canonical basis.

Every elimination goes through ``_rref_rows``, which takes rows as sparse
``(column, value)`` pair lists, int or Fraction, or owned int dicts, and
returns the reduced integer pivot rows of one fraction-free elimination;
``_fractions`` divides them out to sparse rref rows.  Dense callers hand it
the nonzero entries of their rows; integer constraint systems built sparse,
the rows of :mod:`semih1.spaces`, go to :func:`kernel_of_rows`, which hands
them over as owned int dicts and reads the canonical kernel basis off one
elimination with mirrored columns.  Every image of a kernel, intersections
included, is one elimination read past its constraint columns
(:func:`_image_of_kernel`); the kernel of a dense :class:`Matrix` is the
case whose images are its columns (:func:`_kernel_of_images`).

Conventions
-----------
* A :class:`Matrix` is a dense row-major grid of Fractions.
* ``kernel(m)`` is the solution space of ``m @ v = 0`` (one constraint per
  row, ambient dimension ``m.cols``); ``kernel_of_rows`` is the same for
  sparse int rows.
* A :class:`Subspace` is its unique rref basis in one sparse form, ``rows``:
  a tuple of rows, each a tuple of ``(column, Fraction)`` pairs in
  increasing column order, pivot ``(p, 1)`` first.  Two subspaces are equal
  iff these rows are; ``basis`` writes them out as a dense :class:`Matrix`.
* ``Subspace.reduce`` maps a sparse vector of such pairs to its residual in
  that form, empty iff the vector lies in the span; ``contains`` is dense.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import ShapeMismatch

F0 = Fraction(0)
F1 = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"-3/7"``, and Fractions to Fraction.

    >>> frac("2/6")
    Fraction(1, 3)
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _pairs(row):
    """The nonzero entries of a dense row as a tuple of ``(column, value)`` pairs.

    This is also the slice of a vector in the structure tensors of :mod:`.algebra`.
    """
    return tuple([(j, x) for j, x in enumerate(row) if x])


def _sparse_rows(m):
    """The rows of a :class:`Matrix` as :func:`_pairs`."""
    return [_pairs(row) for row in m.data]


def _vector(pairs, d):
    """The dense vector of length d with the given ``(column, value)`` pairs; see :func:`_pairs`."""
    v = [F0] * d
    for j, x in pairs:
        v[j] = x
    return v


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row, c, prow):
    """``a * row - f * prow``, a/f = prow[c]/row[c] in lowest terms; made primitive if a > 1."""
    g = gcd(prow[c], row[c])
    a, f = prow[c] // g, row[c] // g
    if a != 1:
        row = {j: a * x for j, x in row.items()}
    for j, v in prow.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]
    return row if a == 1 else _primitive(row)


def _rref_rows(rows, cols):
    """Reduced row echelon form of sparse rows: echelon form, then one back-substitution.

    Each row is a list of ``(column, value)`` pairs with distinct columns
    and nonzero int or Fraction values, taken one at a time as a primitive
    integer row (denominators cleared, content divided out), or a
    ``{column: int}`` dict: an int row it owns, made primitive with no copy
    (:func:`kernel_of_rows` and :func:`.algebra.separable` build them).
    While its lowest column c is a pivot, pivot row P clears it by
    ``row <- P[c] row - row[c] P``.  A row
    that reduces to zero is dropped; otherwise column c becomes a new pivot,
    made positive.  Once every column is a pivot the remaining rows are
    skipped.  The pivot rows, an echelon form, are then reduced once in
    decreasing pivot order, each against the later ones, already reduced.
    Divided by their pivots (:func:`_fractions`), they are the unique rref
    of the span whatever the row order.

    Returns ``(reduced, pivots)``: the reduced pivot rows as ``{column: int}``
    dicts, pivot entry positive, in increasing pivot order, and those pivots.
    """
    pivot_rows = {}
    for entries in rows:
        if type(entries) is dict:
            row = _primitive(entries)
        else:
            s = lcm(*(x.denominator for _, x in entries))
            row = _primitive({j: x.numerator * (s // x.denominator) for j, x in entries})
        while row and (p := min(row)) in pivot_rows:
            row = _eliminate(row, p, pivot_rows[p])
        if not row:
            continue
        pivot_rows[p] = row if row[p] > 0 else {j: -x for j, x in row.items()}
        if len(pivot_rows) == cols:
            break
    pivots = sorted(pivot_rows)
    for p in reversed(pivots):
        row = pivot_rows[p]
        for c in [c for c in row if c != p and c in pivot_rows]:
            # the later pivot rows are reduced, so row[c] stays nonzero
            row = _eliminate(row, c, pivot_rows[c])
        pivot_rows[p] = row
    return [pivot_rows[p] for p in pivots], pivots


def _fractions(reduced, pivots):
    """The reduced rows of :func:`_rref_rows` as ``Subspace.rows``: sparse, ``(p, 1)`` first."""
    return tuple(tuple([(j, Fraction(x, row[p])) for j, x in sorted(row.items())])
                 for row, p in zip(reduced, pivots))


def _combine(rows, coeffs):
    """``sum x rows[k]`` over sparse ``(k, x)`` coefficients, of sparse ``(key, value)`` rows."""
    out = {}
    for k, x in coeffs:
        for key, c in rows[k]:
            out[key] = out.get(key, F0) + x * c
    return [(key, c) for key, c in out.items() if c]


class Matrix:
    """A dense rows x cols grid of Fractions.

    Matrices are immutable by convention: no method mutates ``self``.
    Linear maps are stored with *rows as images*: row ``p`` holds the
    coordinates of the image of the p-th source basis vector, so a row
    vector ``v`` maps to ``v @ M`` and maps compose left to right.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatch(f"expected {rows}x{cols} grid")
        self.rows = rows
        self.cols = cols
        self.data = [[frac(x) for x in row] for row in data]

    @classmethod
    def _trusted(cls, data, cols):
        """A matrix on rows of Fractions of length ``cols``, taken as they are."""
        m = object.__new__(cls)
        m.rows, m.cols, m.data = len(data), cols, data
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls._trusted([[F0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = F1
        return m

    @classmethod
    def from_rows(cls, rows, cols=None):
        if not rows and cols is None:
            raise ShapeMismatch("cannot infer width of an empty matrix")
        return cls(rows, len(rows), cols if cols is not None else len(rows[0]))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __repr__(self):
        return f"Matrix({self.data!r})"

    def transpose(self):
        t = Matrix.zeros(self.cols, self.rows)
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                if x:
                    t.data[j][i] = x
        return t

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch("inner dimensions differ")
        out = Matrix.zeros(self.rows, other.cols)
        odata = other.data
        for i, row in enumerate(self.data):
            orow = out.data[i]
            for k, x in enumerate(row):
                if x:
                    brow = odata[k]
                    for j, y in enumerate(brow):
                        if y:
                            orow[j] += x * y
        return out

    def flatten(self):
        """Row-major flattening; the shared map-coordinate convention."""
        out = []
        for row in self.data:
            out.extend(row)
        return out

    def rank(self):
        _, pivots = _rref_rows(_sparse_rows(self), self.cols)
        return len(pivots)


def _reshape(flat, rows, cols) -> Matrix:
    """The rows x cols matrix of a row-major list of Fractions, taken as it is."""
    return Matrix._trusted([flat[r * cols:(r + 1) * cols] for r in range(rows)], cols)


def unflatten(vec, rows, cols):
    """Inverse of :meth:`Matrix.flatten` for a rows x cols map."""
    if len(vec) != rows * cols:
        raise ShapeMismatch(f"expected {rows * cols} coordinates, got {len(vec)}")
    return _reshape([frac(x) for x in vec], rows, cols)


def rref(m: Matrix) -> Matrix:
    """The unique reduced row echelon form over Q, zero rows dropped.

    >>> rref(Matrix([[2, 4], [1, 2]])).data
    [[Fraction(1, 1), Fraction(2, 1)]]
    >>> rref(Matrix([[1, 2], [3, 4]])) == Matrix.identity(2)
    True
    """
    rows = _fractions(*_rref_rows(_sparse_rows(m), m.cols))
    return Matrix._trusted([_vector(row, m.cols) for row in rows], m.cols)


class Subspace:
    """A subspace of Q^d held by its canonical rref basis, as sparse rows.

    ``rows`` is a tuple with one tuple of ``(column, Fraction)`` pairs per
    basis vector: nonzero values, columns increasing, pivot entry ``(p, 1)``
    first, and each pivot column absent from every other row.  Pivots
    strictly increase down the rows, so two subspaces are equal iff their
    rows are.  Only this module builds one; ``basis`` is the dense
    :class:`Matrix` of the rows, written out on each read.  ``reduce`` tests
    membership on sparse pairs; ``contains`` takes a dense vector.

    >>> s = Subspace.from_vectors(3, [[0, 2, 2], [0, 1, 1], [1, 0, 1]])
    >>> s.dim
    2
    >>> s.contains([1, 1, 2])
    True
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient, rows):
        self.ambient = ambient
        self.rows = rows

    @classmethod
    def from_vectors(cls, ambient, vectors):
        if any(len(v) != ambient for v in vectors):
            raise ShapeMismatch("vector length differs from ambient dimension")
        return _span_of_rows([_pairs(map(frac, v)) for v in vectors], ambient)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        return Matrix._trusted([_vector(row, self.ambient) for row in self.rows], self.ambient)

    def reduce(self, pairs):
        """Residual of a sparse vector of ``(column, Fraction)`` pairs modulo the span.

        Linear in the vector, it is the tuple of nonzero pairs left off the
        pivots, columns increasing: empty iff the vector lies in the span.
        """
        v = dict(pairs)
        for row in self.rows:
            if f := v.get(row[0][0]):
                for j, x in row:
                    v[j] = v.get(j, F0) - f * x
        return tuple(sorted((j, x) for j, x in v.items() if x))

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise ShapeMismatch("vector length differs from ambient dimension")
        return not self.reduce(_pairs(map(frac, vec)))

    def contains_subspace(self, other) -> bool:
        if other.ambient != self.ambient:
            raise ShapeMismatch("ambient dimensions differ")
        return not any(map(self.reduce, other.rows))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _span_of_rows(rows, ambient) -> Subspace:
    """The span of sparse ``(column, value)`` rows inside Q^ambient."""
    return Subspace(ambient, _fractions(*_rref_rows(rows, ambient)))


def kernel(m: Matrix) -> Subspace:
    """Solution space of ``m @ v = 0`` in ambient dimension ``m.cols``.

    These are the weights v with ``sum_j v_j (column j of m) = 0``, read
    off one elimination on the columns (:func:`_kernel_of_images`).

    >>> kernel(Matrix([[1, 1]])).basis.data
    [[Fraction(1, 1), Fraction(-1, 1)]]
    >>> kernel(Matrix.identity(4)).dim
    0
    """
    return _kernel_of_images(_sparse_rows(m.transpose()), m.cols, m.rows)


def kernel_of_rows(rows, cols) -> Subspace:
    """Solution space in Q^cols of a list of sparse rows of ``(column, int)`` pairs.

    Each row is one constraint ``sum value * v[column] = 0``; its columns
    are distinct and its values nonzero ints.  Each row enters the engine
    as a fresh ``{column: int}`` dict with column j as ``cols - 1 - j``, so
    each pivot p is the highest column of its row, and the solutions of the
    free columns f (1 at f, ``-row[f] / row[p]`` at each p) are zero before
    f and at the other free columns: the rref basis, read off as sparse
    rows with the pivots p in increasing order.

    >>> k = kernel_of_rows([[(0, 1), (1, 1), (3, 2)], [(2, 2), (3, 2)]], 4)
    >>> [[str(x) for x in row] for row in k.basis.data]
    [['1', '0', '1/2', '-1/2'], ['0', '1', '1/2', '-1/2']]
    """
    last = cols - 1
    reduced, pivots = _rref_rows([{last - j: x for j, x in row} for row in rows], cols)
    pivot_set = set(pivots)
    # keyed by mirrored free column j: the solution of free column last - j
    solution = {j: [(last - j, F1)] for j in range(cols) if j not in pivot_set}
    for row, p in zip(reduced[::-1], pivots[::-1]):
        for j, x in row.items():
            if j != p:
                solution[j].append((last - p, Fraction(-x, row[p])))
    return Subspace(cols, tuple(map(tuple, reversed(solution.values()))))


def _image_of_kernel(constraints, values, head, ambient) -> Subspace:
    """{sum_i w_i values[i] : sum_i w_i constraints[i] = 0} in Q^ambient, from one elimination.

    Row i is constraints[i], sparse pairs on int columns below ``head``, then
    values[i] shifted past ``head``.  ``_rref_rows`` pivots on the lowest
    column, so the reduced rows pivoted past ``head`` are zero before it:
    shifted back, they are the rref rows of the image.
    """
    reduced, pivots = _rref_rows([[*c, *[(head + j, x) for j, x in v]]
                                  for c, v in zip(constraints, values)], head + ambient)
    k = sum(p < head for p in pivots)
    shifted = [{j - head: x for j, x in row.items()} for row in reduced[k:]]
    return Subspace(ambient, _fractions(shifted, [p - head for p in pivots[k:]]))


def _kernel_of_images(images, n, head) -> Subspace:
    """{a in Q^n : sum_i a_i images[i] = 0}; images[i] lists (column below head, nonzero value)."""
    return _image_of_kernel(images, [((i, F1),) for i in range(n)], head, n)


def image(m: Matrix) -> Subspace:
    """Column space of ``m``: the image of v -> m @ v, ambient ``m.rows``."""
    return Subspace.from_vectors(m.rows, m.transpose().data)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise ShapeMismatch("ambient dimensions differ")
    return _span_of_rows(a.rows + b.rows, a.ambient)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection: the image of a kernel on rows ``(a_i | a_i)`` and ``(b_j | 0)`` (Zassenhaus).

    >>> e = Matrix.identity(3).data
    >>> s = intersect(Subspace.from_vectors(3, e[:2]), Subspace.from_vectors(3, e[1:]))
    >>> s.basis.data
    [[Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)]]
    """
    if a.ambient != b.ambient:
        raise ShapeMismatch("ambient dimensions differ")
    return _image_of_kernel(a.rows + b.rows, a.rows + ((),) * b.dim, a.ambient, a.ambient)


def product_subspace(*parts: Subspace) -> Subspace:
    """External direct sum of the parts inside Q^(sum of their ambients), blocks side by side."""
    rows, offset = [], 0
    # Block-diagonal stacking of rref bases is already in rref form.
    for part in parts:
        rows += [tuple([(offset + j, x) for j, x in row]) for row in part.rows]
        offset += part.ambient
    return Subspace(offset, tuple(rows))


def _solve_rows(rows, cols):
    """One solution x of sparse rows whose column ``cols`` holds the right-hand side, else None."""
    reduced, pivots = _rref_rows(rows, cols + 1)
    if cols in pivots:
        return None
    x = [F0] * cols
    for row, pc in zip(reduced, pivots):
        x[pc] = Fraction(row.get(cols, 0), row[pc])
    return x

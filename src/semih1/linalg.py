"""Exact linear algebra over the rationals, on one sparse elimination engine.

Everything downstream reduces to the calculus in this module: reduced row
echelon forms, kernels, images, and the sum/intersection/quotient arithmetic
of subspaces of Q^d.  Scalars enter as ints or :class:`fractions.Fraction`
and leave as Fractions, so every equality test is exact and every subspace
has one canonical basis.

Every elimination goes through ``_rref_rows``, which takes rows as sparse
lists of ``(column, value)`` pairs, int or Fraction, and works on
fraction-free integer rows inside: it builds an echelon form one row at a
time, then back-substitutes once (see its docstring).  Dense callers hand it
the nonzero entries of their rows; constraint systems built sparse, such as
the integer rows of :mod:`semih1.spaces`, go straight to :func:`kernel_of_rows`.

Conventions
-----------
* A :class:`Matrix` is a dense row-major grid of Fractions.
* ``kernel(m)`` is the solution space of ``m @ v = 0`` (one constraint per
  row, ambient dimension ``m.cols``); ``kernel_of_rows`` is the same for
  sparse rows.
* A :class:`Subspace` stores the unique reduced-row-echelon basis of a
  subspace; two subspaces are equal iff their bases are bit-equal.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, NotASubspace, ShapeMismatch

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
    integer row (denominators cleared, content divided out; an int row
    passes unchanged but for its content).  While its lowest nonzero column
    c is a pivot, pivot row P clears it by ``row <- P[c] row - row[c] P``.
    A row that reduces to zero is dropped; otherwise column c becomes a new
    pivot, made positive.  Once every column is a pivot the remaining rows
    are skipped.  The pivot rows, an echelon form, are then reduced once in
    decreasing pivot order, each against the later ones, already reduced.
    Divided by their pivots, they are the unique rref of the span whatever
    the row order.

    Returns ``(reduced_rows, pivot_columns)``: the pivot rows as dense
    Fraction rows of length ``cols`` in increasing pivot order, and those pivots.
    """
    pivot_rows = {}
    for entries in rows:
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
    reduced = []
    for p in reversed(pivots):
        row = pivot_rows[p]
        for c in [c for c in row if c != p and c in pivot_rows]:
            # the later pivot rows are reduced, so row[c] stays nonzero
            row = _eliminate(row, c, pivot_rows[c])
        pivot_rows[p] = row
        dense = [F0] * cols
        for j, x in row.items():
            dense[j] = Fraction(x, row[p])
        reduced.append(dense)
    return reduced[::-1], pivots


def _combine(rows, coeffs):
    """``sum_k coeffs[k] rows[k]`` of sparse ``(key, value)`` rows, as sparse pairs."""
    out = {}
    for x, row in zip(coeffs, rows):
        if x:
            for key, c in row:
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
    def zeros(cls, rows, cols):
        m = object.__new__(cls)
        m.rows, m.cols = rows, cols
        m.data = [[F0] * cols for _ in range(rows)]
        return m

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

    def apply(self, vec):
        """Image of a row vector under this map: ``vec @ self``."""
        if len(vec) != self.rows:
            raise ShapeMismatch("vector length does not match map source")
        out = [F0] * self.cols
        for p, x in enumerate(vec):
            if x:
                row = self.data[p]
                for q, y in enumerate(row):
                    if y:
                        out[q] += x * y
        return out

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def flatten(self):
        """Row-major flattening; the shared map-coordinate convention."""
        out = []
        for row in self.data:
            out.extend(row)
        return out

    def rank(self):
        _, pivots = _rref_rows([_pairs(row) for row in self.data], self.cols)
        return len(pivots)


def unflatten(vec, rows, cols):
    """Inverse of :meth:`Matrix.flatten` for a rows x cols map."""
    if len(vec) != rows * cols:
        raise ShapeMismatch(f"expected {rows * cols} coordinates, got {len(vec)}")
    return Matrix.from_rows([list(vec[i * cols:(i + 1) * cols]) for i in range(rows)], cols=cols)


def rref(m: Matrix) -> Matrix:
    """The unique reduced row echelon form over Q, zero rows dropped.

    >>> rref(Matrix([[2, 4], [1, 2]])).data
    [[Fraction(1, 1), Fraction(2, 1)]]
    >>> rref(Matrix([[1, 2], [3, 4]])) == Matrix.identity(2)
    True
    """
    rows, _ = _rref_rows([_pairs(row) for row in m.data], m.cols)
    return Matrix.from_rows(rows, cols=m.cols)


class Subspace:
    """A subspace of Q^d held by its canonical rref basis.

    The basis rows are nonzero, pivots are 1, pivot columns strictly
    increase and are zero elsewhere, so two subspaces are equal iff their
    bases compare equal entry by entry.

    >>> s = Subspace.from_vectors(3, [[0, 2, 2], [0, 1, 1], [1, 0, 1]])
    >>> s.dim
    2
    >>> s.contains([1, 1, 2])
    True
    """

    __slots__ = ("ambient", "basis", "_sparse")

    def __init__(self, ambient, basis: Matrix):
        if basis.cols != ambient:
            raise DimensionMismatch("basis width differs from ambient dimension")
        self.ambient = ambient
        self.basis = basis
        self._sparse = None

    @classmethod
    def from_vectors(cls, ambient, vectors):
        return _span_of_rows([_pairs(map(frac, v)) for v in vectors], ambient)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, Matrix.from_rows([], cols=ambient))

    @classmethod
    def full(cls, ambient):
        return cls(ambient, Matrix.identity(ambient))

    @property
    def dim(self):
        return self.basis.rows

    def _sparse_rows(self):
        """Each basis row as (pivot column, its nonzero pairs), worked out once."""
        if self._sparse is None:
            self._sparse = []
            for row in self.basis.data:
                nz = _pairs(row)
                self._sparse.append((nz[0][0], nz))
        return self._sparse

    def pivot_columns(self):
        return [piv for piv, _ in self._sparse_rows()]

    def reduce(self, vec):
        """Residual of ``vec`` after elimination by the basis.

        The residual is zero exactly when ``vec`` lies in the subspace, and
        depends linearly on ``vec``.
        """
        if len(vec) != self.ambient:
            raise DimensionMismatch("vector length differs from ambient dimension")
        v = list(map(frac, vec))
        for piv, nz in self._sparse_rows():
            f = v[piv]
            if f:
                for j, x in nz:
                    v[j] -= f * x
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains_subspace(self, other) -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains(row) for row in other.basis.data)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _span_of_rows(rows, ambient) -> Subspace:
    """The span of sparse ``(column, value)`` rows inside Q^ambient."""
    reduced, _ = _rref_rows(rows, ambient)
    return Subspace(ambient, Matrix.from_rows(reduced, cols=ambient))


def kernel(m: Matrix) -> Subspace:
    """Solution space of ``m @ v = 0`` in ambient dimension ``m.cols``.

    >>> kernel(Matrix([[1, 1]])).basis.data
    [[Fraction(1, 1), Fraction(-1, 1)]]
    >>> kernel(Matrix.identity(4)).dim
    0
    """
    return kernel_of_rows([_pairs(row) for row in m.data], m.cols)


def kernel_of_rows(rows, cols) -> Subspace:
    """Solution space in Q^cols of sparse rows of ``(column, value)`` pairs.

    Each row is one constraint ``sum value * v[column] = 0``; its columns
    are distinct and its values nonzero ints or Fractions.

    >>> k = kernel_of_rows([[(0, F1), (2, -F1)], []], 3)
    >>> k.dim, k.contains([1, 5, 1])
    (2, True)
    """
    rows, pivots = _rref_rows(rows, cols)
    pivot_set = set(pivots)
    # one solution per free column fc: 1 there and -row[fc] at each pivot
    return _span_of_rows([[(fc, F1)] + [(pc, -row[fc]) for row, pc in zip(rows, pivots) if row[fc]]
                          for fc in range(cols) if fc not in pivot_set], cols)


def _by_coordinate(images):
    """Sparse images transposed: coordinate -> the (i, value) pairs of images[i] there."""
    rows = {}
    for i, image in enumerate(images):
        for key, c in image:
            rows.setdefault(key, []).append((i, c))
    return rows


def _kernel_of_images(images, n) -> Subspace:
    """{a in Q^n : sum_i a_i images[i] = 0}; images[i] lists (coordinate, nonzero value).

    Coordinates are any hashable keys, distinct within one image.
    """
    return kernel_of_rows(list(_by_coordinate(images).values()), n)


def image(m: Matrix) -> Subspace:
    """Column space of ``m``: the image of v -> m @ v, ambient ``m.rows``."""
    return Subspace.from_vectors(m.rows, m.transpose().data)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.from_vectors(a.ambient, a.basis.data + b.basis.data)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, via the kernel of the stacked-coefficient system.

    A vector in the intersection is a combination of a-basis rows that is
    simultaneously a combination of b-basis rows; solving for the paired
    coefficients and projecting onto the a-part yields the intersection.

    >>> e = Matrix.identity(3).data
    >>> s = intersect(Subspace.from_vectors(3, e[:2]), Subspace.from_vectors(3, e[1:]))
    >>> s.basis.data
    [[Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)]]
    """
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient)
    # the coefficients (c, d) with sum_i c_i a_i - sum_i d_i b_i = 0
    a_rows = [nz for _, nz in a._sparse_rows()]
    b_rows = [[(j, -x) for j, x in nz] for _, nz in b._sparse_rows()]
    coeffs = _kernel_of_images(a_rows + b_rows, a.dim + b.dim)
    return _span_of_rows([_combine(a_rows, c) for c in coeffs.basis.data], a.ambient)


def quotient_dim(big: Subspace, small: Subspace) -> int:
    """dim(big/small); raises :class:`NotASubspace` unless small <= big."""
    if big.ambient != small.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if not big.contains_subspace(small):
        raise NotASubspace("claimed subspace is not contained in the larger space")
    return big.dim - small.dim


def product_subspace(a: Subspace, b: Subspace) -> Subspace:
    """External direct sum a x b inside Q^(da+db), blocks side by side."""
    da, db = a.ambient, b.ambient
    vectors = []
    for row in a.basis.data:
        vectors.append(list(row) + [F0] * db)
    for row in b.basis.data:
        vectors.append([F0] * da + list(row))
    # Block-diagonal stacking of two rref bases is already in rref form.
    return Subspace(da + db, Matrix.from_rows(vectors, cols=da + db))


def solve_right(m: Matrix, rhs) -> "list[Fraction] | None":
    """One solution x of ``m @ x = rhs``, or None if inconsistent."""
    if len(rhs) != m.rows:
        raise ShapeMismatch("right-hand side length differs from row count")
    return _solve_rows([_pairs(row + [frac(b)]) for row, b in zip(m.data, rhs)], m.cols)


def _solve_rows(rows, cols):
    """:func:`solve_right` on sparse rows whose column ``cols`` holds the right-hand side."""
    reduced, pivots = _rref_rows(rows, cols + 1)
    if cols in pivots:
        return None
    x = [F0] * cols
    for row, pc in zip(reduced, pivots):
        x[pc] = row[cols]
    return x

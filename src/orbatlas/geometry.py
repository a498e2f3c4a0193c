"""Points of C^n, similarity affine maps, polynomial maps and exact ball predicates.

All linear parts are required to satisfy A^H A = lambda * Id with lambda in the
real subfield, so the image of a ball is again a ball and every containment,
membership and disjointness question below is decided exactly.

``AffineMap.compose`` keeps one module-level table, ``_COMPOSITES``, keyed by
the pair (outer, inner) by value: one entry per distinct pair, never evicted,
so an equal pair gets the same result object, with its cached inverse, factor
and hash.  It stays small because the maps composed are drawn from the finite
germ sets of the atlases in play (chart-group elements and stored embeddings).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

from .errors import ConductorMismatchError, DimensionMismatchError, NotSimilarityError
from .field import SUPPORTED_CONDUCTORS, _AUT, _MUL, CycNum, _make, _real_nums, sign_quadratic, sign_real


def _as_cyc(m: int, value) -> CycNum:
    if isinstance(value, CycNum):
        return value
    return CycNum.rational(m, value)


@dataclass(frozen=True)
class Point:
    """A point of C^n with exact cyclotomic coordinates."""

    coords: tuple[CycNum, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, m: int, *values) -> Point:
        return cls(tuple(_as_cyc(m, v) for v in values))

    @classmethod
    def origin(cls, m: int, dim: int) -> Point:
        zero = CycNum.rational(m, 0)
        return cls((zero,) * dim)

    def __add__(self, other: Point) -> Point:
        return Point(tuple(a + b for a, b in zip(self.coords, other.coords)))


def _dist2_nums(p: Point, q: Point, m: int | None = None) -> tuple[list[int], int]:
    """Integer numerators over one positive denominator of |p - q|^2.

    The one input check of ``dist2`` and the ball predicates: points of two
    lengths raise DimensionMismatchError, and a coordinate over a conductor
    other than m (by default p's) raises ConductorMismatchError.

    Per coordinate, x - y = n / (x_d y_d) with n = x_n y_d - y_n x_d, and
    |x - y|^2 has numerators n * conj(n) over (x_d y_d)^2.  A coordinate whose
    denominator equals the running one is added as it is; any other multiplies
    the running denominator.  No gcd is taken.
    """
    if len(p.coords) != len(q.coords):
        raise DimensionMismatchError(f"squared distance of points of dims {p.dim} and {q.dim}")
    if not p.coords:
        raise DimensionMismatchError("squared distance of dimension-0 points")
    if m is None:
        m = p.coords[0].m
    mul, conj = _MUL[m], _AUT[m][-1 % m]
    total, den = [0] * len(p.coords[0]._n), 1
    for x, y in zip(p.coords, q.coords):
        if x.m != m or y.m != m:
            raise ConductorMismatchError(f"coordinates over conductors {x.m} and {y.m}, expected {m}")
        xd, yd = x._d, y._d
        n = [a * yd - b * xd for a, b in zip(x._n, y._n)]
        sq = mul(n, conj(n))
        d = (xd * yd) ** 2
        if d == den:
            total = [s + t for s, t in zip(total, sq)]
        else:
            total = [s * d + t * den for s, t in zip(total, sq)]
            den *= d
    return total, den


def dist2(p: Point, q: Point) -> CycNum:
    """|p - q|^2, an element of the real subfield; mismatched points raise."""
    nums, den = _dist2_nums(p, q)
    return _make(p.coords[0].m, nums, den)


class AffineMap:
    """z -> A z + b with A^H A = lambda * Id (an exact similarity)."""

    __slots__ = ("a", "b", "dim", "_factor", "_inv", "_hash")

    def __init__(self, a: tuple[tuple[CycNum, ...], ...], b: Point):
        n = len(b.coords)
        if len(a) != n or any(len(row) != n for row in a):
            raise DimensionMismatchError("matrix shape does not match translation part")
        self.a = a
        self.b = b
        self.dim = n
        self._factor = self._check_similarity()
        self._inv = None
        self._hash = None

    def _check_similarity(self) -> CycNum:
        n = self.dim
        if n == 0:
            return None
        m = self.b.coords[0].m
        lam = None
        for i in range(n):
            for j in range(i, n):
                # (A^H A)_{ij} = sum_k conj(a_ki) a_kj
                entry = None
                for k in range(n):
                    t = self.a[k][i].conj() * self.a[k][j]
                    entry = t if entry is None else entry + t
                if i == j:
                    if lam is None:
                        lam = entry
                    elif entry != lam:
                        raise NotSimilarityError("diagonal of A^H A is not constant")
                elif not entry.is_zero():
                    raise NotSimilarityError("A^H A has a nonzero off-diagonal entry")
        if not lam.is_real() or sign_real(lam) < 0:
            raise NotSimilarityError("similarity factor is not a nonnegative real")
        return lam if not lam.is_zero() else CycNum.rational(m, 0)

    # -- basic data ---------------------------------------------------------

    @property
    def factor(self) -> CycNum:
        """lambda with A^H A = lambda * Id; None in dimension 0.  A composite
        leaves it unset, and the first read takes the squared norm of the first
        column, sum_k |a_k0|^2, which is lambda exactly."""
        lam = self._factor
        if lam is None and self.dim:
            col = [row[0] for row in self.a]
            lam = self._factor = _dot(_ZERO[self.b.coords[0].m], [c.conj() for c in col], col)
        return lam

    def is_invertible(self) -> bool:
        return self.dim == 0 or not self.factor.is_zero()

    def is_identity(self) -> bool:
        if any(not c.is_zero() for c in self.b.coords):
            return False
        n = self.dim
        for i in range(n):
            for j in range(n):
                want = 1 if i == j else 0
                if self.a[i][j] != want:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.a, self.b.coords))
        return self._hash

    def __repr__(self):
        return f"AffineMap(a={self.a!r}, b={self.b!r})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def _make(cls, a, b: Point, factor) -> AffineMap:
        """Trusted constructor for composites and inverses of validated
        similarities; factor None leaves the factor to its first read."""
        obj = cls.__new__(cls)
        obj.a = a
        obj.b = b
        obj.dim = len(a)
        obj._factor = factor
        obj._inv = None
        obj._hash = None
        return obj

    @classmethod
    def identity(cls, m: int, dim: int) -> AffineMap:
        one = CycNum.rational(m, 1)
        zero = CycNum.rational(m, 0)
        a = tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim))
        return cls(a, Point.origin(m, dim))

    @classmethod
    def scaling(cls, m: int, dim: int, scalar) -> AffineMap:
        """z -> scalar * z (scalar a CycNum or rational)."""
        s = _as_cyc(m, scalar)
        zero = CycNum.rational(m, 0)
        a = tuple(tuple(s if i == j else zero for j in range(dim)) for i in range(dim))
        return cls(a, Point.origin(m, dim))

    @classmethod
    def translation(cls, m: int, b: Point) -> AffineMap:
        return cls.identity(m, b.dim).shift(b)

    def shift(self, b: Point) -> AffineMap:
        return AffineMap(self.a, self.b + b)

    # -- action and composition ----------------------------------------------

    def __call__(self, p: Point) -> Point:
        z = p.coords
        if len(z) != self.dim:
            raise DimensionMismatchError(f"point of dim {len(z)} under map of dim {self.dim}")
        return Point(tuple(_dot(bi, row, z) for bi, row in zip(self.b.coords, self.a)))

    def compose(self, other: AffineMap) -> AffineMap:
        """self after other: (self . other)(z) = self(other(z)).  A pair equal
        to one composed before gets that result object from ``_COMPOSITES``."""
        out = _COMPOSITES.get((self, other))
        if out is not None:
            return out
        if self.dim != other.dim:
            raise DimensionMismatchError("composition of maps of different dimensions")
        zero = _ZERO[self.b.coords[0].m] if self.dim else None
        cols = tuple(zip(*other.a))
        a = tuple(tuple(_dot(zero, row, col) for col in cols) for row in self.a)
        out = _COMPOSITES[self, other] = AffineMap._make(a, self(other.b), None)
        return out

    def inverse(self) -> AffineMap:
        """Exact inverse; uses A^{-1} = A^H / lambda for similarities."""
        if self.dim == 0:
            return self
        if self._inv is not None:
            return self._inv
        if not self.is_invertible():
            raise ZeroDivisionError("affine map with zero similarity factor")
        n = self.dim
        inv_lam = self.factor.inv()
        ainv = tuple(
            tuple(self.a[j][i].conj() * inv_lam for j in range(n)) for i in range(n)
        )
        partial = AffineMap._make(ainv, Point.origin(self.b.coords[0].m, n), inv_lam)
        mb = Point(tuple(-c for c in partial(self.b).coords))
        self._inv = AffineMap._make(ainv, mb, inv_lam)
        return self._inv


_ZERO = {m: CycNum.rational(m, 0) for m in SUPPORTED_CONDUCTORS}
_COMPOSITES: dict[tuple[AffineMap, AffineMap], AffineMap] = {}


def _dot(acc: CycNum, xs, ys) -> CycNum:
    """acc + sum_k xs[k] * ys[k], normalised once.

    Each product is formed on the integer numerators, with the scalar fast
    paths of ``CycNum.__mul__``; a product with a zero factor is skipped.  The
    products are added over a running denominator, which a term with another
    denominator multiplies, as in ``_dist2_nums``.  No gcd is taken until the
    one ``_make`` at the end.
    """
    m = acc.m
    total, den = acc._n, acc._d
    for x, y in zip(xs, ys):
        if x.m != m or y.m != m:
            raise ConductorMismatchError(f"conductor {m} vs {x.m}, {y.m}")
        a, b = x._n, y._n
        if not any(b[1:]):
            s = b[0]
            if not s:
                continue
            t = [v * s for v in a]
        elif not any(a[1:]):
            s = a[0]
            if not s:
                continue
            t = [v * s for v in b]
        else:
            t = _MUL[m](a, b)
        d = x._d * y._d
        if d == den:
            total = [u + v for u, v in zip(total, t)]
        else:
            total = [u * d + v * den for u, v in zip(total, t)]
            den *= d
    return _make(m, total, den)


# -- balls -------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Open ball with center in C^n and exact squared radius (real subfield)."""

    center: Point
    r2: CycNum

    @property
    def dim(self) -> int:
        return self.center.dim

    @classmethod
    def of(cls, m: int, center, r2) -> Ball:
        c = center if isinstance(center, Point) else Point.of(m, *center)
        return cls(c, _as_cyc(m, r2))


def point_in_ball(p: Point, ball: Ball) -> bool:
    """|p - c|^2 < r2, decided by one sign of the integer numerators of
    den * r_d * (r2 - |p - c|^2), where den is the denominator of |p - c|^2.
    A point of another dimension or conductor than the ball raises, as the
    ball predicates do; in dimension 0 the ball is the one point."""
    if ball.dim == p.dim == 0:
        return True
    r2 = ball.r2
    nums, den = _dist2_nums(p, ball.center, r2.m)
    rd = r2._d
    diff = [den * a - rd * b for a, b in zip(r2._n, nums)]
    return sign_quadratic(*_real_nums(r2.m, diff)) > 0


def map_ball(f: AffineMap, ball: Ball) -> Ball:
    """Image of a ball under a similarity: center f(c), squared radius lambda*r2;
    a map of another dimension than the ball raises."""
    center = f(ball.center)
    return Ball(center, f.factor * ball.r2) if ball.dim else ball


def _root_sum_le(m: int, p, q, s) -> bool:
    """sqrt p >= sqrt q + sqrt s for real p, q, s >= 0, each given as integer
    numerators over a positive denominator: t = p - q - s >= 0 and
    t^2 - 4 q s >= 0.  With 2 e_x x = a_x + b_x sqrt d for each x
    (``_real_nums``), scaling t by 2 e_p e_q e_s gives T = e_q e_s (a_p + b_p sqrt d)
    - e_p e_s (a_q + b_q sqrt d) - e_p e_q (a_s + b_s sqrt d), and the second test
    times (2 e_p e_q e_s)^2 reads T^2 - 4 (e_p e_s)(e_p e_q)(a_q + b_q sqrt d)
    (a_s + b_s sqrt d) >= 0: two signs of a + b sqrt d on integers, no gcd."""
    (pn, ep), (qn, eq), (sn, es) = p, q, s
    pa, pb, d = _real_nums(m, pn)
    qa, qb, _ = _real_nums(m, qn)
    sa, sb, _ = _real_nums(m, sn)
    f, g, h = eq * es, ep * es, ep * eq
    ta, tb = f * pa - g * qa - h * sa, f * pb - g * qb - h * sb
    if sign_quadratic(ta, tb, d) < 0:
        return False
    k = 4 * g * h
    return sign_quadratic(
        ta * ta + d * tb * tb - k * (qa * sa + d * qb * sb),
        2 * ta * tb - k * (qa * sb + qb * sa),
        d,
    ) >= 0


def _common_conductor(b1: Ball, b2: Ball) -> int:
    """The conductor of both radii, which ``_dist2_nums`` checks the centres
    against; balls of two dimensions raise DimensionMismatchError and radii
    over two conductors ConductorMismatchError."""
    if b1.dim != b2.dim:
        raise DimensionMismatchError(f"balls of dims {b1.dim} and {b2.dim}")
    m = b1.r2.m
    if b2.r2.m != m:
        raise ConductorMismatchError(f"balls over conductors {m} and {b2.r2.m}")
    return m


def ball_in_ball(b1: Ball, b2: Ball) -> bool:
    """Open b1 inside open b2: d + r1 <= r2, i.e. r2 - r1 - d^2 >= 0 and
    (r2 - r1 - d^2)^2 >= 4 d^2 r1 for squared radii r1, r2 and squared distance
    d^2, decided on integer numerators; mismatched balls raise."""
    m = _common_conductor(b1, b2)
    r1, r2 = b1.r2, b2.r2
    return not b1.dim or _root_sum_le(m, (r2._n, r2._d), (r1._n, r1._d), _dist2_nums(b1.center, b2.center, m))


def balls_disjoint(b1: Ball, b2: Ball) -> bool:
    """Open balls disjoint: d >= r1 + r2, i.e. d^2 - r1 - r2 >= 0 and
    (d^2 - r1 - r2)^2 >= 4 r1 r2 for squared radii r1, r2, decided on integer
    numerators; mismatched balls raise."""
    m = _common_conductor(b1, b2)
    r1, r2 = b1.r2, b2.r2
    return b1.dim > 0 and _root_sum_le(m, _dist2_nums(b1.center, b2.center, m), (r1._n, r1._d), (r2._n, r2._d))


def balls_equal(b1: Ball, b2: Ball) -> bool:
    """Equal centres and radii, or both of dimension 0; mismatched balls raise."""
    _common_conductor(b1, b2)
    return b1.dim == 0 or (b1.center == b2.center and b1.r2 == b2.r2)


# -- polynomial maps -----------------------------------------------------------

_UNDECIDED = object()  # PolyMap._affine before the first to_affine() call


class PolyMap:
    """Tuple of multivariate polynomials with CycNum coefficients.

    Coordinates are dictionaries {exponent tuple: coefficient} with zero
    coefficients dropped, so equality is canonical data comparison.
    """

    __slots__ = ("m", "dim_in", "dim_out", "coords", "_affine")

    def __init__(self, m: int, dim_in: int, dim_out: int, coords):
        self.m = m
        self.dim_in = dim_in
        self.dim_out = dim_out
        cleaned = []
        for poly in coords:
            entry = {}
            for exps, c in poly.items():
                cc = _as_cyc(m, c)
                if len(exps) != dim_in:
                    raise DimensionMismatchError("monomial arity mismatch")
                if not cc.is_zero():
                    entry[tuple(exps)] = cc
            cleaned.append(entry)
        if len(cleaned) != dim_out:
            raise DimensionMismatchError("wrong number of coordinate polynomials")
        self.coords = tuple(cleaned)
        self._affine = _UNDECIDED

    @classmethod
    def from_affine(cls, f: AffineMap) -> PolyMap:
        return _poly_of_affine(f, f.b.coords[0].m if f.dim else 1)

    @classmethod
    def identity(cls, m: int, dim: int) -> PolyMap:
        return cls.from_affine(AffineMap.identity(m, dim))

    def to_affine(self) -> AffineMap | None:
        """The similarity affine map this is, or None when the degree is above
        1, dim_in != dim_out or the linear part is not a similarity.  Decided
        on the first call and kept."""
        if self._affine is _UNDECIDED:
            self._affine = None
            n = self.dim_in
            if n == self.dim_out and all(sum(e) <= 1 for poly in self.coords for e in poly):
                zero = CycNum.rational(self.m, 0)
                units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
                a = tuple(tuple(poly.get(e, zero) for e in units) for poly in self.coords)
                with suppress(NotSimilarityError):
                    self._affine = AffineMap(a, Point(tuple(poly.get((0,) * n, zero) for poly in self.coords)))
        return self._affine

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self.m == other.m
            and self.dim_in == other.dim_in
            and self.dim_out == other.dim_out
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(
            (
                self.m,
                self.dim_in,
                self.dim_out,
                tuple(tuple(sorted(p.items())) for p in self.coords),
            )
        )

    def __repr__(self):
        deg = max((sum(e) for poly in self.coords for e in poly), default=0)
        return f"PolyMap({self.dim_in}->{self.dim_out}, deg {deg})"

    def __call__(self, p: Point) -> Point:
        if p.dim != self.dim_in:
            raise DimensionMismatchError("point dimension mismatch")
        aff = self.to_affine()
        if aff is not None:
            return aff(p)
        out = []
        for poly in self.coords:
            acc = CycNum.rational(self.m, 0)
            for exps, c in poly.items():
                term = c
                for z, e in zip(p.coords, exps):
                    for _ in range(e):
                        term = term * z
                acc = acc + term
            out.append(acc)
        return Point(tuple(out))

    def compose(self, other: PolyMap | AffineMap) -> PolyMap:
        """self after other: the composite of the two affine forms when both
        are similarities, else by substituting other's coordinates into self.
        The result has self's conductor either way."""
        aff = self.to_affine()
        other_aff = other if isinstance(other, AffineMap) else other.to_affine()
        if aff is not None and other_aff is not None and aff.dim == other_aff.dim:
            return _poly_of_affine(aff.compose(other_aff), self.m)
        if isinstance(other, AffineMap):
            other = PolyMap.from_affine(other)
        if other.dim_out != self.dim_in:
            raise DimensionMismatchError("composition dimension mismatch")
        one = {(0,) * other.dim_in: CycNum.rational(self.m, 1)}
        out = []
        for poly in self.coords:
            acc: dict = {}
            for exps, c in poly.items():
                term = dict(one)
                for var, e in enumerate(exps):
                    for _ in range(e):
                        term = _poly_mul(term, other.coords[var])
                for mono, coeff in term.items():
                    acc[mono] = acc.get(mono, CycNum.rational(self.m, 0)) + c * coeff
            out.append(acc)
        return PolyMap(self.m, other.dim_in, self.dim_out, out)

    def then(self, f: AffineMap) -> PolyMap:
        """f after self (post-compose with an affine map)."""
        return PolyMap.from_affine(f).compose(self)


def _poly_of_affine(f: AffineMap, m: int) -> PolyMap:
    """The polynomial map of f over conductor m, with f kept as its affine
    form; the coordinates are built already clean, so __init__ is skipped."""
    n = f.dim
    zero_exp = (0,) * n
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    coords = []
    for bi, row in zip(f.b.coords, f.a):
        poly = {zero_exp: bi} if not bi.is_zero() else {}
        poly.update((e, c) for e, c in zip(units, row) if not c.is_zero())
        coords.append(poly)
    obj = PolyMap.__new__(PolyMap)
    obj.m, obj.dim_in, obj.dim_out, obj.coords, obj._affine = m, n, n, tuple(coords), f
    return obj


def solve_linear(a: list[list[CycNum]], b: list[CycNum]) -> list[CycNum] | None:
    """One exact solution of A x = b by Gaussian elimination, or None when the
    system is inconsistent; free variables are set to zero."""
    n = len(a)
    if n == 0:
        return []
    m = b[0].m
    rows = [list(a[i]) + [b[i]] for i in range(n)]
    cols = len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if not rows[i][cols].is_zero():
            return None
    zero = CycNum.rational(m, 0)
    x = [zero] * cols
    for i, c in enumerate(pivots):
        x[c] = rows[i][cols]
    return x


def fixed_point(g: AffineMap) -> Point | None:
    """A fixed point of g, exactly; None when g has none."""
    n = g.dim
    if n == 0:
        return Point(())
    m = g.b.coords[0].m
    one = CycNum.rational(m, 1)
    a = [[g.a[i][j] - (one if i == j else 0) for j in range(n)] for i in range(n)]
    b = [-c for c in g.b.coords]
    sol = solve_linear(a, b)
    return Point(tuple(sol)) if sol is not None else None


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod = c1 * c2
            if e in out:
                out[e] = out[e] + prod
            else:
                out[e] = prod
    return out

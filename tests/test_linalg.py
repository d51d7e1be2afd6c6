"""Exact linear algebra against sympy on seeded rational matrices."""

import random
from fractions import Fraction

import pytest

from haantjeskit.linalg import (nullspace, rank, ring_adjugate, ring_det, rref,
                                row_space_equal)
from haantjeskit.symalg import Poly, parse_poly

sympy = pytest.importorskip("sympy")

# seeds 0-11 give small dense matrices, 12-17 tall sparse ones
SEEDS = range(18)


def random_matrix(rng, nrows, ncols):
    """Rational matrix whose last rows are often combinations of the
    first, so that rank deficiency is common."""
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)]
    for i in range(1, nrows):
        if rng.random() < 0.4:
            a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 3), 2)
            rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[i - 1])]
    return rows


def tall_sparse_matrix(rng):
    """60-300 rows, 20-60 columns, about 10% nonzero, rank <= 8, with
    duplicate and all-zero rows: the shape of the Killing-tensor
    condition systems, whose rows are mostly redundant."""
    nrows, ncols = rng.randint(60, 300), rng.randint(20, 60)
    base = [[Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
             if rng.random() < 0.1 else Fraction(0) for _ in range(ncols)]
            for _ in range(rng.randint(1, 8))]
    rows = []
    for _ in range(nrows):
        u = rng.random()
        if u < 0.15:
            rows.append([Fraction(0)] * ncols)
        elif u < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            a, b = rng.choice(base), rng.choice(base)
            ca, cb = Fraction(rng.randint(1, 3)), Fraction(rng.randint(-2, 2), 2)
            rows.append([ca * x + (cb * y if u < 0.5 else 0) for x, y in zip(a, b)])
    return rows


def seeded_matrix(seed):
    rng = random.Random(seed)
    if seed >= 12:
        return rng, tall_sparse_matrix(rng)
    return rng, random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(q.numerator, q.denominator) for q in row]
                         for row in rows])


def sympy_rank(m):
    # exact rank over QQ; Matrix.rank takes ~0.3 s on a tall seed
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix.from_Matrix(m).rank()


def from_sympy(m):
    return [[Fraction(int(q.p), int(q.q)) for q in m.row(i)] for i in range(m.rows)]


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_and_rank(seed):
    _, rows = seeded_matrix(seed)
    red, pivots = rref(rows)
    oracle, oracle_pivots = to_sympy(rows).rref()
    assert red == from_sympy(oracle)
    assert pivots == list(oracle_pivots)
    assert rank(rows) == sympy_rank(to_sympy(rows))


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_span_and_dimension(seed):
    _, rows = seeded_matrix(seed)
    a = to_sympy(rows)
    basis = nullspace(rows)
    oracle = a.nullspace()
    assert len(basis) == len(oracle) == len(rows[0]) - sympy_rank(a)
    if basis:
        assert (a * to_sympy(basis).T).is_zero_matrix
        stacked = to_sympy(basis).col_join(sympy.Matrix.hstack(*oracle).T)
        assert sympy_rank(stacked) == len(basis)


def test_nullspace_of_empty_matrix_is_the_standard_basis():
    assert nullspace([], ncols=2) == [[1, 0], [0, 1]]


def solution_from_nullspace(rows, rhs):
    """One solution of A x = b from the nullspace of [A | -b] (a vector
    with last entry 1), or None if there is none."""
    for v in nullspace([row + [-b] for row, b in zip(rows, rhs)]):
        if v[-1]:
            return [q / v[-1] for q in v[:-1]]
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_consistent_and_inconsistent(seed):
    # inhomogeneous systems through nullspace and rank, against sympy
    rng, rows = seeded_matrix(seed)
    ncols = len(rows[0])
    x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)]
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    x = solution_from_nullspace(rows, rhs)
    assert x is not None
    assert [sum(a * q for a, q in zip(row, x)) for row in rows] == rhs

    bad = [r + Fraction(rng.randint(1, 5)) for r in rhs]
    augmented = [row + [b] for row, b in zip(rows, bad)]
    consistent = sympy_rank(to_sympy(augmented)) == sympy_rank(to_sympy(rows))
    assert (rank(augmented) == rank(rows)) == consistent
    assert (solution_from_nullspace(rows, bad) is not None) == consistent


@pytest.mark.parametrize("seed", SEEDS)
def test_row_space_equal(seed):
    rng, rows = seeded_matrix(seed)
    combos = []
    for _ in rows[:12]:
        cs = [rng.randint(-3, 3) for _ in rows]
        combos.append([sum(c * x for c, x in zip(cs, col)) for col in zip(*rows)])
    assert row_space_equal(rows, rows + combos)
    # the combinations lie in the row space, so they span it iff ranks agree
    assert row_space_equal(rows, combos) == \
        (sympy_rank(to_sympy(combos)) == sympy_rank(to_sympy(rows)))
    extra = random_matrix(rng, 1, len(rows[0]))
    grows = sympy_rank(to_sympy(rows + extra)) > sympy_rank(to_sympy(rows))
    assert row_space_equal(rows, rows + extra) == (not grows)


def test_int_input_yields_exact_results():
    rows = [[2, 4, 1], [1, 3, 0], [3, 7, 1]]
    red, pivots = rref(rows)
    assert pivots == [0, 1]
    assert all(isinstance(q, (int, Fraction)) for row in red for q in row)
    assert red == from_sympy(sympy.Matrix(rows).rref()[0])
    assert rank([[3, 6], [1, 2]]) == 1


def random_poly_matrix(seed):
    rng = random.Random(seed)
    xs = ["x1", "x2", "x3"]

    def entry():
        terms = [f"{rng.randint(-3, 3)}" + "".join(f"*{rng.choice(xs)}"
                                                    for _ in range(rng.randint(0, 2)))
                 for _ in range(rng.randint(1, 3))]
        return parse_poly(" + ".join(terms))

    return [[entry() for _ in range(3)] for _ in range(3)]


def poly_to_sympy(p):
    return sympy.sympify(str(p).replace("^", "**"))


@pytest.mark.parametrize("seed", range(4))
def test_ring_det_and_adjugate(seed):
    m = random_poly_matrix(seed)
    oracle = sympy.Matrix([[poly_to_sympy(p) for p in row] for row in m])
    det = ring_det(m, Poly.zero(), Poly.const(1))
    assert sympy.expand(poly_to_sympy(det) - oracle.det()) == 0
    adj = ring_adjugate(m, Poly.zero(), Poly.const(1))
    expected = oracle.adjugate()
    for i in range(3):
        for j in range(3):
            assert sympy.expand(poly_to_sympy(adj[i][j]) - expected[i, j]) == 0


def full_cofactor_det(m, zero, one):
    """Cofactor expansion along the first row without skipping zeros."""
    if not m:
        return one
    total = zero
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * full_cofactor_det(minor, zero, one)
        total = total + term if j % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("n", range(5))
def test_ring_det_on_sparse_matrices_matches_full_expansion(n):
    for seed in range(8):
        rng = random.Random(100 * n + seed)

        def sparse(entry, zero):
            return [[entry() if rng.random() < 0.4 else zero for _ in range(n)]
                    for _ in range(n)]

        fracs = sparse(lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(0))
        assert ring_det(fracs, Fraction(0), Fraction(1)) == \
            full_cofactor_det(fracs, Fraction(0), Fraction(1))
        polys = sparse(lambda: parse_poly(f"{rng.randint(1, 3)}*x{rng.randint(1, 3)} - 1"),
                       Poly.zero())
        assert ring_det(polys, Poly.zero(), Poly.const(1)) == \
            full_cofactor_det(polys, Poly.zero(), Poly.const(1))


def test_ring_det_multiplies_no_zero_poly_entry(monkeypatch):
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(b) or mul(a, b))
    m = [[Poly.zero()] * 3] + [[parse_poly("x1 + 1")] * 3 for _ in range(2)]
    assert ring_det(m, Poly.zero(), Poly.const(1)).is_zero()
    assert products == []

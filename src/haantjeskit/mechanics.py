"""Phase-space layer: Poisson brackets, second-order integrals of
motion, functional independence, and the structural tensor P of an
abundant family (grad K = P K at a point, a (0,3) tensor of linear forms
in symbols c_u for the components of K), whose Haantjes torsion there is
a quartic form in the c_u, computed by the torsion formula of
`haantjes` on the 1-jet (K, P).

Phase functions are plain Polys on T*R^n: Laurent in the positions
x1..xn, polynomial in the momenta p1..pn (`symalg.monomial` rejects a
negative momentum exponent).  No dimension is stored; n is read off as
the largest index of an x_k or p_k that occurs.

There is one potential, the generic V = sum_r a_r * g_r over the
generators g_r of a PotentialSpec (a0 for the first), so H = sum p_k^2 + V.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import linalg
from .symalg import Poly, VarId
from .tensor import TensorError, TensorField, exterior_derivative, partial_derivative
from .killing import KillingFamily, PotentialSpec
from .haantjes import _haantjes, as_operator, haantjes, pullback_differential


class MechanicsError(Exception):
    pass


class NotCompatible(MechanicsError):
    """The Killing tensor fails the compatibility condition d(K*dV)=0."""


class NonUniqueSolution(MechanicsError):
    """Structural-tensor system singular at the chosen point."""


class DegenerateK(MechanicsError):
    """det(K) vanishes identically."""


def _x(i: int) -> VarId:
    return VarId("x", i)


def _p(i: int) -> VarId:
    return VarId("p", i)


def _phase_indices(fs: Sequence[Poly]) -> List[int]:
    """The indices k of the x_k and p_k occurring in fs, ascending."""
    return sorted({v.index for f in fs for v in f.variables() if v.ns in ("x", "p")})


def poisson(f: Poly, g: Poly) -> Poly:
    """Canonical Poisson bracket {f, g}, summed over the indices k of
    the x_k and p_k occurring in f or g (every other term is zero)."""
    total = Poly.zero()
    for k in _phase_indices((f, g)):
        total = total + f.diff(_p(k)) * g.diff(_x(k))
        total = total - f.diff(_x(k)) * g.diff(_p(k))
    return total


# ---- integrals of motion ----------------------------------------------


def _potential(pot: PotentialSpec) -> Poly:
    """The generic potential sum_r a_r * generator[r] (0-based r)."""
    v = Poly.zero()
    for r, g in enumerate(pot.generators):
        v = v + Poly.variable(VarId("a", r)) * g
    return v


def hamiltonian(pot: PotentialSpec) -> Poly:
    """H = sum p_k^2 + V for the generic potential V of pot."""
    h = _potential(pot)
    for k in range(1, pot.dimension + 1):
        h = h + Poly.variable(_p(k)) ** 2
    return h


def build_integral(k: TensorField, pot: PotentialSpec) -> Poly:
    """Second-order integral K^{ij} p_i p_j + W with dW = K* dV, V the
    generic potential of pot.

    W is recovered by staircase integration (integrate the first
    component in x1, correct, continue); compatibility of K with V is
    checked first and the reconstructed W is verified to differentiate
    back to K* dV exactly.
    """
    n = k.n
    v = _potential(pot)
    omega = pullback_differential(as_operator(k), v)
    if not exterior_derivative(omega).is_zero():
        raise NotCompatible("d(K*dV) != 0: the tensor is not compatible with this potential")
    w = Poly.zero()
    for i in range(n):
        w = w + (omega[i] - w.diff(_x(i + 1))).integrate(_x(i + 1))
    for i in range(n):
        if w.diff(_x(i + 1)) != omega[i]:
            raise MechanicsError("potential reconstruction failed to close")
    f = w
    for i in range(n):
        for j in range(n):
            f = f + k[(i, j)] * Poly.variable(_p(i + 1)) * Poly.variable(_p(j + 1))
    return f


# ---- functional independence ------------------------------------------


def random_rational(rng: random.Random) -> Fraction:
    """Small nonzero rational sample value (|num| <= 20, den <= 7)."""
    num = rng.choice([i for i in range(-20, 21) if i != 0])
    return Fraction(num, rng.randint(1, 7))


_SAMPLE_POINTS = 10


def functional_independence(fs: Sequence[Poly], seed: int = 0) -> int:
    """Rank of the phase-space Jacobian on T*R^n, n the largest index of
    an x_k or p_k in fs, maximized over at most 10 random rational
    points (a stable lower bound for the functional rank).

    Any non-phase parameters occurring in the functions are also bound
    to random rationals per point.  Sampling stops early once the rank
    reaches min(len(fs), 2n), or 2n - 1 when fs[0] has a nonzero
    differential and Poisson-commutes with every other function: the
    Hamiltonian field of fs[0] is then in the kernel of the Jacobian
    wherever d fs[0] is nonzero, so every 2n-minor vanishes identically.
    """
    n = max(_phase_indices(fs), default=0)
    if n == 0:
        return 0
    phase_vars = [_x(i) for i in range(1, n + 1)] + [_p(i) for i in range(1, n + 1)]
    params = sorted({v for f in fs for v in f.variables() if v.ns not in ("x", "p")})
    jac = [[f.diff(v) for v in phase_vars] for f in fs]
    bound = min(len(fs), 2 * n)
    # {fs[0], g} = sum_k dfs[0]/dp_k dg/dx_k - dfs[0]/dx_k dg/dp_k, read off the rows
    if (bound == 2 * n and any(not e.is_zero() for e in jac[0])
            and all(sum((jac[0][n + k] * g[k] - jac[0][k] * g[n + k] for k in range(n)),
                        Poly.zero()).is_zero() for g in jac[1:])):
        bound -= 1
    rng = random.Random(seed)
    best = 0
    for _ in range(_SAMPLE_POINTS):
        point = {v: random_rational(rng) for v in phase_vars}
        point.update({v: random_rational(rng) for v in params})
        rows = [[entry.evaluate(point) for entry in row] for row in jac]
        best = max(best, linalg.rank(rows))
        if best == bound:
            break
    return best


# ---- structural tensor ------------------------------------------------


def _point_binding(x0: Sequence[Fraction]):
    return {_x(i + 1): Fraction(q) for i, q in enumerate(x0)}


def evaluate_tensor(t: TensorField, x0: Sequence[Fraction]):
    """Nested lists of the tensor's rational component values at x0."""
    binding = _point_binding(x0)

    def nest(prefix):
        if len(prefix) == t.r + t.s:
            return t[tuple(prefix)].evaluate(binding)
        return [nest(prefix + (i,)) for i in range(t.n)]

    return nest(())


def _pairs(n: int) -> List[Tuple[int, int]]:
    """The component pairs (a, b) with a <= b of a symmetric n x n
    tensor, in the order of their symbols c0, c1, ..."""
    return [(a, b) for a in range(n) for b in range(a, n)]


def structural_tensor_at(family: KillingFamily, x0: Sequence[Fraction]) -> TensorField:
    """Unique pointwise solution of grad K = P K over the family basis.

    Returns the derivative law as a (0,3) tensor, symmetric in its first
    two slots: component (i, j, k) is the linear form
    sum_{a <= b} w_ab P^{ab}_ijk c_u in the symbols c_u of the component
    pairs (a, b) of `_pairs`, w_ab being 1 on the diagonal and 2 off it,
    so binding each c_u to K_ab gives grad_k K_ij for every member K.
    Requires the evaluation matrix of the basis at x0 (one row per
    basis element, one column per component pair) to be square and
    invertible.
    """
    n = family.tensor.n
    basis = family.basis()
    pairs = _pairs(n)
    if len(basis) != len(pairs):
        raise NonUniqueSolution(
            f"family has {len(basis)} parameters but {len(pairs)} component pairs")
    binding = _point_binding(x0)
    triples = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)]
    # one row per basis element: its components, then one right-hand
    # side per (i, j, k); reducing [M | all right-hand sides] once gives
    # [I | the coefficients w_ab P^{ab}_ijk] when M is invertible
    aug = []
    for elem in basis:
        g = partial_derivative(elem)
        aug.append([elem[pair].evaluate(binding) for pair in pairs]
                   + [g[t].evaluate(binding) for t in triples])
    red, pivots = linalg.rref(aug)
    if pivots[:len(pairs)] != list(range(len(pairs))):
        raise NonUniqueSolution("basis evaluation matrix singular at this point")
    symbols = [((VarId("c", u), 1),) for u in range(len(pairs))]
    forms = {}
    for col, (i, j, k) in enumerate(triples, len(pairs)):
        forms[(i, j, k)] = forms[(j, i, k)] = Poly._raw(
            {m: row[col] for m, row in zip(symbols, red) if row[col]})
    return TensorField.from_function(n, (0, 3), forms.__getitem__)


# ---- abundant-system Haantjes formula ---------------------------------


def haantjes_kernel(p: TensorField) -> List[Poly]:
    """The Haantjes torsion at a point where grad K = P K, as the n^3
    quartic forms H_ijk in the component symbols c_u of K, row-major.

    The torsion at a point depends only on the 1-jet (K, grad K) there,
    so H_ijk is the torsion of the generic symmetric K_ab = c_u with
    derivative layer P (on Euclidean R^n, p[(a, b, m)] = grad_m K^a_b).
    The forms depend only on P, not on the member contracted into them.
    """
    symbol = {pair: Poly.variable(VarId("c", u)) for u, pair in enumerate(_pairs(p.n))}
    k = TensorField.from_function(p.n, (0, 2), lambda idx: symbol[tuple(sorted(idx))])
    return _haantjes(as_operator(k), p).components


def abundant_haantjes(p: TensorField, k: TensorField, x0: Sequence[Fraction]):
    """Haantjes torsion of K at x0 via the structural-tensor kernel.

    Returns nested lists H[i][j][k]; agrees with the direct torsion
    evaluation whenever grad K = P K holds at x0.
    """
    n = p.n
    if k.n != n:
        raise MechanicsError("dimension mismatch")
    kv = evaluate_tensor(k, x0)
    binding = {VarId("c", u): kv[a][b] for u, (a, b) in enumerate(_pairs(n))}
    values = [form.evaluate(binding) for form in haantjes_kernel(p)]
    return [[values[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
            for i in range(n)]


def haantjes_at(k: TensorField, x0: Sequence[Fraction]):
    """Direct Haantjes evaluation of a (0,2) tensor at a point."""
    return evaluate_tensor(haantjes(as_operator(k)), x0)


# ---- third-order-structure compatibility condition --------------------


def condition_6b(k: TensorField, normalization: str = "half") -> TensorField:
    """Denominator-cleared residual of the quadratic derivative identity
    det(K) K_{m[k,n]l} + (1/3) Adj^{pq} K_{p[l,m]} K_{q[k,n]} = 0; the
    identity holds exactly when the returned (0,4) tensor is zero.

    Square brackets antisymmetrize the enclosed index pair (weight 1/2
    for "half", 1 for "raw"); K^{pq} is the inverse of K, cleared to
    its adjugate.
    """
    if k.valence != (0, 2):
        raise TensorError("condition check expects a (0,2) tensor")
    if normalization not in ("half", "raw"):
        raise MechanicsError("normalization must be 'half' or 'raw'")
    n = k.n
    s = Fraction(1, 2) if normalization == "half" else Fraction(1)
    mat = k.matrix()
    det = linalg.ring_det(mat, Poly.zero(), Poly.const(1))
    if det.is_zero():
        raise DegenerateK("det(K) vanishes identically")
    adj = linalg.ring_adjugate(mat, Poly.zero(), Poly.const(1))

    def first(p_, l_, m_):  # K_{p[l,m]}
        return (k[(p_, l_)].diff(_x(m_ + 1)) - k[(p_, m_)].diff(_x(l_ + 1))) * s

    def comp(idx):
        m_, k_, n_, l_ = idx
        lhs = (k[(m_, k_)].diff(_x(n_ + 1)).diff(_x(l_ + 1))
               - k[(m_, n_)].diff(_x(k_ + 1)).diff(_x(l_ + 1))) * s
        total = det * lhs
        for p_ in range(n):
            for q_ in range(n):
                total = total + adj[p_][q_] * first(p_, l_, m_) * first(q_, k_, n_) \
                    * Fraction(1, 3)
        return total

    return TensorField.from_function(n, (0, 4), comp)

"""Pure-python small linear algebra against numpy, including dual entries,
and its generated elimination against the loops of ``tests/oracles.py``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vhckit import linalg
from vhckit.dual import Dual, eps, real, seed

entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False,
                    allow_infinity=False)


@st.composite
def systems(draw):
    """A well-conditioned n x n system (n <= 3, diagonally dominant) with
    k <= 6 right-hand-side columns, and one-level dual perturbations Adot,
    bdot of the same shapes."""
    n = draw(st.integers(1, 3))
    shape = (n, draw(st.integers(1, 6)))

    def array(shape):
        return np.asarray(draw(st.lists(entries, min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape))))
                          ).reshape(shape)

    A = array((n, n)) + 4.0 * np.eye(n)
    return A, array(shape), array((n, n)), array(shape)


def test_solve_matches_numpy_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=(n, 1))
        ours = linalg.solve(A.tolist(), b.tolist())
        ref = np.linalg.solve(A, b)
        assert np.allclose(ours, ref, atol=1e-11)


def test_inverse_matches_numpy_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        ours = np.asarray(linalg.inverse(A.tolist()))
        assert np.allclose(ours, np.linalg.inv(A), atol=1e-10)


def test_mat_mul_and_transpose():
    A = [[1.0, 2.0], [3.0, 4.0]]
    B = [[0.0, 1.0], [1.0, 0.0]]
    assert linalg.mat_mul(A, B) == [[2.0, 1.0], [4.0, 3.0]]
    assert linalg.transpose(A) == [[1.0, 3.0], [2.0, 4.0]]
    assert linalg.mat_vec(A, [1.0, 1.0]) == [3.0, 7.0]


def test_singular_matrix_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve([[1.0, 2.0], [2.0, 4.0]], [[1.0], [0.0]])


def test_solve_derivative_through_duals():
    # d/dt of A(t)^{-1} b  equals  -A^{-1} A' A^{-1} b
    t = 0.7
    A = lambda s: [[2.0 + s, 1.0], [1.0, 3.0]]
    b = [1.0, 2.0]
    At = [[Dual(2.0 + t, 1.0), Dual(1.0, 0.0)],
          [Dual(1.0, 0.0), Dual(3.0, 0.0)]]
    x = [row[0] for row in linalg.solve(At, [[Dual(v, 0.0)] for v in b])]

    A0 = np.asarray(A(t))
    x0 = np.linalg.solve(A0, b)
    dA = np.asarray([[1.0, 0.0], [0.0, 0.0]])
    dx = -np.linalg.solve(A0, dA @ x0)
    for i in range(2):
        assert real(x[i]) == pytest.approx(x0[i], rel=1e-12)
        assert eps(x[i]) == pytest.approx(dx[i], rel=1e-10)


@given(systems())
@settings(max_examples=200, deadline=None)
def test_solve_oracle_numpy(system):
    A, b, _, _ = system
    ours = np.asarray(linalg.solve(A.tolist(), b.tolist()))
    ref = np.linalg.solve(A, b)
    assert ours.shape == ref.shape
    np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-12)


@given(systems())
@settings(max_examples=100, deadline=None)
def test_solve_oracle_dual_tangent(system):
    # x = A^{-1} b at duals A + eps Adot, b + eps bdot: the eps part of x is
    # A^{-1} (bdot - Adot x)
    A, b, Adot, bdot = system
    lift = np.vectorize(Dual, otypes=[object])
    X = np.asarray(linalg.solve(lift(A, Adot).tolist(), lift(b, bdot).tolist()))
    x = np.linalg.solve(A, b)
    xdot = np.linalg.solve(A, bdot - Adot @ x)
    np.testing.assert_allclose(np.vectorize(real)(X).astype(float), x,
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(np.vectorize(eps)(X).astype(float), xdot,
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("A", [
    [[0.0]],
    [[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [0.5, 0.0, 4.0]],
    [[Dual(0.0, 1.0), Dual(1.0, 0.0)], [Dual(0.0, 2.0), Dual(3.0, 0.0)]],
])
def test_solve_zero_pivot_column_is_singular(A):
    # a column whose real parts are all zero leaves no pivot, whatever the
    # dual parts
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve(A, [[1.0]] * len(A))


# outputs of the elimination as it was before its pivot search became a
# plain loop, as float.hex: the loop picks the same pivots and makes the
# same operations in the same order, so the results are bit-identical
PINNED = [
    ([[0.7]], [[0.3, -1.9]],
     [["0x1.b6db6db6db6dbp-2", "-0x1.5b6db6db6db6ep+1"]]),
    ([[0.1, 2.0], [3.0, 0.7]], [[0.3], [-0.5]],       # a row swap
     [["-0x1.a1e381f152749p-3"], ["0x1.48182ce5aa85dp-3"]]),
    ([[2.0, 0.3, -0.1], [0.2, -3.0, 0.5], [4.1, 0.4, 2.5]],
     [[1.0, -2.0], [0.3, 0.7], [-1.1, 5.0]],
     [["0x1.ec1659afaf356p-2", "-0x1.be47532621b6dp-1"],
      ["-0x1.0ff08d11144eep-2", "0x1.17692ec635783p-2"],
      ["-0x1.2f84a95e632eep+0", "0x1.b162d1cbab794p+1"]]),
]


@pytest.mark.parametrize("A, B, expected", PINNED)
def test_solve_pinned_bits(A, B, expected):
    got = linalg.solve(A, B)
    assert [[v.hex() for v in row] for row in got] == expected


def test_solve_pinned_bits_dual():
    A = [[Dual(2.0, 0.3), Dual(1.0, -0.2)], [Dual(0.5, 1.0), Dual(3.0, 0.0)]]
    B = [[Dual(1.0, 0.5)], [Dual(-2.0, 0.1)]]
    got = [(x.val.hex(), x.eps.hex()) for x, in linalg.solve(A, B)]
    assert got == [("0x1.d1745d1745d18p-1", "0x1.745d1745d1745p-3"),
                   ("-0x1.a2e8ba2e8ba2fp-1", "-0x1.3333333333334p-2")]


def test_det_matches_numpy_with_row_swaps():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(20):
            A = rng.normal(size=(n, n))
            assert linalg.det(A.tolist()) == pytest.approx(
                np.linalg.det(A), rel=1e-12, abs=1e-15)
    # a pivot swap flips the sign; a zero column makes it 0
    assert linalg.det([[0.0, 1.0], [1.0, 0.0]]) == -1.0
    assert linalg.det([[0.0, 1.0], [0.0, 2.0]]) == 0.0


def _square(n, kind, rng):
    """An n x n matrix of one kind: random normal entries (row swaps), a
    first column of entries equal in magnitude (ties: the first such row
    is the pivot), an upper triangle (every multiplier a plain zero), a
    pivot that vanishes after one elimination step, a column of zeros, or
    NaN entries (one in the first column)."""
    A = rng.normal(size=(n, n))
    if kind == "ties":
        A[:, 0] = [(-1.0) ** i * 2.0 for i in range(n)]
        A[n // 2:, -1] = -3.0
    elif kind == "zero-multipliers":
        A = np.triu(A) + 3.0 * np.eye(n)
    elif kind == "late-zero-pivot" and n > 1:
        # row 1 = 2 row 0, and the multiplier 16 / 32 is exact
        A[0, 0] = 16.0
        A[1, :] = 2.0 * A[0, :]
    elif kind == "zero-column":
        A[:, n - 1] = 0.0
    elif kind == "nan":
        A[n - 1, 0] = np.nan
        A[0, n - 1] = np.nan
    return A.tolist()


def _lift(M, depth, rng):
    """M along a seeded dual parameter s of the given depth, whose real
    part is 0: about half the entries become m + s w, with m's real part,
    and the rest, plain zeros among them, stay floats."""
    if depth == 0:
        return M
    s = [0.0]
    for _ in range(depth):
        s = seed(s, 0)
    return [[v if v == 0.0 or rng.random() < 0.5
             else v + s[0] * float(rng.normal()) for v in row] for row in M]


def _run_counted(monkeypatch, fn, *args):
    """(repr of fn(*args), or its error, and the number of Duals built)."""
    built = [0]
    init = Dual.__init__

    def counted(obj, val, eps=0.0):
        built[0] += 1
        init(obj, val, eps)

    with monkeypatch.context() as m:
        m.setattr(Dual, "__init__", counted)
        try:
            out = repr(fn(*args))
        except linalg.SingularMatrixError as e:
            out = f"SingularMatrixError({e})"
    return out, built[0]


@pytest.mark.parametrize("kind", ["random", "ties", "zero-multipliers",
                                  "late-zero-pivot", "zero-column", "nan"])
def test_compiled_solve_matches_loops(kind, monkeypatch):
    # the same values (repr), the same error and the same dual operations
    # as the row loops, for n = 1..4 and k = 1..3 right-hand-side columns,
    # on floats and on depth-1 and depth-2 duals
    rng = np.random.default_rng(29)
    for n in range(1, 5):
        for depth in range(3):
            A = _lift(_square(n, kind, rng), depth, rng)
            assert (_run_counted(monkeypatch, linalg.det, A)
                    == _run_counted(monkeypatch, oracles.det, A))
            for k in range(1, 4):
                B = _lift(rng.normal(size=(n, k)).tolist(), depth, rng)
                got = _run_counted(monkeypatch, linalg.solve, A, B)
                assert got == _run_counted(monkeypatch, oracles.solve, A, B)
                # the singular kinds raise, and the others solve
                assert got[0].startswith("SingularMatrixError(singular") == (
                    kind == "zero-column"
                    or kind == "late-zero-pivot" and n > 1)


# -- the stacked elimination ---------------------------------------------------

def _stack(per_point):
    """The stack of per-point values of one nesting (numbers or Duals)."""
    first = per_point[0]
    if isinstance(first, Dual):
        return Dual(_stack([v.val for v in per_point]),
                    _stack([v.eps for v in per_point]))
    if isinstance(first, list):
        return [_stack([v[i] for v in per_point]) for i in range(len(first))]
    return np.array(per_point)


@st.composite
def stacked_systems(draw):
    """2 to 5 systems of one shape (n <= 3, k <= 3), each with its rows
    shuffled so that the pivots differ from point to point, and at some
    points a first column of entries equal in magnitude (ties: the first
    such row is the pivot): float entries, some of them 0.0 or -0.0 so
    that multipliers are skipped at some points only, or Duals in every
    entry."""
    n, k, dual = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                  draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def entries(M):
        zero = rng.random(M.shape) < 0.3
        M[zero] = np.where(rng.random(M.shape) < 0.5, 0.0, -0.0)[zero]
        return [[Dual(v, float(rng.normal())) if dual else v for v in row]
                for row in M.tolist()]

    systems = []
    for _ in range(draw(st.integers(2, 5))):
        A = rng.normal(size=(n, n))
        if rng.random() < 0.3:
            A[:, 0] = [(-1.0) ** i * 2.0 for i in range(n)]
        A = A[rng.permutation(n)]
        A = entries(A + 3.0 * np.eye(n) * (rng.random() < 0.5))
        systems.append((A, entries(rng.normal(size=(n, k)))))
    return systems


@given(stacked_systems())
@settings(max_examples=150, deadline=None)
def test_stacked_solve_is_each_point_s_solve(systems):
    # a system singular at one point raises for the whole stack
    A, B = (_stack([s[i] for s in systems]) for i in range(2))
    want = [_run(lambda: oracles.bits(linalg.solve(*s))) for s in systems]
    if "singular" in want:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.stacked_solve(A, B)
        return
    X = linalg.stacked_solve(A, B)
    assert [oracles.bits(X, k) for k in range(len(systems))] == want


def _run(fn):
    try:
        return fn()
    except linalg.SingularMatrixError:
        return "singular"


def test_stacked_solve_with_one_singular_point_raises():
    systems = [([[2.0, 1.0], [1.0, 3.0]], [[1.0], [2.0]]),
               ([[1.0, 2.0], [2.0, 4.0]], [[1.0], [2.0]]),
               ([[0.0, 1.0], [5.0, 1.0]], [[1.0], [2.0]])]
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve(*systems[1])
    A, B = (_stack([s[i] for s in systems]) for i in range(2))
    with pytest.raises(linalg.SingularMatrixError):
        linalg.stacked_solve(A, B)

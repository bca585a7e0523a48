"""Tests for exact linear algebra over finite fields."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

import reference_linalg as ref
from reference_verma import ambient_rows, parity_shift_glue
from superlie.gf import MAX_FIELD_ORDER, MOD_DIV_MIN_SIZE, Field, field_create, is_prime, mod_p
from superlie import linalg as la
from superlie.invariants import graded_codims
from superlie.liesuper import build_algebra
from superlie.rootsys import InvariantViolation
from superlie.verma import VermaSystem, lambda_set, walls_type
from tooling import module, random_codes, simple_heads, spy_on_right_factors


def random_matrix(F, rng, shape):
    return random_codes(F, rng, shape)


def stack(ops, n):
    """The (K, n, n) operator stack of a list of n x n operators."""
    return np.stack(ops) if len(ops) else la.zeros((0, n, n))


def span_vectors(F, rows):
    """All vectors in the row span (small cases only)."""
    rows = [r for r in rows if r.any()]
    vecs = {tuple(np.zeros(rows[0].shape[0] if rows else 0, dtype=np.int64))} if rows else {()}
    if not rows:
        return vecs
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        v = la.zeros(rows[0].shape[0])
        for c, r in zip(coeffs, rows):
            v = F.add_arr(v, F.smul_arr(c, r))
        vecs.add(tuple(v.tolist()))
    return vecs


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1)])
def test_matmul_matches_naive(p, k):
    F = field_create(p, k)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_matrix(F, rng, (4, 5))
        b = random_matrix(F, rng, (5, 3))
        got = la.matmul(F, a, b)
        for i in range(4):
            for j in range(3):
                acc = 0
                for t in range(5):
                    acc = F.add(acc, F.mul(int(a[i, t]), int(b[t, j])))
                assert got[i, j] == acc


def test_rref_properties():
    F = field_create(3)
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = random_matrix(F, rng, (4, 6))
        red, pivots = la.rref(F, m)
        # pivot structure
        for r, c in enumerate(pivots):
            assert red[r, c] == 1
            col = red[:, c].copy()
            col[r] = 0
            assert not col.any()
        # row space preserved (small enough to enumerate)
        assert span_vectors(F, list(m)) == span_vectors(F, list(red))


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1)])
def test_rank_nullity_and_kernel(p, k):
    F = field_create(p, k)
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = random_matrix(F, rng, (4, 5))
        r = la.rank(F, m)
        ns = la.nullspace(F, m)
        assert r + ns.shape[0] == 5
        for v in ns:
            assert not la.matvec(F, m, v).any()
        assert la.rank(F, ns) == ns.shape[0]


def test_solve_consistent_and_inconsistent():
    F = field_create(3, 2)
    rng = np.random.default_rng(17)
    hits = misses = 0
    for _ in range(60):
        m = random_matrix(F, rng, (4, 3))
        rhs = random_matrix(F, rng, (4,))
        x = ref.solve(F, m, rhs)
        if x is not None:
            assert (la.matvec(F, m, x) == rhs).all()
            hits += 1
        else:
            # oracle: rhs not in the column span (enumerate, q^3 = 81 combos)
            assert tuple(rhs.tolist()) not in span_vectors(F, list(m.T))
            misses += 1
    assert hits > 0 and misses > 0


def test_row_space_membership():
    F = field_create(5)
    rng = np.random.default_rng(23)
    m = random_matrix(F, rng, (3, 6))
    basis = la.row_space_basis(F, m)
    for _ in range(20):
        coeffs = random_codes(F, rng, 3)
        v = la.zeros(6)
        for c, row in zip(coeffs, m):
            v = F.add_arr(v, F.smul_arr(int(c), row))
        assert la.in_row_space(F, basis, v)
    # a vector outside: extend rank if possible
    if basis.shape[0] < 6:
        outside = la.zeros(6)
        free_col = [c for c in range(6) if not any(np.nonzero(r)[0].size and np.nonzero(r)[0][0] == c for r in basis)]
        outside[free_col[0]] = 1
        assert not la.in_row_space(F, basis, outside)


def test_closure_under_operators_matches_brute_force():
    F = field_create(3)
    rng = np.random.default_rng(31)
    n = 4
    for _ in range(15):
        ops = stack([random_matrix(F, rng, (n, n)) for _ in range(2)], n)
        seed = random_matrix(F, rng, (1, n))
        closure = la.closure_under_operators(F, seed, ops)
        # brute force: keep applying ops to every span vector until stable,
        # extending the span set directly by multiples of each new image
        vecs = span_vectors(F, [seed[0]])
        changed = True
        while changed:
            changed = False
            for v in list(vecs):
                for op in ops:
                    img = la.matvec(F, op, np.array(v, dtype=np.int64))
                    if tuple(img.tolist()) not in vecs:
                        extended = set()
                        for w in vecs:
                            wa = np.array(w, dtype=np.int64)
                            for c in range(F.q):
                                extended.add(tuple(F.add_arr(wa, F.smul_arr(c, img)).tolist()))
                        vecs = extended
                        changed = True
        assert span_vectors(F, list(closure)) == vecs


def test_largest_stable_subspace_matches_brute_force():
    F = field_create(3)
    rng = np.random.default_rng(41)
    n = 4
    for trial in range(15):
        ops = stack([random_matrix(F, rng, (n, n)) for _ in range(2)], n)
        ambient = random_matrix(F, rng, (3, n))
        stable = la.largest_stable_subspace(F, ambient, ops)
        # oracle: v is in the core iff closure(v) stays inside the ambient span
        amb_basis = la.row_space_basis(F, ambient)
        core = set()
        for v in span_vectors(F, list(ambient)):
            va = np.array(v, dtype=np.int64)
            cl = la.closure_under_operators(F, va[None, :], ops)
            if all(la.in_row_space(F, amb_basis, row) for row in cl):
                core.add(v)
        assert span_vectors(F, list(stable)) == core if stable.shape[0] else core == {tuple([0] * n)}
        # stability double-check
        for op in ops:
            for row in stable:
                assert la.in_row_space(F, stable, la.matvec(F, op, row))


def test_intersect_row_spaces():
    F = field_create(3)
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = random_matrix(F, rng, (2, 4))
        b = random_matrix(F, rng, (2, 4))
        inter = ref.intersect_row_spaces(F, a, b)
        sa, sb = span_vectors(F, list(a)), span_vectors(F, list(b))
        expected = sa & sb
        got = span_vectors(F, list(inter)) if inter.shape[0] else {tuple([0] * 4)}
        assert got == expected


def test_supercommutant_of_irreducible_type_m():
    # 2-dim module with even part spanned by e_0, odd by e_1; operators taken
    # from a module whose odd commutant is zero.
    F = field_create(3)
    sigma = np.diag([1, F.neg(1)]).astype(np.int64)
    even_ops = np.array([np.diag([1, 2])], dtype=np.int64)  # distinct eigenvalues
    odd_ops = np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], dtype=np.int64)
    assert len(la.supercommutant_basis(F, even_ops, odd_ops, sigma, np.array([1]))) == 0
    # as a Cartan operator, the even one puts e_1 outside e_0's weight space:
    # the solve is the spin alone
    assert walls_type(F, np.concatenate([even_ops, odd_ops]), sigma, np.array([0, 1, 1]), [0]) == "M"


def test_supercommutant_of_type_q_fixture():
    # The 1|1 Clifford module: operators commuting with the odd involution
    # [[0,1],[1,0]].  The odd part of the supercommutant is spanned by
    # [[0,t],[-t,0]], so this simple module has type Q.  Its even operator,
    # read as a Cartan operator, is scalar: e_0's weight space holds e_1.
    F = field_create(3)
    sigma = np.diag([1, F.neg(1)]).astype(np.int64)
    even_ops = np.array([np.diag([2, 2])], dtype=np.int64)
    odd_ops = np.array([[[0, 1], [1, 0]]], dtype=np.int64)
    (T,) = la.supercommutant_basis(F, even_ops, odd_ops, sigma, np.array([1]))
    assert T[0, 0] == 0 and T[1, 1] == 0
    assert T[1, 0] == F.neg(int(T[0, 1])) and T[0, 1] != 0
    # u = T·e_0 on no coordinate: only T = 0 is left
    assert len(la.supercommutant_basis(F, even_ops, odd_ops, sigma, np.array([], dtype=int))) == 0
    assert walls_type(F, np.concatenate([even_ops, odd_ops]), sigma, np.array([0, 1]), [0]) == "Q"


def test_walls_type_rejects_off_diagonal_cartan():
    # the same Clifford module in the basis e_0 + e_1, e_1: its Cartan
    # operator is still scalar, but the involution is not diagonal
    F = field_create(3)
    sigma = np.diag([1, F.neg(1)]).astype(np.int64)
    ops = np.array([np.diag([2, 2]), [[0, 1], [1, 0]]], dtype=np.int64)
    P, P_inv = np.array([[1, 0], [1, 1]]), np.array([[1, 0], [F.neg(1), 1]])
    conj = [la.matmul(F, la.matmul(F, P_inv, m), P) for m in (*ops, sigma)]
    with pytest.raises(InvariantViolation, match="not diagonal"):
        walls_type(F, np.array(conj[:2]), conj[2], np.array([0, 1]), [0])
    # a Cartan operator with an off-diagonal entry
    cartan = np.array([[2, 1], [0, 2]], dtype=np.int64)
    with pytest.raises(InvariantViolation, match="not diagonal"):
        walls_type(F, np.array([cartan, ops[1]]), sigma, np.array([0, 1]), [0])


# -- the echelon kernel against the slow reference it replaced ----------------

# GF(5^4), GF(5^5) (the Verma sweep's field) and GF(7^3): q > 512, no q x q tables
FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 4), (5, 5), (7, 3)]


@st.composite
def matrices(draw, F, rows, cols):
    """Codes of a rows x cols matrix over F, often sparse or with repeated rows."""
    entries = st.integers(0, F.q - 1)
    if draw(st.booleans()):
        entries = st.sampled_from([0, 0, 0, 1, F.q - 1])
    m = np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    if rows > 1 and draw(st.booleans()):
        m[-1] = m[0]  # rank-deficient
    return m


@st.composite
def closure_cases(draw):
    F = field_create(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(0, 6))
    seed = draw(matrices(F, draw(st.integers(0, 3)), n))
    ops = stack([draw(matrices(F, n, n)) for _ in range(draw(st.integers(0, 3)))], n)
    if draw(st.booleans()):
        # upper-triangular operators keep the flag stable: closures stop short
        ops = np.triu(ops)
    return F, seed, ops


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matmul_matches_loop_reference(data):
    F = field_create(*data.draw(st.sampled_from(FIELDS)))
    n, m, r = (data.draw(st.integers(0, 6)) for _ in range(3))
    a = data.draw(matrices(F, n, m))
    b = data.draw(matrices(F, m, r))
    got = la.matmul(F, a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref.matmul_loop(F, a, b))


@settings(max_examples=200, deadline=None)
@given(case=closure_cases())
def test_closure_matches_per_vector_reference(case):
    F, seed, ops = case
    got = la.closure_under_operators(F, seed, ops)
    want = ref.closure_per_vector(F, seed, list(ops))
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p,k", FIELDS)
def test_closure_edge_cases_match_reference(p, k):
    F = field_create(p, k)
    rng = np.random.default_rng(7)
    n = 5
    ops = stack([np.triu(random_matrix(F, rng, (n, n))) for _ in range(2)], n)
    row = random_matrix(F, rng, (1, n))
    cases = [
        (la.zeros((1, n)), ops),  # zero seed
        (la.zeros((0, n)), ops),  # no seed rows
        (row, stack([], n)),  # no operators
        (np.concatenate([row, row, F.smul_arr(2, row)]), ops),  # rank 1 seed
        (la.eye(n), ops),  # the seed spans the whole space
        (la.eye(n)[-1:], stack([random_matrix(F, rng, (n, n))], n)),  # K = 1
    ]
    for seed, operators in cases:
        got = la.closure_under_operators(F, seed, operators)
        assert np.array_equal(got, ref.closure_per_vector(F, seed, list(operators)))


@st.composite
def stable_subspace_cases(draw):
    """(F, ambient rows, operators) on n = 0 to 7 coordinates.

    Operators are drawn as they come, or planted: P·B·P⁻¹ with B block upper
    triangular leaves the span of P's first c columns stable for every block
    boundary c, and the transpose of P·B·P⁻¹ in general does not; the
    ambient then holds one of these spans.  Ambient rows are drawn as they
    come, with zero or repeated rows, or with full rank.
    """
    F = field_create(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(0, 7))
    planted = n > 1 and draw(st.booleans())
    ops = [draw(matrices(F, n, n)) for _ in range(draw(st.integers(int(planted), 3)))]
    P = la.eye(n)
    if planted:
        cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3))))
        block = np.searchsorted(cuts, np.arange(n), side="right")
        lower, upper = draw(matrices(F, n, n)), draw(matrices(F, n, n))
        P = la.matmul(F, np.tril(lower, -1) + la.eye(n), np.triu(upper, 1) + la.eye(n))
        P_inv = la.rref(F, np.concatenate([P, la.eye(n)], axis=1))[0][:, n:]
        ops = [la.matmul(F, la.matmul(F, P, op * (block[:, None] <= block[None, :])), P_inv)
               for op in ops]
    rows = draw(matrices(F, draw(st.integers(0, n + 1)), n))
    kind = draw(st.sampled_from(["as drawn", "zero rows", "repeated rows", "full rank"]))
    if kind == "zero rows":
        rows[::2] = 0
    elif kind == "repeated rows":
        rows = np.concatenate([rows, rows[::-1]])
    elif kind == "full rank":
        rows = np.concatenate([rows, P.T])
    if planted:  # the ambient holds a planted stable span
        rows = np.concatenate([P.T[: draw(st.sampled_from(cuts))], rows])
    return F, rows, stack(ops, n)


@settings(max_examples=300, deadline=None)
@given(case=stable_subspace_cases())
def test_largest_stable_subspace_matches_shrinking_reference(case):
    """The annihilator of the transposed closure gives the same echelon rows as
    the shrinking iteration it replaced."""
    F, ambient, ops = case
    got = la.largest_stable_subspace(F, ambient, ops)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref.largest_stable_subspace_shrinking(F, ambient, list(ops)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_echelon_basis_extend_and_reduce(data):
    F = field_create(*data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.integers(0, 6))
    first = data.draw(matrices(F, data.draw(st.integers(0, 4)), n))
    second = data.draw(matrices(F, data.draw(st.integers(0, 4)), n))
    basis = la.EchelonBasis(F, la.zeros((0, n)))
    basis.extend(first)
    added = basis.extend(second)
    both = np.concatenate([first, second])
    assert np.array_equal(basis.rows, ref.row_space_basis(F, both))
    assert added.shape[0] == basis.rows.shape[0] - la.rank(F, first)
    assert not basis.reduce(both).any()
    probe = data.draw(matrices(F, 1, n))[0]
    assert la.in_row_space(F, basis.rows, probe) == ref.in_row_space_per_row(
        F, basis.rows, probe)


def _check_residue_updates(F, mat, block):
    """``rref`` and ``EchelonBasis.reduce``/``extend`` against their
    table-driven oracles: the same echelon rows, pivots and residues."""
    red, pivots = la.rref(F, mat)
    want_red, want_pivots = ref.rref_tables(F, mat)
    assert np.array_equal(red, want_red) and pivots == want_pivots
    n = mat.shape[1]
    basis, oracle = la.EchelonBasis(F, la.zeros((0, n))), ref.EchelonBasisTables(F, la.zeros((0, n)))
    assert np.array_equal(basis.extend(mat), oracle.extend(mat))
    assert np.array_equal(basis.reduce(block), oracle.reduce(block))
    assert np.array_equal(basis.extend(block), oracle.extend(block))
    assert np.array_equal(basis.rows, oracle.rows)
    assert np.array_equal(basis.pivots, oracle.pivots)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_residue_row_updates_match_table_reference(data):
    F = field_create(*data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.integers(0, 7))
    mat = data.draw(matrices(F, data.draw(st.integers(0, 7)), n))
    block = data.draw(matrices(F, data.draw(st.integers(0, 4)), n))
    _check_residue_updates(F, mat, block)


def test_residue_row_updates_near_the_largest_field_order():
    # every c·y < p² < 2⁴⁰ of the largest prime field fits int64
    p = max(q for q in range(MAX_FIELD_ORDER - 64, MAX_FIELD_ORDER) if is_prime(q))
    F = Field(p)  # uncached: its scalar lists take about 350 MB until the test ends
    rng = np.random.default_rng(11)
    for rows, cols, rank in [(6, 9, 4), (9, 6, 5), (8, 8, 8), (7, 10, 2)]:
        low = la.matmul(F, random_codes(F, rng, (rows, rank)), random_codes(F, rng, (rank, cols)))
        low[0] = rng.integers(p - 3, p, cols)  # codes at the top of the range
        block = np.concatenate([low[1:3], random_codes(F, rng, (2, cols))])
        _check_residue_updates(F, low, block)


# -- array-built systems against the entry-by-entry loops they replaced ------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_commutation_constraint_matches_loop_reference(data):
    F = field_create(*data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.integers(0, 8))
    op = data.draw(matrices(F, n, n))
    s = data.draw(st.sampled_from([1, -1]))
    got = ref.commutation_constraint(F, op, s)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref.commutation_constraint_loop(F, op, s))


def direct_sum(a, b):
    out = la.zeros((a.shape[0] + b.shape[0],) * 2)
    out[: a.shape[0], : a.shape[0]] = a
    out[a.shape[0]:, a.shape[0]:] = b
    return out


@st.composite
def graded_modules(draw, F, n, n_even_ops, n_odd_ops):
    """(even operators, odd operators, parity involution) on a graded space of
    dimension n.  Operators are dense or sparse (see ``matrices``); an even one
    may also be scalar or diagonal, which leaves large commutants."""
    n_even = draw(st.integers(0, n))
    parity = np.array([0] * n_even + [1] * (n - n_even))
    same = parity[:, None] == parity[None, :]
    even_ops = []
    for _ in range(n_even_ops):
        m = draw(matrices(F, n, n)) * same
        kind = draw(st.sampled_from(["as drawn", "scalar", "diagonal"]))
        if kind == "scalar":
            m = F.smul_arr(draw(st.integers(0, F.q - 1)), la.eye(n))
        elif kind == "diagonal":
            m = np.diag(np.diag(m))
        even_ops.append(m)
    odd_ops = [draw(matrices(F, n, n)) * ~same for _ in range(n_odd_ops)]
    parity_op = np.diag(np.where(parity == 0, 1, F.neg(1))).astype(np.int64)
    return even_ops, odd_ops, parity_op


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_supercommutant_matches_kronecker_reference(data):
    """Spinning e_0, with T·e_0 on every coordinate of the other parity, spans
    the same odd supercommutant as the n²-unknown Kronecker solve on every
    module that e_0 generates, and raises
    ``InvariantViolation`` on the others, direct sums among them."""
    F = field_create(*data.draw(st.sampled_from(FIELDS)))
    counts = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    shape = data.draw(st.sampled_from(["module", "cyclic", "direct sum", "parity-shift glue"]))
    if shape == "module":
        even_ops, odd_ops, parity_op = data.draw(
            graded_modules(F, data.draw(st.integers(0, 6)), *counts))
    elif shape == "cyclic":  # the shift e_i -> e_(i+1), split by parity, spins e_0 to all
        even_ops, odd_ops, parity_op = data.draw(
            graded_modules(F, data.draw(st.integers(1, 6)), *counts))
        shift = np.eye(parity_op.shape[0], k=-1, dtype=np.int64)
        same = parity_op.diagonal()[:, None] == parity_op.diagonal()[None, :]
        even_ops, odd_ops = even_ops + [shift * same], odd_ops + [shift * ~same]
    elif shape == "direct sum":
        a, b = (data.draw(graded_modules(F, data.draw(st.integers(0, 3)), *counts))
                for _ in range(2))
        even_ops, odd_ops = ([direct_sum(x, y) for x, y in zip(a[i], b[i])] for i in range(2))
        parity_op = direct_sum(a[2], b[2])
    else:
        even_ops, odd_ops, parity_op = data.draw(
            graded_modules(F, data.draw(st.integers(0, 3)), *counts))
        glued, parity_op = parity_shift_glue(F, even_ops + odd_ops, parity_op,
                                             [0] * len(even_ops) + [1] * len(odd_ops))
        even_ops, odd_ops = glued[: len(even_ops)], glued[len(even_ops):]
    n = parity_op.shape[0]
    even_stack, odd_stack = stack(even_ops, n), stack(odd_ops, n)
    ops = np.concatenate([even_stack, odd_stack, parity_op[None]])
    spun = la.closure_under_operators(F, la.eye(n)[:1], ops).shape[0]
    other = np.flatnonzero(parity_op.diagonal() != parity_op.diagonal()[:1])  # T·e_0 anywhere
    if n and spun < n:
        with pytest.raises(InvariantViolation, match=f"stops at dimension {spun} of {n}"):
            la.supercommutant_basis(F, even_stack, odd_stack, parity_op, other)
        return
    got = la.supercommutant_basis(F, even_stack, odd_stack, parity_op, other)
    want = ref.supercommutant_kronecker(F, even_ops, odd_ops, parity_op, odd_part=True)
    assert len(got) == len(want)

    def span(ts):
        return ref.row_space_basis(F, np.array(ts, dtype=np.int64).reshape(len(ts), n * n))

    assert np.array_equal(span(got), span(want))
    signed = [(op, False) for op in even_ops] + [(op, True) for op in odd_ops]
    for T in got:
        assert T.dtype == np.int64
        for op, negate in signed + [(parity_op, True)]:
            right = la.matmul(F, op, T)
            assert np.array_equal(la.matmul(F, T, op), F.neg_arr(right) if negate else right)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nullspace_matches_loop_reference(data):
    F = field_create(*data.draw(st.sampled_from(FIELDS)))
    rows, cols = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    mat = data.draw(matrices(F, rows, cols))
    got = la.nullspace(F, mat)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref.nullspace_loop(F, mat))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_graded_codims_match_intersection_reference(data):
    F = field_create(*data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.integers(0, 8))
    parities = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                        dtype=np.int64)
    rows = data.draw(matrices(F, data.draw(st.integers(0, 8)), n))
    if data.draw(st.booleans()):
        # graded: each row lives in one parity, then rows are mixed
        rows[::2, parities == 1] = 0
        rows[1::2, parities == 0] = 0
        mix = data.draw(matrices(F, rows.shape[0], rows.shape[0]))
        rows = np.concatenate([rows, la.matmul(F, mix, rows)])
    model = SimpleNamespace(F=F, n=n, parities=parities)
    try:
        want = ref.graded_codims_intersect(F, parities, rows)
    except RuntimeError:
        with pytest.raises(InvariantViolation, match="not graded"):
            graded_codims(model, rows)
        return
    assert graded_codims(model, rows) == want


def _counted_rref(mp):
    """Wrap ``la.rref``; returns the list its calls append to."""
    calls, rref = [], la.rref

    def counted(F, mat):
        calls.append(np.shape(mat))
        return rref(F, mat)
    mp.setattr(la, "rref", counted)
    return calls


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_graded_codims_on_reduced_rows_match_unreduced_and_reference(data):
    F = field_create(*data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.integers(0, 8))
    parities = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                        dtype=np.int64)
    rows = data.draw(matrices(F, data.draw(st.integers(0, 6)), n))
    rows[::2, parities == 1] = 0  # homogeneous rows, so a graded span
    rows[1::2, parities == 0] = 0
    mix = data.draw(matrices(F, rows.shape[0], rows.shape[0]))
    unreduced = np.concatenate([la.matmul(F, mix, rows), rows])
    reduced = la.row_space_basis(F, unreduced)
    model = SimpleNamespace(F=F, n=n, parities=parities)
    want = ref.graded_codims_intersect(F, parities, unreduced)
    assert graded_codims(model, unreduced) == want
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_rref(mp)
        assert graded_codims(model, reduced) == want
        assert graded_codims(model, reduced[::-1]) == want  # reduced in another order
    assert calls == []


def test_graded_codims_rejects_a_reduced_row_that_mixes_parities(monkeypatch):
    F = field_create(3, 1)
    model = SimpleNamespace(F=F, n=4, parities=np.array([0, 1, 0, 1], dtype=np.int64))
    calls = _counted_rref(monkeypatch)
    # reduced echelon rows; the first has an even pivot and an odd entry
    rows = np.array([[1, 0, 0, 2], [0, 1, 0, 0]], dtype=np.int64)
    with pytest.raises(InvariantViolation, match="not graded"):
        graded_codims(model, rows)
    assert calls == []  # read off the rows as given
    assert graded_codims(model, np.array([[1, 0, 2, 0], [0, 1, 0, 2]])) == (1, 1, 2)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rref_rank_nullspace_match_sympy(data):
    """sympy's DomainMatrix over GF(3), GF(5) and GF(7) gives the same reduced
    rows, pivots, rank and kernel basis (each row scaled to end in 1, as ours
    is at its free column); its symmetric residues are read mod p."""
    p = data.draw(st.sampled_from([3, 5, 7]))
    F, K = field_create(p), GF(p)
    mat = data.draw(matrices(F, data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))))
    dm = DomainMatrix([[K(int(x)) for x in row] for row in mat], mat.shape, K)

    def codes(m):
        return np.array([[int(x) % p for x in row] for row in m.to_list()],
                        dtype=np.int64).reshape(m.shape)

    red, pivots = la.rref(F, mat)
    want_red, want_pivots = dm.rref()
    assert np.array_equal(red, codes(want_red))
    assert pivots == list(want_pivots)
    assert la.rank(F, mat) == dm.rank()
    assert np.array_equal(la.nullspace(F, mat), codes(dm.nullspace(divide_last=True)))


def test_int64_bound_names_the_shape():
    la.check_int64_matmul(7, (3, 2 ** 57), (2 ** 57, 4))  # 36 * 2^57 < 2^63
    with pytest.raises(OverflowError, match=r"\(3, 4611686018427387904\).*2⁶³"):
        la.check_int64_matmul(7, (3, 2 ** 62), (2 ** 62, 4))
    with pytest.raises(OverflowError):
        la.check_int64_matmul(3037000507, (1, 1), (1, 1))  # (p-1)^2 alone is too big


# -- the float64 / int64 product split and the one-block closure rounds ------


def _product_macs(F, n, m, r):
    """Multiply-adds of the one product mod p that ``matmul`` makes."""
    return F.k * F.k * n * m * r


@st.composite
def products_near_float64_threshold(draw, F):
    """(a, b) whose product mod p lies just below or just above FLOAT64_MIN_MACS."""
    n, r = draw(st.integers(4, 24)), draw(st.integers(4, 24))  # n > r and n <= r
    per_m = _product_macs(F, n, 1, r)
    if draw(st.booleans()):
        m = -(-la.FLOAT64_MIN_MACS // per_m) + draw(st.integers(0, 3))
    else:
        m = max(1, (la.FLOAT64_MIN_MACS - 1) // per_m - draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    special = np.array([0, 1, F.q - 1], dtype=np.int64)
    a, b = random_codes(F, rng, (n, m)), random_codes(F, rng, (m, r))
    if draw(st.booleans()):  # many largest codes: the largest sums a product can reach
        a, b = special[rng.integers(0, 3, (n, m))], special[rng.integers(0, 3, (m, r))]
    return a, b


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matmul_matches_loop_reference_on_both_sides_of_float64_threshold(data):
    F = field_create(*data.draw(st.sampled_from([(3, 1), (7, 1), (7, 3), (5, 5)])))
    a, b = data.draw(products_near_float64_threshold(F))
    got = la.matmul(F, a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref.matmul_loop(F, a, b))


def test_float64_guard_at_the_edge_of_its_bound():
    for p in (3, 7, 3125, 2 ** 31 - 1):
        m = (2 ** 53 - 1) // (p - 1) ** 2  # the largest m with m·(p−1)² < 2⁵³
        assert la.fits_float64(p, m)
        assert not la.fits_float64(p, m + 1)
    assert not la.fits_float64(94906267, 1)  # (p−1)² alone passes 2⁵³


def test_product_past_float64_bound_stays_exact_in_int64():
    # (p−1)² > 2⁵³ keeps this 16384-term product out of float64; int64 holds it
    p = 2 ** 31 - 1
    a = np.full((128, 1), p - 1, dtype=np.int64)
    b = np.full((1, 128), p - 2, dtype=np.int64)
    F = SimpleNamespace(p=p, k=1)  # above MAX_FIELD_ORDER; the product reads p and k only
    assert 128 * 128 >= la.FLOAT64_MIN_MACS and not la.fits_float64(p, 1)
    assert (la._right_factor(F, b, 128)(a) == (p - 1) * (p - 2) % p).all()
    with pytest.raises(OverflowError, match="2⁶³"):
        la._right_factor(F, np.ones((3, 128), np.int64), 128)


# -- the three faces of a GF(p^k) product, and the stacked nonsingular test ---

# (n, m, r) with n·m, then m·r, then n·r strictly smallest, ties between each
# pair and all three, and zero-sized dimensions
FACE_SHAPES = [(2, 5, 9), (3, 7, 11), (9, 5, 2), (11, 7, 3), (4, 9, 3), (6, 13, 5),
               (3, 3, 7), (7, 3, 3), (20, 20, 10), (5, 5, 5),
               (0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)]


@pytest.mark.parametrize("float64", [True, False], ids=["float64", "int64"])
@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (5, 5), (7, 3)])
def test_matmul_faces_match_loop_reference(p, k, float64, monkeypatch):
    """Each face's layout equals the column loop, in float64 and (with the
    float64 certificate refused) in int64; the plane layout runs exactly
    when n·r is the smallest face, and makes no product of the other two."""
    F = field_create(p, k)
    rng = np.random.default_rng(p * k)
    if not float64:
        monkeypatch.setattr(la, "fits_float64", lambda p, m: False)
    right_factor = la._right_factor
    calls = []
    monkeypatch.setattr(la, "_right_factor", lambda *args: calls.append(1) or right_factor(*args))
    for n, m, r in FACE_SHAPES:
        for extreme in (False, True):  # the largest codes reach the largest sums
            a, b = random_codes(F, rng, (n, m)), random_codes(F, rng, (m, r))
            if extreme:
                a, b = np.full_like(a, F.q - 1), np.full_like(b, F.q - 1)
            calls.clear()
            got = la.matmul(F, a, b)
            assert got.dtype == np.int64 and got.shape == (n, r)
            assert np.array_equal(got, ref.matmul_loop(F, a, b)), (n, m, r, extreme)
            assert (not calls) == (n * r <= min(n * m, m * r)), (n, m, r)


def _rank_is_full(F, block):
    return len(la.rref(F, block)[1]) == block.shape[0]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_nonsingular_matches_rref_rank(data):
    F = field_create(*data.draw(st.sampled_from(FIELDS)))
    s, B = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 6))
    blocks = stack([data.draw(matrices(F, s, s)) for _ in range(B)], s)
    got = la.nonsingular(F, blocks)
    assert got.dtype == bool and got.shape == (B,)
    assert got.tolist() == [_rank_is_full(F, X) for X in blocks]


@pytest.mark.parametrize("p,k", FIELDS)
def test_nonsingular_finds_planted_singular_blocks(p, k):
    """A duplicated row, a zero column and a product of two rank-deficient
    factors, stacked among random blocks, for s = 1…6."""
    F = field_create(p, k)
    rng = np.random.default_rng(7 * p + k)
    for s in range(1, 7):
        blocks = random_matrix(F, rng, (12, s, s))
        blocks[0, -1] = blocks[0, 0] if s > 1 else 0
        blocks[1, :, rng.integers(s)] = 0
        left, right = random_matrix(F, rng, (s, s)), random_matrix(F, rng, (s, s))
        left[:, 0], right[-1] = F.smul_arr(2, left[:, -1]) if s > 1 else 0, 0
        blocks[2] = la.matmul(F, left, right)
        got = la.nonsingular(F, blocks)
        assert got.tolist() == [_rank_is_full(F, X) for X in blocks], s
        assert not got[:3].any() and got[3:].any(), s


def spy_on_extend(monkeypatch) -> list:
    """(block rows, new rows) of every ``EchelonBasis.extend`` call from now on."""
    calls = []
    extend = la.EchelonBasis.extend

    def spy(self, block):
        new = extend(self, block)
        calls.append((block.shape[0], new.shape[0]))
        return new

    monkeypatch.setattr(la.EchelonBasis, "extend", spy)
    return calls


def replay_rounds(calls, K, n) -> list[bool]:
    """Replay one closure's extend calls under the update rule: a round with
    K·f ≤ n extends once with every image (True), a larger one once per
    operator (False), and no round runs once the span is the whole space."""
    f, i = calls[0][1], 1
    span, kinds = f, []
    while f and span < n:
        stacked = K * f <= n
        kinds.append(stacked)
        round_calls = calls[i: i + (1 if stacked else K)]
        assert [rows for rows, _ in round_calls] == ([K * f] if stacked else [f] * K)
        f, i = sum(new for _, new in round_calls), i + len(round_calls)
        span += f
    assert i == len(calls)
    return kinds


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (5, 5)])
def test_closure_rounds_of_both_kinds_match_reference(p, k, monkeypatch):
    """Rounds with K·f ≤ n extend once with every image, larger ones once per
    operator, and no round runs once the span is the whole space; the spy
    replays that rule and counts rounds of each kind."""
    F = field_create(p, k)
    n, K = 12, 3
    calls = spy_on_extend(monkeypatch)
    kinds = set()
    rng = np.random.default_rng(p * k)
    for trial in range(4):
        ops = stack([random_matrix(F, rng, (n, n)) for _ in range(K)], n)
        if trial % 2:
            ops = np.triu(ops)  # stops short of the whole space
        seed = random_matrix(F, rng, (1 + trial, n))
        calls.clear()
        got = la.closure_under_operators(F, seed, ops)
        kinds.update(replay_rounds(calls, K, n))
        assert np.array_equal(got, ref.closure_per_vector(F, seed, list(ops)))
    assert kinds == {True, False}


def test_closures_on_module_stacks_match_references(monkeypatch):
    """The read-only (9, 20, 20) stack of gl(2|1), p = 5 baby Vermas over
    GF(5^5), its non-contiguous transposed view and one-operator slices of
    it: closures of the lowest and of a random vector equal the per-vector
    closure, and largest stable subspaces the shrinking iteration, with
    rounds of both update kinds."""
    g = build_algebra("gl(2|1)", field_create(5))
    chi = g.chi_nonregular_nonzero()
    lset = lambda_set(g, chi)
    F = lset.field
    assert (F.p, F.k) == (5, 5)
    system = VermaSystem(g, chi)
    ambient = ambient_rows(module(system, lset.weights[0], F))
    calls = spy_on_extend(monkeypatch)
    kinds, proper = set(), set()
    rng = np.random.default_rng(17)
    for lam in lset.weights[::40]:
        Z = module(system, lam, F)
        ops = Z.operators()
        assert not ops.flags.writeable and ops.shape == (9, 20, 20)
        views = [ops, ops.transpose(0, 2, 1), ops[:1], ops[-1:]]
        assert not views[1].flags.c_contiguous
        for view in views:
            K = view.shape[0]
            for seed in (Z.lowest_vector()[None, :], random_matrix(F, rng, (1, 20))):
                calls.clear()
                got = la.closure_under_operators(F, seed, view)
                kinds.update(replay_rounds(calls, K, 20))
                assert np.array_equal(got, ref.closure_per_vector(F, seed, list(view)))
                proper.add(got.shape[0] < 20)
            calls.clear()
            stable = la.largest_stable_subspace(F, ambient, view)
            kinds.update(replay_rounds(calls, K, 20))
            assert np.array_equal(
                stable, ref.largest_stable_subspace_shrinking(F, ambient, list(view)))
    assert kinds == {True, False} and proper == {True, False}


# -- one reduction mod p, and each operator stack expanded once --------------

MOD_PRIMES = sorted({p for p, _ in FIELDS}) + [1048573]
MOD_SIZES = [0, 1, 95, MOD_DIV_MIN_SIZE - 1, MOD_DIV_MIN_SIZE, MOD_DIV_MIN_SIZE + 1,
             3 * MOD_DIV_MIN_SIZE]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mod_p_matches_remainder_reference(data):
    """Any int64, the ranges that row updates and products reach, and exact
    float64 integers below 2⁵³, on both sides of MOD_DIV_MIN_SIZE."""
    p, size = data.draw(st.sampled_from(MOD_PRIMES)), data.draw(st.sampled_from(MOD_SIZES))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    kind = data.draw(st.sampled_from(["int64", "residues", "float64"]))
    if kind == "int64":
        info = np.iinfo(np.int64)
        x = rng.integers(info.min, info.max, size, dtype=np.int64, endpoint=True)
        x[: 4] = [info.min, info.max, -p, p][: size]
    elif kind == "residues":  # x − c·y of a row update up to a product's m·(p−1)²
        x = rng.integers(-(p - 1) ** 2, 10 ** 4 * (p - 1) ** 2, size, dtype=np.int64)
    else:
        bound = (2 ** 53 - 1) // (p - 1) ** 2 * (p - 1) ** 2  # a fits_float64 sum
        assert la.fits_float64(p, bound // (p - 1) ** 2)
        x = rng.integers(-bound, bound, size, endpoint=True).astype(np.float64)
        x[: 2] = [bound, -bound][: size]
    want = ref.mod_p_remainder(x, p)
    got = mod_p(x.copy(), p)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    if kind != "float64":
        assert mod_p(x, p) is x  # reduced in place


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_right_factor_products_match_matmul(data):
    """x ↦ x·b over GF(p), GF(9) and GF(5⁵), for frontiers of zero rows up,
    with b given as a (m, K, n) view with its trailing axes read as one."""
    F = field_create(*data.draw(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 5)])))
    m, K, n = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 3)), data.draw(st.integers(0, 7))
    ops = data.draw(matrices(F, K * n, m)).reshape(K, n, m)
    b = ops.transpose(2, 0, 1)  # [A_1ᵀ | … | A_Kᵀ] as a view, as the closure passes it
    wide = b.reshape(m, K * n)
    times = la._right_factor(F, b, data.draw(st.integers(1, 2 ** 12)))
    for rows in (0, data.draw(st.integers(1, 6))):
        x = data.draw(matrices(F, rows, m))
        got = times(x)
        assert got.dtype == np.int64 and got.shape == (rows, K * n)
        assert np.array_equal(got, la.matmul(F, x, wide))
        assert np.array_equal(got, ref.matmul_loop(F, x, wide))


def stack_expansions(expansions) -> list:
    """The (shape, products) of each whole operator stack expanded: the
    closure and the spin pass a (n, K, n) view, a product a matrix."""
    return [tuple(e) for e in expansions if len(e[0]) == 3]


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 5)])
def test_closure_expands_its_stack_once(p, k, monkeypatch):
    """A shift and its multiples move e_0 one coordinate per round: n − 1
    rounds, one expansion of the stack, and one for the transposed stack of
    a largest stable subspace."""
    F = field_create(p, k)
    n, K = 12, 3
    shift = np.eye(n, k=-1, dtype=np.int64)
    ops = np.stack([shift, F.smul_arr(2, shift), np.triu(random_codes(F, np.random.default_rng(k), (n, n)))])
    expansions = spy_on_right_factors(monkeypatch)
    got = la.closure_under_operators(F, la.eye(n)[:1], ops)
    assert got.shape[0] == n
    assert stack_expansions(expansions) == [((n, K, n), n - 1)]
    expansions.clear()
    la.largest_stable_subspace(F, la.eye(n)[:-1], ops)
    ((shape, rounds),) = stack_expansions(expansions)
    assert shape == (n, K, n) and rounds >= 1


@pytest.mark.parametrize("p,chi", [(3, "zero"), (5, "regular")])
def test_spin_expands_its_stack_once(p, chi, monkeypatch):
    """One expansion of the (K, n, n) stack per supercommutant_basis call,
    however many rounds the spin of e_0 runs, on gl(2|1) heads over GF(3)
    and GF(5⁵)."""
    g = build_algebra("gl(2|1)", field_create(p))
    chi = g.chi_zero() if chi == "zero" else g.chi_regular_semisimple()
    parities = np.asarray(g.parities)
    expansions = spy_on_right_factors(monkeypatch)
    heads = 0
    for F, ops, parity_op in itertools.islice(simple_heads(g, chi), 4):
        n = parity_op.shape[0]
        if n < 3:
            continue
        expansions.clear()
        coords = np.arange(1, n)[parity_op.diagonal()[1:] != parity_op[0, 0]][:2]
        la.supercommutant_basis(F, ops[parities == 0], ops[parities == 1], parity_op, coords)
        ((shape, rounds),) = stack_expansions(expansions)
        assert shape == (n, len(ops) + 1, n) and rounds >= 2
        heads += 1
    assert heads

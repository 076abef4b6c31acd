"""Unit tests for the revised-simplex core (`repro.lp.revised`) and its
LU-factorized basis (`repro.lp.basis_lu`).

The session-level integration (warm chains, bitwise warm/cold identity,
heuristic wiring) lives in test_lp_session.py; this file exercises the
solver and factorization directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.core.problem import SteadyStateProblem
from repro.experiments.config import (
    DEFAULT_SCENARIO,
    payoffs_for,
    sample_settings,
    spec_for,
)
from repro.lp.basis_lu import LUBasis, SingularBasisError
from repro.lp.builder import build_lp
from repro.lp.revised import revised_solve
from repro.lp.scipy_backend import solve_lp_scipy
from repro.platform.generator import generate_platform
from repro.util.errors import SolverError


class TestLUBasis:
    def _random_system(self, seed, m=8, n=14):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n))
        basis = rng.permutation(n + m)[:m]
        return A, np.sort(basis)

    @pytest.mark.parametrize("seed", range(4))
    def test_ftran_btran_match_dense(self, seed):
        A, basis = self._random_system(seed)
        m = A.shape[0]
        lu = LUBasis(A, basis)
        B = np.column_stack(
            [A[:, j] if j < A.shape[1] else np.eye(m)[:, j - A.shape[1]]
             for j in basis]
        )
        v = np.random.default_rng(seed + 100).normal(size=m)
        np.testing.assert_allclose(lu.ftran(v), np.linalg.solve(B, v),
                                   rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(lu.btran(v), np.linalg.solve(B.T, v),
                                   rtol=1e-9, atol=1e-11)

    def test_eta_updates_track_column_replacements(self):
        A, basis = self._random_system(3)
        m, n = A.shape
        lu = LUBasis(A, basis, refactor_every=64)
        rng = np.random.default_rng(7)
        for _ in range(10):
            r = int(rng.integers(m))
            candidates = np.setdiff1d(np.arange(n + m), lu.basis)
            j = int(rng.choice(candidates))
            w = lu.ftran(lu.column(j))
            if abs(w[r]) < 1e-6:
                continue
            lu.replace_column(r, j, w)
            B = np.column_stack(
                [A[:, k] if k < n else np.eye(m)[:, k - n] for k in lu.basis]
            )
            v = rng.normal(size=m)
            np.testing.assert_allclose(lu.ftran(v), np.linalg.solve(B, v),
                                       rtol=1e-8, atol=1e-10)
        assert lu.n_updates == lu.updates_since_refactor + 0  # file grew
        lu.refactorize()
        assert lu.updates_since_refactor == 0

    def test_refactor_every_bounds_eta_file(self):
        A, basis = self._random_system(5)
        m, n = A.shape
        lu = LUBasis(A, basis, refactor_every=3)
        rng = np.random.default_rng(11)
        for _ in range(12):
            r = int(rng.integers(m))
            candidates = np.setdiff1d(np.arange(n + m), lu.basis)
            j = int(rng.choice(candidates))
            w = lu.ftran(lu.column(j))
            if abs(w[r]) < 1e-6:
                continue
            lu.replace_column(r, j, w)
            assert lu.updates_since_refactor <= 3

    def test_singular_basis_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank-1 structural part
        with pytest.raises(SingularBasisError):
            LUBasis(A, np.array([0, 1]))

    def test_matches_requires_same_matrix_object_and_basis(self):
        A, basis = self._random_system(0)
        lu = LUBasis(A, basis)
        assert lu.matches(A, basis)
        assert not lu.matches(A.copy(), basis)
        other = basis.copy()
        other[0] = [c for c in range(A.shape[1]) if c not in set(basis)][0]
        assert not lu.matches(A, other)


def _assembled(A, basis):
    """The explicit dense basis matrix ``[A | I][:, basis]``."""
    m, n = A.shape
    return np.column_stack(
        [A[:, j] if j < n else np.eye(m)[:, j - n] for j in basis]
    )


def _relative_residual(M, x, v):
    """Backward error of ``M x = v``: ``|M x - v| / (|M| |x| + |v|)``."""
    scale = np.abs(M).sum(axis=1).max() * np.abs(x).max() + np.abs(v).max()
    return float(np.abs(M @ x - v).max() / max(scale, 1e-300))


@st.composite
def sparse_bases(draw):
    """A random sparse ``A`` (m <= 30) and a basis with 0..m structural
    columns, its structural kernel planted well away from singular."""
    m = draw(st.integers(min_value=1, max_value=30))
    n = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from([0.05, 0.15, 0.4]))
    k = draw(st.integers(min_value=0, max_value=min(m, n)))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
    rows = rng.permutation(m)[:k]
    cols = rng.permutation(n)[:k]
    A[rows, cols] = rng.choice([-1.0, 1.0], size=k) * (2.0 + rng.random(k))
    slacks = n + np.setdiff1d(np.arange(m), rows)
    basis = rng.permutation(np.concatenate([cols, slacks]))
    return A, basis, rng


class TestLUBasisKernelProperty:
    """FTRAN/BTRAN of the slack-eliminated kernel agree with the
    explicitly assembled basis, through any ``replace_column`` chain."""

    @staticmethod
    def _check_solves(lu, A, rng):
        B = _assembled(A, lu.basis)
        v = rng.normal(size=A.shape[0])
        assert _relative_residual(B, lu.ftran(v), v) <= 1e-9
        assert _relative_residual(B.T, lu.btran(v), v) <= 1e-9

    @hyp_settings(max_examples=100, deadline=None)
    @given(
        system=sparse_bases(),
        refactor_every=st.integers(min_value=1, max_value=8),
        n_pivots=st.integers(min_value=0, max_value=12),
    )
    def test_solves_track_the_assembled_basis(self, system, refactor_every, n_pivots):
        A, basis, rng = system
        m, n = A.shape
        if np.linalg.cond(_assembled(A, basis)) > 1e8:
            return  # the planted kernel met an unlucky fill-in
        lu = LUBasis(A, basis, refactor_every=refactor_every)
        self._check_solves(lu, A, rng)
        for _ in range(n_pivots):
            r = int(rng.integers(m))
            j = int(rng.choice(np.setdiff1d(np.arange(n + m), lu.basis)))
            w = lu.ftran(lu.column(j))
            if abs(w[r]) < 1e-3 * max(1.0, float(np.abs(w).max())):
                continue  # would leave a near-singular basis
            trial = lu.basis.copy()
            trial[r] = j
            if np.linalg.cond(_assembled(A, trial)) > 1e8:
                continue
            lu.replace_column(r, j, w)
            assert np.array_equal(lu.basis, trial)
            assert lu.updates_since_refactor <= refactor_every
            self._check_solves(lu, A, rng)

    @hyp_settings(max_examples=40, deadline=None)
    @given(system=sparse_bases(), zero=st.booleans())
    def test_duplicated_or_zero_structural_column_is_singular(self, system, zero):
        A, basis, _ = system
        n = A.shape[1]
        struct = np.nonzero(basis < n)[0]
        if zero:
            if struct.size == 0:
                return
            A = A.copy()
            A[:, basis[struct[0]]] = 0.0
        else:
            slack = np.nonzero(basis >= n)[0]
            if struct.size == 0 or slack.size == 0:
                return
            # a structural column basic twice, displacing one slack
            basis = basis.copy()
            basis[slack[0]] = basis[struct[0]]
        with pytest.raises(SingularBasisError):
            LUBasis(A, basis)

    def test_all_slack_kernel(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 4))
        basis = 4 + rng.permutation(6)
        lu = LUBasis(A, basis)
        v = rng.normal(size=6)
        np.testing.assert_array_equal(lu.ftran(v), v[basis - 4])
        y = np.empty(6)
        y[basis - 4] = v
        np.testing.assert_array_equal(lu.btran(v), y)

    def test_all_structural_kernel(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 9))
        basis = rng.permutation(9)[:6]
        lu = LUBasis(A, basis)
        self._check_solves(lu, A, rng)
        # pivot a slack in, then the structural back out again
        w = lu.ftran(lu.column(9 + 2))
        r = int(np.argmax(np.abs(w)))
        leaving = int(lu.basis[r])
        lu.replace_column(r, 9 + 2, w)
        self._check_solves(lu, A, rng)
        lu.replace_column(r, leaving)
        self._check_solves(lu, A, rng)

    def test_repeated_slack_is_singular(self):
        A = np.eye(3)
        with pytest.raises(SingularBasisError):
            LUBasis(A, np.array([3, 3, 0]))


class TestRevisedBasics:
    def test_textbook_max(self):
        res = revised_solve([3.0, 5.0], [[1, 0], [0, 2], [3, 2]],
                            [4, 12, 18])
        assert res.ok
        assert res.value == pytest.approx(36.0)
        np.testing.assert_allclose(res.x, [2.0, 6.0])

    def test_native_upper_bounds_no_extra_rows(self):
        # maximize x + y, x + y <= 10, x <= 3, y <= 2 (as *bounds*):
        # the revised engine keeps m = 1.
        res = revised_solve([1.0, 1.0], [[1.0, 1.0]], [10.0],
                            bounds=[(0, 3), (0, 2)])
        assert res.ok
        assert res.value == pytest.approx(5.0)
        assert res.basis is not None and res.basis.shape == (1,)

    def test_bound_flip_path(self):
        # Optimum has both variables at their upper bounds while the
        # slack stays basic: reaching it needs bound flips, not pivots.
        res = revised_solve([1.0, 1.0], [[1.0, 1.0]], [100.0],
                            bounds=[(0, 1), (0, 1)])
        assert res.ok
        assert res.value == pytest.approx(2.0)
        assert res.at_upper[:2].all()

    def test_unbounded_detected(self):
        res = revised_solve([1.0], np.zeros((1, 1)), [1.0])
        assert res.status == "unbounded"

    def test_infeasible_detected(self):
        res = revised_solve([1.0], [[-1.0], [1.0]], [-5.0, 2.0])
        assert res.status == "infeasible"

    def test_phase1_dual_cold_start(self):
        # x >= 3 via -x <= -3: the all-slack basis is primal-infeasible,
        # so the cold start must route through the dual phase 1.
        res = revised_solve([-1.0], [[-1.0]], [-3.0], bounds=[(0, 10)])
        assert res.ok
        assert res.x[0] == pytest.approx(3.0)
        assert res.dual_steps > 0

    def test_crossed_bounds_infeasible(self):
        res = revised_solve([1.0], [[1.0]], [1.0], bounds=[(2.0, 1.0)])
        assert res.status == "infeasible"

    def test_infinite_lower_bound_rejected(self):
        with pytest.raises(SolverError):
            revised_solve([1.0], [[1.0]], [1.0], bounds=[(-np.inf, 1.0)])

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            revised_solve([1.0, 2.0], [[1.0]], [1.0])


class TestRevisedAgainstHiGHSRandom:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_bounded_lps(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        b = rng.uniform(-0.5, 3.0, size=m)
        c = rng.normal(size=n)
        lb = np.zeros(n)
        ub = np.where(rng.uniform(size=n) < 0.5,
                      rng.uniform(0.5, 4.0, size=n), np.inf)
        res = revised_solve(c, A, b, (lb, ub))
        from scipy.optimize import linprog

        ref = linprog(-c, A_ub=A, b_ub=b,
                      bounds=list(zip(lb, np.where(np.isfinite(ub), ub, None))),
                      method="highs")
        if ref.status in (2, 3):
            # HiGHS presolve reports some unbounded problems as status
            # 2 ("infeasible"); either non-optimal verdict is fine as
            # long as we also declare the problem unsolvable.
            assert res.status in ("infeasible", "unbounded")
        else:
            assert res.ok
            assert res.value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)


class TestRevisedWarmStart:
    def _lp(self):
        c = np.array([3.0, 2.0, 4.0])
        A = np.array([[1.0, 1.0, 2.0], [2.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([10.0, 8.0, 6.0])
        bounds = (np.zeros(3), np.array([6.0, 6.0, 6.0]))
        return c, A, b, bounds

    def test_resolve_after_rhs_tightening_uses_dual_repair(self):
        c, A, b, bounds = self._lp()
        first = revised_solve(c, A, b, bounds)
        assert first.ok
        tightened = b * 0.8
        warm = revised_solve(c, A, tightened, bounds,
                             initial_basis=first.basis,
                             initial_at_upper=first.at_upper)
        cold = revised_solve(c, A, tightened, bounds)
        assert warm.ok and cold.ok
        assert warm.warm_started
        assert warm.value == pytest.approx(cold.value, rel=1e-9)
        assert warm.iterations <= cold.iterations

    def test_fixed_basic_variable_is_ejected_exactly(self):
        c, A, b, bounds = self._lp()
        first = revised_solve(c, A, b, bounds)
        assert first.ok
        # Pin a variable that is basic in the first optimum.
        basic_structural = [j for j in first.basis if j < 3]
        var = int(basic_structural[0])
        lb, ub = bounds[0].copy(), bounds[1].copy()
        pinned = float(np.floor(first.x[var]))
        lb[var] = ub[var] = pinned
        warm = revised_solve(c, A, b, (lb, ub),
                             initial_basis=first.basis,
                             initial_at_upper=first.at_upper)
        assert warm.ok
        assert warm.warm_started
        assert warm.x[var] == pinned  # bit-exact, not approximate
        assert var not in set(int(j) for j in warm.basis)

    def test_initial_lu_reused_when_basis_unchanged(self):
        c, A, b, bounds = self._lp()
        first = revised_solve(c, A, b, bounds)
        assert first.ok and first.lu is not None
        again = revised_solve(c, A, b, bounds,
                              initial_basis=first.basis,
                              initial_at_upper=first.at_upper,
                              initial_lu=first.lu)
        assert again.ok
        # Zero pivots needed, so the adopted factorization was never
        # redone: the result carries the very same LUBasis object.
        assert again.lu is first.lu
        assert again.iterations == 0

    def test_refactorizations_count_this_solve_only(self):
        c, A, b, bounds = self._lp()
        first = revised_solve(c, A, b, bounds)
        assert first.ok and first.refactorizations >= 1
        # An adopted factorization is not re-counted by the next solve.
        again = revised_solve(c, A, b, bounds,
                              initial_basis=first.basis,
                              initial_at_upper=first.at_upper,
                              initial_lu=first.lu)
        assert again.lu is first.lu
        assert again.refactorizations == 0
        # A warm solve that pivots (pinning a basic variable ejects
        # it) counts its own factorizations only.
        before = first.lu.n_refactor
        var = int([j for j in first.basis if j < 3][0])
        lb, ub = bounds[0].copy(), bounds[1].copy()
        lb[var] = ub[var] = float(np.floor(first.x[var]))
        third = revised_solve(c, A, b, (lb, ub),
                              initial_basis=first.basis,
                              initial_at_upper=first.at_upper,
                              initial_lu=first.lu)
        assert third.ok and third.warm_started and third.iterations > 0
        assert third.lu is first.lu
        assert third.refactorizations == third.lu.n_refactor - before >= 1

    def test_stale_lu_is_ignored(self):
        c, A, b, bounds = self._lp()
        first = revised_solve(c, A, b, bounds)
        other = revised_solve(c, A.copy(), b, bounds)
        assert first.ok and other.ok
        # LU over a different matrix object never matches.
        res = revised_solve(c, A, b, bounds,
                            initial_basis=first.basis,
                            initial_at_upper=first.at_upper,
                            initial_lu=other.lu)
        assert res.ok
        assert res.value == pytest.approx(first.value, rel=1e-12)

    def test_garbage_basis_falls_back_cold(self):
        c, A, b, bounds = self._lp()
        res = revised_solve(c, A, b, bounds,
                            initial_basis=np.array([0, 0, 0]))
        assert res.ok
        assert not res.warm_started


class TestCanonicalVertex:
    def test_degenerate_face_reported_identically(self):
        # maximize x + y over x + y <= 1 (a whole optimal facet), with
        # a generic secondary objective: warm and cold runs must report
        # the same vertex bitwise.
        c = np.array([1.0, 1.0])
        A = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        bounds = (np.zeros(2), np.array([1.0, 1.0]))
        weights = np.array([1.3, 1.7])
        cold = revised_solve(c, A, b, bounds, canon_weights=weights)
        assert cold.ok
        # Start a second solve from a *different* vertex of the facet:
        # basis = {y} instead of whatever cold chose.
        warm = revised_solve(c, A, b, bounds,
                             initial_basis=np.array([1]),
                             canon_weights=weights)
        assert warm.ok
        assert np.array_equal(cold.x, warm.x)
        # The canonical vertex maximises the secondary weights: y wins.
        np.testing.assert_allclose(cold.x, [0.0, 1.0])


class TestOnPaperInstances:
    @pytest.mark.parametrize("objective", ["sum", "maxmin"])
    def test_matches_highs_on_program7(self, problem_factory, objective):
        problem = problem_factory(seed=0, n_clusters=5, objective=objective)
        inst = build_lp(problem)
        ref = solve_lp_scipy(inst)
        res = revised_solve(inst.obj, inst.A_ub.toarray(), inst.b_ub,
                            (inst.lb, inst.ub))
        assert res.ok
        assert res.value == pytest.approx(ref.value, rel=1e-7, abs=1e-7)

    def test_warm_chain_matches_highs(self, problem_factory):
        """An LPRR-style chain of beta pins, each re-solve warm-started
        from the previous basis, must track fresh HiGHS throughout."""
        problem = problem_factory(seed=1, n_clusters=5)
        inst = build_lp(problem)
        A = inst.A_ub.toarray()
        lb, ub = inst.lb.copy(), inst.ub.copy()
        res = revised_solve(inst.obj, A, inst.b_ub, (lb, ub))
        assert res.ok
        n_alpha = inst.index.n_alpha
        for var in range(n_alpha, min(n_alpha + 6, inst.n_vars)):
            lb[var] = ub[var] = float(np.floor(res.x[var]))
            res = revised_solve(inst.obj, A, inst.b_ub, (lb, ub),
                                initial_basis=res.basis,
                                initial_at_upper=res.at_upper,
                                initial_lu=res.lu)
            assert res.ok
            assert res.warm_started
            np.copyto(inst.lb, lb)
            np.copyto(inst.ub, ub)
            inst.invalidate_bounds()
            ref = solve_lp_scipy(inst)
            assert res.value == pytest.approx(ref.value, rel=1e-7, abs=1e-7)


class TestDualityCertificate:
    """Solver-free optimality check of cold optima on paper-grid
    instances: the duals come from the kernel's own BTRAN, and every
    condition below is checked with plain numpy."""

    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("objective", ["maxmin", "sum"])
    @pytest.mark.parametrize("k", [10, 20])
    def test_cold_optimum_carries_a_dual_certificate(self, k, objective, pinned):
        (setting,) = sample_settings(1, rng=k, k_values=[k])
        rng = np.random.default_rng([k, len(objective)])
        problem = SteadyStateProblem(
            generate_platform(spec_for(setting, DEFAULT_SCENARIO), rng=rng),
            payoffs_for(setting, DEFAULT_SCENARIO, rng),
            objective=objective,
        )
        inst = build_lp(problem)
        A = inst.A_ub.toarray()
        m, n = A.shape
        res = revised_solve(inst.obj, A, inst.b_ub, (inst.lb, inst.ub))
        if pinned:
            # fix the routed betas at their floors (as LPRR does) and
            # every other used alpha at half its value, so fixed columns
            # rest at nonzero values with nonzero reduced costs
            betas = np.arange(inst.index.n_alpha, n)
            betas = betas[np.isfinite(inst.ub[betas]) & (res.x[betas] >= 1.0)]
            alphas = np.arange(inst.index.n_alpha)
            alphas = alphas[res.x[alphas] > 0][::2]
            assert betas.size and alphas.size
            inst.lb[betas] = inst.ub[betas] = np.floor(res.x[betas])
            inst.lb[alphas] = inst.ub[alphas] = 0.5 * res.x[alphas]
            inst.invalidate_bounds()
            res = revised_solve(inst.obj, A, inst.b_ub, (inst.lb, inst.ub))
        assert res.ok and not res.warm_started

        c_ext = np.concatenate([inst.obj, np.zeros(m)])
        y = res.lu.btran(c_ext[res.basis])
        scale = max(1.0, float(np.abs(inst.obj).max()))
        tol = 1e-9 * scale
        assert y.min() >= -tol  # rows are <=, objective maximised

        d = inst.obj - y @ A
        nonbasic = np.ones(n, dtype=bool)
        nonbasic[res.basis[res.basis < n]] = False
        free = nonbasic & (inst.lb < inst.ub)
        at_upper = res.at_upper[:n]
        assert np.all(d[free & ~at_upper] <= tol)
        assert np.all(d[free & at_upper] >= -tol)
        assert np.all(np.abs(d[~nonbasic]) <= tol)

        primal = float(inst.obj @ res.x)
        bound_term = float(d[nonbasic] @ res.x[nonbasic])
        assert (abs(bound_term) > 1e-3) == pinned
        assert abs(primal - (inst.b_ub @ y + bound_term)) <= 1e-9 * max(1.0, abs(primal))
        assert res.value == pytest.approx(
            solve_lp_scipy(inst).value, rel=1e-7, abs=1e-7
        )

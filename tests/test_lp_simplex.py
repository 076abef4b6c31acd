"""Textbook, random and paper-instance tests for the simplex engine
(``repro.lp.revised.revised_solve``), checked against HiGHS, plus the
scale-dependent tolerance regression pins.

The LU factorization and warm-start mechanics are covered in
test_lp_revised.py; this file pins the solver's answers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp.builder import build_lp
from repro.lp.revised import revised_solve
from repro.lp.scipy_backend import solve_lp_scipy
from repro.util.errors import SolverError


class TestBasicLPs:
    def test_textbook_max(self):
        # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6)
        res = revised_solve(
            c=[3, 5],
            A_ub=[[1, 0], [0, 2], [3, 2]],
            b_ub=[4, 12, 18],
        )
        assert res.ok
        assert res.value == pytest.approx(36.0)
        assert res.x == pytest.approx([2.0, 6.0])

    def test_degenerate_origin(self):
        res = revised_solve(c=[-1, -1], A_ub=[[1, 1]], b_ub=[10])
        assert res.ok and res.value == pytest.approx(0.0)

    def test_unbounded_detected(self):
        res = revised_solve(c=[1], A_ub=np.zeros((1, 1)), b_ub=[1])
        assert res.status == "unbounded"

    def test_infeasible_detected(self):
        # x >= 5 (as -x <= -5) with x <= 2.
        res = revised_solve(c=[1], A_ub=[[-1], [1]], b_ub=[-5, 2])
        assert res.status == "infeasible"

    def test_negative_rhs_phase1(self):
        # x >= 3 and x <= 10, maximize -x -> x = 3, value -3.
        res = revised_solve(c=[-1], A_ub=[[-1]], b_ub=[-3], bounds=[(0, 10)])
        assert res.ok
        assert res.x[0] == pytest.approx(3.0)

    def test_upper_bounds(self):
        res = revised_solve(c=[1, 1], A_ub=[[1, 1]], b_ub=[100], bounds=[(0, 3), (0, 4)])
        assert res.ok and res.value == pytest.approx(7.0)

    def test_shifted_lower_bounds(self):
        # x in [2, 5], max x -> 5; min x (max -x) -> 2.
        res = revised_solve(c=[1], A_ub=np.zeros((0, 1)).reshape(0, 1), b_ub=[], bounds=[(2, 5)])
        assert res.ok and res.value == pytest.approx(5.0)
        res = revised_solve(c=[-1], A_ub=np.zeros((0, 1)), b_ub=[], bounds=[(2, 5)])
        assert res.ok and res.x[0] == pytest.approx(2.0)

    def test_infinite_lower_bound_rejected(self):
        with pytest.raises(SolverError):
            revised_solve(c=[1], A_ub=[[1]], b_ub=[1], bounds=[(-np.inf, 1)])

    def test_crossed_bounds_infeasible(self):
        res = revised_solve(c=[1], A_ub=[[1]], b_ub=[10], bounds=[(5, 3)])
        assert res.status == "infeasible"

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            revised_solve(c=[1, 2], A_ub=[[1]], b_ub=[1])


class TestAgainstHiGHSRandom:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_random_bounded_lps(self, seed):
        """On random LPs with box bounds (always feasible, always bounded)
        our simplex must match HiGHS's optimal value."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        c = rng.uniform(-5, 5, n)
        A = rng.uniform(-2, 3, (m, n))
        b = rng.uniform(0.5, 10, m)  # b > 0: origin feasible
        ub = rng.uniform(1, 10, n)
        bounds = [(0.0, float(u)) for u in ub]

        ours = revised_solve(c, A, b, bounds)
        assert ours.ok

        from scipy.optimize import linprog

        ref = linprog(-c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        assert ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-7)
        # Solution must itself be feasible.
        assert np.all(A @ ours.x <= b + 1e-7)
        assert np.all(ours.x >= -1e-9) and np.all(ours.x <= ub + 1e-9)


class TestOnPaperInstances:
    @pytest.mark.parametrize("objective", ["sum", "maxmin"])
    def test_matches_highs_on_program7(self, problem_factory, objective):
        """The in-repo engine must reproduce HiGHS on real program-(7)
        instances."""
        problem = problem_factory(seed=0, n_clusters=4, objective=objective)
        inst = build_lp(problem)
        ref = solve_lp_scipy(inst)
        ours = revised_solve(
            inst.obj, inst.A_ub.toarray(), inst.b_ub, inst.bounds_list()
        )
        assert ours.ok
        assert ours.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)

    def test_several_seeds(self, problem_factory):
        for seed in range(4):
            problem = problem_factory(seed=seed, n_clusters=3, objective="maxmin")
            inst = build_lp(problem)
            ref = solve_lp_scipy(inst)
            ours = revised_solve(
                inst.obj, inst.A_ub.toarray(), inst.b_ub, inst.bounds_list()
            )
            assert ours.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)


class TestToleranceRegressions:
    """Regression pins for the three scale-dependent tolerance bugs.

    Absolute thresholds misbehave on badly-scaled programs: (a) an
    absolute tie test in the ratio test misses large-magnitude ties, so
    Bland's anti-cycling rule runs on a truncated tie set; (b) clamping
    slightly-negative carried-basis values perturbs the warm starting
    point into a superoptimal answer; (c) an absolute phase-1 residual
    threshold misclassifies feasible badly-scaled programs as
    infeasible.
    """

    def test_degenerate_ties_at_large_magnitude(self):
        """Beale-style degenerate LP, scaled so every ratio tie sits at
        ~1e9: the relative tie test must still collect the full tie set
        and the run must terminate at the optimum (no cycling)."""
        s = 3.7e9
        # Beale's classical cycling example (degenerate at the origin),
        # with a bounding row to keep the optimum finite.
        c = [0.75, -150.0, 0.02, -6.0]
        A = [
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b = [0.0, 0.0, 1.0]
        ref = revised_solve(c, A, b)
        assert ref.ok
        scaled = revised_solve(c, A, [s * bi for bi in b],
                               bounds=[(0, None)] * 4, max_iter=10_000)
        assert scaled.ok
        assert scaled.value == pytest.approx(s * ref.value, rel=1e-9)

    def test_degenerate_redundant_rows_scaled(self):
        """Many coincident constraints at a huge scale: every pivot's
        ratio test is an all-tied, large-magnitude decision."""
        s = 1.9e9
        A = [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 0.0]]
        b = [s, s, 2.0 * s, s]
        res = revised_solve([1.0, 1.0], A, b, max_iter=1000)
        assert res.ok
        assert res.value == pytest.approx(s, rel=1e-12)

    def test_warm_negative_basic_rejected_not_clamped(self):
        """A carried basis whose basic values go slightly negative must
        be accepted within tolerance or repaired, never clamped onto the
        feasibility boundary — the clamp moved the point off the rows
        and reported a superoptimal value."""
        c = [1.0, 1.0]
        A = [[1.0, 1.0], [1.0, -1.0]]
        eps = 1e-9
        b = [2.0, 2.0 + eps]
        # Basis {x, y}: B^{-1} b = [2 + eps/2, -eps/2] — y negative.
        res = revised_solve(c, A, b, initial_basis=np.array([0, 1]))
        assert res.ok
        # Clamping y to 0 would leave row 0 violated by eps/2.
        assert np.all(np.asarray(A) @ res.x <= np.asarray(b) + 1e-12)
        assert res.value <= 2.0 + 1e-12
        assert res.value == pytest.approx(2.0)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e9])
    def test_phase1_threshold_scales_with_rhs(self, problem_factory, scale):
        """Rescaled program-(7) instances with pinned betas (so phase 1
        actually runs) must agree with HiGHS on status and value at
        every scale."""
        problem = problem_factory(seed=0, n_clusters=4)
        inst = build_lp(problem)
        ref0 = solve_lp_scipy(inst)
        n_alpha = inst.index.n_alpha
        # Pin half the betas at their LP value, floored: lb == ub > 0
        # shifts those rows' RHS negative, forcing artificials.
        for i in range(n_alpha, inst.n_vars, 2):
            v = float(np.floor(ref0.x[i]))
            inst.lb[i] = inst.ub[i] = v
        inst.invalidate_bounds()
        inst.b_ub *= scale
        inst.lb *= scale
        inst.ub *= scale
        inst.invalidate_bounds()
        ref = solve_lp_scipy(inst)
        ours = revised_solve(
            inst.obj, inst.A_ub.toarray(), inst.b_ub, inst.bounds_list()
        )
        assert ours.ok
        assert ours.value == pytest.approx(ref.value, rel=1e-6)

import numpy as np
import pytest

from logdetreg import ModelKind, ModelSpec, OptimOptions, bfgs_minimize, multi_start
from logdetreg import optimize
from logdetreg.errors import AllStartsFailed, NonFiniteAtStart
from logdetreg.cost import logdet_terms
from logdetreg.estimate import _objective
from logdetreg.optimize import CURVATURE_EPS, _MAX_LS, _STALL_LIMIT, initial_point
from logdetreg.simulate import bivariate_nar_recipe, gen_series

from conftest import logdet_objective_oracle, make_instance


def quadratic(x):
    return (x[0] - 3.0) ** 2, np.array([2.0 * (x[0] - 3.0)])


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    g = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
    return f, g


def double_well(x):
    return (x[0] ** 2 - 1.0) ** 2, np.array([4.0 * x[0] * (x[0] ** 2 - 1.0)])


FLAT_A = np.diag([1.0, 3.0, 10.0])


def flat_bottom(x):
    """A convex quadratic whose value loses its last digits to cancellation
    against 1e8: within about 1e-4 of the minimum it reads exactly 0 while
    the gradient is still far above grad_tol, so BFGS ends ``stalled``."""
    return (1e8 + float(x @ FLAT_A @ x)) - 1e8, 2.0 * FLAT_A @ x


class TestOptimOptions:
    def test_defaults(self):
        opts = OptimOptions()
        assert opts.max_iters == 500
        assert opts.grad_tol == 1e-6
        assert opts.n_starts == 20

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iters": 0}, {"grad_tol": 0.0}, {"n_starts": 0},
         {"grad_tol": np.nan}, {"grad_tol": np.inf}, {"seed": -1}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimOptions(**kwargs)


class TestBfgs:
    def test_1d_quadratic(self):
        x, f, reason, iters = bfgs_minimize(quadratic, np.array([0.0]), OptimOptions())
        assert abs(x[0] - 3.0) < 1e-8
        assert iters <= 25
        assert reason == "grad_tol"

    def test_rosenbrock(self):
        x, _, reason, _ = bfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), OptimOptions())
        assert np.max(np.abs(x - 1.0)) < 1e-5

    def test_nonfinite_at_start(self):
        def bad(x):
            return np.inf, None

        with pytest.raises(NonFiniteAtStart):
            bfgs_minimize(bad, np.array([0.0]), OptimOptions())

    def test_final_cost_never_exceeds_start(self):
        x0 = np.array([-1.2, 1.0])
        f0 = rosenbrock(x0)[0]
        _, f, _, _ = bfgs_minimize(rosenbrock, x0, OptimOptions())
        assert f <= f0

    def test_inf_trial_points_backtracked(self):
        # objective undefined (inf) for x > 2; minimum at x = 1.5
        def fenced(x):
            if x[0] > 2.0:
                return np.inf, None
            return (x[0] - 1.5) ** 2, np.array([2.0 * (x[0] - 1.5)])

        x, f, reason, _ = bfgs_minimize(fenced, np.array([-1.0]), OptimOptions())
        assert abs(x[0] - 1.5) < 1e-6

    def test_logdet_linear_matches_ols(self):
        from logdetreg import ParamVector, spd_from_symmetric
        from logdetreg.simulate import SimMode, SimRecipe, gen_series

        spec = ModelSpec(ModelKind.LINEAR, 2, 2)
        w0 = ParamVector(np.array([0.5, -0.3, 0.2, 0.8]), spec)
        gamma = spd_from_symmetric([[1.0, 0.4], [0.4, 1.0]])
        data = gen_series(SimRecipe(SimMode.IID_REGRESSION, spec, w0, gamma, n=500, seed=12))
        objective = _objective(spec, data, logdet_terms)
        x, _, _, _ = bfgs_minimize(objective, np.zeros(4), OptimOptions(grad_tol=1e-9))
        ols = np.linalg.lstsq(data.inputs, data.outputs, rcond=None)[0].T.reshape(-1)
        assert np.max(np.abs(x - ols)) < 1e-6


class TestBfgsUpdate:
    """``_bfgs_update``, the symmetric rank-two form of the BFGS update."""

    def test_symmetric_after_every_update_of_a_nar_fit(self, monkeypatch):
        updates, real = [], optimize._bfgs_update

        def recorded(hinv, s, y, ys):
            updates.append(real(hinv, s, y, ys))
            return updates[-1]

        monkeypatch.setattr(optimize, "_bfgs_update", recorded)
        _, objective, _, x0, opts = nar_fit(0)
        bfgs_minimize(objective, x0, opts)
        assert len(updates) >= 100
        for hinv in updates:
            assert hinv.tobytes() == hinv.T.tobytes()

    def test_equals_product_form(self):
        # each form is exact up to the rounding of its own terms: the product
        # form V H V^T + rho s s^T (V = I - rho s y^T) of |V| |H| |V|^T +
        # rho |s| |s|^T, the rank-two form H + u s^T + s u^T of |H| +
        # |u| |s|^T + |s| |u|^T with |u| bounded by the magnitudes of its
        # terms.  The bound is 4 K eps times their sum; over 3,000 draws the
        # worst difference was 0.65 K eps of it.
        eps, checked = np.finfo(float).eps, 0
        for seed in range(400):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 18))
            q = rng.standard_normal((k, k))
            h = q @ q.T * 10.0 ** rng.uniform(-3, 3)
            h = 0.5 * (h + h.T)
            s, y = (rng.standard_normal(k) * 10.0 ** rng.uniform(-4, 4) for _ in range(2))
            ys = float(y @ s)
            if ys <= CURVATURE_EPS * np.linalg.norm(s) * np.linalg.norm(y):
                continue
            rho = 1.0 / ys
            v = np.eye(k) - rho * np.outer(s, y)
            want = v @ h @ v.T + rho * np.outer(s, s)
            ah, a_s, ay = np.abs(h), np.abs(s), np.abs(y)
            u = 0.5 * rho * (1.0 + rho * (ay @ ah @ ay)) * a_s + rho * (ah @ ay)
            scale = (np.abs(v) @ ah @ np.abs(v).T + rho * np.outer(a_s, a_s)
                     + ah + np.outer(u, a_s) + np.outer(a_s, u))
            got = optimize._bfgs_update(h, s, y, ys)
            assert np.all(np.abs(got - want) <= 4 * k * eps * scale)
            checked += 1
        assert checked >= 150

    def test_quadratic_finite_termination(self):
        # with exact line searches on a strictly convex quadratic, the K-th
        # update of BFGS from the identity is the inverse Hessian A^{-1}
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = q @ np.diag([1.0, 2.0, 4.0, 7.0, 10.0]) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(5)
        x, hinv = np.zeros(5), np.eye(5)
        g = a @ x - b
        for _ in range(5):
            direction = -hinv @ g
            s = -float(g @ direction) / float(direction @ a @ direction) * direction
            x = x + s
            y = (a @ x - b) - g
            hinv = optimize._bfgs_update(hinv, s, y, float(y @ s))
            g = g + y
        assert np.max(np.abs(hinv - np.linalg.inv(a))) < 1e-10


def _recorded_line_search(monkeypatch, fail_calls):
    """Patch the line search to log (grad, direction, result) per call and
    to report failure on the calls numbered in ``fail_calls``."""
    calls = []
    real = optimize._line_search

    def logged(objective, x, f, grad, direction):
        step = None if len(calls) in fail_calls else real(objective, x, f, grad, direction)
        calls.append((grad, direction, step))
        return step

    monkeypatch.setattr(optimize, "_line_search", logged)
    return calls


class TestRescue:
    A = np.array([1.0, 10.0, 100.0])

    def ill_conditioned(self, x):
        return 0.5 * float(x @ (self.A * x)), self.A * x

    def test_rescue_rescales_the_identity(self, monkeypatch):
        # the BFGS search of iteration 1 fails, so iteration 1 falls back
        # to steepest descent; the update after it must start again from
        # (y.s / y.y) I (Nocedal & Wright 6.1), not the unscaled identity
        calls = _recorded_line_search(monkeypatch, fail_calls={1})
        bfgs_minimize(self.ill_conditioned, np.ones(3), OptimOptions(max_iters=3))
        g, rescue, (alpha, _, g_new) = calls[2]
        np.testing.assert_array_equal(rescue, -g)
        s, y = alpha * rescue, g_new - g
        rho = 1.0 / (y @ s)
        v = np.eye(3) - rho * np.outer(s, y)

        def updated(h0):
            return v @ h0 @ v.T + rho * np.outer(s, s)

        scaled = -updated((y @ s) / (y @ y) * np.eye(3)) @ g_new
        unscaled = -updated(np.eye(3)) @ g_new
        assert np.max(np.abs(scaled - unscaled)) > 0.1 * np.max(np.abs(scaled))
        np.testing.assert_allclose(calls[3][1], scaled, rtol=1e-12, atol=0)

    def test_failed_steepest_descent_is_not_repeated(self, monkeypatch):
        calls = _recorded_line_search(monkeypatch, fail_calls={0, 1})
        x, f, reason, iters = bfgs_minimize(self.ill_conditioned, np.ones(3), OptimOptions())
        assert (reason, iters, len(calls)) == ("line_search_failed", 0, 1)
        np.testing.assert_array_equal(x, np.ones(3))


class TestCurvatureRule:
    A = np.diag(np.logspace(0.0, 2.0, 6))  # condition number 100

    def conditioned(self, x):
        return 0.5 * float(x @ (self.A @ x)), self.A @ x

    def test_small_steps_keep_the_quasi_newton_model(self, monkeypatch):
        # near the minimum y.s falls below 1e-10 while s and y stay far
        # from orthogonal; an absolute threshold on y.s would reset hinv
        # there, and halving steepest descent would end the run stalled
        calls = _recorded_line_search(monkeypatch, fail_calls=set())
        x, _, reason, iters = bfgs_minimize(
            self.conditioned, np.ones(6), OptimOptions(grad_tol=1e-10)
        )
        assert reason == "grad_tol" and iters <= 40
        assert np.max(np.abs(self.A @ x)) <= 1e-10
        ys = [float((g_new - g) @ (alpha * d)) for g, d, (alpha, _, g_new) in calls]
        small = [i for i, v in enumerate(ys) if v < CURVATURE_EPS]
        assert small and small[0] < len(calls) - 1
        # every step after the first small y.s is a full quasi-Newton step
        assert all(step[0] == 1.0 for _, _, step in calls[small[0] + 1:])


class TestMultiStart:
    def test_single_start_matches_bfgs(self):
        spec = ModelSpec(ModelKind.LINEAR, 1, 1)
        opts = OptimOptions(n_starts=1, seed=3)
        out = multi_start(double_well, spec, opts)
        x0 = initial_point(spec, opts, 0)
        x, f, reason, iters = bfgs_minimize(double_well, x0, opts)
        assert out.cost_best == f
        np.testing.assert_array_equal(out.w_best.values, x)
        assert out.per_start[0].termination == reason

    def test_warm_start_is_one_run_from_x0(self):
        spec = ModelSpec(ModelKind.LINEAR, 1, 1)
        opts = OptimOptions(n_starts=5, seed=3)
        out = multi_start(double_well, spec, opts, x0=np.array([-0.3]))
        x, f, reason, iters = bfgs_minimize(double_well, np.array([-0.3]), opts)
        assert out.cost_best == f
        np.testing.assert_array_equal(out.w_best.values, x)
        assert [(r.start_index, r.termination) for r in out.per_start] == [(0, reason)]
        assert out.converged == (reason in ("grad_tol", "stalled"))

    def test_double_well_global(self):
        spec = ModelSpec(ModelKind.LINEAR, 1, 1)
        out = multi_start(double_well, spec, OptimOptions(n_starts=8, seed=2))
        assert out.cost_best < 1e-10

    def test_determinism(self):
        spec = ModelSpec(ModelKind.LINEAR, 1, 1)
        a = multi_start(double_well, spec, OptimOptions(n_starts=6, seed=5))
        b = multi_start(double_well, spec, OptimOptions(n_starts=6, seed=5))
        assert a.cost_best == b.cost_best
        np.testing.assert_array_equal(a.w_best.values, b.w_best.values)
        assert a.per_start == b.per_start

    def test_tie_breaks_to_lowest_index(self):
        # strictly convex: every start reaches the same minimum; the winner
        # must be start 0
        def convex(x):
            return float(x @ x), 2.0 * x

        spec = ModelSpec(ModelKind.LINEAR, 2, 1)
        out = multi_start(convex, spec, OptimOptions(n_starts=5, seed=1, grad_tol=1e-10))
        best_cost = min(r.final_cost for r in out.per_start)
        winners = [r.start_index for r in out.per_start if r.final_cost < best_cost + 1e-12]
        assert out.cost_best <= best_cost + 1e-12
        assert min(winners) == 0

    def test_all_starts_failed(self):
        def always_bad(x):
            return np.nan, None

        spec = ModelSpec(ModelKind.LINEAR, 1, 1)
        with pytest.raises(AllStartsFailed):
            multi_start(always_bad, spec, OptimOptions(n_starts=3, seed=0))

    def test_grad_norm_per_start(self):
        # undefined for x < 0: those starts are recorded with |grad| = inf
        def half_well(x):
            return (np.inf, None) if x[0] < 0 else double_well(x)

        spec = ModelSpec(ModelKind.LINEAR, 1, 1)
        out = multi_start(half_well, spec, OptimOptions(n_starts=8, seed=2))
        failed = [r for r in out.per_start if r.termination == "nonfinite_at_start"]
        ran = [r for r in out.per_start if r.termination != "nonfinite_at_start"]
        assert failed and ran
        assert all(r.grad_norm == np.inf for r in failed)
        assert all(r.grad_norm <= 1e-6 for r in ran if r.termination == "grad_tol")
        best = next(r for r in out.per_start if r.final_cost == out.cost_best)
        assert best.grad_norm == np.max(np.abs(half_well(out.w_best.values)[1]))

    def test_evaluations_are_distinct_points(self):
        # a NAR start's record counts the distinct points that the uncached
        # run visits; a start that is not finite evaluated its start point
        spec, objective, _, x0, opts = nar_fit(3)
        plain, points = counted(objective)
        bfgs_minimize(plain, x0, opts)
        (record,) = multi_start(objective, spec, opts, x0=x0).per_start
        assert record.evaluations == len(set(points))
        bad = multi_start(lambda x: (np.inf, None) if x[0] < 0 else double_well(x),
                          ModelSpec(ModelKind.LINEAR, 1, 1), OptimOptions(n_starts=8, seed=2))
        assert {r.evaluations for r in bad.per_start if r.termination == "nonfinite_at_start"} == {1}

    def test_initial_points_counter_based(self):
        spec = ModelSpec(ModelKind.LINEAR, 3, 1)
        p0 = initial_point(spec, OptimOptions(seed=9), 0)
        p1 = initial_point(spec, OptimOptions(seed=9), 1)
        assert not np.array_equal(p0, p1)
        np.testing.assert_array_equal(p0, initial_point(spec, OptimOptions(seed=9), 0))
        assert np.all(p0 >= -2.0) and np.all(p0 <= 2.0)


def counted(objective):
    """``objective`` with a list of the bytes of every point it is called at."""
    points = []

    def wrapped(x):
        points.append(x.tobytes())
        return objective(x)

    return wrapped, points


def nar_fit(seed):
    """The spec and BFGS log-det objective of a bivariate NAR MLP(2,3,2)
    dataset at n=200, its oracle, one random start and 200-iteration
    options."""
    recipe = bivariate_nar_recipe(seed=seed, n=200)
    data = gen_series(recipe)
    opts = OptimOptions(max_iters=200, seed=seed)
    x0 = initial_point(recipe.spec, opts, 0)
    return (recipe.spec, _objective(recipe.spec, data, logdet_terms),
            logdet_objective_oracle(recipe.spec, data), x0, opts)


def assert_same_run(outcome, run):
    """A one-start ``multi_start`` outcome is bitwise the ``bfgs_minimize``
    run ``(x, f, reason, iters)``."""
    x, f, reason, iters = run
    (record,) = outcome.per_start
    assert outcome.w_best.values.tobytes() == x.tobytes()
    assert np.float64(outcome.cost_best).tobytes() == np.float64(f).tobytes()
    assert (record.termination, record.iterations) == (reason, iters)


class TestEvaluationMemo:
    """Each start of ``multi_start`` evaluates a point once, through one
    cache; its run stays bitwise that of ``bfgs_minimize`` on the uncached
    objective, which evaluates every point it visits."""

    @pytest.mark.parametrize("seed", range(12))
    def test_nar_fits_match_oracle(self, seed):
        spec, objective, oracle, x0, opts = nar_fit(seed)
        x, f, reason, iters = bfgs_minimize(objective, x0, opts)
        x_o, f_o, reason_o, iters_o = bfgs_minimize(oracle, x0, opts)
        assert x.tobytes() == x_o.tobytes()
        assert np.float64(f).tobytes() == np.float64(f_o).tobytes()
        assert (reason, iters) == (reason_o, iters_o)
        outcome = multi_start(objective, spec, opts, x0=x0)
        assert_same_run(outcome, (x, f, reason, iters))
        assert outcome.per_start[0].grad_norm == np.max(np.abs(objective(x)[1]))

    def test_collapsed_bracket(self):
        # the value rises at every point but x, where the slope is still
        # too steep for the curvature test: each search's bracket shrinks
        # below the resolution of x, trial points repeat, and every search
        # repeats the last one until the run ends stalled at x
        x = np.array([2.0**20])

        def objective(point):
            return (0.0, np.array([1.0])) if point[0] == x[0] else (1.0, np.array([1.0]))

        cached, points = counted(objective)
        plain, plain_points = counted(objective)
        outcome = multi_start(cached, ModelSpec(ModelKind.LINEAR, 1, 1), OptimOptions(), x0=x)
        want = bfgs_minimize(plain, x, OptimOptions())
        assert len(plain_points) == 1 + _STALL_LIMIT * _MAX_LS
        assert len(set(plain_points)) < _MAX_LS
        assert len(points) == len(set(points)) == len(set(plain_points))
        assert want[2] == "stalled" and want[0].tobytes() == x.tobytes()
        assert_same_run(outcome, want)

    def test_stalled_fit_evaluates_less(self):
        # flat_bottom ends stalled after 14 iterations: its last searches
        # collapse and revisit points (291 evaluations here against the
        # uncached run's 314)
        objective, x0, opts = flat_bottom, np.array([1.0, -1.0, 0.5]), OptimOptions()
        cached, points = counted(objective)
        plain, plain_points = counted(objective)
        outcome = multi_start(cached, ModelSpec(ModelKind.LINEAR, 3, 1), opts, x0=x0)
        want = bfgs_minimize(plain, x0, opts)
        assert want[2] == "stalled"
        assert_same_run(outcome, want)
        assert len(points) == len(set(points)) < len(plain_points)

    def test_no_evaluation_after_the_run(self, monkeypatch):
        # three starts: each evaluates its own points once, and the record's
        # grad_norm, read at the returned point, evaluates nothing more
        objective, points = counted(rosenbrock)
        runs = []
        real = optimize.bfgs_minimize

        def recorded(objective, w0, opts):
            first = len(points)
            out = real(objective, w0, opts)
            runs.append((points[first:], out[0]))
            return out

        monkeypatch.setattr(optimize, "bfgs_minimize", recorded)
        spec, opts = ModelSpec(ModelKind.LINEAR, 2, 1), OptimOptions(n_starts=3, seed=4)
        outcome = multi_start(objective, spec, opts)
        assert len(runs) == 3 and sum(len(run) for run, _ in runs) == len(points)
        assert all(len(run) == len(set(run)) for run, _ in runs)
        for record, (_, x) in zip(outcome.per_start, runs):
            assert record.grad_norm == np.max(np.abs(rosenbrock(x)[1]))


class TestNonFiniteGradient:
    """A trial point with a finite U_n but a gradient that is not finite is
    worth +inf, like a degenerate covariance: the line search backtracks
    from it, and a start there is not finite."""

    @staticmethod
    def extreme_point(spec):
        x = np.full(spec.param_count, 1e308)
        x[1::2] *= -1.0
        return x

    def test_point_is_worth_inf(self):
        # an unmasked MLP: the log-det cost there is finite (1.1197) but
        # two entries of its gradient are NaN
        spec, _, data = make_instance(11)
        x = self.extreme_point(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _objective(spec, data, logdet_terms)(x) == (np.inf, None)

    def test_start_there_is_not_finite(self, monkeypatch):
        spec, _, data = make_instance(11)
        objective = _objective(spec, data, logdet_terms)
        x = self.extreme_point(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteAtStart):
                bfgs_minimize(objective, x, OptimOptions())
            # start 0 sits at the extreme point, start 1 is a random start
            real = optimize.initial_point
            monkeypatch.setattr(
                optimize, "initial_point",
                lambda spec, opts, i: x if i == 0 else real(spec, opts, i),
            )
            out = multi_start(objective, spec, OptimOptions(n_starts=2, max_iters=20))
        first, second = out.per_start
        assert (first.termination, first.grad_norm) == ("nonfinite_at_start", np.inf)
        assert second.termination != "nonfinite_at_start"
        assert out.cost_best == second.final_cost

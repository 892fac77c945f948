import dataclasses
import math
import warnings

import numpy as np
import pytest

from dft_reference import dft_matrix, real_dft_basis
from omp_reference import omp_reference
from randsamp import experiments, solvers
from randsamp.experiments import ExperimentConfig, derive_run_seed, reconstruct_once, resolve_plan, run_experiment
from randsamp.fourier import dft_adjoint, poisson_sensing, sensing_matrix
from randsamp.obs_matrix import ObservationMatrix, build, build_poisson
from randsamp.signals import TrigSignal, draw_random_times, uniform_samples
from randsamp.solvers import (
    NonConvergenceError,
    OmpConfig,
    OverSelectionError,
    RecoveryError,
    SingularSystemError,
    TvConfig,
    fit_budget,
    omp_recover,
    solve,
    total_variation,
    tv_gradient,
    tv_recover,
)


def hermitian_spectrum(n, bins, coeffs):
    """Conjugate-symmetric spectrum with the given coefficients at bins."""
    spectrum = np.zeros(n, dtype=complex)
    for k, c in zip(bins, coeffs):
        spectrum[k] = c
        spectrum[(n - k) % n] = np.conj(c)
    return spectrum


def sparse_measurement(n, bins, coeffs):
    """Real measurement vector from a conjugate-symmetric sparse spectrum."""
    spectrum = hermitian_spectrum(n, bins, coeffs)
    return dft_adjoint(spectrum).real, spectrum


def real_measurement(a, spectrum):
    """a @ c for the real coefficients c of the real signal behind a Hermitian
    spectrum, in the sensing-matrix layout: x = F* spectrum = R c."""
    n = len(spectrum)
    return a @ np.linalg.solve(real_dft_basis(n), dft_adjoint(spectrum).real)


def random_sensing(m, n, rng):
    """Sensing matrix of the closed-form M0 at m uniform random times in [0, n)."""
    times = np.sort(rng.uniform(0.0, float(n), size=m))
    return sensing_matrix(build_poisson(times, 1.0, n))


class TestOmp:
    def test_full_observation_one_pair_recovered_in_one_iteration(self):
        n = 16
        y, spectrum = sparse_measurement(n, [3], [2.0 - 1.0j])
        a = real_dft_basis(n)  # full observation: sensing matrix is the basis itself
        res = omp_recover(a, y, OmpConfig(max_atoms=4, residual_tol=1e-12))
        assert res.iterations == 1
        assert sorted(res.support) == [3, 13]
        assert np.allclose(res.spectrum, spectrum, atol=1e-12)
        assert np.allclose(res.recovered, y, atol=1e-12)

    def test_matches_exhaustive_one_sparse_oracle(self):
        rng = np.random.default_rng(17)
        n, h = 64, 33
        for _ in range(20):
            a = random_sensing(32, n, rng)
            truth = int(rng.integers(0, h))
            if truth in (0, n // 2):
                c = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            else:
                c = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
            y = real_measurement(a, hermitian_spectrum(n, [truth], [c]))
            # oracle: the frequency whose real columns give the best least-squares fit
            best_j, best_res = None, np.inf
            for j in range(h):
                basis = a[:, max(2 * j - 1, 0) : 2 * j + 1]  # Re a_j, and Im a_j unless j is 0 or n/2
                c = np.linalg.lstsq(basis, y, rcond=None)[0]
                r = np.linalg.norm(y - basis @ c)
                if r < best_res:
                    best_j, best_res = j, r
            res = omp_recover(a, y, OmpConfig(max_atoms=1, residual_tol=0.0))
            assert res.iterations == 1
            assert res.support[0] == best_j == truth
            assert set(res.support) == {truth, (n - truth) % n}

    def test_residual_history_monotone(self):
        rng = np.random.default_rng(23)
        a = random_sensing(24, 48, rng)
        y = rng.standard_normal(24)
        res = omp_recover(a, y, OmpConfig(max_atoms=10, residual_tol=0.0))
        diffs = np.diff(res.residual_history)
        assert np.all(diffs <= 1e-12)
        assert res.final_residual == res.residual_history[-1]

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        a = random_sensing(16, 32, rng)
        y = rng.standard_normal(16)
        cfg = OmpConfig(max_atoms=6, residual_tol=0.0)
        r1 = omp_recover(a, y, cfg)
        r2 = omp_recover(a, y, cfg)
        assert r1.support == r2.support
        assert np.array_equal(r1.spectrum, r2.spectrum)

    def test_statistical_support_recovery(self):
        # exact support recovery of 4-tone real trigonometric polynomials from
        # 40 random samples at N=64; 94 of these 100 seeded problems succeed
        wins = 0
        n = 64
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            a = random_sensing(40, n, rng)
            freqs = rng.choice(np.arange(1, n // 2), size=4, replace=False)
            coeffs = (1.0 + rng.random(4)) * np.exp(2j * np.pi * rng.random(4))
            y = real_measurement(a, hermitian_spectrum(n, freqs, coeffs))
            res = omp_recover(a, y, OmpConfig(max_atoms=8, residual_tol=0.0))
            wins += set(res.support) == set(freqs) | set(n - freqs)
        assert wins >= 90

    def test_pairing_keeps_time_output_essentially_real(self):
        signal = TrigSignal()
        interval = 1.0 / 800.0
        times = draw_random_times(64, 256 * interval, seed=3)
        m0 = build_poisson(times, interval, 256)
        y = signal(times)
        res = omp_recover(sensing_matrix(m0), y, OmpConfig(max_atoms=16, residual_tol=1e-12))
        raw = dft_adjoint(res.spectrum)
        assert np.linalg.norm(raw.imag) < 1e-10 * np.linalg.norm(raw.real)

    def test_rank_deficient_support_raises(self):
        # times 0.25 and 5.25 (and 1.5 and 6.5) are equal mod N = 5, so M0 has
        # two distinct rows (to rounding) and no three real unknowns can be fitted
        m0 = build_poisson(np.array([0.25, 5.25, 1.5, 6.5]), 1.0, 5)
        assert np.max(np.abs(m0.entries[[0, 2]] - m0.entries[[1, 3]])) < 1e-14
        y = np.array([1.0, -1.0, 2.0, -2.0])
        with pytest.raises(SingularSystemError) as exc:
            omp_recover(sensing_matrix(m0), y, OmpConfig(max_atoms=5, residual_tol=1e-12))
        support = exc.value.support
        assert len(support) == 3 and 0 in support
        assert {k for k in support if k} in ({1, 4}, {2, 3})

    def test_column_below_the_matrix_rounding_floor_raises(self):
        # Re a_1 and Im a_1 are orthogonal, of norms 1 and 1e-16: the second
        # is new in direction but below M * eps times the largest column, so
        # its weight would be rounding noise scaled by 1e16
        a = np.zeros((4, 4))
        a[0, 1], a[1, 2] = 1.0, 1e-16
        with pytest.raises(SingularSystemError) as exc:
            omp_recover(a, np.array([1.0, 1.0, 0.0, 0.0]), OmpConfig(max_atoms=2, residual_tol=0.0))
        assert exc.value.support == [1, 3]

    def test_over_selection_raises(self):
        rng = np.random.default_rng(31)
        a = random_sensing(3, 8, rng)
        y = rng.standard_normal(3)
        with pytest.raises(ValueError, match="exceeds"):
            omp_recover(a, y, OmpConfig(max_atoms=8, residual_tol=0.0))

    def test_argument_validation(self):
        a = random_sensing(4, 8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            omp_recover(a, np.zeros(3), OmpConfig())
        with pytest.raises(ValueError):
            omp_recover(a, np.zeros(4), OmpConfig(max_atoms=9))
        with pytest.raises(ValueError):
            OmpConfig(max_atoms=0)
        with pytest.raises(ValueError):
            OmpConfig(residual_tol=-1.0)

    def test_complex_matrix_rejected(self):
        # the complex M x N matrix M0 F* is not read with its imaginary part dropped
        n = 8
        m0 = build_poisson(np.array([0.3, 2.9, 5.5, 7.1]), 1.0, n)
        complex_layout = m0.entries @ dft_matrix(n).conj()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                omp_recover(complex_layout, np.ones(4), OmpConfig(max_atoms=4))
        res = omp_recover(sensing_matrix(m0), np.ones(4), OmpConfig(max_atoms=4))
        assert res.iterations >= 1


class TestOmpAgainstReference:
    """omp_recover against the per-iteration least-squares OMP of
    tests/omp_reference.py: same support and iteration count, the same signal
    to 1e-12 relative, and a final residual within 1e-12 * ||y|| of the
    reference's (back substitution in the Gram-Schmidt R solves the same
    least-squares problem as the reference's last fit)."""

    @staticmethod
    def assert_same(a, y, cfg):
        res = omp_recover(a, y, cfg)
        support, iterations, recovered, residual = omp_reference(np.asarray(a), y, cfg.max_atoms, cfg.residual_tol)
        assert res.support == support
        assert res.iterations == iterations
        assert np.linalg.norm(res.recovered - recovered) <= 1e-12 * np.linalg.norm(recovered)
        assert abs(res.final_residual - residual) <= 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("n", [128, 127])
    def test_random_problems_from_3_to_93_samples(self, n):
        # per M: a dense y, which runs to the budget, and a 3-frequency
        # sparse one, which stops on the residual tolerance when M allows
        rng = np.random.default_rng(n)
        for m in range(3, 94, 5):
            a = random_sensing(m, n, rng)
            budget = fit_budget(OmpConfig(max_atoms=24, residual_tol=0.0), m, n)
            self.assert_same(a, rng.standard_normal(m), budget)
            freqs = rng.choice(np.arange(1, n // 2), size=3, replace=False)
            y = real_measurement(a, hermitian_spectrum(n, freqs, np.exp(2j * np.pi * rng.random(3))))
            self.assert_same(a, y, fit_budget(OmpConfig(max_atoms=24, residual_tol=1e-12), m, n))

    @pytest.mark.parametrize(
        "overrides",
        [{"preset": "trig"}, {"preset": "gauspuls"}, {"preset": "gauspuls", "sample_rate": 9.99e6}, {"preset": "square"}],
        ids=["trig", "gauspuls", "gauspuls-odd-n", "square"],
    )
    def test_fifty_preset_runs(self, overrides):
        cfg = ExperimentConfig(master_seed=7, **overrides)
        plan = resolve_plan(cfg)
        for run_id in range(50):
            times = draw_random_times(plan.m_samples, plan.duration, plan.t0, derive_run_seed(cfg.master_seed, run_id))
            a = poisson_sensing(times - plan.t0, plan.interval, plan.n_grid)
            self.assert_same(a, plan.signal(times), plan.omp)


@pytest.mark.parametrize("rate", [10e6, 9.99e6])
@pytest.mark.parametrize("seed", [7, 11])
def test_omp_on_factors_equals_omp_on_dense_form(seed, rate):
    # OMP reads a PoissonSensing through its factors; on its dense form it
    # picks the same support and returns the same signal bit for bit
    plan = resolve_plan(ExperimentConfig(preset="gauspuls", master_seed=seed, sample_rate=rate))
    for run_id in range(50):
        times = draw_random_times(plan.m_samples, plan.duration, plan.t0, derive_run_seed(seed, run_id))
        op = poisson_sensing(times - plan.t0, plan.interval, plan.n_grid)
        y = plan.signal(times)
        factored, dense = omp_recover(op, y, plan.omp), omp_recover(np.asarray(op), y, plan.omp)
        assert factored.support == dense.support
        assert np.array_equal(factored.recovered, dense.recovered)
        assert np.array_equal(factored.residual_history, dense.residual_history)


class TestGroupIndependence:
    """OMP solves a batch's runs in lock-step groups. A run's support,
    iterations, residual history and recovered signal are the same bits
    alone (reconstruct_once), inside a 12-run run_experiment solved as one
    group or as three groups of 4, each built once the one before is freed,
    and in a group that also holds a run that fails. For square, whose
    solver is TV, that is the TV descent from each run's OMP warm start. A
    group whose runs stop or fail at different picks, and keep stepping
    until its last run stops, gives each run the outcome it gets alone."""

    @pytest.mark.parametrize(
        "overrides, size",
        [
            ({"preset": "gauspuls"}, 12),
            ({"preset": "gauspuls", "sample_rate": 9.99e6}, 12),
            ({"preset": "trig"}, 12),
            ({"preset": "trig", "method": "naive"}, 12),
            ({"preset": "square"}, 12),
            ({"preset": "gauspuls"}, 4),
        ],
        ids=["gauspuls-10MHz", "gauspuls-9.99MHz", "trig-poisson", "trig-naive", "square", "gauspuls-three-groups"],
    )
    def test_run_does_not_depend_on_its_group(self, overrides, size, monkeypatch):
        cfg = ExperimentConfig(runs=12, master_seed=7, **overrides)
        plan = resolve_plan(cfg)
        batches = []

        def kept(*args):
            batches.append(solve(*args))
            return batches[-1]

        solve = experiments.solve_group
        monkeypatch.setattr(experiments, "_group_size", lambda cfg, plan: size)
        monkeypatch.setattr(experiments, "solve_group", kept)
        report = run_experiment(cfg)
        assert [len(one) for one in batches] == [size] * (cfg.runs // size)
        batch = [outcome for one in batches for outcome in one]

        # The same runs with a 13th among them whose samples all fall at one
        # time: its columns are constant, so its second frequency's columns
        # are not independent of its first, and it fails while the others go on.
        draws = [experiments._draw(cfg, plan, run_id) for run_id in range(cfg.runs)]
        times = np.array([draw[2] for draw in draws])
        ys = np.array([draw[3] for draw in draws])
        times, ys = np.insert(times, 5, times[0, 0], axis=0), np.insert(ys, 5, ys[0], axis=0)
        mixed = solve(plan.solver, experiments._operand(cfg, plan, times), ys, plan.omp, plan.tv)
        assert isinstance(mixed.pop(5), SingularSystemError)

        for run_id in range(cfg.runs):
            alone = reconstruct_once(cfg, run_id)
            assert alone.error == report.records[run_id].error
            for other in (batch[run_id], mixed[run_id]):
                assert other.support == alone.result.support
                assert other.iterations == alone.result.iterations
                assert np.array_equal(other.residual_history, alone.result.residual_history)
                assert np.array_equal(other.recovered, alone.result.recovered)

    @pytest.mark.parametrize("operand", ["poisson-sensing", "dense"])
    def test_runs_that_stop_apart(self, operand):
        # A group whose runs end at different picks, and go on stepping with
        # it until its last run stops: y = 0 stops at once, a pure tone at
        # Nyquist after its one pick, run 3's samples all fall at one time,
        # so its second column is not independent of its first, and the
        # drawn runs stop on the budget, which M = 8 meets with 4 frequency
        # pairs or with DC, Nyquist and 3 pairs, or outgrow M with DC or
        # Nyquist alone among their picks.
        n, m, omp = 32, 8, OmpConfig(max_atoms=8)
        rng = np.random.default_rng(9)
        times = np.sort(rng.uniform(0.0, n, size=(8, m)), axis=1)
        times[3] = times[3, 0]
        ys = rng.standard_normal((8, m))
        if operand == "dense":
            operands = [build("naive", one, 1.0, n) for one in times]
            alone, matrices = operands, sensing_matrix(operands)
        else:
            operands = poisson_sensing(times, 1.0, n)
            alone, matrices = [poisson_sensing(one, 1.0, n) for one in times], np.asarray(operands)
        ys[1] = 0.0
        ys[2] = matrices[2, :, n - 1]
        group = solvers.solve_group("omp", operands, ys, omp, TvConfig())
        kinds = [type(one).__name__ if isinstance(one, RecoveryError) else len(one.support) for one in group]
        iterations = [None if isinstance(one, RecoveryError) else one.iterations for one in group]
        assert kinds == ["OverSelectionError", 0, 1, "SingularSystemError", 8, 8, "OverSelectionError", "OverSelectionError"]
        assert iterations == [None, 0, 1, None, 4, 5, None, None]

        for one, operand_alone, y in zip(group, alone, ys):
            if isinstance(one, RecoveryError):
                with pytest.raises(type(one)) as raised:
                    solve("omp", operand_alone, y, omp, TvConfig())
                assert str(raised.value) == str(one)
                continue
            result = solve("omp", operand_alone, y, omp, TvConfig())
            assert result.support == one.support
            assert result.iterations == one.iterations
            assert np.array_equal(result.residual_history, one.residual_history)
            assert np.array_equal(result.spectrum, one.spectrum)
            assert np.array_equal(result.recovered, one.recovered)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", ["omp", "tv"])
def test_non_finite_measurement_rejected(solver, bad):
    # Unchecked, one NaN in y makes OMP's stop test compare against tol * NaN
    # and return an all-zero signal, and drives TV into its divergence error.
    m0 = build_poisson(np.array([0.3, 2.9, 5.5, 7.1]), 1.0, 8)
    y = np.array([1.0, bad, 0.5, -1.0])
    with pytest.raises(ValueError, match="measurements must be finite"):
        if solver == "omp":
            omp_recover(sensing_matrix(m0), y, OmpConfig(max_atoms=4))
        else:
            tv_recover(m0, y, TvConfig(max_iters=10))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
@pytest.mark.parametrize("call", ["omp_recover", "solve"])
def test_non_finite_sensing_rejected(call, bad):
    # Unchecked, a NaN entry returns an all-NaN signal and an infinite one
    # stops on an unnamed invalid value in the scoring division; 1e200 is
    # finite, but its column norm overflows to inf. solve's operand refuses
    # a NaN or infinite entry when it is built.
    entries = np.random.default_rng(0).standard_normal((4, 8))
    entries[1, 3] = bad
    y, omp = np.ones(4), OmpConfig(max_atoms=4)
    message = "sensing matrix entries and their column norms must be finite"
    if call == "solve" and not math.isfinite(bad):
        message = rf"^observation matrix entry \[1, 3\] is {bad!r}, not finite$"
    with pytest.raises(ValueError, match=message):
        if call == "omp_recover":
            omp_recover(entries, y, omp)
        else:
            solve("omp", ObservationMatrix(entries, "naive"), y, omp, TvConfig())


@pytest.mark.parametrize(
    "make",
    [
        lambda: OmpConfig(residual_tol=math.nan),
        lambda: TvConfig(lam=math.nan),
    ],
    ids=["residual-tol-nan", "lam-nan"],
)
def test_non_finite_solver_setting_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_tv_constants_are_not_settings():
    # The smoothing and the gradient-norm stop are class constants, which the
    # descent reads and no TvConfig takes as a field.
    assert [f.name for f in dataclasses.fields(TvConfig)] == ["lam", "max_iters"]
    assert (TvConfig.epsilon, TvConfig.grad_tol, TvConfig().max_iters) == (1e-3, 1e-8, 6000)
    with pytest.raises(TypeError):
        TvConfig(epsilon=1e-2)
    with pytest.raises(TypeError):
        TvConfig(grad_tol=1e-6)


class TestTvPieces:
    def test_total_variation_of_constant_is_floor(self):
        assert total_variation(np.full(10, 3.0), 1e-3) == pytest.approx(10e-3, rel=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64)
        eps, h = 1e-2, 1e-6
        analytic = tv_gradient(x, eps)
        numeric = np.zeros_like(x)
        for k in range(len(x)):
            bump = np.zeros_like(x)
            bump[k] = h
            numeric[k] = (total_variation(x + bump, eps) - total_variation(x - bump, eps)) / (2 * h)
        assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_gradient_is_circular(self):
        x = np.array([1.0, 1.0, -1.0, -1.0])
        g = tv_gradient(x, 1e-3)
        # the wrap difference x[0]-x[3] contributes to both ends
        assert g[0] != 0.0 and g[3] != 0.0
        assert np.sum(g) == pytest.approx(0.0, abs=1e-14)


class TestTvRecover:
    def test_recovers_constant_signal(self):
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0.0, 32.0, size=16))
        m0 = build_poisson(times, 1.0, 32)
        truth = np.full(32, 0.7)
        y = m0.entries @ truth
        # both objective terms are minimized simultaneously at the constant,
        # so the weight only sets the convergence speed
        res = tv_recover(m0, y, TvConfig(lam=0.2, max_iters=20_000))
        assert np.linalg.norm(res.recovered - truth) / np.linalg.norm(truth) < 1e-4

    def test_objective_history_monotone(self):
        rng = np.random.default_rng(9)
        times = np.sort(rng.uniform(0.0, 32.0, size=12))
        m0 = build_poisson(times, 1.0, 32)
        y = np.sign(np.sin(times))
        res = tv_recover(m0, y, TvConfig(max_iters=500))
        assert np.all(np.diff(res.objective_history) <= 0.0)
        assert res.iterations == len(res.objective_history) - 1

    def test_accepts_bare_matrix_and_x_init(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 12))
        y = rng.standard_normal(6)
        res = tv_recover(a, y, TvConfig(max_iters=50), x_init=np.zeros(12))
        assert res.recovered.shape == (12,)

    def test_small_lam_descends_where_a_power_estimate_reads_low(self):
        # Twenty power steps from the all-ones vector read ||a||_2^2 3.8 % low
        # on this matrix. With lam this small, L is about ||a||_2^2, so a step
        # of 1.99 over that estimate would exceed 2 / L and the descent would
        # grow along a's top singular vector.
        a = np.random.default_rng(9).standard_normal((12, 30))
        v = np.ones(30) / np.sqrt(30)
        for _ in range(20):
            w = a.T @ (a @ v)
            v = w / np.linalg.norm(w)
        assert v @ (a.T @ (a @ v)) < 0.99 * np.linalg.norm(a, 2) ** 2
        y = np.random.default_rng(10).standard_normal(12)
        history = tv_recover(a, y, TvConfig(lam=1e-9)).objective_history
        assert np.isfinite(history).all()
        assert np.all(np.diff(history) <= 0.0)
        assert history[-1] < 1e-8

    def test_zero_problem_stops_at_once(self):
        # M0 = 0 and y = 0 give lam = 0 and L = 0; grad J = 0 stops the
        # descent before a step, and nothing is divided by L.
        x_init = np.linspace(-1.0, 1.0, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = tv_recover(np.zeros((4, 10)), np.zeros(4), TvConfig(), x_init=x_init)
        assert res.iterations == 0
        assert np.array_equal(res.recovered, x_init)

    @pytest.mark.parametrize("argument", ["m0", "x_init"])
    def test_non_finite_input_rejected(self, argument):
        # Unchecked, either would run the descent on NaNs.
        m0, y = random_tv_problem(8, 20, 12)
        a, x_init = m0.entries.copy(), np.zeros(20)
        if argument == "m0":
            a[3, 5] = math.inf
        else:
            x_init[7] = math.nan
        with pytest.raises(ValueError, match=f"{argument}.* must be finite"):
            tv_recover(a, y, TvConfig(max_iters=10), x_init=x_init)

    def test_poisson_sensing_rejected(self):
        # np.asarray of a PoissonSensing is the M x N sensing matrix, of M0's
        # shape; taken as M0 it would run the descent on the wrong operator.
        times = np.sort(np.random.default_rng(11).uniform(0.0, 1.0, size=80))
        with pytest.raises(ValueError, match="PoissonSensing, which holds no M0"):
            tv_recover(poisson_sensing(times, 1 / 240, 240), np.ones(80), TvConfig(max_iters=50))

    def test_argument_validation(self):
        a = np.zeros((3, 8))
        with pytest.raises(ValueError):
            tv_recover(a, np.zeros(2), TvConfig())
        with pytest.raises(ValueError):
            tv_recover(a, np.zeros(3), TvConfig(), x_init=np.zeros(5))
        with pytest.raises(ValueError):
            TvConfig(lam=-1.0)
        with pytest.raises(ValueError):
            TvConfig(max_iters=0)


def rolled_tv(x, eps):
    d = np.roll(x, -1) - x
    return float(np.sum(np.sqrt(d * d + eps * eps)))


def rolled_tv_gradient(x, eps):
    d = np.roll(x, -1) - x
    w = d / np.sqrt(d * d + eps * eps)
    return np.roll(w, 1) - w


def plain_tv_descent(a, y, cfg, x_init=None):
    """Reference loop: J and grad J evaluated afresh at every iterate, with
    np.roll differences, stepping by 1.99 / L for L = ||a||_2^2 + 4 lam / eps.
    Returns (x, steps, J history)."""
    x = a.T @ y if x_init is None else np.array(x_init, dtype=float)
    lam = cfg.lam if cfg.lam is not None else 1e-2 * float(np.linalg.norm(y))
    step = 1.99 / (float(np.linalg.norm(a, 2)) ** 2 + 4.0 * lam / cfg.epsilon)

    def objective(z):
        r = a @ z - y
        return 0.5 * float(r @ r) + lam * rolled_tv(z, cfg.epsilon)

    history = [objective(x)]
    for _ in range(cfg.max_iters):
        grad = a.T @ (a @ x - y) + lam * rolled_tv_gradient(x, cfg.epsilon)
        if np.linalg.norm(grad) <= cfg.grad_tol:
            break
        x = x - step * grad
        history.append(objective(x))
    return x, len(history) - 1, np.asarray(history)


def random_tv_problem(m, n, seed):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, float(n), size=m))
    m0 = build_poisson(times, 1.0, n)
    y = np.sign(np.sin(2.0 * np.pi * times / n)) + 0.1 * rng.standard_normal(m)
    return m0, y


def placed_at(a, offset):
    """A copy of a whose entries start offset bytes past a 64-byte boundary
    inside a larger buffer."""
    raw = np.empty(a.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start : start + a.nbytes].view(float).reshape(a.shape)
    out[...] = a
    return out


def assert_matches_plain_descent(m0, y, cfg, start, wrapped=False):
    """tv_recover against plain_tv_descent bit for bit, with M0's entries
    placed at several byte offsets from a cache line, bare or wrapped.
    Returns the reference step count."""
    for offset in (0, 8, 16, 32, 48):
        a = placed_at(m0.entries, offset)
        x_ref, iters_ref, hist_ref = plain_tv_descent(a, y, cfg, start)
        res = tv_recover(ObservationMatrix(a, "poisson") if wrapped else a, y, cfg, x_init=start)
        assert res.iterations == iters_ref
        assert np.array_equal(res.recovered, x_ref)
        assert np.array_equal(res.objective_history, hist_ref)
        assert res.final_residual == np.linalg.norm(a @ x_ref - y)
    return iters_ref


class TestTvRecoverOracle:
    @pytest.mark.parametrize(
        "m, n, seed, cfg, x_init, wrapped",
        [
            (12, 32, 40, TvConfig(lam=0.3, max_iters=400), None, False),
            (7, 17, 41, TvConfig(lam=None, max_iters=400), None, False),
            (16, 48, 42, TvConfig(lam=0.1, max_iters=300), None, True),
            (16, 47, 43, TvConfig(lam=None, max_iters=300), "zeros", True),
            (9, 24, 44, TvConfig(lam=0.05, max_iters=200), "zeros", False),
            # the square preset's size and settings
            (80, 240, 50, TvConfig(lam=None, max_iters=3000), None, True),
        ],
    )
    def test_matches_plain_gradient_descent(self, m, n, seed, cfg, x_init, wrapped):
        # The same floating-point operations in the same order give the same
        # bits, wherever the caller's M0 sits relative to a cache line, and
        # whether it comes bare or as an ObservationMatrix.
        m0, y = random_tv_problem(m, n, seed)
        assert_matches_plain_descent(m0, y, cfg, np.zeros(n) if x_init == "zeros" else None, wrapped)

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_budget_around_a_block_boundary(self, blocks, extra):
        # tv_recover takes J and the stop test once per block of steps; a
        # budget that ends one step before, at or after a block boundary
        # still returns the plain descent's last iterate and history.
        m0, y = random_tv_problem(16, 48, 51)
        cfg = TvConfig(lam=0.1, max_iters=blocks * solvers._TV_BLOCK + extra)
        assert assert_matches_plain_descent(m0, y, cfg, None) == cfg.max_iters

    @pytest.mark.parametrize("scale", [1e-8, 1e-7])
    def test_gradient_stop_inside_a_block(self, scale):
        # y = M0 c for a constant c, where grad J = 0. From c plus a small
        # perturbation the descent meets grad_tol after some steps (54 and 99
        # here), inside a block, and returns that iterate, not the block's
        # last one.
        rng = np.random.default_rng(60)
        m0 = build_poisson(np.sort(rng.uniform(0.0, 24.0, size=24)), 1.0, 24)
        c = np.full(24, 0.4)
        start = c + scale * rng.standard_normal(24)
        steps = assert_matches_plain_descent(m0, m0.entries @ c, TvConfig(max_iters=1000), start)
        assert 0 < steps < 1000 and steps % solvers._TV_BLOCK != solvers._TV_BLOCK - 1


class TestTvRecoverState:
    def test_gradient_tolerance_stops_at_exact_minimizer(self):
        m0, _ = random_tv_problem(10, 30, 46)
        c = np.full(30, 0.4)
        y = m0.entries @ c
        res = tv_recover(m0, y, TvConfig(max_iters=100), x_init=c)
        assert res.iterations == 0
        assert len(res.objective_history) == 1
        assert np.array_equal(res.recovered, c)

    def test_history_ends_are_the_public_objective(self):
        m0, y = random_tv_problem(14, 36, 47)
        cfg = TvConfig(lam=0.2, max_iters=150)
        x_init = np.random.default_rng(48).standard_normal(36)
        res = tv_recover(m0, y, cfg, x_init=x_init)

        def objective(x):
            r = m0.entries @ x - y
            return 0.5 * float(r @ r) + cfg.lam * total_variation(x, cfg.epsilon)

        assert res.iterations == 150
        assert res.objective_history[0] == pytest.approx(objective(x_init), rel=1e-12)
        assert res.objective_history[-1] == pytest.approx(objective(res.recovered), rel=1e-12)
        assert res.final_residual == pytest.approx(np.linalg.norm(m0.entries @ res.recovered - y), rel=1e-12)

    def test_result_owns_its_arrays(self):
        # A kept result does not keep the descent's block buffers alive.
        m0, y = random_tv_problem(10, 25, 53)
        res = tv_recover(m0, y, TvConfig(max_iters=100))
        assert res.recovered.base is None and res.objective_history.base is None
        assert len(res.objective_history) == res.iterations + 1

    def test_caller_x_init_not_modified(self):
        m0, y = random_tv_problem(10, 25, 49)
        x_init = np.linspace(-1.0, 1.0, 25)
        kept = x_init.copy()
        res = tv_recover(m0, y, TvConfig(max_iters=50), x_init=x_init)
        assert np.array_equal(x_init, kept)
        assert res.recovered is not x_init


@pytest.mark.parametrize(
    "error, base",
    [(NonConvergenceError, RuntimeError), (OverSelectionError, ValueError), (SingularSystemError, RuntimeError)],
)
def test_every_solver_failure_is_a_recovery_error(error, base):
    # One except clause catches a failed recovery; existing handlers of the
    # RuntimeError or ValueError base still catch it too.
    import randsamp

    assert issubclass(error, RecoveryError) and issubclass(error, base)
    assert randsamp.RecoveryError is RecoveryError


class TestSolve:
    """solve is the one solve step of the experiment runs and of recover."""

    def test_tv_starts_from_the_omp_reconstruction(self):
        m0, y = random_tv_problem(12, 32, 5)
        omp, tv = OmpConfig(max_atoms=6, residual_tol=1e-6), TvConfig(max_iters=50)
        warm = omp_recover(sensing_matrix(m0), y, omp)
        assert np.array_equal(solve("omp", m0, y, omp, tv).recovered, warm.recovered)
        expected = tv_recover(m0, y, tv, x_init=warm.recovered)
        got = solve("tv", m0, y, omp, tv)
        assert np.array_equal(got.recovered, expected.recovered)
        assert np.array_equal(got.objective_history, expected.objective_history)

    def test_tv_refuses_a_poisson_sensing_before_any_omp_work(self, monkeypatch):
        # A PoissonSensing is the sensing matrix, not M0: TV on it would
        # descend on the wrong operator of M0's shape.
        def fail(*args):
            raise AssertionError("OMP ran before the operand was checked")

        monkeypatch.setattr(solvers, "omp_recover", fail)
        sensing = poisson_sensing(np.linspace(0.0, 30.0, 12), 1.0, 32)
        with pytest.raises(ValueError, match="holds no M0"):
            solve("tv", sensing, np.ones(12), OmpConfig(max_atoms=6), TvConfig())

    @pytest.mark.parametrize("solver", ["omp", "tv"])
    def test_bare_matrix_is_read_as_its_observation_matrix(self, solver):
        # once an AttributeError from the stacking of the sensing matrices,
        # which read each operand's .entries
        m0, y = random_tv_problem(12, 32, 5)
        omp, tv = OmpConfig(max_atoms=6, residual_tol=1e-6), TvConfig(max_iters=50)
        expected = solve(solver, m0, y, omp, tv)
        (grouped,) = solvers.solve_group(solver, [m0.entries], y[None], omp, tv)
        for result in (solve(solver, m0.entries, y, omp, tv), grouped):
            assert np.array_equal(result.recovered, expected.recovered)
            assert result.iterations == expected.iterations

    @pytest.mark.parametrize("solver", ["omp", "tv"])
    def test_zero_measurements_recover_zero(self, solver):
        # OMP selects nothing, so its support used to index with an empty
        # float array; TV starts at zero, where lam = 0 and grad J = 0.
        m0, _ = random_tv_problem(12, 32, 5)
        result = solve(solver, m0, np.zeros(12), OmpConfig(max_atoms=6), TvConfig())
        assert np.array_equal(result.recovered, np.zeros(32))
        assert result.iterations == 0
        if solver == "omp":
            assert result.support == []

    def test_unknown_solver_rejected(self):
        m0, y = random_tv_problem(12, 32, 5)
        with pytest.raises(ValueError, match="unknown solver 'lasso'"):
            solve("lasso", m0, y, OmpConfig(), TvConfig())

    @pytest.mark.parametrize(
        "m, n, cap",
        [(64, 256, 16), (17, 256, 16), (16, 256, 15), (8, 16, 7), (1, 16, 1), (40, 10, 10)],
    )
    def test_fit_budget_leaves_room_for_a_last_pair_below_m(self, m, n, cap):
        fitted = fit_budget(OmpConfig(max_atoms=16, residual_tol=1e-6), m, n)
        assert fitted == OmpConfig(max_atoms=cap, residual_tol=1e-6)

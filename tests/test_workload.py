"""Disorder workload: sampling, circuit generators, Trotter order, experiment."""

import gc
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import compiler, simulator, workload
from qcoproc.compiler import frame_rotate_z_to_y, lower, schedule
from qcoproc.errors import QcoprocError, ValidationError
from qcoproc.isa import CZ, Measure, Reset, RotationKey, Rxy, embed
from qcoproc.simulator import evolution_operator, hamiltonian_matrix, run_ideal
from qcoproc.wavemem import program_rotation_keys
from qcoproc.workload import (DEFAULT_TAU, DisorderRealization, ExperimentConfig,
                              ImbalanceSeries, build_native_circuit, build_source_circuit,
                              derive_seed, exact_imbalance_curve, gate_census,
                              imbalance, paged_programs, run_experiment,
                              sample_disorder, trotter_interval_unitary)

PI = math.pi
DEFAULT_CONFIG = (Path(__file__).resolve().parent.parent / "configs"
                  / "experiment_default.json")


def realization(seed=1, w=1.7, n_steps=10):
    rng = np.random.default_rng(seed)
    return sample_disorder(w, DEFAULT_TAU, n_steps, rng, seed=seed)


class TestSampleDisorder:
    def test_deterministic_under_seed(self):
        assert realization(5) == realization(5)

    def test_w_and_tau_pass_through(self):
        r = sample_disorder(25.0, 0.02 * PI, 7, np.random.default_rng(0))
        assert r.w == 25.0 and r.tau == 0.02 * PI and r.n_steps == 7

    def test_uniform_moments(self):
        """1e4 draws: mean within 5 sigma of 0, variance within 5 sigma of 1/3."""
        rng = np.random.default_rng(123)
        n = 10_000
        draws = np.array([[r.h0x, r.h0y, r.h1x, r.h1y] for r in
                          (sample_disorder(1.0, DEFAULT_TAU, 1, rng) for _ in range(n))])
        flat = draws.ravel()
        mean_sigma = math.sqrt(1 / 3 / len(flat))
        assert abs(flat.mean()) < 5 * mean_sigma
        var_sigma = math.sqrt((1 / 5 - 1 / 9) / len(flat))
        assert abs(flat.var() - 1 / 3) < 5 * var_sigma

    def test_bounds_validated(self):
        with pytest.raises(ValidationError):
            DisorderRealization(w=1, tau=DEFAULT_TAU, n_steps=1,
                                h0x=1.5, h0y=0, h1x=0, h1y=0)

    @pytest.mark.parametrize("field, value", [
        ("w", math.nan), ("w", math.inf), ("tau", math.nan), ("tau", math.inf),
        ("tau", 0.0), ("h0x", math.nan), ("h0y", math.nan), ("h1x", math.nan),
        ("h1y", -1.5)])
    def test_non_finite_or_out_of_range_field_named(self, field, value):
        """NaN passes a bare `tau <= 0` or `abs(h) > 1` check, so each is rejected here."""
        fields = dict(w=1.0, tau=DEFAULT_TAU, n_steps=1, h0x=0.0, h0y=0.0, h1x=0.0, h1y=0.0)
        with pytest.raises(ValidationError, match=f"^{field} must"):
            DisorderRealization(**{**fields, field: value})

    @pytest.mark.parametrize("n_steps", [-1, workload.MAX_STEPS + 1, 10**17])
    def test_n_steps_outside_0_to_cap_rejected(self, n_steps):
        """A realization and a config refuse a step count past the cap up front."""
        assert DisorderRealization(w=1.0, tau=DEFAULT_TAU, n_steps=workload.MAX_STEPS,
                                   h0x=0.0, h0y=0.0, h1x=0.0, h1y=0.0)
        assert ExperimentConfig(n_steps=workload.MAX_STEPS)
        with pytest.raises(ValidationError, match="^n_steps must"):
            sample_disorder(1.0, DEFAULT_TAU, n_steps, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="^n_steps must"):
            ExperimentConfig(n_steps=n_steps)

    def test_points_bound_is_checked_last(self):
        """The default config at the step cap sits on the points bound; one
        realization more fails, after every per-field rule."""
        assert 2 * 60 * (workload.MAX_STEPS + 1) == workload.MAX_POINTS
        assert ExperimentConfig(n_steps=workload.MAX_STEPS)
        over = {"n_steps": workload.MAX_STEPS, "n_realizations": 61}
        with pytest.raises(ValidationError, match=r"^points \(len\(w_values\) x n_realizations"
                           rf" x \(n_steps \+ 1\)\) must lie in 1\.\.{workload.MAX_POINTS}, "
                           rf"got {2 * 61 * (workload.MAX_STEPS + 1)}$"):
            ExperimentConfig(**over)
        with pytest.raises(ValidationError, match="^unknown backend 'x'$"):
            ExperimentConfig(**over, backend="x")


class TestSourceCircuit:
    def test_step_zero_is_prologue_and_measure(self):
        src = build_source_circuit(realization(), 0)
        kinds = [type(g).__name__ for g in src.instructions()]
        assert kinds == ["Reset", "Reset", "Rx", "Measure", "Measure"]

    def test_interval_angles_at_default_tau(self):
        src = build_source_circuit(realization(), 1)
        crx = [g for g in src.instructions() if isinstance(g, compiler.CRx)]
        assert len(crx) == 1 and crx[0].angle == pytest.approx(0.16 * PI)
        rz_q1_fixed = [g for g in src.instructions()
                       if isinstance(g, compiler.Rz) and g.qubit == 1
                       and g.angle == pytest.approx(0.08 * PI)]
        assert len(rz_q1_fixed) == 1

    def test_interval_count_scales_with_k(self):
        for k in (0, 1, 3):
            src = build_source_circuit(realization(), k)
            cnots = sum(isinstance(g, compiler.CNOT) for g in src.instructions())
            assert cnots == 2 * k

    def test_step_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^k must lie in 0\.\.5, got 6$"):
            build_source_circuit(realization(n_steps=5), 6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("w", [0.0, 1.0, 25.0])
    def test_census_of_source_and_compiled_circuits(self, w, seed):
        """The source circuit counts each source gate under its own class, and
        the compiled one 5 + 17k Rxy and 4k cZ: 175 and 40 at k = 10."""
        r = realization(seed, w)
        for k in (0, 1, 10):
            source = build_source_circuit(r, k)
            assert gate_census(source) == Counter({
                Reset: 2, compiler.Rx: 1 + 2 * k, compiler.Rz: 3 * k, compiler.CNOT: 2 * k,
                compiler.CRx: k, Measure: 2})
            compiled = compiler.run_passes(source, compiler.PASSES)
            assert gate_census(compiled) == Counter({
                Reset: 2, Rxy: 5 + 17 * k, CZ: 4 * k, Measure: 2})


class TestNativeCircuit:
    def test_census_formula(self):
        """Singles = 10k + 4, two-qubit = 4k, anchored at (104, 40) for k=10."""
        r = realization()
        for k in range(11):
            assert gate_census(build_native_circuit(r, k)) == Counter({
                Reset: 2, Rxy: 10 * k + 4, CZ: 4 * k, Measure: 2})
        deepest = gate_census(build_native_circuit(r, 10))
        assert (deepest[Rxy], deepest[CZ]) == (104, 40)

    def test_w_zero_kills_disorder_rotations(self):
        r = DisorderRealization(w=0.0, tau=DEFAULT_TAU, n_steps=2,
                                h0x=0.9, h0y=0.8, h1x=0.7, h1y=0.6)
        program = build_native_circuit(r, 2)
        gammas = {i.key.gamma_over_pi for i in program.instructions()
                  if isinstance(i, Rxy) and i.key.phi_over_pi in (0.0, 0.5)}
        # disorder angles collapse onto the fixed set
        assert gammas <= {0.5, -0.5, 0.08, -0.08, 0.0}

    def test_fixed_rotation_literals(self):
        program = build_native_circuit(realization(), 1)
        keys = {i.key for i in program.instructions() if isinstance(i, Rxy)}
        assert RotationKey.from_pi_units(1.54, 1.0) in keys  # the -0.46*pi pulse
        assert RotationKey.from_pi_units(0, 0.08) in keys
        assert RotationKey.from_pi_units(0, -0.08) in keys

    def test_measurement_is_parallel_and_registers_named(self):
        program = build_native_circuit(realization(), 0)
        last = program.slots[-1]
        assert {type(i) for i in last.instructions} == {Measure}
        assert tuple(i.register for i in last.instructions) == ("q0mZ", "q1mZ")


class TestPipelineEquivalence:
    def test_fifty_realizations_k_up_to_three(self):
        """Compiled source pipeline vs native generator, ideal probabilities."""
        for i in range(50):
            rng = np.random.default_rng(1000 + i)
            w = float(rng.choice([1.0, 25.0]))
            r = sample_disorder(w, DEFAULT_TAU, 3, rng, seed=i)
            for k in range(4):
                compiled = schedule(lower(frame_rotate_z_to_y(
                    build_source_circuit(r, k))))
                native = build_native_circuit(r, k)
                pc = run_ideal(compiled).probabilities()
                pn = run_ideal(native).probabilities()
                assert abs(pc["q0mZ"] - pn["q0mZ"]) < 1e-9
                assert abs(pc["q1mZ"] - pn["q1mZ"]) < 1e-9


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0]).astype(complex)
_EXCHANGE = embed({0: _X, 1: _X}, 2) + embed({0: _Y, 1: _Y}, 2) + embed({0: _Z, 1: _Z}, 2)


def _interval_terms(w, h0x, h0y, h1x, h1y):
    """The interval's four terms of H in time order: the q0 z field, the
    exchange, the q1 z field, both x fields."""
    return (w * h0y * embed({0: _Z}, 2), _EXCHANGE, w * h1y * embed({1: _Z}, 2),
            w * (h0x * embed({0: _X}, 2) + h1x * embed({1: _X}, 2)))


def _product_formula(terms, tau):
    """E(H4) E(H3) E(H2) E(H1), with E(H) = exp(-iH tau)."""
    return np.linalg.multi_dot([evolution_operator(H, tau) for H in reversed(terms)])


_INTERVALS = (st.floats(0.0, 30.0), st.floats(1e-3, 0.5), st.tuples(*[st.floats(-1.0, 1.0)] * 4))


class TestTrotterInterval:
    @given(*_INTERVALS)
    @settings(deadline=None)
    def test_interval_is_exactly_its_product_formula(self, w, tau, fields):
        """A residue of the angles' 1e-12 grid remains: at most 1.6e-12 over
        20 000 draws that included w = 30, tau = 0.5 and fields of +-1."""
        r = DisorderRealization(w, tau, 1, *fields)
        product = _product_formula(_interval_terms(w, *fields), tau)
        report = compiler.equivalence_check(trotter_interval_unitary(r), product)
        assert report.phase_invariant_distance <= 1e-11

    @given(*_INTERVALS)
    @settings(deadline=None)
    def test_interval_within_its_commutator_bound(self, w, tau, fields):
        """First-order bound (Childs et al. 2021, PRX 11, 011020): in spectral
        norm, one interval aligned by its trace phase to its product formula is
        within (tau^2 / 2) sum_{j<k} ||[H_k, H_j]|| of exp(-iH tau).  The
        largest ratio of distance to bound was 0.94 over 3 000 draws that
        included w = 0 and 30, tau = 1e-3 and 0.5 and fields of +-1."""
        r = DisorderRealization(w, tau, 1, *fields)
        terms = _interval_terms(w, *fields)
        product = _product_formula(terms, tau)
        U = trotter_interval_unitary(r)
        overlap = np.trace(U.conj().T @ product)
        phase = overlap / abs(overlap) if overlap else 1.0
        exact = evolution_operator(hamiltonian_matrix(w, *fields), tau)
        distance = np.linalg.norm(phase * U - exact, 2)
        bound = tau**2 / 2 * sum(np.linalg.norm(terms[k] @ terms[j] - terms[j] @ terms[k], 2)
                                 for k in range(4) for j in range(k))
        assert distance <= bound + 1e-10

    def test_identity_at_zero_disorder_angles(self):
        r = DisorderRealization(w=0.0, tau=1e-9, n_steps=1,
                                h0x=0.4, h0y=0.3, h1x=0.2, h1y=0.1)
        U = trotter_interval_unitary(r)
        report = compiler.equivalence_check(U, np.eye(4, dtype=complex), tol=1e-6)
        assert report.equivalent

    def test_interval_independent_of_h_at_w_zero(self):
        a = DisorderRealization(w=0.0, tau=DEFAULT_TAU, n_steps=1,
                                h0x=0.9, h0y=0.8, h1x=0.7, h1y=0.6)
        b = DisorderRealization(w=0.0, tau=DEFAULT_TAU, n_steps=1,
                                h0x=-0.1, h0y=0.2, h1x=-0.3, h1y=0.4)
        np.testing.assert_allclose(trotter_interval_unitary(a),
                                   trotter_interval_unitary(b), atol=1e-12)

    def test_order_ratio_under_tau_halving(self):
        """Error vs exact evolution shrinks ~4x when tau halves (20 realizations)."""
        rng = np.random.default_rng(71)
        tau = 0.01 * PI
        for _ in range(20):
            w = float(rng.uniform(0.2, 25.0))
            r1 = sample_disorder(w, tau, 1, rng)
            r2 = DisorderRealization(w=w, tau=tau / 2, n_steps=1, h0x=r1.h0x,
                                     h0y=r1.h0y, h1x=r1.h1x, h1y=r1.h1y)
            H = hamiltonian_matrix(w, r1.h0x, r1.h0y, r1.h1x, r1.h1y)
            d1 = compiler.equivalence_check(
                trotter_interval_unitary(r1),
                evolution_operator(H, r1.tau)).phase_invariant_distance
            d2 = compiler.equivalence_check(
                trotter_interval_unitary(r2),
                evolution_operator(H, r2.tau)).phase_invariant_distance
            assert 3.5 <= d1 / d2 <= 4.5


class TestImbalance:
    def test_initial_state_value(self):
        assert imbalance(1.0, 0.0) == 1.0

    def test_equal_probabilities_vanish(self):
        assert imbalance(0.4, 0.4) == 0.0

    def test_inverted(self):
        assert imbalance(0.0, 1.0) == -1.0

    def test_out_of_range(self):
        with pytest.raises(QcoprocError, match=r"^probabilities must lie in \[0, 1\]") as err:
            imbalance(1.2, 0.0)
        assert type(err.value) is QcoprocError

    def test_elementwise_on_arrays(self):
        p0, p1 = np.array([1.0, 0.4, 0.0]), np.array([0.0, 0.4, 1.0])
        assert imbalance(p0, p1).tolist() == [1.0, 0.0, -1.0]

    @pytest.mark.parametrize("p0, p1", [(math.nan, 0.0), ([0.5, math.nan], [0.5, 0.5]),
                                        ([0.5, 0.5], [-0.1, 0.5])])
    def test_nan_or_out_of_range_entry_rejected(self, p0, p1):
        with pytest.raises(QcoprocError, match=r"^probabilities must lie in \[0, 1\]") as err:
            imbalance(np.asarray(p0), np.asarray(p1))
        assert type(err.value) is QcoprocError

    @pytest.mark.parametrize("value", [math.nan, 1.5, -math.inf])
    def test_series_rejects_nan_or_out_of_range_value(self, value):
        with pytest.raises(ValidationError, match="outside"):
            ImbalanceSeries(w=1.0, mean=(value,), stderr=(0.0,), per_realization=((value,),))

    @pytest.mark.parametrize("rows, mean, named", [
        (((0.5, -0.25), (math.nan, 1.5)), (0.0, 0.0), "nan"),  # NaN, ahead of a 1.5
        (((0.5, -0.25), (0.0, 1.5), (-2.0, 0.0)), (3.0, 0.0), "1.5"),  # rows before the mean
        (((0.5, -0.25), (0.0, 1.0)), (0.0, 1.5), "1.5"),  # in the mean alone
    ])
    def test_series_names_its_first_value_outside_rows_then_mean(self, rows, mean, named):
        with pytest.raises(ValidationError, match=rf"^imbalance {named} outside \[-1, 1\]$"):
            ImbalanceSeries(w=1.0, mean=mean, stderr=(0.0,) * len(mean), per_realization=rows)

    def test_series_accepts_rounding_past_one(self):
        edge = (1.0 + 1e-10, -1.0 - 1e-10)
        ImbalanceSeries(w=1.0, mean=edge, stderr=(0.0, 0.0), per_realization=(edge,))


def _per_k_exact_curve(r: DisorderRealization) -> list[float]:
    """The oracle curve by the per-k loop it replaced: one ``exact_evolution``
    of q0 = |1>, q1 = |0> per k, each P read by ``prob_one``."""
    H = hamiltonian_matrix(r.w, r.h0x, r.h0y, r.h1x, r.h1y)
    initial = simulator.StateVector(2, np.array([0, 1, 0, 0], dtype=complex))
    states = (simulator.exact_evolution(H, k * r.tau, initial) for k in range(r.n_steps + 1))
    return [imbalance(state.prob_one(0), state.prob_one(1)) for state in states]


class TestExactOracle:
    @given(*_INTERVALS, st.integers(0, 60))
    @settings(deadline=None)
    def test_curve_equals_per_k_loop(self, w, tau, fields, n_steps):
        r = DisorderRealization(w, tau, n_steps, *fields)
        np.testing.assert_allclose(exact_imbalance_curve(r), _per_k_exact_curve(r),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_curve_equals_per_k_loop_where_the_triplet_is_degenerate(self, seed):
        """At w = 0, H is the exchange alone: its triplet is three-fold
        degenerate, and the curve is cos(4 t)."""
        r = sample_disorder(0.0, DEFAULT_TAU, 200, np.random.default_rng(seed))
        assert np.allclose(np.linalg.eigvalsh(hamiltonian_matrix(0, 0, 0, 0, 0)), [-3, 1, 1, 1])
        curve = exact_imbalance_curve(r)
        np.testing.assert_allclose(curve, _per_k_exact_curve(r), rtol=0, atol=1e-12)
        np.testing.assert_allclose(curve, np.cos(4 * DEFAULT_TAU * np.arange(201)),
                                   rtol=0, atol=1e-12)

    def test_operator_over_times_is_one_operator_per_time(self):
        H = hamiltonian_matrix(25.0, 0.4, -0.3, 0.2, -0.1)
        times = DEFAULT_TAU * np.arange(7)
        stack = evolution_operator(H, times)
        assert stack.shape == (7, 4, 4)
        for t, U in zip(times, stack):
            np.testing.assert_allclose(U, evolution_operator(H, t), rtol=0, atol=1e-14)

    def test_operator_checks_every_matrix_of_the_stack(self):
        H = hamiltonian_matrix(1.0, 0.1, 0.2, 0.3, 0.4)
        with pytest.raises(QcoprocError, match="^propagator unitarity defect nan$"):
            evolution_operator(H, np.array([0.0, 1.0, math.nan]))


class TestExperiment:
    def test_single_clean_realization_matches_exact_trotter(self):
        """w=0: the circuit imbalance equals the exchange-only Trotter value,
        which itself converges to the exact-evolution oracle curve."""
        config = ExperimentConfig(w_values=(0.0,), n_realizations=1, n_steps=4,
                                  master_seed=9)
        result = run_experiment(config)
        series = result.series[0.0]
        assert series.mean[0] == pytest.approx(1.0, abs=1e-9)
        r = DisorderRealization(w=0.0, tau=DEFAULT_TAU, n_steps=4,
                                h0x=0, h0y=0, h1x=0, h1y=0)
        U = trotter_interval_unitary(r)
        H = hamiltonian_matrix(0, 0, 0, 0, 0)
        # at w=0 the interval is exactly exp(-iH tau): circuit = exact curve
        exact = exact_imbalance_curve(r)
        np.testing.assert_allclose(series.mean, exact, atol=1e-9)
        assert compiler.equivalence_check(
            U, evolution_operator(H, DEFAULT_TAU)).phase_invariant_distance < 1e-7

    def test_clean_curves_equal_the_closed_form(self):
        """At w = 0 the native interval is exact, so every realization's curve
        is I(k) = cos(4 k tau); every realization after the first reuses the
        first one's rotation set."""
        config = ExperimentConfig(w_values=(0.0,), n_realizations=5, n_steps=200)
        series = run_experiment(config).series[0.0]
        closed_form = np.cos(4 * np.arange(config.n_steps + 1) * config.tau)
        for row in series.per_realization:
            np.testing.assert_allclose(row, closed_form, rtol=0, atol=1e-12)
        np.testing.assert_allclose(series.mean, closed_form, rtol=0, atol=1e-12)

    def test_exact_oracle_bounded_on_every_default_realization(self):
        """Rounding put P(|1>) at 1.0000000000000004 (w=1, i=0 of the default
        sweep) and the oracle's probability check raised on 50 of the 120
        realizations."""
        config = ExperimentConfig.from_json_dict(json.loads(DEFAULT_CONFIG.read_text()))
        realizations = [r for _, r, _ in paged_programs(config)]
        assert len(realizations) == 120
        for r in realizations:
            assert all(-1.0 <= v <= 1.0 for v in exact_imbalance_curve(r)), r.seed

    def test_imbalance_starts_at_one_and_stays_bounded(self):
        config = ExperimentConfig(n_realizations=3, n_steps=5)
        result = run_experiment(config)
        for series in result.series.values():
            assert series.mean[0] == pytest.approx(1.0, abs=1e-9)
            assert all(-1 - 1e-9 <= v <= 1 + 1e-9 for v in series.mean)

    def test_deterministic_under_master_seed(self):
        config = ExperimentConfig(n_realizations=2, n_steps=3)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.series[1.0].mean.tobytes() == b.series[1.0].mean.tobytes()
        assert (a.series[25.0].per_realization.tobytes()
                == b.series[25.0].per_realization.tobytes())

    def test_share_realizations_flag(self):
        shared = ExperimentConfig(n_realizations=2, n_steps=1,
                                  share_realizations_across_w=True)
        result = run_experiment(shared)
        hs = {w: [(r.h0x, r.h0y, r.h1x, r.h1y) for r in result.realizations[w]]
              for w in (1.0, 25.0)}
        assert hs[1.0] == hs[25.0]
        independent = run_experiment(ExperimentConfig(n_realizations=2, n_steps=1))
        hs_i = {w: [(r.h0x, r.h0y, r.h1x, r.h1y) for r in independent.realizations[w]]
                for w in (1.0, 25.0)}
        assert hs_i[1.0] != hs_i[25.0]

    def test_paging_accounting_over_replay(self, per_program_replay):
        config = ExperimentConfig(n_realizations=4, n_steps=3, capacity=16)
        result = run_experiment(config)
        replay = list(per_program_replay(config))
        assert result.total_loads == sum(len(rep.loaded) for *_, rep in replay)
        assert result.total_hits == sum(rep.hits for *_, rep in replay)
        for _, _, r, k, rep in replay:
            needed = program_rotation_keys(build_native_circuit(r, k))
            assert rep.hits + len(rep.loaded) == len(needed)
        summary = result.paging_summary()
        assert summary["capacity"] == 16
        assert summary["total_loads"] >= 10

    def test_retained_memory_does_not_grow_with_depth(self):
        """The result keeps the curves and the paging totals, not one page
        report per pass: 10x the Trotter depth adds under 256 kB."""
        def retained_bytes(n_steps):
            config = ExperimentConfig(n_realizations=10, n_steps=n_steps)
            run_experiment(config)  # warm-up: the slot-unitary cache fills here
            gc.collect()
            tracemalloc.start()
            try:
                result = run_experiment(config)
                gc.collect()
                size, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(result.series) == 2
            return size

        assert retained_bytes(40) - retained_bytes(4) < 256 * 1024

    def test_csv_shape(self):
        config = ExperimentConfig(n_realizations=2, n_steps=2)
        text = workload.experiment_csv(run_experiment(config))
        lines = text.strip().splitlines()
        assert lines[0] == "w,k,imbalance_mean,imbalance_stderr,n_realizations"
        assert len(lines) == 1 + 2 * 3  # two w values, k = 0..2

    @settings(max_examples=40, deadline=None)
    @given(w_values=st.lists(st.just(0.0) | st.floats(-30.0, 30.0), min_size=1, max_size=3,
                             unique=True),  # 0.0 and -0.0 count as one
           n_realizations=st.integers(1, 3), n_steps=st.integers(0, 6),
           mode=st.sampled_from(["exact", "sampled"]))
    def test_realizations_dump_is_json_dumps_of_its_rows(self, w_values, n_realizations,
                                                         n_steps, mode):
        """The dump's parts, formatted one row at a time, concatenate to the
        one indented ``json.dumps`` of every row."""
        config = ExperimentConfig(w_values=tuple(w_values), n_realizations=n_realizations,
                                  n_steps=n_steps, measurement_mode=mode, n_avg=50)
        result = run_experiment(config)
        rows = [{**r.to_json_dict(), "I": curve.tolist()}
                for w in config.w_values
                for r, curve in zip(result.realizations[w], result.series[w].per_realization)]
        assert "".join(workload.realizations_json(result)) == json.dumps(rows, indent=2)

    def test_noisy_backend_runs(self):
        config = ExperimentConfig(w_values=(25.0,), n_realizations=1, n_steps=2,
                                  backend="noisy")
        result = run_experiment(config)
        assert result.series[25.0].mean[0] < 1.0  # decoherence already at k=0

    def test_config_json_round_trip(self):
        config = ExperimentConfig(noise=simulator.NoiseParams.octobox_defaults())
        again = ExperimentConfig.from_json_dict(config.to_json_dict())
        assert again == config

    def test_config_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_json_dict({"n_realisations": 3})

    @pytest.mark.parametrize("field, value", [
        ("n_steps", 2.5), ("n_realizations", 1.5), ("n_avg", 2.5), ("capacity", True),
        ("w_values", (True,)), ("share_realizations_across_w", "no"), ("tau", "0.1"),
        ("tau", 10**400), ("w_values", (10**400,)), ("w_values", 5), ("noise", "t1")])
    def test_config_rejects_mistyped_value_naming_field(self, field, value):
        """The constructor holds the type rules, so a config built in Python
        meets the same checks as one loaded from JSON."""
        with pytest.raises(ValidationError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("backend", ["ideal", "noisy"])
    def test_config_rejects_noise_of_one_qubit_before_the_points_bound(self, backend):
        """The rule and message of the noisy run and the sweep engine, checked
        on either backend and before the points bound; three qubits cover two."""
        one, three = (simulator.NoiseParams(t1=(28e-6,) * n, t2=(4.2e-6,) * n) for n in (1, 3))
        with pytest.raises(ValidationError,
                           match=r"^noise parameters cover 1 qubits, program uses 2$"):
            ExperimentConfig(backend=backend, noise=one, n_realizations=workload.MAX_POINTS)
        assert ExperimentConfig(backend=backend, noise=three).noise == three

    @pytest.mark.parametrize("mode, n_avg, message", [
        ("shots", 1000, r"^unknown measurement mode 'shots'$"),
        ("shots", 0, r"^n_avg must lie in 1\.\.1000000, got 0$"),
        ("exact", simulator.MAX_SHOTS + 1, r"^n_avg must lie in 1\.\.1000000, got 1000001$")])
    def test_config_meets_the_runs_sampling_rule(self, mode, n_avg, message):
        """A config and a run reject the same mode and shot count with the
        same message, the shot count first."""
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig(measurement_mode=mode, n_avg=n_avg)
        with pytest.raises(ValidationError, match=message):
            run_ideal(build_native_circuit(realization(), 1), mode=mode, n_avg=n_avg)

    @given(config=st.builds(
        ExperimentConfig,
        w_values=st.lists(st.integers(-100, 100) | st.floats(-1e6, 1e6), min_size=1,
                          max_size=3, unique_by=float),
        # at most 3 w and 101 steps: every draw stays within the points bound
        n_realizations=st.integers(1, workload.MAX_POINTS // (3 * 101)),
        # the file stores tau / pi to 12 decimals, which these values survive
        tau=st.integers(1, 10**6).map(lambda n: n / 10**4 * PI),
        n_steps=st.integers(0, 100), master_seed=st.integers(0, 2**64),
        backend=st.sampled_from(["ideal", "noisy"]),
        noise=st.none() | st.builds(
            lambda t1, ratios, sq, cz: simulator.NoiseParams(
                t1=t1, t2=tuple(t * r for t, r in zip(t1, ratios)),
                single_qubit_gate_duration=sq, cz_duration=cz),
            st.lists(st.integers(1, 10) | st.floats(1e-7, 1e-3), min_size=2, max_size=2),
            st.lists(st.floats(0.01, 2.0), min_size=2, max_size=2),
            st.floats(1e-10, 1e-6), st.integers(1, 3) | st.floats(1e-10, 1e-6)),
        measurement_mode=st.sampled_from(["exact", "sampled"]),
        n_avg=st.integers(1, simulator.MAX_SHOTS), capacity=st.integers(1, 10**9),
        share_realizations_across_w=st.booleans()))
    def test_config_survives_json_round_trip(self, config):
        text = json.dumps(config.to_json_dict())
        assert ExperimentConfig.from_json_dict(json.loads(text)) == config

    def test_seed_derivation_stable(self):
        assert derive_seed(2020, 0, 0) == derive_seed(2020, 0, 0)
        assert derive_seed(2020, 0, 0) != derive_seed(2020, 1, 0)
        assert derive_seed(2020, 0, 0) != derive_seed(2021, 0, 0)

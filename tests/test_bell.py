"""Two-particle correlation experiment against hand-derived tables."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import conftest as oracle
import qrsim.bell
from qrsim import (
    BellScenario,
    CompositeSystem,
    NumericalInvariantError,
    SWEEP_HEADER,
    ValidationError,
    build_bell_state,
    chsh,
    run_bell,
    sample_joint_outcomes,
    sample_outcome_indices,
    schmidt_decompose,
    sweep,
)
from qrsim.measurement import MAX_SAMPLES

INV_SQRT2 = 1.0 / math.sqrt(2.0)

COEFF_CASES = [
    (INV_SQRT2, INV_SQRT2),
    (0.6, 0.8),
    (0.8, 0.6),
    (0.6, 0.8j),
]

ANGLE_CASES = [
    (0.7, 1.9),
    (math.pi / 2, math.pi / 4),
    (0.0, 2.2),
    (3.1, 5.5),
]


class TestBuildBellState:
    def test_singlet_amplitudes(self):
        psi = build_bell_state(INV_SQRT2, INV_SQRT2)
        assert psi.system.labels == ("P1", "P2")
        assert_allclose(psi.amplitudes, [0.0, INV_SQRT2, -INV_SQRT2, 0.0], atol=1e-15)

    def test_one_sided_pair_is_a_product(self):
        psi = build_bell_state(1.0, 0.0)
        assert_allclose(psi.amplitudes, [0.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert schmidt_decompose(psi, "P1").rank == 1

    def test_weights_become_schmidt_coefficients(self):
        sd = schmidt_decompose(build_bell_state(0.6, 0.8), "P1")
        assert_allclose(sd.coefficients, [0.8, 0.6], atol=1e-12)
        assert sd.rank == 2

    def test_norm_band(self):
        build_bell_state(0.70710678, 0.70710678)  # near-unit input is accepted
        with pytest.raises(ValidationError, match="norm"):
            build_bell_state(1.0, 1.0)

    def test_pointers_start_at_their_ready_index(self):
        comp = CompositeSystem([("M2", 3), ("P2", 2), ("P1", 2), ("M1", 3)])
        psi = build_bell_state(0.6, 0.8j, comp, {"M1": 0, "M2": 1})
        # flat index ((m2 * 2 + p2) * 2 + p1) * 3 + m1, with u = 0 and d = 1
        expected = np.zeros(36, dtype=complex)
        expected[((1 * 2 + 1) * 2 + 0) * 3 + 0] = 0.6  # P1 up, P2 down
        expected[((1 * 2 + 0) * 2 + 1) * 3 + 0] = -0.8j  # P1 down, P2 up
        assert_allclose(psi.amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize(
        "subsystems, ready, message",
        [
            ([("P2", 2), ("M1", 3)], {"M1": 0}, "requires subsystem 'P1'"),
            ([("P1", 3), ("P2", 2)], {}, "'P1' to have dimension 2"),
            ([("P1", 2), ("P2", 2), ("X", 2)], {}, "neither a particle"),
            ([("P1", 2), ("P2", 2), ("M1", 3)], {"M1": 3}, "ready index 3 out of range"),
        ],
    )
    def test_rejects_what_it_cannot_prepare(self, subsystems, ready, message):
        with pytest.raises(ValidationError, match=message):
            build_bell_state(0.6, 0.8, CompositeSystem(subsystems), ready)


class TestBellScenario:
    def test_renormalizes_inside_the_band(self):
        sc = BellScenario(0.70710678, 0.70710678, 0.0, 0.0)
        assert abs(sc.a) ** 2 + abs(sc.b) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_rejects_out_of_band_coefficients(self):
        with pytest.raises(ValidationError, match="norm"):
            BellScenario(0.8, 0.8, 0.0, 0.0)

    def test_rejects_bad_angles_and_values(self):
        with pytest.raises(ValidationError, match="finite"):
            BellScenario(INV_SQRT2, INV_SQRT2, math.nan, 0.0)
        with pytest.raises(ValidationError, match="outcome_values"):
            BellScenario(INV_SQRT2, INV_SQRT2, 0.0, 0.0, outcome_values=(1.0,))


# ---------------------------------------------------------------------------


class TestRunAgainstClosedForms:
    @pytest.mark.parametrize("a,b", COEFF_CASES)
    @pytest.mark.parametrize("t1,t2", ANGLE_CASES)
    def test_all_tables(self, a, b, t1, t2):
        res = run_bell(BellScenario(a, b, t1, t2))

        assert_allclose(res.quantum_table, oracle.quantum_table(a, b, t1, t2), atol=1e-10)
        assert_allclose(res.marginal1, oracle.marginal_table(a, b, t1), atol=1e-12)
        assert_allclose(res.marginal2, oracle.marginal_table(b, a, t2), atol=1e-12)
        assert_allclose(res.hidden_table, oracle.hidden_table(a, b, t1, t2), atol=1e-10)
        assert_allclose(res.quasi_table, oracle.quasi_table(a, b, t1, t2), atol=1e-10)

        want_e = float(np.sum(np.outer([1, -1], [1, -1]) * oracle.quantum_table(a, b, t1, t2)))
        assert res.E_quantum == pytest.approx(want_e, abs=1e-10)
        assert abs(res.quantum_table.sum() - 1.0) < 1e-9
        assert abs(res.hidden_table.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("a,b", COEFF_CASES)
    def test_formal_table_marginalizes_to_the_proper_one(self, a, b):
        res = run_bell(BellScenario(a, b, 0.7, 1.9))
        assert_allclose(res.quasi_table.sum(axis=0).real, res.quantum_table, atol=1e-12)
        assert_allclose(res.quasi_table.sum(axis=0).imag, 0.0, atol=1e-12)

    def test_correlators_are_bounded_by_the_largest_squared_value(self):
        # with values (0.5, -2) a correlator reaches up to 4 in magnitude
        values = np.array([0.5, -2.0])
        thetas = np.linspace(0.0, 6.0, 13)
        grid = qrsim.bell._setting_grid(0.6, 0.8, thetas, thetas, True, tuple(values))
        weights = np.outer(values, values)
        for model in ("quantum", "hidden"):
            tables = grid[f"{model}_table"]
            want = np.sum(weights * tables, axis=(-2, -1))
            assert_allclose(grid[f"E_{model}"], want, rtol=0, atol=1e-12)
        assert np.max(np.abs(grid["E_quantum"])) > 2.0
        res = run_bell(BellScenario(0.6, 0.8, 0.0, 3.0, outcome_values=tuple(values)))
        assert res.E_quantum == pytest.approx(np.sum(weights * res.quantum_table), abs=1e-12)
        assert res.E_hidden == pytest.approx(np.sum(weights * res.hidden_table), abs=1e-12)

    def test_outcome_index_bookkeeping(self):
        res = run_bell(BellScenario(0.6, 0.8, 0.7, 1.9))
        for idx in (res.m1_outcome_indices, res.m2_outcome_indices):
            assert len(idx) == 2 and len(set(idx)) == 2
            assert all(0 <= i < 3 for i in idx)


class TestSingletStructure:
    def test_proper_correlator_depends_on_the_angle_difference(self):
        rng = np.random.default_rng(101)
        for _ in range(12):
            t1, t2 = rng.uniform(0.0, 2 * math.pi, size=2)
            res = run_bell(BellScenario(INV_SQRT2, INV_SQRT2, t1, t2, include_m3=False))
            assert res.E_quantum == pytest.approx(oracle.e_quantum_singlet(t1, t2), abs=1e-10)

    def test_recorded_correlator_factorizes(self):
        rng = np.random.default_rng(102)
        for _ in range(12):
            t1, t2 = rng.uniform(0.0, 2 * math.pi, size=2)
            res = run_bell(BellScenario(INV_SQRT2, INV_SQRT2, t1, t2))
            assert res.E_hidden == pytest.approx(oracle.e_hidden_singlet(t1, t2), abs=1e-10)

    def test_equal_angles_never_agree(self):
        for t in (0.0, 0.9, 2.5):
            res = run_bell(BellScenario(INV_SQRT2, INV_SQRT2, t, t, include_m3=False))
            assert res.quantum_table[0, 0] == pytest.approx(0.0, abs=1e-12)
            assert res.quantum_table[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_first_marginal_ignores_the_far_angle(self):
        base = run_bell(BellScenario(INV_SQRT2, INV_SQRT2, 0.7, 0.0, include_m3=False))
        assert_allclose(base.marginal1, [0.5, 0.5], atol=1e-12)
        for t2 in np.linspace(0.0, 2 * math.pi, 7):
            res = run_bell(BellScenario(INV_SQRT2, INV_SQRT2, 0.7, t2, include_m3=False))
            assert_allclose(res.marginal1, base.marginal1, atol=1e-12)

    def test_formal_table_is_proper_on_the_reference_axis(self):
        for t1 in (0.0, math.pi):
            res = run_bell(BellScenario(INV_SQRT2, INV_SQRT2, t1, 1.1, include_m3=False))
            assert res.quasi.max_imag <= 1e-12
            assert res.quasi.min_real >= -1e-12

    def test_formal_table_goes_negative_off_the_reference_axis(self):
        res = run_bell(
            BellScenario(INV_SQRT2, INV_SQRT2, math.pi / 2, math.pi / 4, include_m3=False)
        )
        assert res.quasi.min_real < -1e-6


class TestBatchedGrid:
    # theta = 0 row and column, a repeated angle, and a plain cell
    THETAS1 = (0.0, 0.7, 2.9)
    THETAS2 = (0.0, 0.7, 4.4)
    VALUES = (0.5, -1.0)

    @pytest.mark.parametrize("a,b", [(INV_SQRT2, INV_SQRT2), (0.6, 0.8), (0.6, 0.8j)])
    @pytest.mark.parametrize("include_m3", [True, False])
    def test_cells_equal_single_runs_and_closed_forms(self, a, b, include_m3):
        grid = qrsim.bell._setting_grid(
            a, b, self.THETAS1, self.THETAS2, include_m3, self.VALUES
        )
        settings = [(t1, t2) for t1 in self.THETAS1 for t2 in self.THETAS2]
        batch = qrsim.bell._run_batch(
            BellScenario(a, b, 0.0, 0.0, include_m3, self.VALUES), *zip(*settings)
        )
        v = np.outer(self.VALUES, self.VALUES)
        for k, (t1, t2) in enumerate(settings):
            i, j = divmod(k, len(self.THETAS2))
            cell = {name: col[i, j] for name, col in grid.items() if col is not None}
            alone = run_bell(BellScenario(a, b, t1, t2, include_m3, self.VALUES))
            assert (cell["theta1"], cell["theta2"]) == (t1, t2)
            for name in ("quantum_table", "quasi_table", "marginal1", "marginal2"):
                assert_allclose(cell[name], getattr(alone, name), atol=1e-12)
            assert_allclose(batch["quantum_joint"][k], alone.quantum_joint.table, atol=1e-12)
            assert_allclose(batch["quasi"][k], alone.quasi.table, atol=1e-12)
            assert cell["E_quantum"] == pytest.approx(alone.E_quantum, abs=1e-12)
            assert cell["max_imag"] == pytest.approx(alone.quasi.max_imag, abs=1e-12)
            assert cell["min_real"] == pytest.approx(alone.quasi.min_real, abs=1e-12)
            assert tuple(batch["indices"][0, k]) == alone.m1_outcome_indices
            assert tuple(batch["indices"][1, k]) == alone.m2_outcome_indices
            joints = [alone.quantum_joint]
            if include_m3:
                joints.append(alone.hidden_joint)
            flags = [e.degenerate for j in joints for e in j.ensembles]
            pointers = [0, 1, 3, 4] if include_m3 else [0, 1]
            assert batch["degenerate"][pointers, k].tolist() == flags

            quantum = oracle.quantum_table(a, b, t1, t2)
            assert_allclose(cell["quantum_table"], quantum, atol=1e-12)
            assert_allclose(cell["quasi_table"], oracle.quasi_table(a, b, t1, t2), atol=1e-12)
            assert cell["E_quantum"] == pytest.approx(float(np.sum(v * quantum)), abs=1e-12)
            if include_m3:
                hidden = oracle.hidden_table(a, b, t1, t2)
                assert_allclose(cell["hidden_table"], alone.hidden_table, atol=1e-12)
                assert_allclose(batch["hidden_joint"][k], alone.hidden_joint.table, atol=1e-12)
                assert cell["E_hidden"] == pytest.approx(alone.E_hidden, abs=1e-12)
                assert_allclose(cell["hidden_table"], hidden, atol=1e-12)
                assert cell["E_hidden"] == pytest.approx(float(np.sum(v * hidden)), abs=1e-12)
            else:
                assert grid["hidden_table"] is None and alone.hidden_joint is None
                assert batch["hidden_joint"] is None

    def test_settings_reach_the_engine_in_bounded_batches(self, monkeypatch):
        sizes = []
        original = qrsim.bell._run_batch

        def counting(scenario, thetas1, thetas2):
            sizes.append(len(thetas1))
            return original(scenario, thetas1, thetas2)

        monkeypatch.setattr(qrsim.bell, "_run_batch", counting)
        _, rows = sweep(0.6, 0.8, points=33)
        assert len(rows) == 33 * 33
        assert len(sizes) == 2 and sum(sizes) == 33 * 33
        assert max(sizes) <= qrsim.bell._BATCH_LIMIT

    def test_the_recorded_table_is_checked_on_its_z_axis(self, monkeypatch):
        kernel = qrsim.qrs._projector_product_table

        def z_reversed(ket, systems, vectors):
            table = kernel(ket, systems, vectors)
            # M1 and M2 marginals stay right; only the M3 (z record) one moves
            return table[:, ::-1] if systems[0].labels == ("M3",) else table

        monkeypatch.setattr(qrsim.bell, "_projector_product_table", z_reversed)
        with pytest.raises(NumericalInvariantError, match="axis 0 marginal deviates"):
            qrsim.bell._setting_grid(0.6, 0.8, (0.3, 1.2), (0.5,), True)


# ---------------------------------------------------------------------------


class TestChsh:
    STANDARD = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)

    def test_standard_angles_reach_the_quantum_extreme(self):
        s = chsh(INV_SQRT2, INV_SQRT2, self.STANDARD, model="quantum")
        assert abs(s) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_recorded_model_stays_below_two(self):
        s = chsh(INV_SQRT2, INV_SQRT2, self.STANDARD, model="hidden")
        assert abs(s) <= 2.0 + 1e-9
        assert s == pytest.approx(-math.sqrt(2.0), abs=1e-9)

    def test_equal_settings_pin_the_proper_value(self):
        for t in (0.0, 1.3):
            s = chsh(INV_SQRT2, INV_SQRT2, (t, t, t, t), model="quantum")
            assert s == pytest.approx(-2.0, abs=1e-9)

    def test_outcome_values_enter_quadratically(self):
        angles = (0.2, 1.4, 0.9, 2.6)
        s = chsh(INV_SQRT2, INV_SQRT2, angles)
        # the values multiply in pairs, so a global sign flip cancels out
        flipped = chsh(INV_SQRT2, INV_SQRT2, angles, outcome_values=(-1.0, 1.0))
        assert flipped == pytest.approx(s, abs=1e-12)
        # (1, 0) turns each correlator into the both-aligned cell probability
        picked = chsh(INV_SQRT2, INV_SQRT2, angles, outcome_values=(1.0, 0.0))
        cell = lambda x, y: oracle.quantum_table(INV_SQRT2, INV_SQRT2, x, y)[0, 0]
        a1, a2, b1, b2 = angles
        want = cell(a1, b1) - cell(a1, b2) + cell(a2, b1) + cell(a2, b2)
        assert picked == pytest.approx(want, abs=1e-10)

    def test_model_and_angle_validation(self):
        with pytest.raises(ValidationError, match="quantum, hidden"):
            chsh(INV_SQRT2, INV_SQRT2, self.STANDARD, model="quasi")
        with pytest.raises(ValidationError, match="four"):
            chsh(INV_SQRT2, INV_SQRT2, (0.0, 1.0, 2.0))
        with pytest.raises(ValidationError, match="finite"):
            chsh(INV_SQRT2, INV_SQRT2, (0.0, 1.0, 2.0, math.inf))

    def test_per_point_value_closed_form(self):
        rng = np.random.default_rng(103)
        for _ in range(6):
            t1, t2 = rng.uniform(0.0, 2 * math.pi, size=2)
            want = -1.0 + math.cos(t2) - math.cos(t1) - math.cos(t1 - t2)
            got = chsh(INV_SQRT2, INV_SQRT2, (0.0, t1, 0.0, t2), model="quantum")
            assert got == pytest.approx(want, abs=1e-9)


class TestSweep:
    def test_small_grid(self):
        header, rows = sweep(INV_SQRT2, INV_SQRT2, points=4)
        assert header == SWEEP_HEADER
        assert len(rows) == 16
        thetas = [2 * math.pi * k / 4 for k in range(4)]
        for row in rows:
            t1, t2, e_q, e_h, s_q, s_h, max_imag, min_real = row
            assert t1 in thetas and t2 in thetas
            assert e_q == pytest.approx(oracle.e_quantum_singlet(t1, t2), abs=1e-10)
            assert e_h == pytest.approx(oracle.e_hidden_singlet(t1, t2), abs=1e-10)
            want_s = -1.0 + math.cos(t2) - math.cos(t1) - math.cos(t1 - t2)
            assert s_q == pytest.approx(want_s, abs=1e-9)
            assert abs(s_h) <= 2.0 + 1e-9
            assert max_imag >= 0.0 and min_real <= 1.0

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one"):
            sweep(INV_SQRT2, INV_SQRT2, points=0)

    def test_points_are_capped_before_any_setting_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a setting was built before the bound was checked")

        monkeypatch.setattr(qrsim.bell, "BellScenario", refuse)
        points = qrsim.bell.MAX_SWEEP_POINTS + 1
        with pytest.raises(ValidationError, match=f"at 256 points per axis, got {points}"):
            sweep(INV_SQRT2, INV_SQRT2, points=points)


class TestSampling:
    def test_reproducible_counts(self):
        res = run_bell(BellScenario(INV_SQRT2, INV_SQRT2, 0.7, 1.9, include_m3=False))
        c1 = sample_joint_outcomes(res.quantum_table, 1000, seed=7)
        c2 = sample_joint_outcomes(res.quantum_table, 1000, seed=7)
        assert np.array_equal(c1, c2)
        assert c1.shape == (2, 2)
        assert c1.sum() == 1000

    def test_impossible_cells_stay_empty(self):
        res = run_bell(BellScenario(INV_SQRT2, INV_SQRT2, 1.1, 1.1, include_m3=False))
        counts = sample_joint_outcomes(res.quantum_table, 5000, seed=1)
        assert counts[0, 0] == 0 and counts[1, 1] == 0

    def test_validation(self):
        with pytest.raises(ValidationError, match="positive"):
            sample_joint_outcomes(np.ones((2, 2)) / 4, 0, seed=0)
        with pytest.raises(ValidationError, match="all-zero"):
            sample_joint_outcomes(np.zeros((2, 2)), 10, seed=0)

    def test_draws_are_pcg64_choices_on_the_normalized_weights(self):
        # both samplers pin their first draws to a direct generator call
        table = np.array([[0.1, 0.4], [0.3, 0.2]])
        direct = np.random.Generator(np.random.PCG64(42)).choice(
            4, size=200, p=table.reshape(-1) / table.sum()
        )
        want = np.bincount(direct, minlength=4).reshape(2, 2)
        assert np.array_equal(sample_joint_outcomes(table, 200, seed=42), want)
        ensemble = run_bell(BellScenario(0.6, 0.8, 0.7, 1.9)).quantum_joint.ensembles[0]
        weights = ensemble.eigenvalues
        direct = np.random.Generator(np.random.PCG64(42)).choice(
            weights.size, size=200, p=weights / weights.sum()
        )
        assert np.array_equal(sample_outcome_indices(ensemble, 200, seed=42), direct)

    def test_count_is_capped_before_drawing(self):
        assert MAX_SAMPLES == 10 ** 7
        table = np.ones((2, 2)) / 4
        ensemble = run_bell(BellScenario(0.6, 0.8, 0.7, 1.9)).quantum_joint.ensembles[0]
        for count in (MAX_SAMPLES + 1, 10 ** 12):
            with pytest.raises(ValidationError, match=f"capped at {MAX_SAMPLES}, got {count}"):
                sample_joint_outcomes(table, count, seed=0)
            with pytest.raises(ValidationError, match=f"capped at {MAX_SAMPLES}, got {count}"):
                sample_outcome_indices(ensemble, count, seed=0)


class TestResultShape:
    def test_optional_recorded_run(self):
        with_m3 = run_bell(BellScenario(0.6, 0.8, 0.7, 1.9, include_m3=True))
        without = run_bell(BellScenario(0.6, 0.8, 0.7, 1.9, include_m3=False))
        assert without.hidden_joint is None
        assert without.hidden_table is None
        assert without.E_hidden is None
        assert with_m3.E_hidden is not None
        # the extra parked pointer cannot shift the proper statistics
        assert without.E_quantum == pytest.approx(with_m3.E_quantum, abs=1e-12)
        assert_allclose(without.quantum_table, with_m3.quantum_table, atol=1e-12)

    def test_json_round_trip(self):
        res = run_bell(BellScenario(0.6, 0.8, 0.7, 1.9))
        blob = json.dumps(res.to_json_dict())
        data = json.loads(blob)
        assert data["a"] == [0.6, 0.0]
        assert data["E_hidden"] == pytest.approx(res.E_hidden)
        assert len(data["quasi"]["table"]) == 2
        no_m3 = run_bell(BellScenario(0.6, 0.8, 0.7, 1.9, include_m3=False))
        assert no_m3.to_json_dict()["hidden_joint"] is None

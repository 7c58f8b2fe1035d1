import math

import numpy as np
import pytest

from qbench.circuits import CX, Circuit, H, PauliString
from qbench.device import DeviceModel
from qbench.errors import ValidationError
from qbench.noise import NoiseModel
from qbench.protocols import (
    collision_shots, run_clops, run_collision_test, run_mirror_benchmark,
    run_quantum_volume, run_rb, run_volumetric, shadow_estimate, xeb_verify_device,
)
from qbench.rng import SeedStream

COMPLETE4 = DeviceModel.complete(4)
COMPLETE5 = DeviceModel.complete(5)

UNIFORM_OUTPUT = NoiseModel.uniform(readout=0.5)  # scrambles every measured bit


class TestQuantumVolume:
    def test_noiseless_passes_small_widths(self):
        result = run_quantum_volume(COMPLETE4, None, 4, 20, 400, SeedStream(100),
                                    strict=False)
        assert result.quantum_volume == 16
        assert all(r.passed for r in result.records)
        assert not result.conformant

    def test_uniform_output_device_fails_everywhere(self):
        result = run_quantum_volume(COMPLETE4, UNIFORM_OUTPUT, 3, 20, 400,
                                    SeedStream(101), strict=False)
        assert result.largest_passing_width == 0
        assert result.quantum_volume == 1
        for rec in result.records:
            assert abs(rec.mean_hog - 0.5) < 0.1
            assert not rec.passed

    def test_strict_mode_requires_100_circuits(self):
        with pytest.raises(ValidationError):
            run_quantum_volume(COMPLETE4, None, 3, 20, 100, SeedStream(102))

    def test_pass_rule_is_lower_bound_vs_two_thirds(self):
        result = run_quantum_volume(COMPLETE4, None, 3, 20, 400, SeedStream(103),
                                    strict=False)
        for rec in result.records:
            mean = np.mean(rec.hogs)
            sd = np.std(rec.hogs, ddof=1)
            bound = mean - 1.959963984540054 * sd / math.sqrt(len(rec.hogs))
            assert rec.lower_bound == pytest.approx(bound)
            assert rec.passed == (bound > 2 / 3)

    def test_noise_never_helps(self):
        clean = run_quantum_volume(COMPLETE4, None, 3, 30, 300, SeedStream(104),
                                   strict=False)
        noisy = run_quantum_volume(COMPLETE4, NoiseModel.uniform(p2=0.08), 3, 30, 300,
                                   SeedStream(104), strict=False)
        for a, b in zip(clean.records, noisy.records):
            assert b.mean_hog <= a.mean_hog + 3 * 0.03


class TestVolumetric:
    def test_square_grid_hellinger_small_when_noiseless(self):
        table = run_volumetric(COMPLETE4, None, "square", [2, 3, 4], "hellinger",
                               20_000, SeedStream(105))
        assert [(r.width, r.depth) for r in table.rows] == [(2, 2), (3, 3), (4, 4)]
        assert all(r.value < 0.05 for r in table.rows)

    def test_aq_shape_row(self):
        table = run_volumetric(COMPLETE4, None, "aq", [3], "hog", 400, SeedStream(106))
        assert table.rows[0].depth == 9

    def test_noise_degrades_hog_along_depth(self):
        noise = NoiseModel.uniform(p2=0.03)
        values = []
        for shape, width in (("shallow", 4), ("square", 4), ("deep", 4)):
            table = run_volumetric(COMPLETE4, noise, shape, [width], "hog", 1500,
                                   SeedStream(107))
            values.append((table.rows[0].depth, table.rows[0].value))
        values.sort()
        assert values[0][1] >= values[-1][1] - 0.1

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError):
            run_volumetric(COMPLETE4, None, "square", [2], "fidelity", 100, SeedStream(1))


class TestRb:
    def test_noiseless_decay_is_one(self):
        result = run_rb(COMPLETE4, None, 1, [2, 4, 8, 16, 32], 8, 100, SeedStream(108))
        assert abs(result.decay - 1.0) < 1e-3
        assert result.error_per_clifford < 1e-3
        assert all(mu == 1.0 for mu in result.survival_means)

    def test_recovers_injected_error_one_qubit(self):
        q = 0.02
        noise = NoiseModel.uniform(p1=q)
        result = run_rb(COMPLETE4, noise, 1, [2, 4, 8, 16, 32, 64], 20, 300,
                        SeedStream(109))
        expected_decay = 1 - 4 * q / 3
        expected_r = 0.5 * (1 - expected_decay)
        assert abs(result.error_per_clifford - expected_r) <= 0.25 * expected_r

    def test_two_qubit_variant_runs(self):
        result = run_rb(COMPLETE4, NoiseModel.uniform(p2=0.02), 2, [2, 4, 8, 16], 8,
                        150, SeedStream(110))
        assert 0.9 < result.decay <= 1.0
        assert result.error_per_clifford > 0

    def test_needs_two_distinct_lengths(self):
        with pytest.raises(ValidationError):
            run_rb(COMPLETE4, None, 1, [4, 4], 5, 50, SeedStream(1))


class TestMirror:
    def test_noiseless_ceiling_exact(self):
        result = run_mirror_benchmark(COMPLETE5, None, [5], [6], 4, 250, SeedStream(111))
        assert result.mean_success == 1.0
        assert result.mean_polarization == 1.0

    def test_width_beyond_dense_cap_allowed(self):
        device = DeviceModel.complete(30)
        result = run_mirror_benchmark(device, None, [30], [6], 2, 50, SeedStream(112))
        assert result.mean_success == 1.0

    def test_success_decreases_with_depth_under_noise(self):
        noise = NoiseModel.uniform(p1=0.01, p2=0.03)
        result = run_mirror_benchmark(COMPLETE5, noise, [5], [2, 8, 24], 6, 300,
                                      SeedStream(113))
        by_depth = {}
        for rec in result.records:
            by_depth.setdefault(rec.depth, []).append(rec.success)
        means = [np.mean(by_depth[d]) for d in sorted(by_depth)]
        assert means[0] > means[-1]
        assert all(means[i] >= means[i + 1] - 0.1 for i in range(len(means) - 1))

    def test_noise_ladder_never_raises_quality_score(self):
        base = NoiseModel.uniform(p1=0.004, p2=0.012)
        means = []
        for scale in (0.0, 1.0, 2.0):
            noise = base.scaled(scale) if scale else None
            result = run_mirror_benchmark(COMPLETE5, noise, [5], [8], 8, 200,
                                          SeedStream(150))
            means.append(result.mean_success)
        slack = 3 * 0.03
        assert means[0] >= means[1] - slack >= means[2] - 2 * slack
        assert means[0] > means[2]


class TestClops:
    def test_positive_rate_and_exact_layer_count(self):
        result = run_clops(COMPLETE4, None, 3, 12, 4, SeedStream(114), shots=50)
        assert result.layers_per_second > 0
        assert result.layers_executed == 12
        assert result.host_relative

    def test_work_deterministic_even_if_clock_is_not(self):
        a = run_clops(COMPLETE4, None, 3, 9, 3, SeedStream(115), shots=50)
        b = run_clops(COMPLETE4, None, 3, 9, 3, SeedStream(115), shots=50)
        assert a.layers_executed == b.layers_executed

    def test_throughput_steady_under_doubling(self):
        run_clops(COMPLETE4, None, 4, 20, 5, SeedStream(199), shots=100)  # warmup
        small = max(run_clops(COMPLETE4, None, 4, 60, 5, SeedStream(116), shots=100)
                    .layers_per_second for _ in range(2))
        double = max(run_clops(COMPLETE4, None, 4, 120, 5, SeedStream(117), shots=100)
                     .layers_per_second for _ in range(2))
        assert 0.75 < double / small < 1.25


class TestShadows:
    def test_plus_state_z_estimate(self):
        prep = Circuit(1, ())
        est = shadow_estimate(prep, [PauliString(1, "Z")], 10_000, SeedStream(118))[0]
        assert abs(est.estimate - 1.0) <= 3 * math.sqrt(3 / 10_000)
        assert est.variance_bound == pytest.approx(3 / 10_000)

    def test_identity_observable_is_exactly_one(self):
        prep = Circuit.from_gates(2, [H(0), CX(0, 1)])
        est = shadow_estimate(prep, [PauliString(2, "II")], 50, SeedStream(119))[0]
        assert est.estimate == 1.0

    def test_ghz_two_body_and_one_body(self):
        prep = Circuit.from_gates(3, [H(0), CX(0, 1), CX(1, 2)])
        zz, z = shadow_estimate(prep, [PauliString(3, "ZZI"), PauliString(3, "ZII")],
                                8000, SeedStream(120))
        assert abs(zz.estimate - 1.0) <= 3 * math.sqrt(9 / 8000)
        assert abs(z.estimate) <= 3 * math.sqrt(3 / 8000)

    def test_error_shrinks_with_snapshots(self):
        prep = Circuit.from_gates(2, [H(0), CX(0, 1)])
        obs = [PauliString(2, "ZZ")]
        errs = []
        for snaps in (500, 2000):
            reps = [abs(shadow_estimate(prep, obs, snaps, SeedStream(121, (snaps, r)))[0]
                        .estimate - 1.0) for r in range(6)]
            errs.append(np.mean(reps))
        assert errs[1] < errs[0] * 0.9

    def test_measured_prep_rejected(self):
        from qbench.circuits import measure_all

        with pytest.raises(ValidationError):
            shadow_estimate(measure_all(Circuit(1, ())), [PauliString(1, "Z")], 10,
                            SeedStream(1))

    def test_empty_observable_list_rejected(self):
        with pytest.raises(ValidationError):
            shadow_estimate(Circuit.from_gates(1, [H(0)]), [], 10, SeedStream(1))


class TestCollisionTest:
    def test_shot_rule(self):
        assert collision_shots(14) == 4096

    def test_noiseless_passes(self):
        device = DeviceModel.complete(10)
        result = run_collision_test(device, None, 10, SeedStream(122))
        assert result.passed
        assert result.stats.delta_hat > 0.5

    def test_uniform_output_fails(self):
        device = DeviceModel.complete(10)
        result = run_collision_test(device, UNIFORM_OUTPUT, 10, SeedStream(123))
        assert not result.passed
        assert abs(result.stats.delta_hat) < 0.4


class TestXebVerify:
    def test_noiseless_verified(self):
        result = xeb_verify_device(COMPLETE5, None, 5, 8, 20_000, SeedStream(124),
                                   threshold=0.8)
        assert result.verified
        assert result.alpha_mean > 0.8

    def test_uniform_output_not_verified(self):
        result = xeb_verify_device(COMPLETE5, UNIFORM_OUTPUT, 5, 6, 20_000,
                                   SeedStream(125))
        assert not result.verified
        assert abs(result.alpha_mean) < 0.1

    def test_recorded_seeds_reproduce_alphas_exactly(self):
        a = xeb_verify_device(COMPLETE4, None, 4, 5, 5000, SeedStream(126))
        b = xeb_verify_device(COMPLETE4, None, 4, 5, 5000,
                              SeedStream.from_record(a.seeds))
        assert np.max(np.abs(np.array(a.alphas) - np.array(b.alphas))) < 1e-12

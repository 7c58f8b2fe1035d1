import math

import numpy as np
import pytest
from statevector_reference import reference_rb_survivals

from qbench.circuits import CX, Circuit, H, PauliString, S
from qbench.device import DeviceModel
from qbench.errors import ValidationError
from qbench.noise import DriftSchedule, NoiseModel
from qbench.protocols import (
    collision_shots, default_verification_width, fit_rb_decay, run_clops, run_collision_test,
    run_mirror_benchmark, run_quantum_volume, run_rb, run_volumetric, shadow_estimate,
    xeb_verify_device,
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


#: (lengths, survival means, n_qubits, (A, p, B, RMS residual)) as scipy's
#: bounded `curve_fit` fitted them from the same start (qbench 0.3.0): three
#: edge cases (a stall point for a lightly damped clipped search, two lengths
#: for three parameters, constant survivals), then 27 seeded synthetic decays.
CURVE_FIT_CASES = [
    ([4, 32, 64], [0.771, 0.523, 0.487], 1,
     (0.3818659607012248, 0.9320967803179812, 0.4827595158143865, 7.516256402347329e-13)),
    ([1, 2], [0.97, 0.95], 2,
     (0.7412731562352508, 0.9722493703839951, 0.24929760778233193, 2.8308259533709863e-08)),
    ([1, 2, 4], [1.0, 1.0, 1.0], 2,
     (0.6565033739331677, 0.999997234642058, 0.3435008609158824, 2.264272307512064e-06)),
    ([1, 5, 10, 20, 50], [0.7597, 0.368, 0.2634, 0.2473, 0.2599], 2,
     (0.7382869224585359, 0.68882547197606, 0.2514152732115157, 0.005106303298065891)),
    ([0, 1, 2, 4], [0.6686, 0.5873, 0.5467, 0.4752], 2,
     (0.2572969968064462, 0.71475230450111, 0.4095005375920886, 0.004351042167628071)),
    ([1, 3, 9], [0.5929, 0.6723, 0.5459], 1,
     (0.6441072810300966, 0.9848678806319768, 6.9711660213994635e-12, 0.0416769679475922)),
    ([4, 32, 64], [0.5661, 0.2181, 0.1272], 1,
     (0.5641629607027255, 0.951226792988873, 0.1042075455374076, 7.579342683673939e-14)),
    ([4, 32, 64], [0.6714, 0.605, 0.5117], 2,
     (0.6878153137805988, 0.9955349469112628, 1.785102932052565e-14, 0.00635505808497144)),
    ([1, 2, 4, 8, 16], [0.5728, 0.5496, 0.5186, 0.4652, 0.3748], 1,
     (0.4231769797289505, 0.9572887449127592, 0.16475828781692559, 0.0021878708328166405)),
    ([1, 10, 50, 100], [0.915, 0.5471, 0.2935, 0.3165], 2,
     (0.678279722816903, 0.9022412812214883, 0.3034221821828449, 0.00954916862893989)),
    ([1, 2, 4, 8, 16, 32, 64, 128], [0.7965, 0.75, 0.6539, 0.5233, 0.2964, 0.3546, 0.4064, 0.3336], 2,
     (0.5546126880400737, 0.8469697935578449, 0.34664934015307386, 0.041082923419624245)),
    ([1, 2], [0.7646, 0.6344], 1,
     (0.5892005464393203, 0.6703608859405039, 0.3696229345786834, 6.577564604830506e-08)),
    ([2, 4, 8, 16, 32, 64], [0.7785, 0.7916, 0.7715, 0.7666, 0.6166, 0.4558], 1,
     (0.8241117369808051, 0.9912587773527785, 2.2165904251029309e-13, 0.025112331315249113)),
    ([1, 2], [0.4186, 0.2481], 2,
     (0.6866522581097947, 0.45883943517776865, 0.10353673983167777, 1.2817051017433154e-07)),
    ([1, 10, 50, 100], [0.7144, 0.4374, 0.3751, 0.4046], 2,
     (0.40177281744079524, 0.8077938410841561, 0.38985227469841816, 0.010433121128781492)),
    ([1, 3, 9], [0.2703, 0.1951, 0.0862], 2,
     (0.2834090402031757, 0.823210523933162, 0.036994695544908314, 2.812548745359863e-11)),
    ([1, 10, 50, 100], [0.9476, 0.8226, 0.5858, 0.4539], 1,
     (0.5469833475976231, 0.977212302708677, 0.40342440786388273, 0.010410797371396158)),
    ([4, 32, 64], [0.9702, 0.8734, 0.6671], 1,
     (0.9999999999999999, 0.9939518421999239, 0.01096146429306375, 0.02758237799464992)),
    ([1, 10, 50, 100], [0.944, 0.6483, 0.2791, 0.2586], 2,
     (0.7370828965358893, 0.9390780090058245, 0.25287720465568025, 0.0037600201698099202)),
    ([2, 4, 8, 16, 32, 64], [1.0, 1.0, 0.9996, 0.9993, 0.9927, 0.9917], 2,
     (0.013449892520141294, 0.9785354132144856, 0.9878678066925063, 0.0011742648803830457)),
    ([1, 2, 4, 8, 16], [0.929, 0.888, 0.7997, 0.7, 0.6305], 2,
     (0.3908767316786303, 0.8413123739676592, 0.6046259390556343, 0.0038634988111054393)),
    ([0, 1, 2, 4], [1.0, 0.9928, 0.9915, 0.9584], 2,
     (0.9999947773213641, 0.9895459509046323, 0.0037846010387574468, 0.005121062941708649)),
    ([1, 10, 50, 100], [0.9965, 0.9499, 0.8399, 0.7491], 2,
     (0.350515942760168, 0.9879448108853928, 0.6458167663546709, 0.004177348326215477)),
    ([1, 2], [0.9685, 0.9123], 2,
     (0.7422435235084838, 0.9174727326736178, 0.28751185367737364, 4.735906521329845e-08)),
    ([1, 3, 9], [0.9966, 0.9863, 0.9676], 1,
     (0.05086468683873647, 0.8769815019585671, 0.9519926105444108, 9.97856040087886e-11)),
    ([4, 32, 64], [0.4061, 0.1997, 0.1767], 1,
     (0.3180077819525437, 0.9235536264038509, 0.17474109535552126, 9.975365717805173e-15)),
    ([2, 4, 8, 16, 32, 64], [0.6946, 0.5379, 0.4653, 0.4495, 0.4575, 0.4411], 2,
     (0.6689471163909475, 0.6041974119155455, 0.4500765852896976, 0.00498895583558838)),
    ([1, 2, 4, 8, 16], [0.7584, 0.8745, 0.7317, 0.7233, 0.9101], 1,
     (0.3924310008804866, 0.9999999999999991, 0.40716899752702723, 0.07739483186880208)),
    ([4, 32, 64], [0.747, 0.4133, 0.3979], 1,
     (0.5437548927122519, 0.8954276366065181, 0.39743723925257024, 5.435113480195802e-09)),
    ([4, 32, 64], [0.7088, 0.6285, 0.446], 1,
     (0.7465284123421286, 0.9927315331843447, 1.5041116216540406e-24, 0.026761388354085862)),
]


class TestRbFit:
    @pytest.mark.parametrize("lengths, means, n_qubits, reference", CURVE_FIT_CASES)
    def test_fits_at_least_as_well_as_curve_fit(self, lengths, means, n_qubits, reference):
        fit = fit_rb_decay(lengths, means, n_qubits)
        assert all(math.isfinite(v) for v in fit)
        assert all(0.0 <= v <= 1.0 for v in fit[:3])
        assert fit_rb_decay(lengths, means, n_qubits) == fit
        a, p, b, residual = fit
        model = a * p ** np.asarray(lengths, dtype=float) + b
        assert residual == pytest.approx(float(np.sqrt(np.mean((model - means) ** 2))), abs=1e-15)
        assert residual <= reference[3] + 1e-12


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

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("noise", [
        None,
        NoiseModel.uniform(p1=0.03, p2=0.06),
        NoiseModel.uniform(readout=0.05),
        NoiseModel.uniform(p1=0.01, p2=0.02, readout=0.02,
                           drift=DriftSchedule((0.0, 0.02), 0.01, SeedStream(122))),
        NoiseModel.uniform(drift=DriftSchedule((0.0, 0.03))),
        NoiseModel.uniform(p1=0.3, p2=0.3, readout=0.05,
                           drift=DriftSchedule((0.0, 0.1), 0.05, SeedStream(124))),
    ], ids=["noiseless", "uniform", "readout", "drift", "drift_lifts_zero_rate", "heavy_drift"])
    def test_matches_reference_loop(self, noise, n_qubits):
        lengths, stream = [1, 3, 6], SeedStream(123, (n_qubits,))
        result = run_rb(COMPLETE4, noise, n_qubits, lengths, 3, 64, stream)
        assert result.survivals == reference_rb_survivals(noise, n_qubits, lengths, 3, 64, stream)

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
        # Small and double runs alternate, and their medians are compared, so
        # load from other processes slows both sides alike.
        run_clops(COMPLETE4, None, 4, 20, 5, SeedStream(199), shots=100)  # warmup
        small, double = [], []
        for _ in range(7):
            small.append(run_clops(COMPLETE4, None, 4, 60, 5, SeedStream(116), shots=100)
                         .layers_per_second)
            double.append(run_clops(COMPLETE4, None, 4, 120, 5, SeedStream(117), shots=100)
                          .layers_per_second)
        assert 0.75 < np.median(double) / np.median(small) < 1.25


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

    def test_y_and_x_letters_after_h_then_s(self):
        # H then S from |0> gives the +1 eigenstate of Y, so <Y> = 1 and <X> = 0.
        prep = Circuit.from_gates(1, [H(0), S(0)])
        y, x = shadow_estimate(prep, [PauliString(1, "Y"), PauliString(1, "X")], 4000,
                               SeedStream(122))
        assert abs(y.estimate - 1.0) <= 3 * math.sqrt(3 / 4000)
        assert abs(x.estimate) <= 3 * math.sqrt(3 / 4000)

    def test_ghz_three_body_x_and_y_letters(self):
        # GHZ(3) is stabilized by XXX and by -XYY.
        prep = Circuit.from_gates(3, [H(0), CX(0, 1), CX(1, 2)])
        xxx, xyy = shadow_estimate(prep, [PauliString(3, "XXX"), PauliString(3, "XYY")],
                                   8000, SeedStream(123))
        assert abs(xxx.estimate - 1.0) <= 3 * math.sqrt(27 / 8000)
        assert abs(xyy.estimate + 1.0) <= 3 * math.sqrt(27 / 8000)

    def test_error_shrinks_with_snapshots(self):
        # 4x the snapshots halves the expected error; 24 repetitions per size keep
        # the mean's scatter well inside the 0.9 bar for any master seed.
        prep = Circuit.from_gates(2, [H(0), CX(0, 1)])
        obs = [PauliString(2, "ZZ")]
        errs = []
        for snaps in (100, 400):
            reps = [abs(shadow_estimate(prep, obs, snaps, SeedStream(121, (snaps, r)))[0]
                        .estimate - 1.0) for r in range(24)]
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
    @pytest.mark.parametrize("device, width", [
        (DeviceModel.linear(1), 1), (DeviceModel.linear(2), 2), (DeviceModel.linear(3), 2),
        (DeviceModel.linear(5), 4), (DeviceModel.linear(6), 6), (DeviceModel.linear(9), 6),
        (DeviceModel(n_qubits=6, working=(), edges=((0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)),
                     native_gates=frozenset()), 2),
    ])
    def test_default_width_is_even(self, device, width):
        assert default_verification_width(device) == width

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

"""State construction, sampling determinism, and file I/O."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import states

# Frozen regression snapshot of the Haar stream at (seed=2024, index=0).
HAAR_2024_0 = np.array([
    -0.47923597722690014 - 0.09007831066720771j,
    -0.10240475348357159 - 0.17566938765201612j,
    0.22365223219233138 + 0.15720279281251920j,
    -0.25679254649280214 - 0.19005980598491937j,
    -0.25192822830596000 - 0.13041356494675554j,
    -0.16567262852284043 + 0.05814706235678596j,
    -0.46253606788471220 - 0.004313502398308148j,
    0.23151419480022580 - 0.40646408738487850j,
])

CANONICAL_B_2024_0 = {
    "p": (0.4087677640356068, 0.602062317852273, 0.34784975738125845,
          0.12422341148652019, 0.5779264406792004),
    "theta": 0.8840746703627292,
}


class TestNamedStates:
    def test_ghz_amplitudes(self):
        psi = states.make_ghz()
        want = np.zeros(8)
        want[0] = want[7] = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(psi, want, atol=0)

    def test_w_amplitudes(self):
        psi = states.make_w()
        want = np.zeros(8)
        want[1] = want[2] = want[4] = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(psi, want, atol=0)

    def test_bell_product_amplitudes(self):
        psi = states.make_bell_product(0.5)
        assert psi[2] == pytest.approx(0.5)
        assert psi[4] == pytest.approx(-0.5)
        assert psi[1] == pytest.approx(math.sqrt(0.5))
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p1", [0.0, 1.0])
    def test_bell_product_endpoints_normalized(self, p1):
        assert np.sum(np.abs(states.make_bell_product(p1)) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("p1", [-0.1, 1.1, float("nan"), np.nextafter(1.0, 2.0)])
    def test_bell_product_rejects_bad_weight(self, p1):
        # an ulp above 1 is refused by name, before sqrt(1 - p1) meets a negative
        message = f"p1 must lie in [0, 1], got {float(p1)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            states.make_bell_product(p1)


class TestCanonical:
    P = (0.5, 0.5, 0.5, 0.25, math.sqrt(1.0 - 0.25 * 3 - 0.0625))

    def test_a_occupies_documented_indices(self):
        psi = states.make_canonical_a(self.P, 0.3)
        assert sorted(np.flatnonzero(np.abs(psi) > 0)) == [0, 1, 4, 6, 7]
        assert psi[0] == pytest.approx(0.5 * complex(math.cos(0.3), math.sin(0.3)))
        assert psi[1] == pytest.approx(0.5)

    def test_b_occupies_documented_indices(self):
        psi = states.make_canonical_b(self.P, 0.0)
        assert sorted(np.flatnonzero(np.abs(psi) > 0)) == [0, 1, 2, 4, 7]
        assert psi[0] == pytest.approx(0.5)

    def test_rejects_unnormalized_parameters(self):
        with pytest.raises(ValueError, match="must be 1"):
            states.make_canonical_a((0.5, 0.5, 0.5, 0.5, 0.5))

    def test_rejects_negative_parameter(self):
        with pytest.raises(ValueError):
            states.make_canonical_a((-0.5, 0.5, 0.5, 0.5, 0.0))

    @pytest.mark.parametrize("theta", [-0.1, math.pi])
    def test_rejects_theta_outside_range(self, theta):
        with pytest.raises(ValueError, match="theta"):
            states.make_canonical_a((1.0, 0.0, 0.0, 0.0, 0.0), theta)

    def test_normalizing_p5(self):
        # subtracted left to right, then clipped at 0 where p1..p4 overshoot
        assert states.normalizing_p5(0.5, 0.5, 0.5, 0.25) == math.sqrt(1.0 - 0.25 * 3 - 0.0625)
        assert states.normalizing_p5(0.0, 0.0, 0.6, 0.8) == 0.0  # 1 - 0.36 - 0.64 < 0
        assert states.normalizing_p5(1.0, 0.5, 0.0, 0.0) == 0.0
        grid = np.array([0.0, 0.6, 1e200])
        np.testing.assert_array_equal(states.normalizing_p5(grid, 0.0, 0.0, 0.8),
                                      [math.sqrt(1.0 - 0.8 * 0.8), 0.0, 0.0])

    def test_overflowing_parameters_fail_the_norm_check(self):
        # the square of 1e200 overflows to inf without a warning, and inf is not 1
        with pytest.raises(ValueError, match="^sum of squared parameters is inf, must be 1$"):
            states.make_canonical_a([1e200, 0.0, 0.0, 0.0, 0.0])


class TestSampling:
    def test_haar_snapshot(self):
        psi = states.sample_haar(states.RngState(2024, 0))
        np.testing.assert_array_equal(psi, HAAR_2024_0)

    def test_haar_normalized(self):
        for i in range(10):
            psi = states.sample_haar(states.RngState(5, i))
            assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_streams_are_independent_per_index(self):
        a = states.sample_haar(states.RngState(5, 0))
        b = states.sample_haar(states.RngState(5, 1))
        assert np.max(np.abs(a - b)) > 1e-3

    def test_batch_is_bitwise_identical_to_singles(self):
        # 203 rows pins the layout: from uniforms that are not one C-contiguous
        # row per index, the batch's norms are summed in another order here
        for seed in (99, 2**64 - 1):
            batch = states.sample_haar_batch(seed, 203)
            singles = np.stack([states.sample_haar(states.RngState(seed, i)) for i in range(203)])
            np.testing.assert_array_equal(batch.view(np.uint64), singles.view(np.uint64))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_batch_rejects_seeds_like_rng_state(self, seed):
        with pytest.raises(ValueError, match="unsigned 64-bit") as batch_err:
            states.sample_haar_batch(seed, 3)
        with pytest.raises(ValueError) as single_err:
            states.RngState(seed, 0)
        assert str(batch_err.value) == str(single_err.value)

    @pytest.mark.parametrize("sampler", [states.sample_haar_batch, states.sample_canonical_batch])
    @pytest.mark.parametrize("n", [2.9, 2.0, True])
    def test_batch_rejects_a_count_that_is_not_an_integer(self, sampler, n):
        # the count reaches uniforms untruncated, which refuses it
        with pytest.raises(ValueError, match="^stream count must be an integer, got "):
            sampler(0, n)

    def test_canonical_sample_snapshot(self):
        spec = states.sample_canonical(states.RngState(2024, 0), "canonical-b")
        assert spec.p == CANONICAL_B_2024_0["p"]
        assert spec.theta == CANONICAL_B_2024_0["theta"]

    def test_canonical_sample_is_valid_parametrization(self):
        for i in range(50):
            spec = states.sample_canonical(states.RngState(11, i), "canonical-a")
            assert sum(x * x for x in spec.p) == pytest.approx(1.0, abs=1e-12)
            assert all(x >= 0 for x in spec.p)
            assert 0.0 <= spec.theta < math.pi
            states.make_canonical_a(spec.p, spec.theta)

    def test_canonical_sample_rejects_other_families(self):
        with pytest.raises(ValueError):
            states.sample_canonical(states.RngState(0, 0), "ghz")



STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, np.uint64(2**64 - 1)]


class TestStreamRebuild:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_bitwise_equal_to_rng_state(self, seed):
        got = states.uniforms(seed, 6, 9)
        want = np.stack([states.RngState(seed, i).uniforms(9) for i in range(6)])
        assert got.shape == (6, 9)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 64), k=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_random_seeds_and_indices_equal_rng_state(self, seed, n, k):
        # uniform 64-bit seeds reach the LCG's carries that the fixed grid may miss
        got = states.uniforms(seed, n, k)
        want = np.stack([states.RngState(seed, i).uniforms(k) for i in range(n)])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", [1, 2**64 - 1])
    def test_one_stream_without_warnings(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = states.uniforms(seed, 1, 3)
        want = states.RngState(seed, 0).uniforms(3)
        assert got.shape == (1, 3)
        np.testing.assert_array_equal(got[0].view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", [1, 2**64 - 1])
    @pytest.mark.parametrize("index", [5, np.uint64(2**64 - 1)])
    def test_scalar_index_gives_one_stream_without_warnings(self, seed, index):
        # RngState, the scalar reference, takes any 64-bit index, numpy
        # scalars included; the batch holds the streams below 2**32
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = states.RngState(seed, index).uniforms(3)
            batch = states.uniforms(seed, 6, 3)
        want = states.RngState(seed, int(index)).uniforms(3)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        if index < 2**32:
            np.testing.assert_array_equal(batch[index].view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.7, True, "5", np.float64(3.0)])
    def test_rejects_seeds_like_rng_state(self, seed):
        with pytest.raises(ValueError, match="^seed must ") as batch_err:
            states.uniforms(seed, 1, 2)
        with pytest.raises(ValueError) as single_err:
            states.RngState(seed, 0)
        assert str(batch_err.value) == str(single_err.value)

    @pytest.mark.parametrize("index", [2.5, True, "1"])
    def test_rng_state_rejects_an_index_that_is_not_an_integer(self, index):
        with pytest.raises(ValueError, match="^stream index must be an integer, got "):
            states.RngState(0, index)

    @pytest.mark.parametrize("draw,name", [
        (lambda k: states.RngState(0, 0).uniforms(k), "n"),
        (lambda k: states.uniforms(0, 2, k), "draw count"),
    ], ids=["RngState", "uniforms"])
    @pytest.mark.parametrize("k", [2.5, True, np.float64(2.0)])
    def test_rejects_a_draw_count_that_is_not_an_integer(self, draw, name, k):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            draw(k)

    def test_stream_count_bounds(self):
        # 2**32 + 1 streams would take an index of 2**32, a second spawn word
        for n in (-1, 2**32 + 1):
            with pytest.raises(ValueError, match="stream count"):
                states.uniforms(0, n, 1)
        assert states.uniforms(3, 0, 2).shape == (0, 2)

    @pytest.mark.parametrize("indices", [[-1], [2**64], np.array([-2, 0]), [0.5], [True]])
    def test_rejects_indices_outside_uint64(self, indices):
        # streams are addressed by count: an index array, or a count that is
        # not an integer, is refused before anything is drawn
        for n in (indices, indices[0]):
            with pytest.raises(ValueError, match="stream count"):
                states.uniforms(0, n, 2)

    @pytest.mark.parametrize("family", ["canonical-a", "canonical-b"])
    @pytest.mark.parametrize("seed", [0, 2024, 2**64 - 1])
    def test_canonical_batch_equals_per_index_specs(self, family, seed):
        p, theta = states.sample_canonical_batch(seed, 40)
        maker = states.make_canonical_a if family == "canonical-a" else states.make_canonical_b
        support = (0, 1, 4, 6, 7) if family == "canonical-a" else (0, 1, 2, 4, 7)
        psis = maker(p, theta)
        for i in range(40):
            spec = states.sample_canonical(states.RngState(seed, i), family)
            assert tuple(p[i].tolist()) == spec.p
            assert theta[i] == spec.theta
            # the scalar formula, with the math module's cosine and sine
            want = np.zeros(8, dtype=np.complex128)
            want[support[0]] = np.float64(spec.p[0]) * complex(math.cos(spec.theta),
                                                               math.sin(spec.theta))
            want[list(support[1:])] = spec.p[1:]
            np.testing.assert_array_equal(psis[i].view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal(maker(spec.p, spec.theta), want)

    def test_canonical_batch_snapshot(self):
        p, theta = states.sample_canonical_batch(2024, 1)
        assert tuple(p[0].tolist()) == CANONICAL_B_2024_0["p"]
        assert theta[0] == CANONICAL_B_2024_0["theta"]

    @pytest.mark.parametrize("seed", [3, 2**63])
    def test_bell_p1_draws_equal_per_index_streams(self, seed):
        from qmono import experiments

        table, _ = experiments.run_ensemble("bell-product", 30, seed)
        want = [float(states.RngState(seed, i).uniforms(1)[0]) for i in range(30)]
        assert table["p1"].tolist() == want
        np.testing.assert_array_equal(states.make_bell_product(table["p1"]),
                                      np.stack([states.make_bell_product(p) for p in want]))

    def test_stacked_builders_check_rows_in_order(self):
        good = (1.0, 0.0, 0.0, 0.0, 0.0)
        p = np.array([good, good, (0.5, 0.5, 0.5, 0.5, 0.5), (-1.0, 0.0, 0.0, 0.0, 0.0)])
        # row 2 is the first bad row; its norm check comes before its theta check
        with pytest.raises(ValueError, match="sum of squared parameters is 1.25, must be 1"):
            states.make_canonical_a(p, [0.0, 0.0, 4.0, 0.0])
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\), got 4.0"):
            states.make_canonical_b(p[:2], [0.0, 4.0])
        with pytest.raises(ValueError, match="p1 must lie in"):
            states.make_bell_product([0.2, 1.5])


class TestValidateAndFiles:
    def test_validate_renormalizes_inside_window(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0 + 1e-7
        out = states.validate(psi)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_validate_rejects_outside_window(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.01
        with pytest.raises(ValueError, match="norm"):
            states.validate(psi)

    def test_roundtrip(self, tmp_path, rng):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        path = tmp_path / "state.json"
        states.write_state_file(path, psi)
        np.testing.assert_allclose(states.read_state_file(path), psi, atol=1e-15)

    @pytest.mark.parametrize("psi", [[1, 0, 0], [2, 0, 0, 0, 0, 0, 0, 0],
                                     [math.nan, 1, 0, 0, 0, 0, 0, 0]],
                             ids=["three-amplitudes", "norm-2", "nan"])
    def test_write_rejects_what_read_refuses(self, tmp_path, psi):
        path = tmp_path / "state.json"
        with pytest.raises(ValueError):
            states.write_state_file(path, psi)
        assert not path.exists()

    def test_read_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[1.0, 0.0]] * 7))
        with pytest.raises(ValueError, match="8 entries"):
            states.read_state_file(path)

    def test_read_rejects_non_numbers(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([["x", 0.0]] + [[0.0, 0.0]] * 7))
        with pytest.raises(ValueError):
            states.read_state_file(path)

    def test_read_rejects_booleans(self, tmp_path):
        # bool is an int subclass: [true, false] must not read as amplitude 1
        path = tmp_path / "bool.json"
        path.write_text(json.dumps([[True, False]] + [[0, 0]] * 7))
        with pytest.raises(ValueError, match="^entry 0 must hold two numbers$"):
            states.read_state_file(path)

    def test_overflowing_norm_is_outside_the_window(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps([[1e200, 1e200]] * 8))
        with pytest.raises(ValueError, match="norm inf$"):
            states.read_state_file(path)

    def test_read_rejects_integers_beyond_double_range(self, tmp_path):
        # json loads a 401-digit integer exactly; complex() cannot convert it
        path = tmp_path / "huge.json"
        path.write_text("[[1" + "0" * 400 + ", 0]" + ", [0, 0]" * 7 + "]")
        with pytest.raises(ValueError, match="^entry 0 must hold two numbers$"):
            states.read_state_file(path)

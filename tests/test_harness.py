"""Sampling determinism and the claim-verification drivers."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from erdos_clopen.clopen import DEFAULT_PAIR, DEFAULT_SCHEDULE
from erdos_clopen.space import Point
from erdos_clopen.harness import (
    CLAIM_IDS,
    InvalidParamsError,
    SampleConfig,
    SplitMix64,
    _sample_point_with,
    derive_seed,
    perturb_within,
    run_suite,
    sample_point,
    suite_exit_status,
    verify_claim,
)


class TestSplitMix:
    def test_known_sequence_is_stable(self):
        # reference values for seed 0 (documented generator constants)
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [16294208416658607535, 7960286522194355700,
                         487617019471545679]

    def test_below_is_unbiased_range(self):
        rng = SplitMix64(123)
        draws = [rng.below(7) for _ in range(2000)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_derive_seed_separates_streams(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(5) == derive_seed(5)


class TestSampleConfig:
    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            SampleConfig(max_index=0)
        with pytest.raises(InvalidParamsError):
            SampleConfig(max_numerator=0)
        with pytest.raises(InvalidParamsError):
            SampleConfig(count=-1)
        SampleConfig(max_support=0)  # allowed: forces the zero point


class TestSamplePoint:
    def test_zero_support_cap_forces_zero_point(self):
        config = SampleConfig(max_support=0, seed=9, count=10)
        for draw in range(10):
            assert sample_point(config, draw).is_zero()

    def test_denominator_cap_one_forces_integers(self):
        config = SampleConfig(max_denominator=1, seed=9, count=50)
        for draw in range(50):
            for _, value in sample_point(config, draw).entries:
                assert value.denominator == 1

    def test_caps_respected(self):
        config = SampleConfig(max_support=4, max_index=7, max_numerator=3,
                              max_denominator=5, seed=11, count=200)
        for draw in range(200):
            point = sample_point(config, draw)
            assert len(point.entries) <= 4
            for index, value in point.entries:
                assert 1 <= index <= 7
                assert 1 <= abs(value.numerator) <= 3 * 5
                assert value != 0

    def test_deterministic_per_draw(self):
        config = SampleConfig(seed=77, count=100)
        assert sample_point(config, 42) == sample_point(config, 42)

    def test_draw_must_be_in_range(self):
        config = SampleConfig(seed=1, count=5)
        with pytest.raises(InvalidParamsError):
            sample_point(config, 5)


def pool_sample(rng: SplitMix64, config: SampleConfig) -> Point:
    """Reference sampler: pop each index from an explicit pool [1, max_index]."""
    size = rng.below(min(config.max_support, config.max_index) + 1)
    pool = list(range(1, config.max_index + 1))
    indices = [pool.pop(rng.below(len(pool))) for _ in range(size)]
    entries = []
    for index in sorted(indices):
        magnitude = 1 + rng.below(config.max_numerator)
        sign = -1 if rng.below(2) else 1
        den = 1 + rng.below(config.max_denominator)
        entries.append((index, F(sign * magnitude, den)))
    return Point(entries)


class TestSamplerMatchesPool:
    @pytest.mark.parametrize("support,index", [(6, 12), (12, 12), (5, 5), (9, 40),
                                               (3, 1), (0, 7), (20, 25)])
    def test_same_points_and_stream(self, support, index):
        config = SampleConfig(max_support=support, max_index=index, max_numerator=9,
                              max_denominator=12, seed=support * 100 + index)
        for draw in range(300):
            seed = derive_seed(config.seed, draw)
            ours, theirs = SplitMix64(seed), SplitMix64(seed)
            assert _sample_point_with(ours, config) == pool_sample(theirs, config)
            assert ours.next_u64() == theirs.next_u64()  # same draws consumed


class TestPinnedSampledPoints:
    def test_sampled_point_bytes(self):
        """sha256 of 2000 seed-42 draws, recorded once and pinned; the verify
        report alone is blind to sign errors, since A and O are symmetric
        under x -> -x."""
        config = SampleConfig(seed=42, count=2000)
        text = "\n".join(json.dumps(sample_point(config, d).to_json(), sort_keys=True)
                         for d in range(config.count))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "83deca3d5349c6f407073fd41479b1a8b312c32ea47a9f29038d99a172fc0090")


class TestPerturbWithin:
    def test_perturbation_stays_strictly_inside_bound(self):
        config = SampleConfig(seed=3, count=1)
        from erdos_clopen.space import ZERO
        for k in range(200):
            bound = F(1, 1 + k % 17)
            y = perturb_within(ZERO, bound, SplitMix64(k), config)
            assert y.norm_sq() < bound * bound


class TestVerifyClaim:
    CONFIG = SampleConfig(seed=42, count=150)

    def test_param_type_enforced(self):
        with pytest.raises(InvalidParamsError):
            verify_claim("C1", DEFAULT_SCHEDULE, self.CONFIG)
        with pytest.raises(InvalidParamsError):
            verify_claim("C4", DEFAULT_PAIR, self.CONFIG)
        with pytest.raises(InvalidParamsError):
            verify_claim("C9", DEFAULT_PAIR, self.CONFIG)

    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_every_claim_passes_at_small_scale(self, claim):
        params = DEFAULT_PAIR if claim in ("C1", "C2", "C3") else DEFAULT_SCHEDULE
        report = verify_claim(claim, params, self.CONFIG)
        assert report.passed, report.violations[:1]
        assert report.samples_run == 150
        assert report.elapsed_ms is not None

    def test_degenerate_config_vacuous_pass(self):
        config = SampleConfig(seed=1, count=20, max_support=0)
        report = verify_claim("C2", DEFAULT_PAIR, config)
        assert report.passed
        assert report.eligible == 0  # 0 is in A, so nothing qualifies

    def test_zero_count_vacuous(self):
        config = SampleConfig(seed=1, count=0)
        for claim in CLAIM_IDS:
            params = DEFAULT_PAIR if claim in ("C1", "C2", "C3") else DEFAULT_SCHEDULE
            report = verify_claim(claim, params, config)
            assert report.passed and report.samples_run == 0


class TestRunSuite:
    def test_reports_in_claim_order_and_deterministic(self):
        config = SampleConfig(seed=24, count=60)
        first = run_suite(DEFAULT_SCHEDULE, config)
        second = run_suite(DEFAULT_SCHEDULE, config)
        assert [r.claim for r in first] == list(CLAIM_IDS)
        payload_a = json.dumps([r.to_json() for r in first], sort_keys=True)
        payload_b = json.dumps([r.to_json() for r in second], sort_keys=True)
        assert payload_a == payload_b
        assert suite_exit_status(first) == 0

    def test_timing_excluded_from_canonical_json(self):
        config = SampleConfig(seed=24, count=10)
        report = run_suite(DEFAULT_SCHEDULE, config, ("C1",))[0]
        assert report.to_json()["elapsed_ms"] is None
        assert report.to_json(include_timing=True)["elapsed_ms"] is not None

    def test_unknown_claim_rejected(self):
        with pytest.raises(InvalidParamsError):
            run_suite(DEFAULT_SCHEDULE, SampleConfig(seed=1, count=1), ("C7",))

"""Sampling determinism and the claim-verification drivers."""

import hashlib
import json
from fractions import Fraction as F
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from erdos_clopen.clopen import (
    DEFAULT_PAIR,
    DEFAULT_SCHEDULE,
    closedness_radius,
    in_A,
    openness_radius,
)
from erdos_clopen import harness
from erdos_clopen.exact import floor_root
from erdos_clopen.space import ZERO, Point, add, scale
from erdos_clopen.harness import (
    CLAIM_IDS,
    InvalidParamsError,
    SampleConfig,
    SplitMix64,
    _extend_seed,
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

    def test_below_accepts_exactly_one_to_two_to_the_64(self):
        rng = SplitMix64(5)
        for n in (0, -1, 2 ** 64 + 1, 2 ** 70):
            with pytest.raises(ValueError):
                rng.below(n)
        assert SplitMix64(5).below(2 ** 64) == SplitMix64(5).next_u64()
        assert rng.below(1) == 0

    def test_derive_seed_separates_streams(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(5) == derive_seed(5)

    @pytest.mark.parametrize("seed", [0, 7, 42, 2 ** 64 - 1, 2 ** 70])
    def test_extended_seed_equals_derived_seed(self, seed):
        # a draw's seed is mixed once and extended per perturbation
        for draw in (0, 1, 9999):
            draw_seed = derive_seed(seed, draw)
            for inner in (0, 1, 15):
                for salt in (2, 3, 4):
                    assert (_extend_seed(draw_seed, inner, salt)
                            == derive_seed(seed, draw, inner, salt))
        assert _extend_seed(derive_seed(seed)) == derive_seed(seed)


class TestSampleConfig:
    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            SampleConfig(max_index=0)
        with pytest.raises(InvalidParamsError):
            SampleConfig(max_numerator=0)
        with pytest.raises(InvalidParamsError):
            SampleConfig(count=-1)
        SampleConfig(max_support=0)  # allowed: forces the zero point

    @pytest.mark.parametrize("name, value", [
        ("max_numerator", 2.5), ("count", 2.5), ("count_inner", 1.5), ("seed", 1.5),
        ("max_support", True)])
    def test_fields_that_are_not_ints_are_rejected(self, name, value):
        """Caught here, not as a TypeError in the middle of `run_suite` or
        as a bool in the report's config."""
        with pytest.raises(InvalidParamsError, match=f"{name} must be an integer"):
            SampleConfig(**{name: value})

    @pytest.mark.parametrize("caps", [
        {"max_index": 2 ** 64 + 1}, {"max_numerator": 2 ** 64 + 1},
        {"max_denominator": 2 ** 64 + 1},
        {"max_support": 2 ** 64, "max_index": 2 ** 64}])
    def test_caps_past_two_to_the_64_are_rejected(self, caps):
        with pytest.raises(InvalidParamsError):
            SampleConfig(**caps)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
    def test_seeds_outside_64_bits_are_rejected(self, seed):
        """SplitMix64 keeps a seed's low 64 bits, so such a seed would draw
        the points of another seed while reporting its own."""
        with pytest.raises(InvalidParamsError, match=r"seed must be in \[0, 2\^64\)"):
            SampleConfig(seed=seed)

    @pytest.mark.parametrize("caps", [
        {"max_index": 2 ** 64, "max_numerator": 2 ** 64, "max_denominator": 2 ** 64},
        {"max_support": 2 ** 64}])
    def test_caps_of_two_to_the_64_sample(self, caps):
        config = SampleConfig(count=20, **caps)
        for draw in range(20):
            x = sample_point(config, draw)
            assert all(1 <= index <= config.max_index for index in x.support)


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


def pool_packed_direction(rng: SplitMix64, config: SampleConfig) -> Point:
    """Reference direction sampler: `pool_sample`'s choices, each run of them
    whose ranges multiply to at most 2^64 read as the mixed-radix digits
    (first choice least significant) of one rng.below(product); indices are
    popped from an explicit pool."""
    size = rng.below(min(config.max_support, config.max_index) + 1)
    pending = [config.max_index - k for k in range(size)]
    pending += [config.max_numerator, 2, config.max_denominator] * size
    digits = []
    while pending:
        run = 1
        while run < len(pending) and prod(pending[:run + 1]) <= 2 ** 64:
            run += 1
        word = rng.below(prod(pending[:run]))
        for radix in pending[:run]:
            digits.append(word % radix)
            word //= radix
        del pending[:run]
    pool = list(range(1, config.max_index + 1))
    indices = [pool.pop(pick) for pick in digits[:size]]
    coefficients = [digits[size + 3 * k:size + 3 * k + 3] for k in range(size)]
    return Point((index, F(-1 - magnitude if sign else 1 + magnitude, 1 + den))
                 for index, (magnitude, sign, den) in zip(sorted(indices), coefficients))


class ScriptedWords:
    """Stands in for SplitMix64: below(n) records n and returns the next
    scripted value."""

    def __init__(self, values):
        self.values, self.bounds = list(values), []

    def below(self, n):
        self.bounds.append(n)
        value = self.values.pop(0)
        assert 0 <= value < n
        return value


class CountingSplitMix64(SplitMix64):
    """SplitMix64 that counts the words it draws."""

    __slots__ = ("words",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.words = 0

    def next_u64(self) -> int:
        self.words += 1
        return super().next_u64()


class TestPackedChoices:
    @pytest.mark.parametrize("max_index, max_numerator, max_denominator", [
        (1, 1, 1), (2, 3, 2), (3, 2, 3), (4, 1, 5), (5, 4, 1), (6, 2, 2)])
    def test_one_word_decodes_onto_every_tuple_of_choices_once(
            self, max_index, max_numerator, max_denominator):
        """For every direction size whose choices multiply to at most 10^4,
        the words [0, N) decode onto the N tuples of choices, each once."""
        for size in range(1, max_index + 1):
            ranges = [max_index - k for k in range(size)]
            ranges += [max_numerator, 2, max_denominator] * size
            words = prod(ranges)
            if words > 10 ** 4:
                break
            decoded = []
            for word in range(words):
                rng = ScriptedWords([word])
                decoded.append(tuple(harness._packed_choices(rng, ranges)))
                assert rng.bounds == [words]
            assert sorted(decoded) == list(product(*map(range, ranges)))

    def test_a_choice_past_two_to_the_64_starts_a_new_word(self):
        ranges = [2 ** 40, 2 ** 24, 3, 2 ** 64, 2, 1, 2 ** 63 + 1]
        rng = ScriptedWords([5 + 2 ** 40 * 7, 2, 2 ** 64 - 1, 1, 9])
        assert harness._packed_choices(rng, ranges) == [5, 7, 2, 2 ** 64 - 1, 1, 0, 9]
        assert rng.bounds == [2 ** 64, 3, 2 ** 64, 2, 2 ** 63 + 1]
        assert not rng.values

    def test_default_caps_draw_one_word_per_empty_direction_and_two_otherwise(
            self, monkeypatch):
        """Over the seed-42 C2 to C4 perturbations, one `below` for the size
        and one for the rest of a non-empty direction; `below`'s rejection
        step redraws 16 of those words, pinned, and recounted when a draw's
        perturbations came to share one stream (17 when each had its own);
        the wrapper hands the stream's state back."""
        counts = {"perturbations": 0, "nonempty": 0, "belows": 0, "words": 0}
        original = harness.perturb_within

        class Counted(CountingSplitMix64):
            __slots__ = ()

            def below(self, n):
                counts["belows"] += 1
                return super().below(n)

        def counted(base, bound, rng, config):
            counting = Counted(0)
            counting._state = rng._state
            y = original(base, bound, counting, config)
            rng._state = counting._state
            counts["perturbations"] += 1
            counts["nonempty"] += y is not base
            counts["words"] += counting.words
            return y

        monkeypatch.setattr(harness, "perturb_within", counted)
        config = SampleConfig(seed=42, count=100)
        assert verify_claim("C2", DEFAULT_PAIR, config).passed
        assert verify_claim("C3", DEFAULT_PAIR, config).passed
        assert verify_claim("C4", DEFAULT_SCHEDULE, config).passed
        # each draw is eligible for one of C2 and C3, and for C4
        assert counts["perturbations"] == 2 * 100 * 16
        drawn = counts["perturbations"] + counts["nonempty"]
        assert counts["belows"] == drawn
        assert counts["words"] == drawn + 16


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


def composed_perturb(base: Point, bound, rng: SplitMix64, config: SampleConfig) -> Point:
    """Reference: the direction from `pool_packed_direction` as a Point,
    scaled by the Fraction bound/(2c) with c = floor(|d|) + 1, then added
    to base."""
    direction = pool_packed_direction(rng, config)
    if direction.is_zero():
        return base
    root_ceil = floor_root(direction.norm_sq(), 2) + 1
    return add(base, scale(F(bound) / (2 * root_ceil), direction))


class TestPinnedPerturbations:
    def test_perturbation_bytes(self):
        """sha256 over 1200 perturb_within results and the draw after each:
        100 seed-42 bases, three inner streams each, and per stream a
        certificate bound, a 20-digit bound, an int bound and a
        zero-direction config. Recorded when directions were first packed
        into shared words, and checked then against `composed_perturb`. A
        and O are sign-symmetric, so the verify report alone cannot see a
        sign error in the direction."""
        config = SampleConfig(seed=42, count=100)
        no_support = SampleConfig(max_support=0, seed=42, count=100)
        lines = []
        for draw in range(config.count):
            base = sample_point(config, draw)
            radius = openness_radius if in_A(base, DEFAULT_PAIR) else closedness_radius
            cert_bound = radius(base, DEFAULT_PAIR).bound
            big = SplitMix64(derive_seed(config.seed, draw, 7))
            cases = (
                (cert_bound, config),
                (F(10 ** 19 + big.next_u64(), 10 ** 19 + big.next_u64()), config),
                (1 + draw % 5, config),
                (cert_bound, no_support),
            )
            for inner in range(3):
                for case, (bound, case_config) in enumerate(cases):
                    rng = SplitMix64(derive_seed(config.seed, draw, inner, case))
                    y = perturb_within(base, bound, rng, case_config)
                    lines.append(json.dumps([y.to_json(), rng.next_u64()], sort_keys=True))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "03d5e3f84f5ba0415e525780bcd25390177ab56b7ed0a3e8ad2cc6c707892f40")

    def test_int_bound_is_exact(self):
        config = SampleConfig(seed=42, count=1)
        base = Point({1: F(1, 3)})
        for k in range(300):
            bound = 1 + k % 7
            ours, theirs = SplitMix64(k), SplitMix64(k)
            assert perturb_within(base, bound, ours, config) == perturb_within(
                base, F(bound), theirs, config)
            assert ours.next_u64() == theirs.next_u64()


def assert_matches_composition(base: Point, bound, seed: int, config: SampleConfig) -> Point:
    ours, theirs = SplitMix64(seed), SplitMix64(seed)
    y = perturb_within(base, bound, ours, config)
    assert y == composed_perturb(base, bound, theirs, config)
    assert ours.next_u64() == theirs.next_u64()  # same draws consumed
    return y


class TestPerturbWithin:
    def test_perturbation_stays_strictly_inside_bound(self):
        config = SampleConfig(seed=3, count=1)
        for k in range(200):
            bound = F(1, 1 + k % 17)
            y = perturb_within(ZERO, bound, SplitMix64(k), config)
            assert y.norm_sq() < bound * bound

    def test_caps_of_two_to_the_64_and_a_thousand_coordinates(self):
        """No two of these choices share a word, so the words drawn grow
        linearly with the support: one for the size and four per coordinate."""
        config = SampleConfig(max_support=1000, max_index=2 ** 64, max_numerator=2 ** 64,
                              max_denominator=2 ** 64, seed=0, count=1)
        seed = next(s for s in range(10 ** 4) if SplitMix64(s).below(1001) == 1000)
        rng = CountingSplitMix64(seed)
        bound = F(1, 3)
        y = perturb_within(ZERO, bound, rng, config)
        assert len(y.support) == 1000
        assert y.norm_sq() < bound * bound
        assert rng.words == 1 + 4 * 1000

    def test_nonzero_bases_stay_within_half_the_bound(self):
        config = SampleConfig(seed=5, count=200)
        for draw in range(config.count):
            base = sample_point(config, draw)
            bound = F(1 + draw % 11, 1 + draw % 13)
            y = perturb_within(base, bound, SplitMix64(draw), config)
            step = add(y, scale(F(-1), base))
            assert step.norm_sq() < bound ** 2
            assert 4 * step.norm_sq() < bound ** 2

    def test_zero_direction_returns_base(self):
        config = SampleConfig(max_support=0, seed=1, count=1)
        for base in (ZERO, Point({2: F(-3, 7)})):
            assert perturb_within(base, F(5, 3), SplitMix64(4), config) is base

    def test_matches_composition_on_seeded_cases(self):
        config = SampleConfig(max_support=8, max_index=10, max_numerator=9,
                              max_denominator=12, seed=8, count=300)
        for draw in range(config.count):
            base = sample_point(config, draw)
            # primes above max_denominator: coprime to every base denominator
            for bound in (F(2, 3), F(97, 101), F(10 ** 21 + 7, 13), 3):
                assert_matches_composition(base, bound, derive_seed(8, draw), config)

    def test_direction_can_cancel_a_base_coordinate(self):
        config = SampleConfig(seed=11, count=1)
        bound = F(7, 5)
        for seed in range(40):
            step = composed_perturb(ZERO, bound, SplitMix64(seed), config)
            if step.is_zero():
                continue
            index = step.support[0]
            base = Point({index: -step.coordinate(index), 13: F(1, 2)})
            y = assert_matches_composition(base, bound, seed, config)
            assert index not in y.support
            assert len(y.support) == len(step.support)

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=15),
                              st.fractions(min_value=-9, max_value=9, max_denominator=30)),
                    max_size=7, unique_by=lambda t: t[0]),
           st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6),
           st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=15),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_composition(self, entries, bound, seed, support, numerator,
                                 denominator):
        config = SampleConfig(max_support=support, max_index=15, max_numerator=numerator,
                              max_denominator=denominator, seed=0, count=1)
        assert_matches_composition(Point(entries), bound, seed, config)


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


class TestRadiusClaimsShareOneLoop:
    @pytest.mark.parametrize("claim, counted, idle", [
        ("C2", "closedness_radius", "openness_radius"),
        ("C3", "openness_radius", "closedness_radius")])
    def test_one_certificate_per_eligible_draw(self, monkeypatch, claim, counted, idle):
        """C2 and C3 call their radius through the module global, once per
        eligible draw, so a rebound global sees every call."""
        calls = {counted: 0, idle: 0}

        def counting(name):
            original = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(harness, name, counting(name))
        config = SampleConfig(seed=7, count=120, count_inner=2)
        report = verify_claim(claim, DEFAULT_PAIR, config)
        assert report.passed
        outside = sum(not in_A(sample_point(config, draw), DEFAULT_PAIR)
                      for draw in range(config.count))
        assert report.eligible == (outside if claim == "C2" else config.count - outside)
        assert 0 < report.eligible < config.count
        assert calls == {counted: report.eligible, idle: 0}


def test_c4_decides_membership_once_per_draw(monkeypatch):
    """One first_failing_n for the identity and one per draw: the O
    certificate does not decide membership again."""
    from erdos_clopen import clopen

    calls = []
    original = clopen.first_failing_n
    for module in (clopen, harness):
        monkeypatch.setattr(module, "first_failing_n",
                            lambda *args: calls.append(args) or original(*args))
    config = SampleConfig(seed=42, count=1000, count_inner=0)
    assert verify_claim("C4", DEFAULT_SCHEDULE, config).passed
    assert len(calls) == config.count + 1


def recorded_perturbations(monkeypatch, claim, params, config):
    """The perturbed points `verify_claim` builds, in order, split into one
    list per eligible draw, with the draw's base point first."""
    made = []
    original = harness.perturb_within

    def recording(base, *args):
        y = original(base, *args)
        made.append((base, y))
        return y

    monkeypatch.setattr(harness, "perturb_within", recording)
    assert verify_claim(claim, params, config).passed
    inner = config.count_inner
    return [[made[k][0]] + [y for _, y in made[k:k + inner]]
            for k in range(0, len(made), inner)]


class TestOneStreamPerDraw:
    """Perturbation k of draw d in a claim with salt s takes the k-th
    direction of the one stream derive_seed(seed, d, s)."""

    def test_perturbations_follow_a_reference_loop(self, monkeypatch):
        config = SampleConfig(seed=42, count=60, count_inner=5)
        expected = []
        for draw in range(config.count):
            x = sample_point(config, draw)
            if in_A(x, DEFAULT_PAIR):
                bound = openness_radius(x, DEFAULT_PAIR).bound
                rng = SplitMix64(derive_seed(config.seed, draw, 3))
                expected.append([x] + [composed_perturb(x, bound, rng, config)
                                       for _ in range(config.count_inner)])
        assert recorded_perturbations(monkeypatch, "C3", DEFAULT_PAIR, config) == expected
        assert len(expected) == 26

    @pytest.mark.parametrize("claim, params", [("C2", DEFAULT_PAIR),
                                               ("C4", DEFAULT_SCHEDULE)])
    def test_first_perturbations_do_not_depend_on_the_count(self, monkeypatch, claim,
                                                            params):
        few = recorded_perturbations(
            monkeypatch, claim, params, SampleConfig(seed=7, count=40, count_inner=3))
        many = recorded_perturbations(
            monkeypatch, claim, params, SampleConfig(seed=7, count=40, count_inner=16))
        assert len(few) == len(many) > 0
        assert [draw[:4] for draw in many] == few

    def test_a_draw_mixes_one_seed(self, monkeypatch):
        """A C3 draw builds three generators for its base point (two mixes
        and its stream) and an eligible one four for its perturbations
        (three mixes and its stream), whatever the count of perturbations."""
        built = []

        class Counted(SplitMix64):
            __slots__ = ()

            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(harness, "SplitMix64", Counted)
        for inner in (0, 1, 16):
            built.clear()
            report = verify_claim("C3", DEFAULT_PAIR,
                                  SampleConfig(seed=42, count=50, count_inner=inner))
            assert len(built) == 3 * report.samples_run + 4 * report.eligible
            assert report.eligible == 22


class TestWitnessRays:
    def test_ray_direction_is_a_packed_direction(self, monkeypatch):
        """A C5 or Remark ray points along `pool_packed_direction`'s draw
        from the stream after the radius, or along a drawn unit vector when
        that draw is zero; the stream is left where the reference leaves it."""
        monkeypatch.setattr(harness, "ray_source", lambda direction: direction)
        config = SampleConfig(seed=42, count=300)
        zero = 0
        for draw in range(config.count):
            seed = derive_seed(config.seed, draw, 5)
            ours, theirs = SplitMix64(seed), SplitMix64(seed)
            for rng in (ours, theirs):
                rng.below(config.max_numerator), rng.below(config.max_denominator)
            expected = pool_packed_direction(theirs, config)
            if expected.is_zero():
                zero += 1
                expected = Point({1 + theirs.below(config.max_index): 1})
            assert harness._synthetic_source(ours, config) == expected
            assert ours.next_u64() == theirs.next_u64()
        assert 0 < zero < config.count


class TestPinnedViolationRecords:
    def test_flipped_perturbations_give_pinned_records(self, monkeypatch):
        """Flip the membership of every perturbed point, and only of those,
        so each C2-C4 perturbation is recorded as a violation; sha256 of the
        three reports, recorded once and pinned, and recorded again when
        perturbation directions were packed into shared words and when a
        draw's perturbations came to share one stream."""
        from erdos_clopen import harness

        perturbed = {}  # id -> point; holding the points keeps their ids unused
        original_perturb = harness.perturb_within

        def remembering_perturb(*args):
            y = original_perturb(*args)
            perturbed[id(y)] = y
            return y

        def flipped(test):
            def membership(x, params):
                member = test(x, params)
                return not member if perturbed.get(id(x)) is x else member
            return membership

        monkeypatch.setattr(harness, "perturb_within", remembering_perturb)
        monkeypatch.setattr(harness, "in_A", flipped(harness.in_A))
        monkeypatch.setattr(harness, "in_O", flipped(harness.in_O))
        config = SampleConfig(seed=42, count=80, count_inner=3)
        reports = [verify_claim("C2", DEFAULT_PAIR, config),
                   verify_claim("C3", DEFAULT_PAIR, config),
                   verify_claim("C4", DEFAULT_SCHEDULE, config)]
        assert [len(r.violations) for r in reports] == [132, 108, 240]
        text = "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "08ac1204cb3778bde80ca185779e2d47cedf8855815e6fbe6ffb2b68ff12bea8")


class TestConstructionFailedRecords:
    """C5 and Remark record a draw as "construction failed" when building
    its witness raises; the records below were recorded once, before the
    two claims shared one loop, and pinned."""

    @staticmethod
    def reports(config):
        return [verify_claim("C5", DEFAULT_SCHEDULE, config),
                verify_claim("Remark", DEFAULT_SCHEDULE, config)]

    @staticmethod
    def assert_records(reports, detail_prefix):
        for report, key in zip(reports, ("r_star", "eps")):
            assert report.eligible == report.samples_run
            for record in report.violations:
                assert set(record) == {"draw", "detail", key}  # no point
                assert record["detail"].startswith(detail_prefix)
        return "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in reports)

    def test_one_construction_per_draw(self, monkeypatch):
        calls = []
        build = harness.construct_witness

        def counted(v, schedule):
            calls.append(v.ball_radius)
            return build(v, schedule)

        monkeypatch.setattr(harness, "construct_witness", counted)
        counts = []
        for claim in ("C5", "Remark"):
            start = len(calls)
            assert verify_claim(claim, DEFAULT_SCHEDULE, SampleConfig(seed=42, count=40)).passed
            counts.append(len(calls) - start)
        assert counts == [40, 40]

    def test_raising_builder_gives_pinned_records(self, monkeypatch):
        """The one builder, shared by C5 and Remark, raises on every radius
        with an odd numerator."""
        from erdos_clopen import harness

        def raising(build, radius_of):
            def builder(*args):
                radius = radius_of(*args)
                if radius.numerator % 2:
                    raise RuntimeError(f"no witness for {radius}")
                return build(*args)
            return builder

        monkeypatch.setattr(harness, "construct_witness", raising(
            harness.construct_witness, lambda v, schedule: v.ball_radius))
        reports = self.reports(SampleConfig(seed=42, count=40))
        assert [len(r.violations) for r in reports] == [31, 29]
        assert reports[0].violations[0] == {
            "draw": 0, "detail": "construction failed: RuntimeError('no witness for 5/7')",
            "r_star": "5/7"}
        text = self.assert_records(reports, "construction failed: RuntimeError('no witness")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "91f776bc4fce1c9a812a57797116dfc587227ee68089509509a277a9373b337f")

    def test_failing_witness_check_gives_pinned_records(self, monkeypatch):
        """Every witness with an odd m* reports its z_outside_O check as
        failed, so `construct_witness` raises AssertionError. m* depends on
        the radius alone, so the failing draws stay put; the records were
        recorded again when the rays' directions were packed into shared
        words, since the message carries the witness's points."""
        from erdos_clopen import witness

        original = witness.verify_witness

        def failing_on_odd_m_star(x, y, z, m_star, *args):
            checks = original(x, y, z, m_star, *args)
            if m_star % 2:
                checks[-1] = dict(checks[-1], holds=False)
            return checks

        monkeypatch.setattr(witness, "verify_witness", failing_on_odd_m_star)
        reports = self.reports(SampleConfig(seed=42, count=40))
        assert [len(r.violations) for r in reports] == [25, 21]
        text = self.assert_records(
            reports, "construction failed: AssertionError(\"witness construction "
                     "produced a failing check: [{'check': 'y_in_ball'")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fcdfcbb74d8709b2f9be3010939a6be74f6025d764f53da53ad80ff11cd9ba01")


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

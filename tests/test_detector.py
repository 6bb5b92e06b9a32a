import hashlib
import json
import math
from fractions import Fraction

import pytest

from carmlab.detector import (Basis, DetectorConfig, Label, Verdict,
                              default_sample_size, detect_carmichael_general)
from carmlab.errors import DomainError
from carmlab.factoring import DETERMINISTIC_WITNESS_BOUND
from carmlab.korselt import enumerate_carmichael


class TestConfig:
    def test_defaults(self):
        cfg = DetectorConfig()
        assert cfg.threshold == Fraction(45, 100)
        assert cfg.rng_seed == 0
        assert cfg.t_override is None

    def test_invalid_sample_size(self):
        with pytest.raises(DomainError):
            DetectorConfig(t_override=0)
        with pytest.raises(DomainError, match="t must be an integer"):
            DetectorConfig(t_override=1.5)

    def test_inputs_are_normalised(self):
        cfg = DetectorConfig(t_override=True, threshold=0.45)
        assert type(cfg.t_override) is int and cfg.t_override == 1
        assert cfg.threshold == Fraction(0.45)
        assert DetectorConfig(threshold="9/20").threshold == Fraction(9, 20)
        for thr in ("abc", float("nan"), float("inf"), None):
            with pytest.raises(DomainError):
                DetectorConfig(threshold=thr)

    def test_float_threshold_gives_the_verdict_of_its_exact_fraction(self):
        for n in (561, 21, 91, 1009):
            for seed in range(4):
                got = detect_carmichael_general(n, DetectorConfig(threshold=0.45, rng_seed=seed))
                want = detect_carmichael_general(
                    n, DetectorConfig(threshold=Fraction(0.45), rng_seed=seed))
                assert got.to_json_dict() == want.to_json_dict()

    def test_invalid_threshold(self):
        for thr in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(DomainError):
                DetectorConfig(threshold=thr)

    def test_default_sample_size(self):
        assert default_sample_size(561) == 40   # floor((ln 561)^2)
        assert default_sample_size(21) == 9
        assert default_sample_size(2) == 1
        assert default_sample_size(3) == 1      # floor((ln 3)^2) = 1


class TestCompositeDetector:
    def test_carmichael_always_detected(self):
        # no non-trivial witness exists, so neither exit can say otherwise
        for seed in range(20):
            verdict = detect_carmichael_general(561, DetectorConfig(rng_seed=seed))
            assert verdict.label is Label.CARMICHAEL

    def test_all_small_carmichaels_twenty_seeds(self):
        for n in enumerate_carmichael(100_000):
            for seed in range(20):
                verdict = detect_carmichael_general(n, DetectorConfig(rng_seed=seed))
                assert verdict.label is Label.CARMICHAEL, (n, seed)

    def test_dense_witnesses_expose_21(self):
        # witness share 80%: with 20 draws every one of these seeds finds one
        cfg = [DetectorConfig(t_override=20, rng_seed=s) for s in range(50)]
        verdicts = [detect_carmichael_general(21, c) for c in cfg]
        assert all(v.label is Label.OTHER_COMPOSITE for v in verdicts)
        assert all(v.basis is Basis.NON_TRIVIAL_WITNESS_FOUND for v in verdicts)

    def test_91_mostly_exposed(self):
        # witness share 60%; a 45% threshold over t=20 occasionally misses
        labels = [detect_carmichael_general(91, DetectorConfig(rng_seed=s)).label
                  for s in range(50)]
        assert labels.count(Label.OTHER_COMPOSITE) >= 40

    def test_evidence_is_rechecked_independently(self):
        for n in range(9, 2001, 2):
            cfg = DetectorConfig(rng_seed=n ^ 1)
            verdict = detect_carmichael_general(n, cfg)
            assert verdict.witnesses_found <= verdict.sample_size
            if verdict.label is Label.OTHER_COMPOSITE:
                a, g = verdict.evidence
                assert g == 1
                assert math.gcd(a, n) == 1
                assert pow(a, n - 1, n) != 1

    def test_determinism(self):
        cfg = DetectorConfig(t_override=25, threshold=Fraction(2, 5), rng_seed=99)
        first = detect_carmichael_general(8911, cfg)
        second = detect_carmichael_general(8911, cfg)
        assert first == second
        assert first.to_json_dict() == second.to_json_dict()

    def test_different_seeds_differ_somewhere(self):
        outcomes = {detect_carmichael_general(91, DetectorConfig(rng_seed=s)).witnesses_found
                    for s in range(30)}
        assert len(outcomes) > 1

    def test_small_n_rejected(self):
        for n in (1, 0, -561):
            with pytest.raises(DomainError):
                detect_carmichael_general(n)

    def test_four_is_accepted(self):
        verdict = detect_carmichael_general(4, DetectorConfig(rng_seed=0))
        assert verdict.label in (Label.CARMICHAEL, Label.OTHER_COMPOSITE)

    def test_threshold_is_configurable_and_exact(self):
        # 21 has witness share 4/5; a 99/100 threshold flips the verdict
        strict = detect_carmichael_general(
            21, DetectorConfig(t_override=200, rng_seed=5))
        lenient = detect_carmichael_general(
            21, DetectorConfig(t_override=200, rng_seed=5, threshold=Fraction(99, 100)))
        assert strict.label is Label.OTHER_COMPOSITE
        assert lenient.label is Label.CARMICHAEL
        assert lenient.basis is Basis.PROPORTION_BELOW_THRESHOLD
        # exact boundary: a proportion equal to the threshold is not below it
        exact = detect_carmichael_general(
            21, DetectorConfig(t_override=200, rng_seed=5,
                               threshold=Fraction(lenient.witnesses_found, 200)))
        assert exact.label is Label.OTHER_COMPOSITE


class TestGeneralDetector:
    def test_prime_split(self):
        verdict = detect_carmichael_general(1009, DetectorConfig(rng_seed=7))
        assert verdict.label is Label.PRIME
        assert verdict.basis is Basis.DETERMINISTIC_PRIMALITY

    def test_tiny_primes(self):
        for n in (2, 3, 5):
            assert detect_carmichael_general(n).label is Label.PRIME

    def test_carmichael(self):
        for seed in range(20):
            verdict = detect_carmichael_general(1729, DetectorConfig(rng_seed=seed))
            assert verdict.label is Label.CARMICHAEL

    def test_other_composite(self):
        verdict = detect_carmichael_general(21, DetectorConfig(rng_seed=7))
        assert verdict.label is Label.OTHER_COMPOSITE
        assert verdict.evidence is not None

    def test_below_two_rejected(self):
        with pytest.raises(DomainError):
            detect_carmichael_general(1)

    def test_seeded_verdicts_match_the_recorded_digest(self):
        # sha256 over the concatenated json.dumps(verdict.to_json_dict())
        # strings in this loop order, recorded before the composite-only
        # detector was folded into detect_carmichael_general; over composites
        # it gave the same verdicts as the general detector
        digest = hashlib.sha256()
        for n in range(2, 2000):
            for seed in (0, 1, 18):
                for t in (None, 3, 40):
                    verdict = detect_carmichael_general(
                        n, DetectorConfig(t_override=t, rng_seed=seed))
                    digest.update(json.dumps(verdict.to_json_dict()).encode())
        assert digest.hexdigest() == \
            "853f8676d642be41c67f11af0cd84686707e7afce29e3ed0239a8eb811445437"

    def test_matches_composite_mode_on_witness_path(self):
        # the composite-only detector's verdicts on these witness-path cases,
        # recorded before it was folded into detect_carmichael_general
        for n, seed, witnesses_found, evidence_a in (
                (91, 3, 10, 31), (15, 0, 5, 7), (341, 1, 23, 69), (3317, 2, 65, 232)):
            verdict = detect_carmichael_general(n, DetectorConfig(rng_seed=seed))
            assert verdict.label is Label.OTHER_COMPOSITE, n
            assert verdict.basis is Basis.NON_TRIVIAL_WITNESS_FOUND, n
            assert verdict.witnesses_found == witnesses_found, n
            assert verdict.to_json_dict()["evidence_a"] == evidence_a, n

    def test_equals_composite_detector_on_every_composite(self):
        # sha256 over the concatenated json.dumps(verdict.to_json_dict())
        # strings of the composite-only detector on every composite below
        # 2000 with seeds 0-2, recorded before it was folded into
        # detect_carmichael_general
        digest = hashlib.sha256()
        for n in range(4, 2000):
            if all(n % d for d in range(2, math.isqrt(n) + 1)):
                continue
            for seed in range(3):
                verdict = detect_carmichael_general(n, DetectorConfig(rng_seed=seed))
                digest.update(json.dumps(verdict.to_json_dict()).encode())
        assert digest.hexdigest() == \
            "360096ac7913bd7f245c5f515e2a9c1cc8c5aec5bdb275c9fa0e8716e20d1391"

    def test_prime_makes_no_draws(self, monkeypatch):
        def no_draws(n, t, rng):
            raise AssertionError(f"drew bases for the prime {n}")
        monkeypatch.setattr("carmlab.detector._sample_witnesses", no_draws)
        for n in (2, 3, 1009, 2**128 - 159):
            verdict = detect_carmichael_general(n, DetectorConfig(rng_seed=5))
            assert verdict.label is Label.PRIME
            assert verdict.sample_size == default_sample_size(n)
            assert verdict.witnesses_found == 0 and verdict.evidence is None
            assert verdict.probabilistic is (n > DETERMINISTIC_WITNESS_BOUND)
            assert verdict.basis is (Basis.PROBABLE_PRIME if verdict.probabilistic
                                     else Basis.DETERMINISTIC_PRIMALITY)

    @pytest.mark.parametrize("n, seed, record", [
        (1009, 7, {"n": 1009, "label": "Prime", "basis": "DeterministicPrimality", "t": 47,
                   "threshold": "9/20", "witnesses_found": 0, "evidence_a": None, "seed": 7}),
        (1729, 7, {"n": 1729, "label": "Carmichael", "basis": "ProportionBelowThreshold",
                   "t": 55, "threshold": "9/20", "witnesses_found": 16, "evidence_a": None,
                   "seed": 7}),
        (21, 7, {"n": 21, "label": "OtherComposite", "basis": "NonTrivialWitnessFound", "t": 9,
                 "threshold": "9/20", "witnesses_found": 8, "evidence_a": 11, "seed": 7}),
        (91, 3, {"n": 91, "label": "OtherComposite", "basis": "NonTrivialWitnessFound", "t": 20,
                 "threshold": "9/20", "witnesses_found": 10, "evidence_a": 31, "seed": 3}),
        # the paper rule's known false label: 703 = 19 * 37 with a marked share of 18/42
        (703, 18, {"n": 703, "label": "Carmichael", "basis": "ProportionBelowThreshold",
                   "t": 42, "threshold": "9/20", "witnesses_found": 18, "evidence_a": None,
                   "seed": 18}),
    ])
    def test_pinned_verdicts(self, n, seed, record):
        got = detect_carmichael_general(n, DetectorConfig(rng_seed=seed)).to_json_dict()
        assert got.pop("probabilistic") is False
        assert got == record


class TestVerdictType:
    def test_json_shape(self):
        record = detect_carmichael_general(1729, DetectorConfig(rng_seed=7)).to_json_dict()
        assert set(record) == {"n", "label", "basis", "t", "threshold",
                               "witnesses_found", "evidence_a", "seed", "probabilistic"}
        assert record["threshold"] == "9/20"
        assert record["label"] == "Carmichael"

    def test_witness_count_cannot_exceed_sample(self):
        with pytest.raises(DomainError):
            Verdict(n=21, label=Label.CARMICHAEL,
                    basis=Basis.PROPORTION_BELOW_THRESHOLD, sample_size=5,
                    witnesses_found=6, evidence=None,
                    threshold=Fraction(45, 100), seed=0)

    def test_only_prime_can_be_probabilistic(self):
        with pytest.raises(DomainError):
            Verdict(n=561, label=Label.CARMICHAEL, basis=Basis.PROBABLE_PRIME, sample_size=5,
                    witnesses_found=0, evidence=None,
                    threshold=Fraction(45, 100), seed=0)

    def test_probabilistic_exactly_when_probable_prime(self):
        for basis in (Basis.PROBABLE_PRIME, Basis.DETERMINISTIC_PRIMALITY):
            verdict = Verdict(n=2**127 - 1, label=Label.PRIME, basis=basis, sample_size=5,
                              witnesses_found=0, evidence=None,
                              threshold=Fraction(45, 100), seed=0)
            assert verdict.probabilistic is (basis is Basis.PROBABLE_PRIME)
            assert verdict.to_json_dict()["probabilistic"] is verdict.probabilistic

    def test_other_composite_requires_evidence(self):
        with pytest.raises(DomainError):
            Verdict(n=21, label=Label.OTHER_COMPOSITE,
                    basis=Basis.NON_TRIVIAL_WITNESS_FOUND, sample_size=5,
                    witnesses_found=3, evidence=None,
                    threshold=Fraction(45, 100), seed=0)

    def test_enum_wire_values(self):
        assert Label.OTHER_COMPOSITE.value == "OtherComposite"
        assert Basis.NO_NON_TRIVIAL_WITNESS_FOUND.value == "NoNonTrivialWitnessFound"

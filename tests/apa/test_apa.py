"""APA: ridge core, feature extraction, the DQN-like predictor."""

import numpy as np
import pytest

from repro.apa import (
    DeepQueueNetLike, FEATURE_NAMES, Ridge, baseline_rtt_ps, flow_features,
    standardize,
)
from repro.des import run_baseline
from repro.errors import ConfigError
from repro.metrics import normalized_w1
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Flow
from repro.units import GBPS


class TestRidge:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = X @ w
        model = Ridge(lam=1e-6).fit(X, y)
        assert np.allclose(model.weights, w, atol=1e-3)
        assert model.r2(X, y) > 0.999

    def test_shapes_validated(self):
        with pytest.raises(ConfigError):
            Ridge().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ConfigError):
            Ridge().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ConfigError):
            Ridge().predict(np.zeros((1, 2)))

    def test_standardize_round_trip(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        Z, mean, std = standardize(X)
        assert np.allclose(Z.mean(axis=0), 0)
        Z2, _, _ = standardize(X, mean, std)
        assert np.allclose(Z, Z2)


class TestFeatures:
    def test_feature_matrix_shape(self, dumbbell_scenario):
        feats = flow_features(dumbbell_scenario)
        assert feats.shape == (4, len(FEATURE_NAMES))
        assert np.isfinite(feats).all()
        assert (feats[:, -1] == 1.0).all()  # bias column

    def test_baseline_rtt_physical_floor(self, dumbbell_scenario):
        base = baseline_rtt_ps(dumbbell_scenario)
        res = run_baseline(dumbbell_scenario)
        measured_min = min(r for _t, r, _f in res.rtt_samples)
        # the unloaded estimate can never exceed the best measured RTT
        assert (base <= measured_min * 1.01).all()


class TestDqnLike:
    def _scenario(self, seed, load_bytes=120_000):
        topo = dumbbell(4, edge_rate_bps=10 * GBPS,
                        bottleneck_rate_bps=5 * GBPS)
        flows = [Flow(i, i, 4 + i, load_bytes + seed * 997 + i * 3001, 0)
                 for i in range(4)]
        return make_scenario(topo, flows)

    def _trained(self):
        pairs = []
        for seed in (1, 2, 3):
            sc = self._scenario(seed)
            pairs.append((sc, run_baseline(sc)))
        return DeepQueueNetLike().fit(pairs)

    def test_predict_before_fit_rejected(self, dumbbell_scenario):
        with pytest.raises(ConfigError):
            DeepQueueNetLike().predict(dumbbell_scenario)

    def test_prediction_shape_and_sanity(self, dumbbell_scenario):
        apa = self._trained()
        pred = apa.predict(dumbbell_scenario)
        assert pred.fct_ps.shape == (4,)
        assert (pred.fct_ps > 0).all()
        assert pred.packets_scored > 0
        assert len(pred.rtt_samples_ps) > 0

    def test_fast_but_imperfect(self):
        """The APA's defining trade-off, measured."""
        apa = self._trained()
        test = self._scenario(9)
        truth = run_baseline(test)
        pred = apa.predict(test)
        w1 = normalized_w1(pred.rtt_samples_ps,
                           [r for _t, r, _f in truth.rtt_samples])
        # approximate: not exact, not garbage
        assert 0.0 < w1 < 1.5
        # FCT magnitude in the right decade
        truth_mean = np.mean(truth.fcts_ps())
        assert 0.2 < np.mean(pred.fct_ps) / truth_mean < 5.0

    def test_empty_training_rejected(self):
        with pytest.raises(ConfigError):
            DeepQueueNetLike().fit([])

"""The APA itself: a DeepQueueNet-like performance approximator.

Training: run small packet-level simulations (the paper notes APAs are
trained on DES-produced data — one reason DES speed still matters) and
fit two regressors on per-flow targets:

* mean RTT inflation over the unloaded baseline (log-ratio),
* flow completion time (log of FCT over unloaded transfer time).

Inference: extract the same features for an unseen scenario and emit a
predicted RTT sample set and per-flow FCTs, with no packet simulation.
Wall-clock under the cost model is GPU-batch-bound
(:func:`repro.machine.cost.apa_time_s`), so the APA is fast — and, as in
Tables 1-2, measurably wrong: per-flow constants cannot express the
queueing transients packet simulation captures, yielding w1 ~ 0.4-0.6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .features import baseline_rtt_ps, flow_features
from .model import Ridge, standardize
from ..errors import ConfigError
from ..metrics import SimResults
from ..protocols.packet import segment_count
from ..scenario import Scenario


@dataclass
class ApaPrediction:
    """What the approximator emits for one scenario."""

    rtt_samples_ps: np.ndarray           # predicted RTT distribution
    fct_ps: np.ndarray                   # per-flow FCT, flow-id order
    packets_scored: int


class DeepQueueNetLike:
    """Train-on-DES, predict-per-flow approximator."""

    def __init__(self, lam: float = 1e-2) -> None:
        self.rtt_model = Ridge(lam)
        self.fct_model = Ridge(lam)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self.trained = False

    # --- training -----------------------------------------------------------

    def fit(self, pairs: Sequence[Tuple[Scenario, SimResults]]) -> "DeepQueueNetLike":
        """``pairs`` are (scenario, packet-level results) training runs."""
        if not pairs:
            raise ConfigError("no training pairs")
        X_rows: List[np.ndarray] = []
        y_rtt: List[float] = []
        y_fct: List[float] = []
        for scenario, results in pairs:
            feats = flow_features(scenario)
            base = baseline_rtt_ps(scenario)
            per_flow_rtt = _mean_rtt_by_flow(results, len(scenario.flows))
            for flow in scenario.flows:
                fid = flow.flow_id
                fr = results.flows.get(fid)
                if fr is None or fr.fct_ps is None:
                    continue
                X_rows.append(feats[fid])
                rtt = per_flow_rtt[fid]
                ratio = max(rtt / base[fid], 1.0) if rtt > 0 else 1.0
                y_rtt.append(float(np.log(ratio)))
                unloaded = max(base[fid], 1.0)
                y_fct.append(float(np.log(max(fr.fct_ps / unloaded, 1.0))))
        if not X_rows:
            raise ConfigError("training runs contained no completed flows")
        X = np.vstack(X_rows)
        X, self._mean, self._std = standardize(X)
        self.rtt_model.fit(X, np.asarray(y_rtt))
        self.fct_model.fit(X, np.asarray(y_fct))
        self.trained = True
        return self

    # --- inference ---------------------------------------------------------------

    def predict(self, scenario: Scenario) -> ApaPrediction:
        if not self.trained:
            raise ConfigError("predict() before fit()")
        feats = flow_features(scenario)
        X, _, _ = standardize(feats, self._mean, self._std)
        base = baseline_rtt_ps(scenario)
        rtt_ratio = np.exp(np.clip(self.rtt_model.predict(X), 0.0, 6.0))
        fct_ratio = np.exp(np.clip(self.fct_model.predict(X), 0.0, 12.0))
        pred_rtt = base * rtt_ratio
        pred_fct = np.maximum(base, base * fct_ratio)

        # The predicted RTT "distribution": one constant per flow,
        # weighted by the flow's packet count — per-flow aggregation is
        # exactly the fidelity the approximator gives up.
        samples: List[float] = []
        packets = 0
        for flow in scenario.flows:
            segs = segment_count(flow.size_bytes)
            packets += segs
            reps = min(segs, 64)  # cap the sample fan-out
            samples.extend([pred_rtt[flow.flow_id]] * reps)
        return ApaPrediction(
            rtt_samples_ps=np.asarray(samples),
            fct_ps=pred_fct,
            packets_scored=packets,
        )


def _mean_rtt_by_flow(results: SimResults, num_flows: int) -> np.ndarray:
    sums = np.zeros(num_flows)
    counts = np.zeros(num_flows)
    for _t, rtt, fid in results.rtt_samples:
        if 0 <= fid < num_flows:
            sums[fid] += rtt
            counts[fid] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return means

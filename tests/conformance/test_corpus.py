"""Regression corpus replay (tier-1).

Every JSON spec under ``corpus/`` re-runs through the full acceptance
oracle set; traces must be byte-identical and every reference-free
invariant must hold.  Failures found by the nightly fuzz job get their
shrunken spec checked in here so they stay fixed.
"""

from pathlib import Path

import pytest

from repro.conformance.oracles import run_oracle
from repro.conformance.runner import load_spec_file, replay_file

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))


def test_corpus_is_not_empty():
    assert len(CORPUS) >= 5


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_entry_conforms(path):
    report = replay_file(path)
    assert report.ok, report.summary()
    # Every oracle produced the same number of canonical entries.
    counts = set(report.entry_counts.values())
    assert len(counts) == 1 and counts.pop() > 0


@pytest.mark.parametrize("oracle", ["dons-numpy-ffwd",
                                    "dons-numpy-ffwd-notrace"])
def test_steady_entry_is_fast_forwarded_by_cycle_jumps(oracle):
    """The fast-forward oracles are only a gate for cycle jumps if a
    corpus scenario makes some: the steady entry (lookahead 5 us, P = 6)
    spends most of its windows inside them, traced and untraced."""
    path = Path(__file__).parent / "corpus" / "steady-udp-cycle-jump.json"
    counters = run_oracle(oracle, load_spec_file(path).build()).counters
    assert counters["memo.jump"] > 0
    assert 2 * counters["memo.jump_windows"] > counters["windows"]
    assert counters.get("memo.validate_fail", 0) == 0

"""Regression corpus replay (tier-1).

Every JSON spec under ``corpus/`` re-runs through the full acceptance
oracle set; traces must be byte-identical and every reference-free
invariant must hold.  Failures found by the nightly fuzz job get their
shrunken spec checked in here so they stay fixed.
"""

from pathlib import Path

import pytest

from repro.conformance.runner import replay_file

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


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_fused_numpy_two_workers_matches_python(path):
    """The fused pass is the only NumPy execution, so FULL tracing with
    two workers (its pooled-kernel, two-phase-commit branches, which the
    serial trace-off default never takes) is the rest of its contract."""
    pytest.importorskip("numpy")
    report = replay_file(path, ("dons-python", "dons-numpy-mt2"))
    assert report.ok, report.summary()
    assert len(set(report.entry_counts.values())) == 1

"""Checkpoint encoding: one canonical payload, sections cached per run.

Every save writes the canonical encoding of the artifact — compact
sorted-key JSON with the ``integrity`` digest of the body spliced in.
During a pipeline run an :class:`ArtifactEncoder` re-encodes only the
sections the pipeline reports as changed, so these tests check, at
every checkpoint of real runs, that the section-cached payload equals a
from-scratch encoding of ``artifact.to_dict()``. They also pin that
older indented files keep loading, that both stores hold the same
bytes, that ``<out>`` never disappears during a save, and that the
query ledger's work stays linear in the digests it is given.
"""

import json
import os

import pytest

from repro.artifacts import MemoryCheckpointStore
from repro.artifacts import store as store_module
from repro.artifacts.run import (
    artifact_digest,
    canonical_json,
    encode_artifact,
    load_artifact,
)
from repro.artifacts.store import FileCheckpointStore
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.learning.oracle import QueryLedger
from repro.targets import get_target

RUNS = [(1, "serial"), (2, "thread")]


@pytest.fixture(scope="module")
def xml():
    return get_target("xml")


@pytest.fixture(scope="module")
def seeds(xml):
    return sorted(xml.sample_seeds(4, seed=0), key=len)


def from_scratch(artifact):
    data = artifact.to_dict()
    return canonical_json(dict(data, integrity=artifact_digest(data)))


class CheckedStore(MemoryCheckpointStore):
    """Records, per save, whether the payload matched a fresh encode."""

    def __init__(self):
        super().__init__()
        self.mismatches = []
        self.cached_saves = 0

    def save(self, artifact):
        super().save(artifact)
        if artifact.encoder is not None:
            self.cached_saves += 1
        if self.snapshots[-1] != from_scratch(artifact):
            self.mismatches.append((len(self.snapshots) - 1, artifact.stage))


def learn(xml, seeds, jobs, backend, store):
    config = GladeConfig(alphabet=xml.alphabet, jobs=jobs, backend=backend)
    pipeline = LearningPipeline(xml.oracle, config=config, store=store)
    return pipeline, pipeline.run(seeds)


@pytest.mark.parametrize("jobs,backend", RUNS, ids=["serial", "thread-j2"])
def test_cached_payload_equals_fresh_encoding_at_every_checkpoint(
    xml, seeds, jobs, backend
):
    store = CheckedStore()
    _pipeline, artifact = learn(xml, seeds, jobs, backend, store)
    assert artifact.status == "complete"
    assert store.mismatches == []
    # Every save of the run went through the section cache.
    assert store.cached_saves == len(store.snapshots) > 10
    # The run detaches its encoder: later saves encode from scratch.
    assert artifact.encoder is None
    assert encode_artifact(artifact) == store.snapshots[-1]


def test_resumed_run_payloads_equal_fresh_encoding(xml, seeds):
    """A resume starts a new section cache from the loaded artifact."""
    full = CheckedStore()
    learn(xml, seeds, 2, "thread", full)
    middle = next(
        full.snapshot(index)
        for index in range(len(full.snapshots))
        if full.snapshot(index).phase2_progress.get("decisions")
    )
    store = CheckedStore()
    resumed = LearningPipeline(
        xml.oracle, config=middle.config, store=store
    ).resume(middle)
    assert resumed.status == "complete"
    assert store.mismatches == []
    assert store.snapshots


def test_snapshots_verify_on_load(xml, seeds):
    store = MemoryCheckpointStore()
    learn(xml, seeds, 1, "serial", store)
    data = json.loads(store.snapshots[-1])
    assert data["integrity"] == artifact_digest(data)
    tampered = store.snapshots[-1].replace(
        '"status":"complete"', '"status":"in_progress"'
    )
    store.snapshots.append(tampered)
    with pytest.raises(Exception, match="integrity check"):
        store.snapshot(-1)


def test_memory_and_file_stores_hold_the_same_bytes(xml, seeds, tmp_path):
    memory = MemoryCheckpointStore()
    _pipeline, artifact = learn(xml, seeds, 1, "serial", memory)
    path = tmp_path / "run.json"
    FileCheckpointStore(path).save(artifact)
    memory.save(artifact)
    assert path.read_text() == memory.snapshots[-1]


def test_indented_artifact_from_older_builds_loads(xml, seeds, tmp_path):
    """Older builds wrote ``indent=1`` JSON; its digest covers the same
    canonical body, so such files load and verify unchanged."""
    _pipeline, artifact = learn(
        xml, seeds, 1, "serial", MemoryCheckpointStore()
    )
    data = artifact.to_dict()
    data["integrity"] = artifact_digest(data)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True))
    loaded = load_artifact(path)
    assert str(loaded.grammar) == str(artifact.grammar)
    assert encode_artifact(loaded) == encode_artifact(artifact)
    store = FileCheckpointStore(path)
    assert store.load() is not None
    assert store.recovered_from is None


def test_current_checkpoint_never_missing_during_save(
    xml, seeds, tmp_path, monkeypatch
):
    """Regression: the store used to rename ``<out>`` away before
    writing the new file, so a reader polling it could find nothing."""
    path = tmp_path / "run.json"
    real_write = store_module.write_atomic
    observed = []

    def checked_write(target, payload):
        if os.path.exists(str(target) + ".prev"):
            # Rotation is done, the new payload not yet written: the
            # current file must still be there, whole and verifiable.
            load_artifact(target)
            observed.append(
                (tmp_path / "run.json.prev").read_bytes()
                == (tmp_path / "run.json").read_bytes()
            )
        real_write(target, payload)

    monkeypatch.setattr(store_module, "write_atomic", checked_write)
    learn(xml, seeds, 1, "serial", FileCheckpointStore(path))
    assert observed and all(observed)
    assert load_artifact(path).status == "complete"
    assert load_artifact(str(path) + ".prev").status != "complete"


@pytest.mark.parametrize("jobs,backend", RUNS, ids=["serial", "thread-j2"])
def test_ledger_work_is_linear_in_digests(
    xml, seeds, jobs, backend, monkeypatch
):
    """Work-counter gate: the ledger touches each digest a bounded
    number of times, however many checkpoints read its totals."""
    merged = []
    real_merge = QueryLedger.merge

    def counting_merge(self, queries, digests, holder=None):
        merged.append(len(digests))
        real_merge(self, queries, digests, holder)

    monkeypatch.setattr(QueryLedger, "merge", counting_merge)
    store = MemoryCheckpointStore()
    pipeline, artifact = learn(xml, seeds, jobs, backend, store)
    ledger = pipeline.ledger
    assert ledger.unique == artifact.unique_queries
    assert ledger.counted == artifact.oracle_queries
    assert len(store.snapshots) > 10
    assert ledger.digests_touched <= 2 * (ledger.unique + sum(merged))


class TestQueryLedger:
    def test_withdraw_drops_only_unshared_digests(self):
        ledger = QueryLedger()
        ledger.record(2)
        ledger.merge(5, (1, 2), holder="a")
        ledger.merge(7, (2, 3), holder="b")
        assert (ledger.counted, ledger.unique) == (12, 3)
        ledger.withdraw("a", 5)
        assert ledger.digests() == (2, 3)
        ledger.withdraw("b", 7)
        assert ledger.digests() == (2,)
        assert ledger.counted == 0
        assert ledger.digests_touched == 1 + 4 + 4

    def test_withdraw_of_unknown_holder_returns_queries_only(self):
        ledger = QueryLedger()
        ledger.merge(3, (9,))
        ledger.withdraw(0, 2)
        assert (ledger.counted, ledger.digests()) == (1, (9,))

    def test_digests_keep_first_recorded_order(self):
        ledger = QueryLedger()
        for digest in (5, 1, 5, 3):
            ledger.record(digest)
        ledger.merge(0, (4, 1))
        assert ledger.digests() == (5, 1, 3, 4)

"""Checkpoint hardening: content digests and generation fallback.

Acceptance criteria for the durable-store layer: a truncated or
bit-flipped checkpoint is *detected* on load (never deserialized into a
half-wrong artifact), the store falls back to the last-good generation,
and resuming from that generation re-issues zero oracle queries for
stages it already records.
"""

import json

import pytest

from repro.artifacts import RunArtifact
from repro.artifacts.run import (
    artifact_digest,
    load_artifact,
)
from repro.artifacts.schema import ArtifactCorrupt, ArtifactError
from repro.artifacts.store import FileCheckpointStore
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline

from tests.core.helpers import XML_ALPHABET, xml_like_oracle

SEEDS = ["<a>ab</a>", "xy"]


class CountingBase:
    """Counts raw oracle invocations (below any cache)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, text):
        self.calls += 1
        return self.fn(text)


def learn_to(path, oracle=xml_like_oracle):
    store = FileCheckpointStore(path)
    config = GladeConfig(alphabet=XML_ALPHABET)
    artifact = LearningPipeline(
        oracle, config=config, store=store
    ).run(SEEDS)
    return artifact, store


class TestArtifactDigest:
    def test_save_embeds_digest_and_load_verifies(self, tmp_path):
        path = tmp_path / "run.json"
        artifact, _store = learn_to(path)
        data = json.loads(path.read_text())
        assert data["integrity"] == artifact_digest(data)
        loaded = load_artifact(path)
        assert str(loaded.grammar) == str(artifact.grammar)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "run.json"
        learn_to(path)
        text = path.read_text()
        # Truncate *inside* the JSON so the damage is a parse error.
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_bitflip_detected(self, tmp_path):
        # A corruption that keeps the JSON well-formed is exactly what
        # the digest exists for.
        path = tmp_path / "run.json"
        learn_to(path)
        data = json.loads(path.read_text())
        data["oracle_queries"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactCorrupt):
            load_artifact(path)

    def test_pre_digest_artifact_still_loads(self, tmp_path):
        # Artifacts written before the integrity field existed carry no
        # digest; they load unverified rather than being rejected.
        path = tmp_path / "run.json"
        artifact, _store = learn_to(path)
        data = json.loads(path.read_text())
        del data["integrity"]
        path.write_text(json.dumps(data))
        loaded = load_artifact(path)
        assert str(loaded.grammar) == str(artifact.grammar)


class TestGenerationFallback:
    def test_saves_rotate_previous_generation(self, tmp_path):
        path = tmp_path / "run.json"
        _artifact, store = learn_to(path)
        assert (tmp_path / "run.json.prev").exists()
        # The previous generation is the checkpoint just before the
        # final save: an earlier, still-verifiable snapshot.
        previous = load_artifact(store.previous_path)
        assert isinstance(previous, RunArtifact)
        assert previous.status != "complete"

    def test_corrupt_current_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "run.json"
        learn_to(path)
        path.write_text(path.read_text()[:40])
        store = FileCheckpointStore(path)
        recovered = store.load()
        assert recovered is not None
        assert store.recovered_from == store.previous_path

    def test_missing_current_serves_previous(self, tmp_path):
        path = tmp_path / "run.json"
        learn_to(path)
        path.unlink()
        store = FileCheckpointStore(path)
        assert store.load() is not None
        assert store.recovered_from == store.previous_path

    def test_both_generations_bad_raises_current_error(self, tmp_path):
        path = tmp_path / "run.json"
        learn_to(path)
        data = json.loads(path.read_text())
        data["oracle_queries"] += 1
        path.write_text(json.dumps(data))
        (tmp_path / "run.json.prev").write_text("{not json")
        store = FileCheckpointStore(path)
        with pytest.raises(ArtifactCorrupt):
            store.load()

    def test_load_without_any_generation_returns_none(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "missing.json")
        assert store.load() is None

    def test_keep_previous_false_raises_on_corruption(self, tmp_path):
        path = tmp_path / "run.json"
        store = FileCheckpointStore(path, keep_previous=False)
        config = GladeConfig(alphabet=XML_ALPHABET)
        LearningPipeline(
            xml_like_oracle, config=config, store=store
        ).run(SEEDS)
        assert not (tmp_path / "run.json.prev").exists()
        path.write_text(path.read_text()[:40])
        with pytest.raises(ArtifactError):
            FileCheckpointStore(path, keep_previous=False).load()


class TestResumeAfterCorruption:
    def test_resume_from_last_good_reissues_zero_queries(self, tmp_path):
        path = tmp_path / "run.json"
        reference, _store = learn_to(path)
        # Corrupt the final checkpoint; the last-good generation is the
        # pre-finalize save, whose recorded stages are all intact.
        path.write_text(path.read_text()[: 40])
        store = FileCheckpointStore(path)
        recovered = store.load()
        assert store.recovered_from is not None
        assert recovered.status != "complete"

        oracle = CountingBase(xml_like_oracle)
        config = GladeConfig(alphabet=XML_ALPHABET)
        resumed = LearningPipeline(
            oracle, config=config, store=store
        ).resume(recovered)
        assert resumed.status == "complete"
        # Every oracle-bearing stage was checkpointed before the lost
        # save: the resume replays no queries at all.
        assert oracle.calls == 0
        assert str(resumed.grammar) == str(reference.grammar)
        assert resumed.oracle_queries == reference.oracle_queries

"""Pluggable checkpoint stores for the learning pipeline.

The pipeline calls :meth:`CheckpointStore.save` after every completed
stage (per seed during phase one). A store decides what durability
means: :class:`FileCheckpointStore` writes the artifact's canonical
payload (:func:`~repro.artifacts.run.encode_artifact`) atomically to
disk (the CLI's ``learn --out`` / ``resume`` path);
:class:`MemoryCheckpointStore` keeps the same payloads in memory and
loads them through the same verifying decoder, so tests that resume
from a mid-run snapshot exercise exactly the bytes a crash-and-reload
would; :class:`NullCheckpointStore` does nothing (the default for
in-process :func:`~repro.core.glade.learn_grammar` calls, which then
pay zero serialization overhead).
"""

from __future__ import annotations

import os
import shutil
from typing import List, Optional, Union

from repro.artifacts.run import (
    RunArtifact,
    decode_artifact,
    encode_artifact,
    load_artifact,
    write_atomic,
)
from repro.artifacts.schema import ArtifactError


class CheckpointStore:
    """Interface: persist run artifacts and load the latest one back."""

    def save(self, artifact: RunArtifact) -> None:
        raise NotImplementedError

    def load(self) -> Optional[RunArtifact]:
        """Return the most recently saved artifact, or None if none exists."""
        raise NotImplementedError


class NullCheckpointStore(CheckpointStore):
    """A store that never persists anything."""

    def save(self, artifact: RunArtifact) -> None:
        pass

    def load(self) -> Optional[RunArtifact]:
        return None


class MemoryCheckpointStore(CheckpointStore):
    """Keep every checkpoint's payload in memory, for tests.

    ``snapshots`` grows by one entry per save: the exact payload
    :class:`FileCheckpointStore` would write, integrity digest
    included. ``snapshot(i)`` verifies and decodes entry ``i`` into a
    fresh :class:`RunArtifact` — resuming from it reproduces a crash
    that lost everything after that save.
    """

    def __init__(self):
        self.snapshots: List[str] = []

    def save(self, artifact: RunArtifact) -> None:
        self.snapshots.append(encode_artifact(artifact))

    def load(self) -> Optional[RunArtifact]:
        if not self.snapshots:
            return None
        return self.snapshot(-1)

    def snapshot(self, index: int) -> RunArtifact:
        return decode_artifact(
            self.snapshots[index], "checkpoint snapshot {}".format(index)
        )


class FileCheckpointStore(CheckpointStore):
    """Persist checkpoints to one JSON file, atomically, with a spare.

    Each save first hard-links the current checkpoint to
    ``<path>.prev`` (the *last-good generation*), then writes the new
    payload to a temporary file and renames it over ``<path>``
    atomically. Neither step removes ``<path>``, so it always names a
    complete checkpoint — a crash mid-write leaves the previous one in
    place, and a reader polling the file never finds it missing.
    Every payload embeds a content digest (see
    :func:`~repro.artifacts.run.encode_artifact`), and when the current
    file fails verification on load — truncated by a dying disk,
    bit-flipped, hand-edited — :meth:`load` falls back to the previous
    generation instead of refusing to resume, recording the fallback in
    :attr:`recovered_from` so the CLI can tell the user. Resuming from
    the previous generation merely re-runs whatever the lost save had
    added; completed stages re-issue zero queries.
    """

    def __init__(
        self, path: Union[str, os.PathLike], keep_previous: bool = True
    ):
        self.path = path
        self.keep_previous = keep_previous
        #: Set by :meth:`load` when the current checkpoint was corrupt
        #: and the previous generation was loaded instead.
        self.recovered_from: Optional[str] = None

    @property
    def previous_path(self) -> str:
        return str(self.path) + ".prev"

    def save(self, artifact: RunArtifact) -> None:
        payload = encode_artifact(artifact)
        if self.keep_previous and os.path.exists(self.path):
            self._keep_as_previous()
        write_atomic(self.path, payload)

    def _keep_as_previous(self) -> None:
        """Make ``<path>.prev`` the current checkpoint while ``<path>``
        itself stays in place.

        Unlink-then-link rather than renaming a link over the old
        ``.prev``: a rename over an existing file makes some
        filesystems (ext4) flush the renamed file's data first, a cost
        ``<path>`` already paid when it was written.
        """
        previous = self.previous_path
        try:
            os.unlink(previous)
        except FileNotFoundError:
            pass
        try:
            os.link(self.path, previous)
        except OSError:
            # A filesystem without hard links pays for a copy instead.
            shutil.copyfile(self.path, previous)

    def load(self) -> Optional[RunArtifact]:
        self.recovered_from = None
        if os.path.exists(self.path):
            try:
                return load_artifact(self.path)
            except ArtifactError as current_error:
                if not (
                    self.keep_previous
                    and os.path.exists(self.previous_path)
                ):
                    raise
                try:
                    artifact = load_artifact(self.previous_path)
                except ArtifactError:
                    # Both generations bad: report the current file's
                    # failure, which is the actionable one.
                    raise current_error from None
                self.recovered_from = self.previous_path
                return artifact
        if self.keep_previous and os.path.exists(self.previous_path):
            # The current file vanished (deleted by hand, or left by an
            # older build that rotated before writing): the previous
            # generation is the newest checkpoint.
            artifact = load_artifact(self.previous_path)
            self.recovered_from = self.previous_path
            return artifact
        return None

"""The top-level run artifact: everything one learning run produces.

A :class:`RunArtifact` is the durable record of a
:class:`~repro.core.pipeline.LearningPipeline` run — seeds with
provenance and per-seed state, the configuration, the oracle command
(so ``repro resume`` can reconstruct the oracle), per-seed phase-one
results, the translated/merged grammar, accumulated query statistics,
and per-stage wall-clock timings. It holds *live* objects (``Regex``,
``GRoot``, ``Grammar``); :meth:`to_dict`/:meth:`from_dict` convert to
and from the versioned JSON encoding of
:mod:`repro.artifacts.schema`.

The same object doubles as the checkpoint format: the pipeline saves it
after every completed stage (per seed during phase one), and
:meth:`~repro.core.pipeline.LearningPipeline.resume` picks up from
whatever the last save recorded.

On disk an artifact is its canonical encoding: compact JSON with sorted
keys, plus an ``integrity`` member holding the SHA-256 of that encoding
without the member. :class:`ArtifactEncoder` produces it once per save
and, during a pipeline run, re-encodes only the sections the pipeline
reports as changed (see :meth:`RunArtifact.changed`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.artifacts.schema import (
    SCHEMA_VERSION,
    ArtifactCorrupt,
    ArtifactError,
    grammar_from_dict,
    grammar_to_dict,
    phase1_result_from_dict,
    phase1_result_to_dict,
    phase2_result_from_dict,
    phase2_result_to_dict,
)
from repro.core.glade import GladeConfig, GladeResult
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import Phase2Result
from repro.languages.cfg import Grammar

#: Pipeline stages in execution order; ``RunArtifact.stage`` names the
#: last *completed* one ("init" before any stage has finished).
STAGES = ("validate", "phase1", "translate", "phase2", "finalize")

#: Seed lifecycle states.
SEED_PENDING = "pending"  # not yet validated against the oracle
SEED_VALIDATED = "validated"  # accepted by the oracle, not yet learned
SEED_LEARNED = "learned"  # phase 1 done on a worker; §6.1 filter pending
SEED_USED = "used"  # phase 1 + chargen completed, kept
SEED_SKIPPED = "skipped"  # covered by an earlier seed's regex (§6.1)


@dataclass
class SeedRecord:
    """One seed input with provenance and lifecycle state.

    ``source`` says where the seed came from (``seeds.txt:3``,
    ``--seed[0]``, a file path, ...) so oracle rejections in large
    ``--seed-dir`` runs are diagnosable. ``queries`` counts the oracle
    queries spent learning this seed (phase 1 + chargen), recorded when
    the seed's checkpoint is written; ``seconds`` is the seed's worker
    wall-clock for the same work.
    """

    text: str
    source: str = ""
    state: str = SEED_PENDING
    queries: int = 0
    seconds: float = 0.0


@dataclass
class RunArtifact:
    """Serializable record of a (possibly in-progress) learning run."""

    seeds: List[SeedRecord]
    config: GladeConfig = field(default_factory=GladeConfig)
    #: Oracle reconstruction info for ``repro resume`` (None when the
    #: oracle was an in-process callable that cannot be persisted).
    oracle_spec: Optional[Dict[str, Any]] = None
    #: Last completed stage; see :data:`STAGES`.
    stage: str = "init"
    status: str = "in_progress"  # "in_progress" | "complete"
    phase1_results: List[Phase1Result] = field(default_factory=list)
    grammar: Optional[Grammar] = None
    phase2_result: Optional[Phase2Result] = None
    oracle_queries: int = 0
    unique_queries: int = 0
    #: Oracle queries spent on speculative phase-1 work that the §6.1
    #: covered-seed filter later discarded (parallel runs learn every
    #: validated seed concurrently; a sequential run would have skipped
    #: covered ones). Excluded from ``oracle_queries`` so reported
    #: metrics match a serial run exactly.
    speculative_queries: int = 0
    #: Resolved execution backend + worker count of the (last) phase-1
    #: run, e.g. ``{"backend": "process", "jobs": 4}``.
    execution: Dict[str, Any] = field(default_factory=dict)
    #: Phase-2 execution record and committed-pair progress (schema
    #: v3): ``backend``/``jobs`` of the (last) phase-2 run, ``pairs``
    #: (the plan's total), and ``decisions`` — one ``merged`` /
    #: ``rejected`` / ``skipped`` entry per committed pair, in plan
    #: order. Replaying the decisions against the (deterministic) plan
    #: resumes phase 2 from the last committed pair with zero queries.
    phase2_progress: Dict[str, Any] = field(default_factory=dict)
    #: Per-stage wall-clock seconds, accumulated across resumes.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Versioned observability section (schema v4, ``--trace`` runs
    #: only): spans and the metrics-registry snapshot, see
    #: :mod:`repro.obs.export`. Wall-clock telemetry by nature — never
    #: part of any deterministic comparison surface.
    telemetry: Optional[Dict[str, Any]] = None
    schema_version: int = SCHEMA_VERSION
    #: Section cache for checkpoint encoding, attached by the pipeline
    #: for the duration of a run (see :meth:`changed`). Not serialized.
    encoder: Optional["ArtifactEncoder"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def changed(self, *sections: str) -> None:
        """Report that the named top-level sections were modified.

        While an :class:`ArtifactEncoder` is attached, every mutation
        of a section in :data:`CACHED_SECTIONS` must be reported here
        before the next save, or the save would write the section's
        previous encoding. Without an encoder this is a no-op.
        """
        if self.encoder is not None:
            self.encoder.changed(*sections)

    # -- derived views ----------------------------------------------------

    def stage_done(self, stage: str) -> bool:
        """True if ``stage`` (and every earlier stage) has completed."""
        if self.stage == "init":
            return False
        return STAGES.index(self.stage) >= STAGES.index(stage)

    def trees(self):
        """Kept trees in seed order (results may arrive out of order
        under parallel execution; the sort is stable for ad-hoc results
        without a ``seed_index``)."""
        ordered = sorted(self.phase1_results, key=lambda r: r.seed_index)
        return [result.root for result in ordered]

    def regexes(self):
        return [root.to_regex() for root in self.trees()]

    def seeds_used(self) -> List[str]:
        return [s.text for s in self.seeds if s.state == SEED_USED]

    def seeds_skipped(self) -> List[str]:
        return [s.text for s in self.seeds if s.state == SEED_SKIPPED]

    def duration_seconds(self) -> float:
        return sum(self.timings.values())

    def require_grammar(self) -> Grammar:
        """The learned grammar, or :class:`ArtifactError` if the run has
        not reached translation yet (resume the run first)."""
        if self.grammar is None:
            raise ArtifactError(
                "artifact has no grammar yet (stage: {}); resume the "
                "run first".format(self.stage)
            )
        return self.grammar

    def to_glade_result(self) -> GladeResult:
        """View the completed run as a :class:`~repro.core.glade.GladeResult`."""
        self.require_grammar()
        return GladeResult(
            grammar=self.grammar,
            regexes=self.regexes(),
            trees=self.trees(),
            seeds_used=self.seeds_used(),
            seeds_skipped=self.seeds_skipped(),
            phase1_results=self.phase1_results,
            phase2_result=self.phase2_result,
            oracle_queries=self.oracle_queries,
            unique_queries=self.unique_queries,
            duration_seconds=self.duration_seconds(),
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {name: build(self) for name, build in _MEMBERS.items()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunArtifact":
        if not isinstance(data, dict) or data.get("kind") != "glade-run":
            raise ArtifactError(
                "not a glade-run artifact (kind: {!r})".format(
                    data.get("kind") if isinstance(data, dict) else None
                )
            )
        version = data.get("schema_version")
        if version == 1:
            # v1 artifacts upgrade in place: the only structural gap is
            # that phase-1 results carry no seed_index. v1 runs were
            # strictly sequential, so results parallel the "used"
            # seeds in order.
            data = _upgrade_v1(data)
            version = 2
        if version == 2:
            # v2 → v3 adds only the optional ``phase2_progress`` record.
            # A v2 checkpoint either finished phase 2 (stage beyond it)
            # or never started it (v2 builds checkpointed phase 2 only
            # on stage completion), so an empty progress record is
            # exactly right: resume re-runs the stage from its start.
            data = dict(data, schema_version=3)
            version = 3
        if version == 3:
            # v3 → v4 adds only the optional ``telemetry`` section;
            # absent means the run was not traced.
            data = dict(data, schema_version=SCHEMA_VERSION)
            version = SCHEMA_VERSION
        if version != SCHEMA_VERSION:
            raise ArtifactError(
                "artifact schema version {!r} is not supported by this "
                "build (expected {}); re-learn or convert the artifact".format(
                    version, SCHEMA_VERSION
                )
            )
        try:
            stage = data["stage"]
            if stage != "init" and stage not in STAGES:
                raise ArtifactError(
                    "unknown pipeline stage: {!r}".format(stage)
                )
            return cls(
                seeds=[SeedRecord(**record) for record in data["seeds"]],
                config=GladeConfig(**data["config"]),
                oracle_spec=data.get("oracle"),
                stage=stage,
                status=data["status"],
                phase1_results=[
                    phase1_result_from_dict(r) for r in data["phase1_results"]
                ],
                grammar=(
                    grammar_from_dict(data["grammar"])
                    if data["grammar"] is not None
                    else None
                ),
                phase2_result=(
                    phase2_result_from_dict(data["phase2_result"])
                    if data["phase2_result"] is not None
                    else None
                ),
                oracle_queries=data["oracle_queries"],
                unique_queries=data["unique_queries"],
                speculative_queries=data.get("speculative_queries", 0),
                execution=dict(data.get("execution") or {}),
                phase2_progress=_copy_progress(
                    data.get("phase2_progress") or {}
                ),
                timings=dict(data["timings"]),
                telemetry=data.get("telemetry"),
                schema_version=version,
            )
        except (KeyError, TypeError) as exc:
            raise ArtifactError(
                "malformed run artifact: {!r}".format(exc)
            )


def _upgrade_v1(data: Dict[str, Any]) -> Dict[str, Any]:
    """Upgrade a schema-v1 artifact dict to the current encoding.

    Checkpoints are the one thing the artifact subsystem exists to
    preserve, so a schema bump must not strand in-progress v1 runs.
    Input is not mutated; the added fields (``speculative_queries``,
    ``execution``, per-seed ``seconds``) fall back to the loader's
    defaults."""
    upgraded = dict(data)
    try:
        seeds = data["seeds"]
        results = data["phase1_results"]
    except KeyError as exc:
        raise ArtifactError("malformed run artifact: {!r}".format(exc))
    used = [
        index for index, seed in enumerate(seeds)
        if isinstance(seed, dict) and seed.get("state") == SEED_USED
    ]
    if len(used) != len(results):
        raise ArtifactError(
            "v1 artifact has {} phase-1 results for {} used seeds; "
            "cannot upgrade".format(len(results), len(used))
        )
    upgraded["schema_version"] = 2
    upgraded["phase1_results"] = [
        dict(result, seed_index=seed_index)
        for seed_index, result in zip(used, results)
    ]
    return upgraded


def _copy_progress(progress: Dict[str, Any]) -> Dict[str, Any]:
    """Copy a phase-2 progress record, snapshotting the decision list.

    The pipeline keeps the committer's live decision list in the
    artifact while the stage runs; serialization must not alias it.
    """
    copied = dict(progress)
    if "decisions" in copied:
        copied["decisions"] = list(copied["decisions"])
    return copied


#: Top-level members of the artifact encoding, in :meth:`RunArtifact
#: .to_dict` order, each with the function that builds its JSON value.
_MEMBERS: Dict[str, Callable[[RunArtifact], Any]] = {
    "schema_version": lambda a: a.schema_version,
    "kind": lambda a: "glade-run",
    "status": lambda a: a.status,
    "stage": lambda a: a.stage,
    "seeds": lambda a: [asdict(record) for record in a.seeds],
    "config": lambda a: asdict(a.config),
    "oracle": lambda a: a.oracle_spec,
    "phase1_results": lambda a: [
        phase1_result_to_dict(r) for r in a.phase1_results
    ],
    "grammar": lambda a: (
        grammar_to_dict(a.grammar) if a.grammar is not None else None
    ),
    "phase2_result": lambda a: (
        phase2_result_to_dict(a.phase2_result)
        if a.phase2_result is not None
        else None
    ),
    "oracle_queries": lambda a: a.oracle_queries,
    "unique_queries": lambda a: a.unique_queries,
    "speculative_queries": lambda a: a.speculative_queries,
    "execution": lambda a: dict(a.execution),
    "phase2_progress": lambda a: _copy_progress(a.phase2_progress),
    "timings": lambda a: dict(a.timings),
    "telemetry": lambda a: a.telemetry,
}

#: Sections an :class:`ArtifactEncoder` keeps encoded between saves:
#: the large ones, which the pipeline changes only at a few points, and
#: ``config``, which no run changes. ``phase2_progress`` is cached in
#: part: its decision log is append-only, so a save encodes just the
#: decisions added since the previous one. Every other member is small
#: and encoded on every save.
CACHED_SECTIONS = (
    "config",
    "seeds",
    "phase1_results",
    "grammar",
    "phase2_result",
    "phase2_progress",
)

#: The canonical encoding: compact, sorted keys, ASCII-only.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
).encode

#: Member names in canonical (sorted) order, without and with the
#: ``integrity`` member.
_ORDER = tuple(sorted(_MEMBERS))
_SIGNED_ORDER = tuple(sorted(_ORDER + ("integrity",)))


class ArtifactEncoder:
    """Canonical checkpoint payloads, one encode per save.

    :meth:`encode` returns exactly ``canonical_json`` of
    :meth:`RunArtifact.to_dict` with the ``integrity`` digest added,
    assembled member by member. Sections in :data:`CACHED_SECTIONS`
    keep their encoding until :meth:`changed` names them, so a save
    costs O(what changed since the previous save) in encoding work.
    """

    def __init__(self):
        self._sections: Dict[str, str] = {}
        #: The phase-2 decision log's entries encoded so far.
        self._decisions: List[str] = []

    def changed(self, *sections: str) -> None:
        for name in sections:
            if name not in CACHED_SECTIONS:
                raise ValueError(
                    "not a cached artifact section: {!r}".format(name)
                )
            self._sections.pop(name, None)
            if name == "phase2_progress":
                self._decisions = []

    def _progress(self, progress: Dict[str, Any]) -> str:
        decisions = progress.get("decisions")
        if decisions is None:
            return canonical_json(progress)
        log = self._decisions
        log.extend(map(canonical_json, decisions[len(log):]))
        members = {
            key: canonical_json(value)
            for key, value in progress.items()
            if key != "decisions"
        }
        members["decisions"] = "[" + ",".join(log) + "]"
        names = sorted(members)
        return _object(names, [members[name] for name in names])

    def encode(self, artifact: RunArtifact) -> str:
        cached = self._sections
        values = []
        for name in _ORDER:
            if name == "phase2_progress":
                value = self._progress(artifact.phase2_progress)
            elif name in CACHED_SECTIONS:
                value = cached.get(name)
                if value is None:
                    value = cached[name] = canonical_json(
                        _MEMBERS[name](artifact)
                    )
            else:
                value = canonical_json(_MEMBERS[name](artifact))
            values.append(value)
        digest = canonical_json(_sha256(_object(_ORDER, values)))
        values.insert(_SIGNED_ORDER.index("integrity"), digest)
        return _object(_SIGNED_ORDER, values)


def _object(names: Sequence[str], values: Sequence[str]) -> str:
    """Assemble encoded members into one JSON object, in the given order.

    Every member name is a plain identifier, so its JSON form is the
    name in quotes. One join copies each value once.
    """
    pieces = []
    for name, value in zip(names, values):
        pieces += (',"', name, '":', value)
    pieces[0] = '{"'
    pieces.append("}")
    return "".join(pieces)


def _sha256(body: str) -> str:
    return "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest()


def artifact_digest(data: Dict[str, Any]) -> str:
    """Content digest of an artifact dict (integrity key excluded).

    Computed over the canonical encoding (:data:`canonical_json`), so
    the digest is byte-stable across writers and independent of how
    the file was formatted; the ``integrity`` key itself is excluded to
    avoid self-reference. A mismatch on load means the file was
    truncated or bit-flipped after the atomic rename — the checkpoint
    store then falls back to the previous generation rather than
    resuming from corrupted state.
    """
    return _sha256(
        canonical_json({k: v for k, v in data.items() if k != "integrity"})
    )


def encode_artifact(artifact: RunArtifact) -> str:
    """The artifact's file payload: canonical JSON with its digest.

    Uses the artifact's attached :class:`ArtifactEncoder` if it has
    one (a pipeline run), else encodes every section from scratch.
    """
    encoder = artifact.encoder
    if encoder is None:
        encoder = ArtifactEncoder()
    return encoder.encode(artifact)


def decode_artifact(payload: str, source: str = "artifact") -> RunArtifact:
    """Parse and verify a payload written by :func:`encode_artifact`.

    Raises :class:`~repro.artifacts.schema.ArtifactCorrupt` when the
    embedded content digest does not match the payload (plain
    :class:`~repro.artifacts.schema.ArtifactError` for undecodable
    JSON — also a corruption signal for a payload this module wrote).
    Payloads without a digest, and any formatting of the JSON (older
    builds wrote it indented), load as long as the digest matches.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            "{} is not valid JSON: {}".format(source, exc)
        )
    if isinstance(data, dict):
        stored = data.pop("integrity", None)
        if stored is not None and stored != artifact_digest(data):
            raise ArtifactCorrupt(
                "{} failed its integrity check (stored digest does not "
                "match content): it was truncated or corrupted after "
                "writing".format(source)
            )
    return RunArtifact.from_dict(data)


def write_atomic(path: Union[str, os.PathLike], payload: str) -> None:
    """Write ``payload`` to a temporary sibling, then rename it over
    ``path``: readers see the old file or the new one, never a part."""
    tmp_path = os.fspath(path) + ".tmp"
    with open(tmp_path, "w") as handle:
        handle.write(payload)
    os.replace(tmp_path, path)


def save_artifact(
    artifact: RunArtifact, path: Union[str, os.PathLike]
) -> None:
    """Write an artifact's canonical payload atomically.

    The payload embeds a content digest (``integrity`` key) that
    :func:`load_artifact` verifies; pre-digest artifacts stay loadable.
    """
    write_atomic(path, encode_artifact(artifact))


def load_artifact(path: Union[str, os.PathLike]) -> RunArtifact:
    """Load and verify an artifact file (see :func:`decode_artifact`)."""
    return decode_artifact(
        pathlib.Path(path).read_text(), "artifact {}".format(path)
    )

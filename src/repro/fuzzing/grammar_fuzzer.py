"""The grammar-based fuzzer of §8.3.

Given the synthesized grammar Ĉ and the seed inputs E_in, each generated
input is produced by:

1. uniformly selecting a seed α ∈ E_in and taking its parse tree under Ĉ
   (trees are parsed once and cached — every retained seed is in L(Ĉ) by
   construction, since phase one only generalizes the seed's language);
2. applying n mutations, n uniform in [0, 50]; one mutation picks a
   random node N of the parse tree with nonterminal label A, resamples
   α' ~ P_{L(Ĉ,A)}, and splices it in place of N's subtree.

This matches the "standard techniques [28]" fuzzer the paper builds.
§7 evaluates GLADE by handing *learned grammars* to fuzzers, so the
fuzzer also loads persisted run artifacts directly
(:meth:`GrammarFuzzer.from_artifact`) — fuzzing is decoupled from the
learning run that produced the grammar.
"""

from __future__ import annotations

import os
import random
from typing import Iterator, List, Optional, Sequence, Union

from repro.determinism import resolve_rng
from repro.languages.cfg import Grammar, ParseTree
from repro.languages.earley import parse
from repro.languages.sampler import GrammarSampler


class GrammarFuzzer:
    """Generate inputs by mutating seed parse trees under a grammar."""

    def __init__(
        self,
        grammar: Grammar,
        seeds: Sequence[str],
        rng: Optional[random.Random] = None,
        max_mutations: int = 50,
        max_sample_depth: int = 20,
    ):
        if not seeds:
            raise ValueError("GrammarFuzzer requires at least one seed")
        self.grammar = grammar
        self.rng = resolve_rng(rng)
        self.max_mutations = max_mutations
        self.sampler = GrammarSampler(
            grammar, rng=self.rng, max_depth=max_sample_depth
        )
        self.seed_trees: List[ParseTree] = []
        self.unparsed_seeds: List[str] = []
        for seed in seeds:
            tree = parse(grammar, seed)
            if tree is None:
                # Should not happen for GLADE-learned grammars; tolerate
                # user-provided grammars that miss a seed.
                self.unparsed_seeds.append(seed)
            else:
                self.seed_trees.append(tree)
        if not self.seed_trees:
            raise ValueError("no seed parses under the given grammar")

    @classmethod
    def from_artifact(
        cls,
        artifact: Union[str, os.PathLike, "RunArtifact"],
        rng: Optional[random.Random] = None,
        **kwargs,
    ) -> "GrammarFuzzer":
        """Build a fuzzer from a persisted run artifact (or its path).

        The artifact's learned grammar and its retained seeds (used and
        §6.1-skipped — both lie in the learned language) become the
        fuzzer's inputs, so ``learn --out run.json`` once and fuzz from
        ``run.json`` forever after.
        """
        from repro.artifacts import RunArtifact, load_artifact

        if not isinstance(artifact, RunArtifact):
            artifact = load_artifact(artifact)
        grammar = artifact.require_grammar()
        seeds = artifact.seeds_used() + artifact.seeds_skipped()
        return cls(grammar, seeds, rng=rng, **kwargs)

    def generate_one(self) -> str:
        """Generate a single fuzzed input."""
        tree = self.rng.choice(self.seed_trees)
        n_mutations = self.rng.randint(0, self.max_mutations)
        for _ in range(n_mutations):
            tree = self._mutate(tree)
        return tree.text()

    def generate(self, count: int) -> List[str]:
        """Generate ``count`` fuzzed inputs."""
        return [self.generate_one() for _ in range(count)]

    def __iter__(self) -> Iterator[str]:
        while True:
            yield self.generate_one()

    def _mutate(self, tree: ParseTree) -> ParseTree:
        """Replace one random node's subtree with a fresh sample."""
        target = self.rng.choice(tree.nodes())
        replacement = self.sampler.sample_tree(target.symbol)
        if target is tree:
            return replacement
        return _splice(tree, target, replacement)


def _splice(
    tree: ParseTree, target: ParseTree, replacement: ParseTree
) -> ParseTree:
    """Return ``tree`` with ``target`` (by identity) replaced, or ``tree``
    itself when ``target`` is not one of its nodes.

    Only the nodes on the path from the root to ``target`` are copied;
    every other subtree is shared with ``tree``, which stays unchanged.
    The search keeps its own stack, so it works at any tree depth.
    """
    if tree is target:
        return replacement
    # ``ancestors[i]`` is the node whose children the search walks at
    # depth ``i``; ``positions[i]`` the index of the child taken there.
    ancestors = [tree]
    positions = [-1]
    while ancestors:
        children = ancestors[-1].children
        index = positions[-1] + 1
        while index < len(children) and not isinstance(
            children[index], ParseTree
        ):
            index += 1
        if index == len(children):
            ancestors.pop()
            positions.pop()
            continue
        positions[-1] = index
        child = children[index]
        if child is not target:
            ancestors.append(child)
            positions.append(-1)
            continue
        spliced = replacement
        for ancestor, position in zip(
            reversed(ancestors), reversed(positions)
        ):
            copied = list(ancestor.children)
            copied[position] = spliced
            spliced = ParseTree(
                symbol=ancestor.symbol,
                production=ancestor.production,
                children=copied,
            )
        return spliced
    return tree

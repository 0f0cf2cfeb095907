"""Tests for the grammar-based fuzzer (§8.3)."""

import random

import pytest

from repro.fuzzing.grammar_fuzzer import GrammarFuzzer
from repro.languages.cfg import Grammar, Nonterminal, Production
from repro.languages.earley import recognize

S = Nonterminal("S")


def paren_grammar() -> Grammar:
    return Grammar(
        S,
        [
            Production(S, ()),
            Production(S, ("(", S, ")", S)),
        ],
    )


class TestConstruction:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            GrammarFuzzer(paren_grammar(), [])

    def test_requires_parseable_seed(self):
        with pytest.raises(ValueError):
            GrammarFuzzer(paren_grammar(), ["((("])

    def test_unparseable_seeds_recorded(self):
        fuzzer = GrammarFuzzer(paren_grammar(), ["()", ")("])
        assert fuzzer.unparsed_seeds == [")("]
        assert len(fuzzer.seed_trees) == 1


class TestGeneration:
    def test_outputs_stay_in_grammar_language(self):
        grammar = paren_grammar()
        fuzzer = GrammarFuzzer(
            grammar, ["(())", "()()"], random.Random(0)
        )
        for text in fuzzer.generate(150):
            assert recognize(grammar, text), text

    def test_deterministic_with_seeded_rng(self):
        grammar = paren_grammar()
        first = GrammarFuzzer(grammar, ["()"], random.Random(5))
        second = GrammarFuzzer(grammar, ["()"], random.Random(5))
        assert first.generate(25) == second.generate(25)

    def test_produces_inputs_beyond_seeds(self):
        grammar = paren_grammar()
        fuzzer = GrammarFuzzer(grammar, ["()"], random.Random(1))
        outputs = set(fuzzer.generate(200))
        assert outputs - {"()"}  # mutation does generalize

    def test_zero_mutation_budget_reproduces_seeds(self):
        grammar = paren_grammar()
        fuzzer = GrammarFuzzer(
            grammar, ["(())"], random.Random(2), max_mutations=0
        )
        assert set(fuzzer.generate(10)) == {"(())"}

    def test_iterator_protocol(self):
        fuzzer = GrammarFuzzer(paren_grammar(), ["()"], random.Random(3))
        stream = iter(fuzzer)
        values = [next(stream) for _ in range(5)]
        assert len(values) == 5


class TestFromArtifact:
    """§7: fuzzing consumes the persisted learning artifact directly."""

    def make_artifact(self, tmp_path):
        from repro.artifacts import save_artifact
        from repro.core.glade import GladeConfig
        from repro.core.pipeline import LearningPipeline

        config = GladeConfig(alphabet="ab", enable_chargen=False)
        artifact = LearningPipeline(
            lambda s: set(s) <= set("ab"), config=config
        ).run(["ab", "abab", "ba"])
        path = tmp_path / "run.json"
        save_artifact(artifact, path)
        return artifact, path

    def test_from_artifact_object_and_path(self, tmp_path):
        artifact, path = self.make_artifact(tmp_path)
        for source in (artifact, path, str(path)):
            fuzzer = GrammarFuzzer.from_artifact(
                source, rng=random.Random(3)
            )
            for text in fuzzer.generate(20):
                assert recognize(artifact.grammar, text)

    def test_from_artifact_includes_skipped_seeds(self, tmp_path):
        artifact, _path = self.make_artifact(tmp_path)
        assert artifact.seeds_skipped()  # "abab" is covered by "ab"
        fuzzer = GrammarFuzzer.from_artifact(artifact)
        expected = len(artifact.seeds_used()) + len(artifact.seeds_skipped())
        assert len(fuzzer.seed_trees) + len(fuzzer.unparsed_seeds) == expected

    def test_from_artifact_requires_grammar(self):
        from repro.artifacts import ArtifactError, RunArtifact, SeedRecord

        incomplete = RunArtifact(seeds=[SeedRecord(text="ab")])
        with pytest.raises(ArtifactError, match="no grammar"):
            GrammarFuzzer.from_artifact(incomplete)

    def test_from_artifact_deterministic_under_seeded_rng(self, tmp_path):
        _artifact, path = self.make_artifact(tmp_path)
        first = GrammarFuzzer.from_artifact(path, rng=random.Random(9))
        second = GrammarFuzzer.from_artifact(path, rng=random.Random(9))
        assert first.generate(10) == second.generate(10)


class TestDeepTrees:
    """A long left-recursive seed parses into a tree as deep as the seed;
    every walk over it must work under the default recursion limit."""

    DEPTH = 20000

    def left_deep_tree(self):
        from repro.languages.cfg import ParseTree

        recurse = Production(S, (S, "a"))
        base = Production(S, ())
        tree = ParseTree(symbol=S, production=base, children=[])
        chain = [tree]
        for _ in range(self.DEPTH - 1):
            tree = ParseTree(
                symbol=S, production=recurse, children=[tree, "a"]
            )
            chain.append(tree)
        chain.reverse()  # root first
        return tree, chain

    def test_walks_round_trip(self):
        import sys

        assert sys.getrecursionlimit() < self.DEPTH
        tree, chain = self.left_deep_tree()
        assert tree.text() == "a" * (self.DEPTH - 1)
        nodes = tree.nodes()
        assert len(nodes) == self.DEPTH == tree.size()
        assert all(got is want for got, want in zip(nodes, chain))

    def test_splice_at_the_bottom(self):
        from repro.fuzzing.grammar_fuzzer import _splice
        from repro.languages.cfg import ParseTree

        tree, chain = self.left_deep_tree()
        replacement = ParseTree(
            symbol=S, production=Production(S, ("b",)), children=["b"]
        )
        spliced = _splice(tree, chain[-1], replacement)
        assert spliced.text() == "b" + "a" * (self.DEPTH - 1)
        assert spliced.size() == self.DEPTH
        # The original is untouched.
        assert tree.text() == "a" * (self.DEPTH - 1)
        assert _splice(tree, tree, replacement) is replacement

    def test_splice_matches_a_full_copy(self):
        from repro.fuzzing.grammar_fuzzer import _splice
        from repro.languages.cfg import ParseTree
        from repro.languages.sampler import GrammarSampler

        def full_copy_splice(node, target, replacement):
            if node is target:
                return replacement
            return ParseTree(
                symbol=node.symbol,
                production=node.production,
                children=[
                    full_copy_splice(child, target, replacement)
                    if isinstance(child, ParseTree) else child
                    for child in node.children
                ],
            )

        sampler = GrammarSampler(paren_grammar(), rng=random.Random(4))
        for _ in range(30):
            tree = sampler.sample_tree()
            for target in tree.nodes():
                replacement = sampler.sample_tree()
                assert _splice(tree, target, replacement) == (
                    full_copy_splice(tree, target, replacement)
                )

    def test_fuzzer_on_a_long_seed(self):
        grammar = Grammar(
            S, [Production(S, ()), Production(S, (S, "a"))]
        )
        fuzzer = GrammarFuzzer(grammar, ["a" * self.DEPTH], random.Random(6))
        assert fuzzer.seed_trees[0].size() == self.DEPTH + 1
        for text in fuzzer.generate(3):
            assert set(text) <= {"a"}

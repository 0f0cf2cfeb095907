"""The compiled recognizer against the chart-scanning reference Earley.

``repro.languages.earley`` must decide exactly the languages the
reference (``earley_reference.py``) decides and, for every accepted
string, build the very same tree: same symbols, same productions, same
children. Checked on hand-built grammars, seeded random CFGs, regex →
CFG translations and the learned grep/sed/flex grammars.
"""

import itertools
import random

import pytest

from repro.evaluation.corpora import eval_corpus
from repro.evaluation.harness import learn_subject
from repro.languages import earley, regex as rx
from repro.languages.cfg import CharSet, Grammar, Nonterminal, Production
from repro.languages.earley import parse, recognize
from repro.languages.nfa_match import regex_matches
from repro.languages.sampler import GrammarSampler
from repro.languages.to_grammar import regex_to_grammar
from repro.programs import get_subject
from tests.languages.earley_reference import (
    reference_parse,
    reference_recognize,
)


def same_tree(left, right) -> bool:
    """Structural tree equality, without recursion."""
    stack = [(left, right)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return False
            continue
        if (
            a.symbol != b.symbol
            or a.production != b.production
            or len(a.children) != len(b.children)
        ):
            return False
        stack.extend(zip(a.children, b.children))
    return True


def outcome(parser, grammar, text):
    """A parser's tree, or the exception type it raised."""
    try:
        return parser(grammar, text)
    except AssertionError as error:
        return type(error)


def assert_agrees(grammar: Grammar, texts) -> int:
    """Same verdicts and trees as the reference; returns #accepted.

    On grammars with cyclic unit or ε derivations the shared tree policy
    can fail to rebuild a recognized string (its failure memo keeps
    refusals of the cycle guard); both implementations must then raise.
    """
    accepted = 0
    for text in texts:
        verdict = reference_recognize(grammar, text)
        assert recognize(grammar, text) == verdict, text
        tree = outcome(parse, grammar, text)
        if not verdict:
            assert tree is None, text
            continue
        accepted += 1
        expected = outcome(reference_parse, grammar, text)
        if expected is AssertionError:
            assert tree is AssertionError, text
            continue
        assert tree.text() == text, text
        assert same_tree(tree, expected), text
    return accepted


def all_strings(alphabet: str, max_length: int):
    for length in range(max_length + 1):
        for chars in itertools.product(alphabet, repeat=length):
            yield "".join(chars)


S, A, B, C = (Nonterminal(name) for name in "SABC")
AB = CharSet(frozenset("ab"))

HAND_BUILT = {
    "epsilon": Grammar(S, [Production(S, ())]),
    "epsilon_heavy": Grammar(S, [
        Production(S, (A, A, A)), Production(A, ()), Production(A, ("a",)),
    ]),
    "unit_cycle": Grammar(A, [
        Production(A, (B,)), Production(B, (A,)), Production(A, ("a",)),
    ]),
    "nullable_unit_cycle": Grammar(S, [
        Production(S, (A,)), Production(A, (S,)), Production(A, ()),
        Production(S, (S, "a")),
    ]),
    "left_recursion": Grammar(S, [
        Production(S, (S, "a")), Production(S, ("b",)),
    ]),
    "right_recursion": Grammar(S, [
        Production(S, ("a", S)), Production(S, ()),
    ]),
    "middle_recursion": Grammar(S, [
        Production(S, ("a", S, "b")), Production(S, ()),
    ]),
    "balanced_parens": Grammar(S, [
        Production(S, ()), Production(S, ("a", S, "b", S)),
    ]),
    "ambiguous": Grammar(S, [
        Production(S, (S, S)), Production(S, ("a",)), Production(S, (AB,)),
    ]),
    "indirect_left_recursion": Grammar(S, [
        Production(S, (A, "a")), Production(A, (S, "b")),
        Production(A, ("b",)),
    ]),
    "multichar_literals": Grammar(S, [
        Production(S, ("ab", S, "ba")), Production(S, ("aa",)),
        Production(S, ("a",)),
    ]),
    "charsets": Grammar(S, [
        Production(S, ()), Production(S, (S, AB, CharSet(frozenset("b")))),
    ]),
    "star_shape": Grammar(S, [
        Production(S, ()), Production(S, (S, A)),
        Production(A, (B, C)),
        Production(B, ()), Production(B, (B, AB)),
        Production(C, ()), Production(C, (C, CharSet(frozenset("ac")))),
    ]),
    "undefined_nonterminal": Grammar(S, [
        Production(S, ("a", B)), Production(S, ("b",)),
    ]),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_grammars(name):
    assert_agrees(HAND_BUILT[name], all_strings("abc", 5))


def random_grammar(rng: random.Random) -> Grammar:
    """A small random CFG over {a, b}; recursion of every kind is likely."""
    heads = [Nonterminal("N{}".format(i)) for i in range(rng.randint(1, 4))]
    terminals = ["a", "b", "ab", AB, CharSet(frozenset("a"))]
    productions = []
    for head in heads:
        for _ in range(rng.randint(1, 3)):
            body = []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.5:
                    body.append(rng.choice(heads))
                else:
                    body.append(rng.choice(terminals))
            if body and rng.random() < 0.2:
                body[0] = head  # direct left recursion
            productions.append(Production(head, tuple(body)))
    return Grammar(heads[0], productions)


@pytest.mark.parametrize("seed", range(60))
def test_random_grammars(seed):
    grammar = random_grammar(random.Random(seed))
    assert_agrees(grammar, all_strings("ab", 5))


@pytest.mark.parametrize("seed", range(30))
def test_random_grammars_with_calls_everywhere(seed, monkeypatch):
    # A tiny state budget turns nearly every nonterminal reference into
    # a call, so the waiting lists and completions do all the work.
    monkeypatch.setattr(earley, "STATE_BUDGET", 2)
    grammar = random_grammar(random.Random(1000 + seed))
    assert_agrees(grammar, all_strings("ab", 5))


def random_regex(rng: random.Random, leaves: int) -> rx.Regex:
    if leaves <= 1:
        return rng.choice([
            rx.Lit("a"), rx.Lit("ab"), rx.EPSILON,
            rx.CharClass(frozenset("a")), rx.CharClass(frozenset("ab")),
        ])
    split = rng.randint(1, leaves - 1)
    kind = rng.randrange(3)
    if kind == 0:
        return rx.concat(
            random_regex(rng, split), random_regex(rng, leaves - split)
        )
    if kind == 1:
        return rx.alt(
            random_regex(rng, split), random_regex(rng, leaves - split)
        )
    return rx.star(random_regex(rng, leaves - 1))


@pytest.mark.parametrize("seed", range(40))
def test_regex_translations(seed):
    expr = random_regex(random.Random(seed), 6)
    grammar = regex_to_grammar(expr)
    probes = list(all_strings("ab", 6))
    for text in probes:
        expected = expr.matches(text)
        assert regex_matches(expr, text) == expected, text
        assert recognize(grammar, text) == expected, text
    assert_agrees(grammar, probes)


def one_char_mutations(texts, alphabet, rng, per_text=3):
    out = []
    for text in texts:
        for _ in range(per_text if text else 0):
            index = rng.randrange(len(text))
            out.append(text[:index] + rng.choice(alphabet) + text[index + 1:])
    return out


#: The reference is cubic; learned-grammar probes stay this short.
MAX_PROBE = 30


@pytest.mark.parametrize("name", ["grep", "sed", "flex"])
def test_learned_grammars(name):
    artifact = learn_subject(get_subject(name))
    grammar = artifact.require_grammar()
    rng = random.Random(name)
    seeds = artifact.seeds_used() + artifact.seeds_skipped()
    sampler = GrammarSampler(grammar, rng=rng, max_depth=8)
    samples = [sampler.sample() for _ in range(40)]
    texts = list(seeds) + list(eval_corpus(name)) + samples
    alphabet = sorted(grammar.alphabet() | {"\x00"})
    texts += one_char_mutations(texts, alphabet, rng)
    texts = [text for text in texts if len(text) <= MAX_PROBE]
    assert len(texts) > 50
    assert assert_agrees(grammar, texts) > 10

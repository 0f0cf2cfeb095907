"""Earley parser tests: classic grammars, ε-handling, parse trees."""


from repro.languages.cfg import CharSet, Grammar, Nonterminal, Production
from repro.languages.earley import parse, recognize


def balanced_parens() -> Grammar:
    s = Nonterminal("S")
    return Grammar(
        s,
        [
            Production(s, ()),
            Production(s, ("(", s, ")", s)),
        ],
    )


def arithmetic() -> Grammar:
    e, t, f = Nonterminal("E"), Nonterminal("T"), Nonterminal("F")
    digit = CharSet(frozenset("0123456789"))
    return Grammar(
        e,
        [
            Production(e, (e, "+", t)),
            Production(e, (t,)),
            Production(t, (t, "*", f)),
            Production(t, (f,)),
            Production(f, ("(", e, ")")),
            Production(f, (digit,)),
        ],
    )


class TestRecognize:
    def test_balanced_parens_accepts(self):
        grammar = balanced_parens()
        for text in ["", "()", "(())", "()()", "(()())()"]:
            assert recognize(grammar, text), text

    def test_balanced_parens_rejects(self):
        grammar = balanced_parens()
        for text in ["(", ")", ")(", "(()", "())", "x"]:
            assert not recognize(grammar, text), text

    def test_left_recursive_arithmetic(self):
        grammar = arithmetic()
        for text in ["1", "1+2", "1+2*3", "(1+2)*3", "((1))"]:
            assert recognize(grammar, text), text
        for text in ["", "+", "1+", "1**2", "(1+2", "ab"]:
            assert not recognize(grammar, text), text

    def test_multichar_literal_scanning(self):
        s = Nonterminal("S")
        grammar = Grammar(
            s, [Production(s, ("<a>", s, "</a>")), Production(s, ("hi",))]
        )
        assert recognize(grammar, "<a><a>hi</a></a>")
        assert not recognize(grammar, "<a>hi</a")
        assert not recognize(grammar, "<a><a>hi</a>")

    def test_epsilon_heavy_grammar(self):
        # S -> A A A ; A -> ε | a  (nullable completions everywhere)
        s, a = Nonterminal("S"), Nonterminal("A")
        grammar = Grammar(
            s,
            [
                Production(s, (a, a, a)),
                Production(a, ()),
                Production(a, ("a",)),
            ],
        )
        for text in ["", "a", "aa", "aaa"]:
            assert recognize(grammar, text), text
        assert not recognize(grammar, "aaaa")

    def test_unit_production_cycle(self):
        # A -> B -> A plus a terminal escape; must not loop.
        a, b = Nonterminal("A"), Nonterminal("B")
        grammar = Grammar(
            a,
            [
                Production(a, (b,)),
                Production(b, (a,)),
                Production(a, ("x",)),
            ],
        )
        assert recognize(grammar, "x")
        assert not recognize(grammar, "")
        assert not recognize(grammar, "xx")

    def test_charset_symbols(self):
        s = Nonterminal("S")
        vowels = CharSet(frozenset("aeiou"))
        grammar = Grammar(
            s, [Production(s, ()), Production(s, (vowels, s))]
        )
        assert recognize(grammar, "aeea")
        assert not recognize(grammar, "xyz")


class TestParse:
    def test_tree_text_roundtrip(self):
        grammar = arithmetic()
        for text in ["1", "1+2*3", "(1+2)*(3+4)"]:
            tree = parse(grammar, text)
            assert tree is not None
            assert tree.text() == text

    def test_parse_returns_none_on_reject(self):
        assert parse(balanced_parens(), "(((") is None

    def test_tree_structure(self):
        grammar = balanced_parens()
        tree = parse(grammar, "(())")
        assert tree is not None
        assert tree.symbol == Nonterminal("S")
        # Root used the recursive production.
        assert len(tree.production.body) == 4

    def test_tree_nodes_and_size(self):
        grammar = balanced_parens()
        tree = parse(grammar, "()()")
        nodes = tree.nodes()
        assert all(n.symbol == Nonterminal("S") for n in nodes)
        assert tree.size() == len(nodes)

    def test_ambiguous_grammar_still_parses(self):
        # S -> S S | a  is ambiguous for "aaa"; any parse is acceptable.
        s = Nonterminal("S")
        grammar = Grammar(
            s, [Production(s, (s, s)), Production(s, ("a",))]
        )
        tree = parse(grammar, "aaa")
        assert tree is not None
        assert tree.text() == "aaa"

    def test_nullable_tree(self):
        grammar = balanced_parens()
        tree = parse(grammar, "")
        assert tree is not None
        assert tree.text() == ""


class TestAgainstRegexEngine:
    def test_right_linear_grammar_matches_star(self):
        # S -> ε | 'ab' S   should equal (ab)*.
        from repro.languages.regex import Lit, star

        s = Nonterminal("S")
        grammar = Grammar(
            s, [Production(s, ()), Production(s, ("ab", s))]
        )
        expr = star(Lit("ab"))
        for probe in ["", "ab", "abab", "aba", "ba", "ababab"]:
            assert recognize(grammar, probe) == expr.matches(probe), probe


def ambiguous_star_grammar() -> Grammar:
    """GLADE's star shape, maximally ambiguous: ``R → ε | R A``,
    ``A → B C`` with ``B`` and ``C`` stars over overlapping classes."""
    r, a, b, c = (Nonterminal(name) for name in "RABC")
    return Grammar(
        r,
        [
            Production(r, ()),
            Production(r, (r, a)),
            Production(a, (b, c)),
            Production(b, ()),
            Production(b, (b, CharSet(frozenset("ab")))),
            Production(c, ()),
            Production(c, (c, CharSet(frozenset("ac")))),
        ],
    )


class TestLinearWork:
    """The compiled recognizer's deterministic work counter grows
    linearly on the ambiguous star shape, and long inputs parse."""

    def items(self, grammar, text):
        from repro.languages.earley import items_created

        before = items_created(grammar)
        assert recognize(grammar, text)
        return items_created(grammar) - before

    def test_items_grow_linearly(self):
        grammar = ambiguous_star_grammar()
        small = self.items(grammar, "a" * 2000)
        large = self.items(grammar, "a" * 4000)
        assert 0 < large <= 2.2 * small

    def test_long_input_parses_under_default_recursion_limit(self):
        import sys

        text = "a" * 10000
        assert sys.getrecursionlimit() < len(text)
        tree = parse(ambiguous_star_grammar(), text)
        assert tree is not None
        assert tree.text() == text
        assert tree.size() > len(text)

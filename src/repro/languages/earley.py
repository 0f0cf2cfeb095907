"""Earley recognition and parsing for :class:`repro.languages.cfg.Grammar`.

Two entry points:

- :func:`recognize` — membership only (used for the recall metric and for
  deciding whether a string is in a learned grammar's language);
- :func:`parse` — build a :class:`~repro.languages.cfg.ParseTree` (used by
  the grammar-based fuzzer of §8.3, which mutates seed-input parse trees).

Each grammar is compiled once, on first use, into integer-state automata
(:class:`_Compiled`, cached per ``Grammar`` instance). A nonterminal that
is entered on its own — the start symbol, a call target, or a symbol
whose spans the tree builder asks for — gets one automaton:

- direct left recursion ``X → X α | β`` becomes the loop ``β α*`` (the
  shape of GLADE's star productions, see ``core/translate.py``), and
  direct tail recursion ``X → α X | β`` the loop ``α* β``;
- every other nonterminal reference is inlined Thompson-style. It stays a
  *call* of the callee's own automaton only when it closes a cycle on the
  current inline stack, or when the entry's state budget is spent.

Recognition is Earley over ``(state, origin)`` items. The items of one
origin form an ε-closed state set, interned as a lazily built DFA state,
so a character costs one cached transition per live origin. Calls go
through per-(position, callee) waiting lists, and a nullable callee is
stepped over when it is predicted (the Aycock–Horspool fix). Only the
live item sets and the waiting lists are kept, never a per-position
chart. Where the only recursion is direct left or tail recursion — the
regular parts of a grammar — the work per character is constant, so
recognition is linear in the input length.

:func:`parse` recognizes first, then reconstructs one tree with a fixed
policy: productions in grammar order, each body left to right, the spans
of a nonterminal tried longest first, with a guard against cyclic
derivations and a memo of failed body suffixes. It runs on an explicit
stack, so tree depth is not bounded by the interpreter's recursion
limit, and it takes the spans of a nonterminal (every ``e`` with
``X ⇒* text[s:e]``) from ``X``'s automaton run from ``s``.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left, bisect_right
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    ParseTree,
    Production,
)

#: States one entry automaton may grow to before further nonterminal
#: references stay calls; bounds compile work on grammars whose inlined
#: expansion would be exponential.
STATE_BUDGET = 2000

# How a production recurses on its own head (see ``_Compiled._shapes``).
_LEFT, _TAIL = "left", "tail"

_COMPILED: "weakref.WeakKeyDictionary[Grammar, _Compiled]" = (
    weakref.WeakKeyDictionary()
)
#: Guards the cache and every compiled grammar's lazily grown tables.
_LOCK = threading.Lock()


def _compiled(grammar: Grammar) -> "_Compiled":
    found = _COMPILED.get(grammar)
    if found is None:
        found = _COMPILED[grammar] = _Compiled(grammar)
    return found


def recognize(grammar: Grammar, text: str) -> bool:
    """Return True if ``text`` is in the language of ``grammar``."""
    with _LOCK:
        compiled = _compiled(grammar)
        ends, _reached = compiled.run(compiled.start, text, 0, len(text))
    return bool(ends) and ends[-1] == len(text)


def parse(grammar: Grammar, text: str) -> Optional[ParseTree]:
    """Parse ``text``; return one parse tree, or None if not in L(grammar).

    For ambiguous grammars one parse is chosen deterministically; see the
    module docstring for the policy.
    """
    with _LOCK:
        return _TreeBuilder(_compiled(grammar), text).build()


def items_created(grammar: Grammar) -> int:
    """Earley items created so far by :func:`recognize` and :func:`parse`
    on this grammar instance — a deterministic work counter.

    One item is one ``(state, origin)`` pair live at one input position.
    """
    with _LOCK:
        found = _COMPILED.get(grammar)
    return found.items if found is not None else 0


class _State:
    """One NFA state's edges: ε-successors, ``(character set,
    successor)`` pairs and ``(callee, return state)`` calls."""

    __slots__ = ("eps", "chars", "calls")

    def __init__(self):
        self.eps: List[int] = []
        self.chars: List[Tuple[FrozenSet[str], int]] = []
        self.calls: List[Tuple[int, int]] = []


class _ItemSet:
    """A DFA state: the ε-closed NFA states of the items of one origin.

    ``step`` caches the successor set per character, ``grown`` the set
    with one more state added; ``calls`` and ``finals`` are the call
    edges and completed entry automata in the set. Built whole before
    it is published, so an interrupted call leaves no partial state.
    """

    __slots__ = ("states", "step", "grown", "calls", "finals", "active")

    def __init__(self, states, calls, finals):
        self.states: FrozenSet[int] = states
        self.step: Dict[str, "_ItemSet"] = {}
        self.grown: Dict[int, "_ItemSet"] = {}
        self.calls: FrozenSet[Tuple[int, int]] = calls
        self.finals: FrozenSet[int] = finals
        #: Whether the position needs a prediction/completion pass.
        self.active = bool(calls or finals)


class _Compiled:
    """The automata of one grammar, plus the lazily built DFA over them.

    NFA states are indices into ``_states`` (see :class:`_State`).
    Nonterminals are numbered in grammar order. Nothing here refers back
    to the ``Grammar`` object, so the weak cache entry dies with the
    grammar.
    """

    def __init__(self, grammar: Grammar):
        self.items = 0
        self.nonterminals: List[Nonterminal] = []
        self.ids: Dict[Nonterminal, int] = {}
        #: Per nonterminal id: ``(production index, production)`` pairs
        #: in grammar order.
        self.productions: List[List[Tuple[int, Production]]] = []
        for index, production in enumerate(grammar.productions):
            head = self._id(production.head)
            self.productions[head].append((index, production))
            for symbol in production.body:
                if isinstance(symbol, Nonterminal):
                    self._id(symbol)
        self.start = self._id(grammar.start)
        #: Bound on a body position, for packing the parser's memo keys.
        self.dots = 1 + max(
            (len(production.body) for production in grammar.productions),
            default=0,
        )
        self._nullable = frozenset(
            self.ids[nt] for nt in grammar.nullable_nonterminals()
        )
        self._states: List[_State] = []
        #: Nonterminal id -> (entry state, final state) of its automaton.
        self._entries: Dict[int, Tuple[int, int]] = {}
        self._final_of: Dict[int, int] = {}
        self._shape_cache: Dict[int, List[Tuple[tuple, Optional[str]]]] = {}
        self._item_sets: Dict[FrozenSet[int], _ItemSet] = {}
        self.empty = self._intern(frozenset())

    def _id(self, nonterminal: Nonterminal) -> int:
        found = self.ids.get(nonterminal)
        if found is None:
            found = self.ids[nonterminal] = len(self.nonterminals)
            self.nonterminals.append(nonterminal)
            self.productions.append([])
        return found

    # -- compilation -------------------------------------------------------

    def _new_state(self) -> int:
        self._states.append(_State())
        return len(self._states) - 1

    def entry(self, nonterminal: int) -> int:
        """Entry state of ``nonterminal``'s automaton, compiling it (and
        every automaton it calls) on first use."""
        found = self._entries.get(nonterminal)
        if found is not None:
            return found[0]
        pending = [nonterminal]
        while pending:
            head = pending.pop()
            if head in self._entries:
                continue
            for callee in self._compile(head):
                if callee not in self._entries:
                    pending.append(callee)
        return self._entries[nonterminal][0]

    def _compile(self, head: int) -> List[int]:
        """Build ``head``'s automaton; return the nonterminals it calls."""
        entry, final = self._new_state(), self._new_state()
        self._final_of[final] = head
        budget = len(self._states) + STATE_BUDGET
        callees: List[int] = []
        # Each task inlines one nonterminal between two states; ``stack``
        # holds the nonterminals being inlined around it.
        tasks = [(head, entry, final, frozenset((head,)))]
        while tasks:
            symbol, begin, end, stack = tasks.pop()
            for span, loop in self._shapes(symbol):
                source, target = {
                    _LEFT: (end, end), _TAIL: (begin, begin),
                }.get(loop, (begin, end))
                if not span:
                    if source != target:
                        self._states[source].eps.append(target)
                    continue
                state = source
                for position, item in enumerate(span):
                    last = position == len(span) - 1
                    after = target if last else self._new_state()
                    if isinstance(item, CharSet):
                        self._states[state].chars.append((item.chars, after))
                    elif isinstance(item, str):
                        for offset, char in enumerate(item):
                            step = (
                                after if offset == len(item) - 1
                                else self._new_state()
                            )
                            self._states[state].chars.append(
                                (frozenset(char), step)
                            )
                            state = step
                    else:
                        callee = self.ids[item]
                        if callee in stack or len(self._states) >= budget:
                            self._states[state].calls.append((callee, after))
                            callees.append(callee)
                        else:
                            # Loops need states of their own; without
                            # them the callee can share its neighbours'.
                            loops = self._loops(callee)
                            inner_begin = inner_end = None
                            if _TAIL in loops:
                                inner_begin = self._new_state()
                                self._states[state].eps.append(inner_begin)
                            if _LEFT in loops:
                                inner_end = self._new_state()
                                self._states[inner_end].eps.append(after)
                            tasks.append((
                                callee,
                                state if inner_begin is None else inner_begin,
                                after if inner_end is None else inner_end,
                                stack | {callee},
                            ))
                    state = after
        self._entries[head] = (entry, final)
        return callees

    def _shapes(self, head: int) -> List[Tuple[tuple, Optional[str]]]:
        """``head``'s productions as ``(span, loop)``: ``X -> X α`` is
        ``(α, _LEFT)``, ``X -> α X`` is ``(α, _TAIL)``, any other body
        ``(body, None)``."""
        shapes = self._shape_cache.get(head)
        if shapes is None:
            shapes = []
            for _index, production in self.productions[head]:
                body = production.body
                if body and body[0] == self.nonterminals[head]:
                    shapes.append((body[1:], _LEFT))
                elif body and body[-1] == self.nonterminals[head]:
                    shapes.append((body[:-1], _TAIL))
                else:
                    shapes.append((body, None))
            self._shape_cache[head] = shapes
        return shapes

    def _loops(self, head: int) -> Set[str]:
        return {loop for span, loop in self._shapes(head) if span and loop}

    # -- the DFA over item sets --------------------------------------------

    def _closure(self, seeds) -> FrozenSet[int]:
        """ε-closure, stepping over calls of nullable nonterminals."""
        closed: Set[int] = set(seeds)
        work = list(seeds)
        while work:
            state = work.pop()
            successors = list(self._states[state].eps)
            for callee, back in self._states[state].calls:
                if callee in self._nullable:
                    successors.append(back)
            for successor in successors:
                if successor not in closed:
                    closed.add(successor)
                    work.append(successor)
        return frozenset(closed)

    def _intern(self, closed: FrozenSet[int]) -> _ItemSet:
        found = self._item_sets.get(closed)
        if found is None:
            calls = frozenset(
                pair for state in closed for pair in self._states[state].calls
            )
            finals = frozenset(
                self._final_of[state] for state in closed
                if state in self._final_of
            )
            found = self._item_sets[closed] = _ItemSet(closed, calls, finals)
        return found

    def _add(self, items: _ItemSet, state: int) -> _ItemSet:
        """``items`` plus ``state`` (and its closure)."""
        found = items.grown.get(state)
        if found is None:
            found = self._intern(items.states | self._closure((state,)))
            items.grown[state] = found
        return found

    def _advance(self, items: _ItemSet, char: str) -> _ItemSet:
        targets = [
            target
            for state in items.states
            for chars, target in self._states[state].chars
            if char in chars
        ]
        found = self._intern(self._closure(targets))
        items.step[char] = found
        return found

    # -- Earley over (state, origin) items ---------------------------------

    def run(
        self, root: int, text: str, origin: int, stop: int
    ) -> Tuple[List[int], int]:
        """Run ``root``'s automaton on ``text`` from ``origin`` up to
        position ``stop``.

        Returns ``(ends, reached)``: ``ends`` lists, ascending, every
        ``e <= stop`` with ``root ⇒* text[origin:e]``; ``reached`` is the
        last position the run got to. When it is short of ``stop`` the
        run died there, so no longer end exists either.
        """
        empty = self.empty
        # origin -> item set of the items with that origin.
        current: Dict[int, _ItemSet] = {
            origin: self._add(empty, self.entry(root))
        }
        waiting: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        ends: List[int] = []
        items = 0
        position = origin
        while True:
            if any(group.active for group in current.values()):
                self._complete(position, current, waiting)
            group = current.get(origin)
            if group is not None and root in group.finals:
                ends.append(position)
            for group in current.values():
                items += len(group.states)
            if position == stop:
                break
            char = text[position]
            following: Dict[int, _ItemSet] = {}
            for start, group in current.items():
                target = group.step.get(char)
                if target is None:
                    target = self._advance(group, char)
                if target is not empty:
                    following[start] = target
            if not following:
                break
            current = following
            position += 1
        self.items += items
        return ends, position

    def _complete(self, position, current, waiting) -> None:
        """Predict the callees of every call and resume the callers of
        every completed callee at ``position``, to a fixed point."""
        add, empty = self._add, self.empty
        done: Dict[int, _ItemSet] = {}
        agenda = list(current)
        while agenda:
            start = agenda.pop()
            group = current[start]
            before = done.get(start, empty)
            if group is before:
                continue
            done[start] = group
            for callee, back in sorted(group.calls - before.calls):
                key = (position, callee)
                callers = waiting.get(key)
                if callers is None:
                    waiting[key] = [(back, start)]
                    predicted = current.get(position, empty)
                    grown = add(predicted, self.entry(callee))
                    if grown is not predicted:
                        current[position] = grown
                        agenda.append(position)
                else:
                    callers.append((back, start))
            if start == position:
                # A callee completing where it started derived ε; its
                # callers were advanced when it was predicted.
                continue
            for callee in sorted(group.finals - before.finals):
                for back, caller in waiting.get((start, callee), ()):
                    resumed = current.get(caller, empty)
                    grown = add(resumed, back)
                    if grown is not resumed:
                        current[caller] = grown
                        agenda.append(caller)


#: A nonterminal's spans are memoized per parse only when computing them
#: ran over at least this many characters; shorter runs are cheaper to
#: repeat than to keep.
SPAN_MEMO_MIN = 8

# Where a body frame resumes once the frame it pushed has returned.
_ENTER, _AFTER_TERMINAL, _AFTER_REST, _AFTER_CHILD = range(4)


class _NonterminalFrame:
    """``build_nonterminal(head, start, end)``; ``index`` is the
    production being tried (-1 before the first)."""

    __slots__ = ("head", "start", "end", "index")

    def __init__(self, head: int, start: int, end: int):
        self.head = head
        self.start = start
        self.end = end
        self.index = -1


class _BodyFrame:
    """``build_body(production, dot, start, end)``. For a nonterminal at
    ``dot``, ``mid`` walks down its ``spans`` (the end being tried) and
    ``rest`` holds the children already built after it."""

    __slots__ = (
        "prod_index", "body", "dot", "start", "end", "resume",
        "spans", "mid", "rest",
    )

    def __init__(self, prod_index, body, dot: int, start: int, end: int):
        self.prod_index = prod_index
        self.body = body
        self.dot = dot
        self.start = start
        self.end = end
        self.resume = _ENTER


def _building(stack: list, head: int, start: int, end: int) -> bool:
    """Whether ``head`` over ``text[start:end]`` is already being built.

    Spans nest, so every frame between such an ancestor and the top of
    the stack covers the same span: the walk stops at the first
    nonterminal frame over a different one.
    """
    for frame in reversed(stack):
        if type(frame) is not _NonterminalFrame or frame.index < 0:
            continue
        if frame.start != start or frame.end != end:
            return False
        if frame.head == head:
            return True
    return False


class _TreeBuilder:
    """Reconstruct one parse tree of a recognized string.

    ``build_nonterminal(head, start, end)`` tries ``head``'s productions
    in grammar order. ``build_body(production, dot, start, end)`` derives
    ``text[start:end]`` from ``body[dot:]``: for a nonterminal it tries
    the spans longest first, building the rest of the body before the
    child. Failed body suffixes are memoized, and a nonterminal span
    already being built is refused, which breaks cyclic (unit or ε)
    derivations. Both procedures run as frames on one explicit stack.

    Deep parses are kept small: memo keys are packed into ints, a failure
    decided without trying any child is not memoized (repeating it gives
    the same answer), and the spans being built are read off the stack.
    """

    def __init__(self, compiled: _Compiled, text: str):
        self.compiled = compiled
        self.text = text
        self.width = len(text) + 1
        #: ``head * width + start`` -> ``(bound, end, end, ...)``: every
        #: span end up to ``bound``, ascending, from index 1 on.
        self._spans: Dict[int, Tuple[int, ...]] = {}
        self._failed: Set[int] = set()

    def spans(self, head: int, start: int, bound: int) -> Tuple[int, ...]:
        key = head * self.width + start
        found = self._spans.get(key)
        if found is None or found[0] < bound:
            ends, reached = self.compiled.run(head, self.text, start, bound)
            found = (bound if reached == bound else len(self.text),) + tuple(
                ends
            )
            if reached - start >= SPAN_MEMO_MIN:
                self._spans[key] = found
        return found

    def build(self) -> Optional[ParseTree]:
        compiled, size = self.compiled, len(self.text)
        ends, _reached = compiled.run(compiled.start, self.text, 0, size)
        if not ends or ends[-1] != size:
            return None
        self._spans[compiled.start * self.width] = (size,) + tuple(ends)
        tree = self._run(_NonterminalFrame(compiled.start, 0, size))
        if tree is None:
            raise AssertionError(
                "recognized string failed tree reconstruction"
            )
        return tree

    def _failed_key(self, frame: _BodyFrame) -> int:
        key = frame.prod_index * self.compiled.dots + frame.dot
        return (key * self.width + frame.start) * self.width + frame.end

    def _run(self, root: _NonterminalFrame) -> Optional[ParseTree]:
        compiled, text, width = self.compiled, self.text, self.width
        productions = compiled.productions
        failed = self._failed
        stack: list = [root]
        #: What the frame popped last returned: a tree, a child list or None.
        result = None
        while stack:
            frame = stack[-1]
            if type(frame) is _NonterminalFrame:
                head, start, end = frame.head, frame.start, frame.end
                options = productions[head]
                if frame.index < 0:
                    spans = self.spans(head, start, end)
                    found = bisect_right(spans, end, 1) - 1
                    if (
                        found < 1 or spans[found] != end
                        or _building(stack, head, start, end)
                    ):
                        result = None
                        stack.pop()
                        continue
                elif result is not None:
                    result = ParseTree(
                        symbol=compiled.nonterminals[head],
                        production=options[frame.index][1],
                        children=result,
                    )
                    stack.pop()
                    continue
                frame.index += 1
                if frame.index == len(options):
                    result = None
                    stack.pop()
                    continue
                prod_index, production = options[frame.index]
                stack.append(
                    _BodyFrame(prod_index, production.body, 0, start, end)
                )
                continue

            body, dot = frame.body, frame.dot
            start, end = frame.start, frame.end
            if frame.resume == _ENTER:
                if self._failed_key(frame) in failed:
                    result = None
                    stack.pop()
                    continue
                if dot == len(body):
                    result = [] if start == end else None
                    stack.pop()
                    continue
                symbol = body[dot]
                if isinstance(symbol, Nonterminal):
                    frame.spans = self.spans(compiled.ids[symbol], start, end)
                    frame.mid = end + 1
                else:
                    if isinstance(symbol, CharSet):
                        matched = start < end and text[start] in symbol.chars
                        mid = start + 1
                    else:
                        mid = start + len(symbol)
                        matched = mid <= end and text.startswith(symbol, start)
                    if matched:
                        frame.resume = _AFTER_TERMINAL
                        stack.append(_BodyFrame(
                            frame.prod_index, body, dot + 1, mid, end
                        ))
                    else:
                        result = None
                        stack.pop()
                    continue
            elif frame.resume == _AFTER_TERMINAL:
                if result is not None:
                    symbol = body[dot]
                    if isinstance(symbol, CharSet):
                        symbol = text[start]
                    result = [symbol] + result
                else:
                    failed.add(self._failed_key(frame))
                stack.pop()
                continue
            elif frame.resume == _AFTER_REST:
                if result is not None:
                    frame.rest = result
                    frame.resume = _AFTER_CHILD
                    stack.append(_NonterminalFrame(
                        compiled.ids[body[dot]], start, frame.mid
                    ))
                    continue
            elif result is not None:  # _AFTER_CHILD
                result = [result] + frame.rest
                stack.pop()
                continue
            # Try the next shorter span of the nonterminal at ``dot``.
            frame.rest = None
            index = bisect_left(frame.spans, frame.mid, 1) - 1
            if index < 1:
                if frame.resume != _ENTER:
                    failed.add(self._failed_key(frame))
                result = None
                stack.pop()
                continue
            frame.mid = frame.spans[index]
            frame.resume = _AFTER_REST
            stack.append(
                _BodyFrame(frame.prod_index, body, dot + 1, frame.mid, end)
            )
        return result

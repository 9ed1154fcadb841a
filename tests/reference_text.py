"""Reference text forms, kept apart from the spelling memo, the one-pass
scanner and the index-walking parser that airframe runs: every address is
spelled from the root with format_address, a word is scanned one token
at a time, and parsed by peek and take.  Tests compare the library
against these."""

import re

from airframe.core import Graph, format_address
from airframe.words import (LONG_NAMES, MAX_LETTERS, MAX_NESTING,
                            WordSyntaxError)


def to_json(f):
    """GraphPairDiagram.to_json: leaves and pairs in sorted order."""
    mp = {format_address(a): ("~" if r else "") + format_address(b)
          for a, (b, r) in f.mapping.items()}
    return {
        "system": f.system.name,
        "domain": sorted(mp),
        "range": sorted(format_address(b) for b, _ in f.mapping.values()),
        "map": dict(sorted(mp.items())),
    }


def realize_graph(expansion):
    """core.realize_graph: a base vertex keeps its name, the fresh vertex
    v of the rule that expanded cell a is named "a:v"."""
    names = {}

    def name(tok):
        if tok not in names:
            names[tok] = tok[1] if tok[0] == "v" \
                else format_address(tok[1]) + ":" + tok[2]
        return names[tok]
    return Graph((format_address(a), color, name(src), name(tgt))
                 for a, (color, src, tgt) in expansion.realized().items())


_TOKEN = re.compile(r"\s*([a-z][a-z0-9]*|-?\d+|[()\[\],'^])")


def tokenize(src):
    """words.tokenize: skip whitespace, then match one token."""
    out = []
    i = 0
    while i < len(src):
        while i < len(src) and src[i].isspace():
            i += 1
        if i == len(src):
            break
        m = _TOKEN.match(src, i)
        if not m:
            raise WordSyntaxError("unexpected character %r" % src[i],
                                  i)
        out.append((m.group(1), m.start(1)))
        i = m.end()
    return out


_NUMBER = re.compile(r"-?\d+")


def parse_word(src):
    """words.parse_word, one method call per token read."""
    return Parser(src).parse()


class Parser:
    def __init__(self, src):
        self.src = src
        self.toks = tokenize(src)
        self.i = 0
        self.open = 0  # brackets open at the current token

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self):
        return self.toks[self.i][1] if self.i < len(self.toks) \
            else len(self.src)

    def take(self, expected=None):
        if self.i >= len(self.toks):
            raise WordSyntaxError("unexpected end of word", len(self.src))
        tok, pos = self.toks[self.i]
        if expected is not None and tok != expected:
            raise WordSyntaxError("expected %r, found %r" % (expected, tok),
                                  pos)
        self.i += 1
        return tok, pos

    def parse(self):
        expr, _, _ = self.word()
        if self.i < len(self.toks):
            raise WordSyntaxError("trailing input %r" % self.peek(),
                                  self.pos())
        return expr

    # word, factor and primary return (expression, flattened length,
    # height)
    def word(self):
        parts, n, h = [], 0, 0
        while not parts or self.peek() not in (None, ")", "]", ","):
            pos = self.pos()
            expr, m, g = self.factor()
            parts.append(expr)
            n, h = _bounded(n + m, pos), max(h, g)
        if len(parts) == 1:
            return parts[0], n, h
        return ("seq", parts), n, _nested(h + 1, pos)

    def factor(self):
        expr, n, h = self.primary()
        while self.peek() in ("'", "^"):
            tok, pos = self.take()
            if tok == "'":
                expr = ("inv", expr)
            else:
                nxt = self.peek()
                if nxt is not None and _NUMBER.fullmatch(nxt):
                    k, _ = self.take()
                    expr = ("pow", expr, int(k))
                    n = _bounded(n * abs(int(k)), pos)
                else:
                    y, m, g = self.primary()
                    expr, n = ("conj", expr, y), _bounded(n + 2 * m, pos)
                    h = max(h, g)
            h = _nested(h + 1, pos)
        return expr, n, h

    def primary(self):
        tok = self.peek()
        if tok in ("(", "["):
            _, pos = self.take()
            self.open = _nested(self.open + 1, pos)
            x, n, h = self.word()
            if tok == "(":
                self.take(")")
            else:
                self.take(",")
                y, m, g = self.word()
                self.take("]")
                x, n, h = ("comm", x, y), 2 * (n + m), _nested(
                    max(h, g) + 1, pos)
            self.open -= 1
            return x, n, h
        tok, pos = self.take()
        if _NUMBER.fullmatch(tok):
            raise WordSyntaxError("number %r is not a generator" % tok, pos)
        if not tok[0].isalpha():
            raise WordSyntaxError("expected a generator, found %r" % tok,
                                  pos)
        return ("atom", LONG_NAMES.get(tok, tok)), 1, 1


def _bounded(n, pos):
    if n > MAX_LETTERS:
        raise WordSyntaxError("word longer than %d letters" % MAX_LETTERS,
                              pos)
    return n


def _nested(h, pos):
    if h > MAX_NESTING:
        raise WordSyntaxError("word nested deeper than %d levels"
                              % MAX_NESTING, pos)
    return h

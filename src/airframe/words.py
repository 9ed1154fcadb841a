"""Parsing group words.

Grammar (LL(1)):

    word    := factor factor*          juxtaposition = composition,
                                       rightmost factor applied first
    factor  := primary postfix*
    postfix := "'" | "^" integer | "^" primary
    primary := name | "(" word ")" | "[" word "," word "]"

x^y is conjugation y^-1 x y; [x, y] is the commutator x y x' y'.
Postfixes bind tighter than juxtaposition and apply left to right.
"""

import re


class WordSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


MAX_LETTERS = 4096  # the longest word that flatten may build
MAX_NESTING = 100  # the deepest word that the recursive parse and
                   # flatten may handle

LONG_NAMES = {"alpha": "a", "beta": "b", "gamma": "g",
              "delta": "d", "epsilon": "e"}

# a token, or the first character that starts none; \s is str.isspace
_SCAN = re.compile(r"\s*(?:([a-z][a-z0-9]*|-?\d+|[()\[\],'^])|(\S))")
_NUMBER = re.compile(r"-?\d+")


def tokenize(src):
    out = []
    for m in _SCAN.finditer(src):
        tok = m[1]
        if tok is None:
            raise WordSyntaxError("unexpected character %r" % m[2],
                                  m.start(2))
        out.append((tok, m.start(1)))
    return out


class Parser:
    def __init__(self, src):
        self.toks = tokenize(src)
        # walked by index: past the last token is a sentinel, not a check
        self.toks.append((None, len(src)))
        self.i = 0
        self.open = 0  # brackets open at the current token

    def parse(self):
        expr, _, _ = self.word()
        tok, pos = self.toks[self.i]
        if tok is not None:
            raise WordSyntaxError("trailing input %r" % tok, pos)
        return expr

    def expect(self, want):
        tok, pos = self.toks[self.i]
        if tok != want:
            raise WordSyntaxError(
                "unexpected end of word" if tok is None
                else "expected %r, found %r" % (want, tok), pos)
        self.i += 1

    # word and factor return (expression, flattened length, height), so a
    # word too long to flatten or too deep to recurse over fails before
    # any letter list is built
    def word(self):
        toks = self.toks
        parts, n, h = [], 0, 0
        while True:
            pos = toks[self.i][1]
            expr, m, g = self.factor()
            parts.append(expr)
            n, h = _bounded(n + m, pos), max(h, g)
            if toks[self.i][0] in (None, ")", "]", ","):
                break
        if len(parts) == 1:
            return parts[0], n, h
        return ("seq", parts), n, _nested(h + 1, pos)

    def factor(self, postfix=True):
        """A primary, then its postfixes unless postfix is False (the
        primary after "^")."""
        toks = self.toks
        tok, pos = toks[self.i]
        self.i += 1
        if tok is None:
            raise WordSyntaxError("unexpected end of word", pos)
        if tok[0].isalpha():
            expr, n, h = ("atom", LONG_NAMES.get(tok, tok)), 1, 1
        elif tok == "(" or tok == "[":
            self.open = _nested(self.open + 1, pos)
            expr, n, h = self.word()
            if tok == "(":
                self.expect(")")
            else:
                self.expect(",")
                y, m, g = self.word()
                self.expect("]")
                expr, n, h = ("comm", expr, y), 2 * (n + m), _nested(
                    max(h, g) + 1, pos)
            self.open -= 1
        elif _NUMBER.fullmatch(tok):
            raise WordSyntaxError("number %r is not a generator" % tok, pos)
        else:
            raise WordSyntaxError("expected a generator, found %r" % tok, pos)
        while postfix:
            tok, pos = toks[self.i]
            if tok == "'":
                self.i += 1
                expr = ("inv", expr)
            elif tok == "^":
                k = toks[self.i + 1][0]
                if k is not None and _NUMBER.fullmatch(k):
                    self.i += 2
                    expr = ("pow", expr, int(k))
                    n = _bounded(n * abs(int(k)), pos)
                else:
                    self.i += 1
                    y, m, g = self.factor(False)
                    expr, n = ("conj", expr, y), _bounded(n + 2 * m, pos)
                    h = max(h, g)
            else:
                break
            h = _nested(h + 1, pos)
        return expr, n, h


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


def parse_word(src):
    return Parser(src).parse()


def flatten(expr):
    """WordExpression -> list of (name, exponent) in written order."""
    kind = expr[0]
    if kind == "atom":
        return [(expr[1], 1)]
    if kind == "seq":
        out = []
        for p in expr[1]:
            out.extend(flatten(p))
        return out
    if kind == "inv":
        return invert(flatten(expr[1]))
    if kind == "pow":
        base = flatten(expr[1]) if expr[2] >= 0 else invert(flatten(expr[1]))
        return base * abs(expr[2])
    if kind == "conj":
        x, y = flatten(expr[1]), flatten(expr[2])
        return invert(y) + x + y
    if kind == "comm":
        x, y = flatten(expr[1]), flatten(expr[2])
        return x + y + invert(x) + invert(y)
    raise ValueError("bad node %r" % (expr,))


def invert(word):
    return [(n, -e) for n, e in reversed(word)]

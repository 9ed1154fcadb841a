"""Reference text forms, kept apart from the spelling memo and the
one-pass scanner that airframe runs: every address is spelled from the
root with format_address, and a word is scanned one token at a time.
Tests compare the library against these."""

import re

from airframe.core import Graph, format_address
from airframe.words import WordSyntaxError


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

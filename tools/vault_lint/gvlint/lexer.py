"""Minimal C++ lexer for VaultLint.

Produces a flat token stream with line numbers.  Comments are dropped,
string/char literals are kept as single tokens (the suppression check needs
their contents), and preprocessor directives are dropped entirely — the
annotation macros the checks consume all appear in ordinary code, and
skipping directives keeps `#include <vector>` from reading as a comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

ID = "id"
NUM = "num"
STR = "str"
CHR = "chr"
PUNCT = "punct"


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int


_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"(?:0[xX][0-9a-fA-F']+|[0-9][0-9a-fA-F'.eEpPxXuUlLfF+-]*)")
# Longest-first so ``->`` never lexes as ``-`` ``>`` and ``::`` stays whole.
_PUNCT_RE = re.compile(
    r"<<=|>>=|\.\.\.|->\*|<=>|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-="
    r"|\*=|/=|%=|&=|\|=|\^=|[-+*/%^&|~!<>=?:;,.(){}\[\]#]"
)


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n, line = 0, len(text), 1
    in_directive = False
    while i < n:
        c = text[i]
        if c == "\n":
            if in_directive and (not tokens or text[i - 1] != "\\"):
                in_directive = False
            if in_directive and text[i - 1] == "\\":
                pass  # continued directive line
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                break
            line += text.count("\n", i, j + 2)
            i = j + 2
            continue
        if c == "#" and (not tokens or tokens[-1].line != line):
            # Preprocessor directive: skip to end of (possibly continued) line.
            in_directive = True
            i += 1
            continue
        if in_directive:
            i += 1
            continue
        if c == '"':
            # Raw strings: R"delim( ... )delim"
            if tokens and tokens[-1].kind == ID and tokens[-1].value.endswith("R") \
                    and tokens[-1].line == line:
                m = re.match(r'"([^ ()\\\n]*)\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i)
                    if j >= 0:
                        body = text[i : j + len(close)]
                        line_at = line
                        line += body.count("\n")
                        tokens.append(Token(STR, body, line_at))
                        i = j + len(close)
                        continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token(STR, text[i : j + 1], line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token(CHR, text[i : j + 1], line))
            i = j + 1
            continue
        m = _ID_RE.match(text, i)
        if m:
            tokens.append(Token(ID, m.group(0), line))
            i = m.end()
            continue
        if c.isdigit():
            m = _NUM_RE.match(text, i)
            tokens.append(Token(NUM, m.group(0), line))
            i = m.end()
            continue
        m = _PUNCT_RE.match(text, i)
        if m:
            tokens.append(Token(PUNCT, m.group(0), line))
            i = m.end()
            continue
        i += 1  # unknown byte: skip
    return tokens


def string_value(tok: Token) -> str:
    """Contents of a string-literal token (no unescaping beyond quotes)."""
    v = tok.value
    if v.startswith('"') and v.endswith('"'):
        return v[1:-1]
    return v


def match_paren(tokens: list[Token], open_idx: int) -> int:
    """Index of the ``)`` matching ``tokens[open_idx] == '('`` (or len)."""
    depth = 0
    for j in range(open_idx, len(tokens)):
        t = tokens[j]
        if t.kind == PUNCT:
            if t.value == "(":
                depth += 1
            elif t.value == ")":
                depth -= 1
                if depth == 0:
                    return j
    return len(tokens)


def match_brace(tokens: list[Token], open_idx: int) -> int:
    """Index of the ``}`` matching ``tokens[open_idx] == '{'`` (or len)."""
    depth = 0
    for j in range(open_idx, len(tokens)):
        t = tokens[j]
        if t.kind == PUNCT:
            if t.value == "{":
                depth += 1
            elif t.value == "}":
                depth -= 1
                if depth == 0:
                    return j
    return len(tokens)

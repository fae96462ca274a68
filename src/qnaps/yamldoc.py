"""A reader for the YAML that experiment configs are written in, using
the standard library only.

read(text) returns what PyYAML's yaml.safe_load(text) returns, for the
part of YAML 1.1 that configs use: block mappings and sequences (also a
sequence at its key's indent, as yaml.safe_dump writes it), flow
mappings and sequences over any number of lines, plain, single- and
double-quoted scalars with PyYAML's escapes and line folding, comments,
one leading ``---`` and one closing ``...``. A plain scalar resolves as
yaml.SafeLoader resolves it: ``~``, ``null`` and nothing are None;
``yes``, ``no``, ``on``, ``off``, ``true`` and ``false`` are bools; an
int may be ``0b`` binary, ``0x`` hex, octal after a 0, hold ``_`` or be
base 60 (``1:30`` is 90); a float has a dot and, with an exponent, a
signed one (``1e5`` stays a str), or is ``.inf``, ``-.inf`` or ``.nan``.

Anything else raises ValueError naming the line and column: anchors,
aliases, tags, block scalars, ``?`` keys, directives, a second document,
tabs outside quotes and comments, timestamps, merge keys, non-printable
characters, line breaks other than LF and CRLF, and a key given twice
(which PyYAML reads as its last value). So wherever read returns a
value, yaml.safe_load returns an equal one of the same types, and
wherever safe_load raises, read raises too.
"""

import math
import re

# compiled on first use, through re's cache: most configs need none of them
_BAD = "[\x00-\x08\x0b\x0c\r\x0e-\x1f\x7f-\x9f\ud800-\udfff\u2028\u2029\ufffe\uffff]"
_MARKER = r"(?m)^(?:---|\.\.\.)[ \t\n\0]"
_TIMESTAMP = (
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}|[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}(?:[Tt]|[ \t]+)[0-9]{1,2}:[0-9]{2}:[0-9]{2}"
    r"(?:\.[0-9]*)?(?:[ \t]*(?:Z|[-+][0-9]{1,2}(?::[0-9]{2})?))?"
)

_GAP = re.compile(r"(?:[ \n]+|#[^\n\0]*)*")
_SPACE = re.compile(r" *(?:#[^\n\0]*)?")
_BREAKS = re.compile(r" *\n[ \n]*")
# a plain scalar's text on one line, in block and in flow context: runs
# of text that ': ' (or a flow indicator) ends, with spaces between them
_LINE = tuple(re.compile(rf"{run}(?: +(?!#){run})*") for run in (
    r"(?:[^\0 \t\n:]|:(?=[^\0 \t\n]))+", r"(?:[^\0 \t\n:,?\[\]{}]|:(?=[^\0 \t\n,\[\]{}]))+"))
_QUOTED = {"'": re.compile(r"'((?:[^']|'')*)'"), '"': re.compile(r'"((?:[^"\\]|\\.)*)"', re.S)}
_FOLD = r"[ \t]*\n[ \t]*(?:\n[ \t]*)*"
_UNQUOTE = {"'": re.compile(_FOLD), '"': re.compile(
    rf"\\\n[ \t]*(?:\n[ \t]*)*|{_FOLD}|\\(?:x[0-9A-Fa-f]{{2}}|u[0-9A-Fa-f]{{4}}|U[0-9A-Fa-f]{{8}}|.)", re.S)}
_ESCAPES = dict(zip("0abt\tnvfre \"\\/N_LP", "\0\a\b\t\t\n\v\f\r\x1b \"\\/\x85\xa0\u2028\u2029"))
_REFUSED = {
    "&": "anchors are not supported", "*": "aliases are not supported", "!": "tags are not supported",
    "|": "block scalars are not supported", ">": "block scalars are not supported",
    "?": "'?' keys are not supported", "%": "directives are not supported",
    "\t": "a tab is allowed only in quotes and comments", "\0": "unexpected end of text",
}
_WORDS = {word: word.lower() in ("yes", "true", "on") for word in
          "yes Yes YES no No NO true True TRUE false False FALSE on On ON off Off OFF".split()}
_WORDS.update(dict.fromkeys(("", "~", "null", "Null", "NULL")))  # None
_INT = re.compile("[-+]?(?:0b[0-1_]+|0[0-7_]+|0|[1-9][0-9_]*|0x[0-9a-fA-F_]+|[1-9][0-9_]*(?::[0-5]?[0-9])+)")
_FLOAT = re.compile(
    r"[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?"
    r"|[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)"
)


def read(text: str):
    """The value of one YAML document, as yaml.safe_load reads it."""
    reader = _Reader(text[1:] if text.startswith("\ufeff") else text)
    try:
        return reader.document()
    except RecursionError:
        reader.fail("the document is nested too deeply")


def _resolve(plain):
    """A plain scalar's value, as yaml.SafeLoader constructs it."""
    if plain in _WORDS:
        return _WORDS[plain]
    kind = int if _INT.fullmatch(plain) else float if _FLOAT.fullmatch(plain) else None
    if kind is None:
        if plain in ("<<", "=") or plain[4:5] == "-" and re.fullmatch(_TIMESTAMP, plain):
            raise ValueError({"<<": "merge keys", "=": "'=' value keys"}.get(plain, "timestamps") + " are not supported")
        return plain
    digits = plain.replace("_", "")
    sign = -1 if digits[0] == "-" else 1
    digits = digits.lstrip("+-")
    if kind is float:
        digits = digits.lower()
        if digits in (".inf", ".nan"):
            return sign * math.inf if digits == ".inf" else -math.inf / math.inf
    elif digits == "0":
        return 0
    elif digits[:2] in ("0b", "0x"):
        return sign * int(digits[2:], 2 if digits[1] == "b" else 16)
    elif digits[0] == "0":
        return sign * int(digits, 8)
    value, base = kind(0), 1
    for part in reversed(digits.split(":")):  # base 60
        value += kind(part) * base
        base *= 60
    return sign * value


def _unquote(match):
    """What an escape or a run of line breaks in a quoted scalar stands for."""
    text = match.group()
    if text[0] == "\\" and text[1] != "\n":
        if text[1] in _ESCAPES:
            return _ESCAPES[text[1]]
        if len(text) == 2:
            raise ValueError(f"unknown escape {text}")
        return chr(int(text[2:], 16))
    return "\n" * (text.count("\n") - 1) or ("" if text[0] == "\\" else " ")


class _Reader:
    def __init__(self, text):
        self.s = text.replace("\r\n", "\n") + "\0\0"
        self.i = 0

    def fail(self, why, at=None):
        """Raise ValueError at position at (the current one if None); a why
        of None names the character there."""
        at = self.i if at is None else at
        why = why or _REFUSED.get(self.s[at], f"unexpected {self.s[at]!r}")
        line, column = self.s.count("\n", 0, at) + 1, at - self.s.rfind("\n", 0, at)
        raise ValueError(f"line {line}, column {column}: {why}")

    def col(self, at):
        return at - self.s.rfind("\n", 0, at) - 1

    def gap(self, at):
        """The next token at or after at: past spaces, line breaks and comments."""
        at = _GAP.match(self.s, at).end()
        if self.s[at] == "\t":
            self.fail(None, at)
        return at

    def eol(self):
        """Past the end of the line a value ended on, to the next token."""
        at = _SPACE.match(self.s, self.i).end()
        if self.s[at] not in "\n\0":
            self.fail(None, at)
        self.i = self.gap(at)

    def document(self):
        s = self.s
        text = s[:-2]  # str.isprintable refuses all that _BAD refuses, and more
        bad = not text.replace("\n", "").replace("\t", "").isprintable() and re.search(_BAD, text)
        if bad:
            ch = bad.group()
            self.fail("unsupported line break" if ch in "\r\x85\u2028\u2029" else f"non-printable {ch!r}", bad.start())
        self.i = self.gap(0)
        if s[self.i] == "%":
            self.fail(None, self.i)
        markers = re.compile(_MARKER) if "---" in s or "..." in s else None
        if markers and markers.match(s, self.i) and s[self.i] == "-":
            self.i += 3
            self.eol()
        marker = markers and markers.search(s, self.i)
        if marker:  # one "..." may end the content, with nothing after it
            start, self.i = self.i, marker.start() + 3
            self.eol()
            if s[marker.start()] == "-" or start == marker.start() or s[self.i] != "\0":
                self.fail("a second document is not supported", marker.start())
            s = self.s = s[: marker.start()] + "\0\0"
            self.i = start
        value = self.block(-1)
        if s[self.i] != "\0":
            self.fail("expected the end of the document")
        return value

    def dash(self, at):
        return self.s[at] == "-" and self.s[at + 1] in " \t\n\0"

    def more(self, column):
        """Whether the next token continues the block collection at column."""
        if self.s[self.i] == "\0" or self.col(self.i) < column:
            return False
        if self.col(self.i) > column:
            self.fail(f"indented past the collection at column {column + 1}")
        return True

    def block(self, parent, indentless=False):
        """The block node at the next token, or None if that is not deeper
        than the collection at column parent; a mapping's value may be a
        sequence at the mapping's own column."""
        s, start = self.s, self.i
        column = self.col(start)
        if s[start] == "\0" or column < parent or column == parent and not (indentless and self.dash(start)):
            return None
        if self.dash(start):
            return self.sequence(column)
        value = self.node(False, parent + 1)
        if self.colon(start, False):
            return self.mapping(column, value, start)
        self.eol()
        return value

    def sequence(self, column):
        items = []
        while True:
            self.i = self.gap(self.i + 1)
            items.append(self.block(column))
            if not (self.more(column) and self.dash(self.i)):
                return items

    def mapping(self, column, key, start):
        s, pairs = self.s, {}
        while True:
            if key in pairs:
                self.fail(f"duplicate key {key!r}", start)
            at = _SPACE.match(s, self.i).end()
            if s[at] in "\n\0":
                self.i = self.gap(at)
                pairs[key] = self.block(column, True)
            else:
                self.i = at
                pairs[key] = self.node(False, column + 1)
                self.eol()
            if not self.more(column):
                return pairs
            start = self.i
            key = self.node(False, column + 1)
            if not self.colon(start, False):
                self.fail("expected a key followed by ': '", start)

    def colon(self, start, flow):
        """Whether the node from start to here is a key: a ':' follows on
        its line (and a space, in block context); if so, past the ':'."""
        s, at = self.s, self.i
        while s[at] == " ":
            at += 1
        if s[at] != ":" or not flow and s[at + 1] not in " \n\0" or "\n" in s[start:at]:
            return False
        if s[start] in "[{":
            self.fail("a key must be a scalar", start)
        if at - start > 1024:
            self.fail("a key longer than 1024 characters", start)
        self.i = at + 1
        return True

    def collection(self, at):
        s, close = self.s, "]" if self.s[at] == "[" else "}"
        out = [] if close == "]" else {}
        self.i = self.gap(at + 1)
        while s[self.i] != close:
            start = self.i
            value = self.node(True, 0)
            if close == "]":
                out.append(value)
            elif not self.colon(start, True):
                self.fail("expected a key followed by ':'")
            elif value in out:
                self.fail(f"duplicate key {value!r}", start)
            else:
                self.i = self.gap(self.i)
                out[value] = None if s[self.i] in ",}" else self.node(True, 0)
            self.i = self.gap(self.i)
            if s[self.i] == ",":
                self.i = self.gap(self.i + 1)
            elif s[self.i] != close:
                self.fail(f"expected ',' or '{close}'")
        self.i += 1
        return out

    def node(self, flow, mincol):
        """The scalar or flow collection at the next token; in block context
        a plain scalar's continuation lines reach column mincol."""
        s, at = self.s, self.i
        ch = s[at]
        if ch in "[{":
            return self.collection(at)
        if ch in "'\"":
            match = _QUOTED[ch].match(s, at)
            if not match:
                self.fail("the quoted scalar is not closed", at)
            self.i = match.end()
            try:
                value = _UNQUOTE[ch].sub(_unquote, match.group(1))
            except ValueError as exc:  # an unknown escape, or chr() past U+10FFFF
                self.fail(str(exc), at)
            return value.replace("''", "'") if ch == "'" else value
        if ch in "\0 \t\n-?:,[]{}#&*!|>'\"%@`" and (s[at + 1] in "\0 \t\n" or ch not in "-?:" or flow and ch != "-"):
            self.fail(None, at)
        # a plain scalar, as PyYAML's scan_plain reads it
        start, parts, fold, end = at, [], "", at
        while line := _LINE[flow].match(s, at):
            parts += (fold, line.group())
            end = line.end()
            breaks = _BREAKS.match(s, end)
            if not breaks:
                break
            at = breaks.end()
            if s[at] == "#" or not flow and self.col(at) < mincol:
                break
            fold = "\n" * (breaks.group().count("\n") - 1) or " "
        self.i = end
        try:
            return _resolve("".join(parts))
        except ValueError as exc:
            self.fail(str(exc), start)

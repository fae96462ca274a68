"""qnaps.yamldoc against PyYAML, its oracle.

yaml.safe_load is to the config reader what tests/_reference.py is to
the compiled loop: wherever yamldoc.read returns a value, safe_load
returns an equal one of the same types, and wherever safe_load raises,
read raises ValueError. This is checked over yaml.safe_dump of random
documents in block, flow and mixed styles, over the shipped configs
(tests/conftest.py checks every config the other tests load), and over
random edits and random token soups of such texts. The one intended
difference is a key given twice, which safe_load reads as its last
value and read refuses.
"""

import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from qnaps import yamldoc
from qnaps.yamldoc import read

from _helpers import same_yaml

SHIPPED = sorted((Path(__file__).resolve().parents[1] / "src" / "qnaps" / "configs").glob("*.yaml"))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])


def _agrees(text):
    """read(text) is safe_load(text), or read refuses it; True if it read."""
    try:
        want = yaml.safe_load(text)
    except Exception:  # noqa: BLE001 - YAMLError, or the ValueError of int("", 2)
        with pytest.raises(ValueError):
            read(text)
        return False
    try:
        got = read(text)
    except ValueError:
        return False
    assert same_yaml(got, want), (text, got, want)
    return True


# ---------------------------------------------------------------------------
# named cases


@pytest.mark.parametrize("text, value", [
    ("1e5", "1e5"),  # no dot: a str under YAML 1.1
    ("1.0e5", "1.0e5"),  # an unsigned exponent: a str too
    ("1.0e+5", 100000.0),
    ("010", 8),
    ("0o17", "0o17"),
    ("0x_1F", 31),
    ("-0b1_01", -5),
    ("1:30", 90),
    ("-1:30.5", -90.5),
    ("1_000", 1000),
    (".inf", math.inf),
    ("-.Inf", -math.inf),
    ("~", None),
    ("", None),
    ("yes", True),
    ("Off", False),
    ("yEs", "yEs"),
    ("a: b\n  c", {"a": "b c"}),
    ("- 'it''s'\n- \"\\t\\u00e9\\x41\"", ["it's", "\téA"]),
    ("k: [1,\n  2]  # comment\n", {"k": [1, 2]}),
    ("k:\n- 1\n- {a: ~}\n", {"k": [1, {"a": None}]}),
    ("\ufeff--- # header\na: 1\r\nb: 2\r\n...\n", {"a": 1, "b": 2}),
    ("k" * 1024 + ": 1", {"k" * 1024: 1}),  # PyYAML's longest simple key
])
def test_named_cases(text, value):
    assert same_yaml(read(text), value)
    assert same_yaml(yaml.safe_load(text), value)


@pytest.mark.parametrize("text, where, why", [
    ("a: 1\nb: 2\na: 3", "line 3, column 1", "duplicate key 'a'"),
    ("{a: 1, a: 2}", "line 1, column 8", "duplicate key 'a'"),
    ("a:\n\tb: 1", "line 2, column 1", "a tab is allowed only in quotes and comments"),
    ("a: &x 1", "line 1, column 4", "anchors are not supported"),
    ("a: *x", "line 1, column 4", "aliases are not supported"),
    ("a: !!str 1", "line 1, column 4", "tags are not supported"),
    ("a: |\n  x", "line 1, column 4", "block scalars are not supported"),
    ("? a\n: 1", "line 1, column 1", "'?' keys are not supported"),
    ("%YAML 1.1\n---\na: 1", "line 1, column 1", "directives are not supported"),
    ("a: 1\n---\nb: 2", "line 2, column 1", "a second document is not supported"),
    ("a: 2001-12-14", "line 1, column 4", "timestamps are not supported"),
    ("<<: {a: 1}", "line 1, column 1", "merge keys are not supported"),
    ("a: 1\nb: \x07", "line 2, column 4", "non-printable '\\x07'"),
    ("a: 'x\n", "line 1, column 4", "the quoted scalar is not closed"),
    ("a:\n  b: 1\n c: 2", "line 3, column 2", "indented past the collection at column 1"),
    ("- " + "k" * 1025 + ": 1", "line 1, column 3", "a key longer than 1024 characters"),
])
def test_refusals_name_line_and_column(text, where, why):
    with pytest.raises(ValueError, match=re.escape(f"{where}: {why}")):
        read(text)


def test_duplicate_keys_are_the_one_intended_difference():
    assert yaml.safe_load("a: 1\na: 2") == {"a": 2}
    with pytest.raises(ValueError, match="duplicate key"):
        read("a: 1\na: 2")


def test_non_printable_class_is_pyyamls():
    # the reader's positive class refuses what PyYAML's negated one does,
    # and the line breaks other than \n and \r\n, which it does not take
    every = "".join(map(chr, range(0x110000)))
    theirs = set(yaml.reader.Reader.NON_PRINTABLE.findall(every))
    refused = theirs | {"\r", "\x85", "\u2028", "\u2029"}
    assert set(re.findall(yamldoc._BAD, every)) == refused
    # read searches only a text that str.isprintable refuses
    assert not any(ch.isprintable() for ch in refused)


def test_shipped_configs_read_as_safe_load_reads_them():
    for path in SHIPPED:
        text = path.read_text(encoding="utf-8")
        assert _agrees(text), path.name


# ---------------------------------------------------------------------------
# properties

_KEYS = st.text(min_size=1, max_size=100).filter(lambda k: not set(k) & set("\n\x85\u2028\u2029"))
_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


@PROPERTY
@given(_DOCS, st.sampled_from([False, True, None]), st.sampled_from([8, 30, 80, 10**6]))
def test_reads_what_safe_dump_writes(doc, flow, width):
    # keys stay under safe_dump's 128 characters for a simple key, and
    # under 1024 once escaped, so both readers take every dump. The reader
    # is held to safe_load, not to doc: at a small width PyYAML's emitter
    # can break a line at an escaped space so that PyYAML does not read
    # back what it wrote ([[{'0': '0\x1f 0'}]] at width 8 reads back
    # '0\x1f\\  0'); every other dump reads back as doc
    text = yaml.safe_dump(doc, default_flow_style=flow, width=width)
    assert same_yaml(read(text), yaml.safe_load(text))


def _corpus():
    texts = [path.read_text(encoding="utf-8") for path in SHIPPED]
    for text in texts[:]:  # as the CLI tests write them: safe_dump of a shipped doc
        texts += [yaml.safe_dump(yaml.safe_load(text), default_flow_style=s) for s in (False, None, True)]
    return texts


_CORPUS = _corpus()
_EDIT_CHARS = list(" \n\t\r:-#'\"[]{},?&*!|>%@`.~0129eE+_xbo\\/yYnN<=") + ["\ufeff", "\x85", "\xe9", "---", "..."]


@st.composite
def _edited(draw):
    text = draw(st.sampled_from(_CORPUS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "swap", "indent", "dedent"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(_EDIT_CHARS)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        elif edit == "swap":
            text = text[:at] + text[at + 1:at + 2] + text[at:at + 1] + text[at + 2:]
        else:
            start = text.rfind("\n", 0, at) + 1
            if edit == "indent":
                text = text[:start] + " " * draw(st.integers(1, 3)) + text[start:]
            elif text[start:start + 1] == " ":
                text = text[:start] + text[start + 1:]
    return text


@PROPERTY
@given(_edited())
def test_edited_configs_read_as_safe_load_reads_them_or_are_refused(text):
    _agrees(text)


_TOKENS = ["- ", "-", "a: ", "b:", "k :", "'x'", "'x y'", '"q"', '"a\\\n b"', "'m\n n'", "[", "]", "{", "}",
           ", ", ",", "# c", " #c", "#", "b", "1", "0.5", "1:2", ": ", ":", "?x", "? ", "x:y", "yes", "~", " ",
           "  ", "\t", "'", '"', "\\", "-x", "---", "...", "%", "&a", "*a", "!t", "|", "a b", "''", ":x", "x#y",
           "010", "1e5", ".inf", "=", "<<", "\n"]


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from([0, 0, 1, 2, 3, 4]), st.lists(st.sampled_from(_TOKENS), max_size=5)),
                min_size=1, max_size=6))
def test_token_soups_read_as_safe_load_reads_them_or_are_refused(lines):
    _agrees("\n".join(" " * indent + "".join(tokens) for indent, tokens in lines))

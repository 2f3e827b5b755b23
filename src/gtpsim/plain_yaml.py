"""A reader for the plain YAML that scenario files are written in, so that
reading them needs no PyYAML import.

`read` returns the document PyYAML's safe loader builds from a text, or
None when the text holds anything outside these forms, for PyYAML to read:

* block mappings and sequences indented with spaces, a sequence indented
  under its key, each sequence item a scalar or a one-line flow collection;
* one-line flow sequences and flow mappings, nested;
* full-line comments, comments after ` #`, and blank lines;
* plain scalars, typed as PyYAML's YAML 1.1 resolver types them: ints
  `[-+]?(0|[1-9][0-9]*)`, floats `[-+]?[0-9]+\\.[0-9]*([eE][-+][0-9]+)?`,
  `true`, `false`, `null`, `~` or an empty mapping value, and strings of a
  letter then letters, digits and `_./-` that are no YAML 1.1 bool or null
  word in any case.  Mapping keys are such strings, of at most 128
  characters.

It raises no error of its own on any text and never recurses; a document
nested deeper than `max_depth` is declined too.
"""

from __future__ import annotations

import re
from typing import Any, Optional

_OUTSIDE = re.compile(r"[^\n -~]")       # tabs, CR, BOM, any non-ASCII
_KEY = r"[A-Za-z][A-Za-z0-9_./-]{0,127}"
_KEY_LINE = re.compile(rf"({_KEY}):(?: +(.+))?")  # also a flow mapping's `key:` token
_SCALAR = re.compile(r"(?P<int>[-+]?(?:0|[1-9][0-9]*))"
                     r"|(?P<float>[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)"
                     r"|(?P<word>[A-Za-z][A-Za-z0-9_./-]*|~)")
_FLOW_TOKEN = re.compile(r"( *)([\[\]{},]|[^ \[\]{},]+)")
_WORDS = {"true": True, "false": False, "null": None, "~": None}
_YAML11_WORDS = {"y", "n", "yes", "no", "true", "false", "on", "off", "null"}
_NO = object()                            # a declined scalar or collection


def _scalar(token: str) -> Any:
    match = _SCALAR.fullmatch(token)
    if match is None:
        return _NO
    if match.lastgroup == "int":
        return int(token)
    if match.lastgroup == "float":
        return float(token)
    if token in _WORDS:
        return _WORDS[token]
    return _NO if token.lower() in _YAML11_WORDS else token


def _is_key(key: str) -> bool:
    return key.lower() not in _YAML11_WORDS


def _flow(text: str, depth: int, max_depth: int) -> Any:
    """The flow collection that is all of `text`, which starts with `[` or
    `{`, nested inside `depth` block collections, or _NO."""
    stack: list = []      # the open collections, innermost last
    root = key = None
    state = "item"        # item, open (just opened), after (an item), value, end
    for space, token in map(re.Match.groups, _FLOW_TOKEN.finditer(text)):
        if state == "end":
            return _NO
        container = stack[-1] if stack else None
        if state in ("open", "after"):
            if token == ("]" if type(container) is list else "}"):
                stack.pop()
                state = "after" if stack else "end"
                continue
            if state == "after":
                if token != ",":
                    return _NO
                state = "item"
                continue
        if type(container) is dict and state != "value":
            key_match = _KEY_LINE.fullmatch(token)
            if key_match is None or not _is_key(key_match[1]):
                return _NO
            key, state = key_match[1], "value"
            continue
        if state == "value" and not space:
            return _NO
        if token in ("[", "{"):
            if depth + len(stack) >= max_depth:
                return _NO
            value: Any = [] if token == "[" else {}
        else:
            value = _scalar(token)
            if value is _NO:
                return _NO
        if container is None:
            root = value
        elif type(container) is list:
            container.append(value)
        else:
            container[key] = value
        if token in ("[", "{"):
            stack.append(value)
            state = "open"
        else:
            state = "after"
    return root if state == "end" else _NO


def read(text: str, max_depth: int) -> Optional[Any]:
    """The document PyYAML's safe loader builds from `text`, a mapping or a
    sequence, or None when the text is outside the forms this module
    reads.  A collection nested more than `max_depth` deep is declined."""
    if _OUTSIDE.search(text):
        return None
    frames: list = []     # (indent, collection) of the open block collections
    pending = None        # (indent, mapping, key) of a `key:` awaiting its value
    root: Any = _NO
    for line in text.split("\n"):
        hash_at = line.find("#")
        if hash_at >= 0:
            if hash_at and line[hash_at - 1] != " ":
                return None
            line = line[:hash_at]
        body = line.strip(" ")
        if not body:
            continue
        if root is not _NO and not frames:
            return None               # more after a top-level flow collection
        indent = len(line) - len(line.lstrip(" "))
        if body.startswith("- "):
            key, rest = None, body[2:].lstrip(" ")
        else:
            match = _KEY_LINE.fullmatch(body)
            if match is None:
                if root is not _NO or body[0] not in "[{":
                    return None
                root = _flow(body, 0, max_depth)
                if root is _NO:
                    return None
                continue
            key, rest = match.groups()
            if not _is_key(key):
                return None
        if pending is not None:
            p_indent, mapping, p_key = pending
            pending = None
            if indent > p_indent:
                if len(frames) >= max_depth:
                    return None
                mapping[p_key] = [] if key is None else {}
                frames.append((indent, mapping[p_key]))
            elif key is None and indent == p_indent:
                return None           # a sequence not indented under its key
            else:
                mapping[p_key] = None
        while frames and frames[-1][0] > indent:
            frames.pop()
        if not frames:
            if root is not _NO:
                return None
            root = [] if key is None else {}
            frames.append((indent, root))
        f_indent, container = frames[-1]
        if f_indent != indent or (type(container) is list) != (key is None):
            return None
        if rest is None:
            pending = (indent, container, key)
            continue
        value = _flow(rest, len(frames), max_depth) if rest[0] in "[{" else _scalar(rest)
        if value is _NO:
            return None
        if key is None:
            container.append(value)
        else:
            container[key] = value
    if pending is not None:
        pending[1][pending[2]] = None
    return None if root is _NO else root

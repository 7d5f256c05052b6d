"""Reader and writer for the Turtle subset used by activity descriptions.

Supported subset: ``@prefix`` declarations, the ``a`` keyword, ``;`` and
``,`` continuations, typed literals ``"..."^^xsd:{boolean,integer,double,
string}`` and ``#`` comments. No blank nodes, no collections. Entity
identity is the local name behind the ``entity:`` prefix; the namespaces
are fixed. Properties of unknown names (and subjects of unknown concepts)
are preserved as opaque triples and written back out unchanged.

The reader scans the text once into a flat list of (kind, text, offset)
tokens and parses that list; a token's line and column are computed only
when an error is raised. An object token that starts with ``"`` is a
literal whose lexical form runs to its last ``"``. Its datatype's prefix
must be declared like any other, and the literal is kept with its datatype
under ``xsd:``, so an opaque literal is written back under a declared
prefix. On a known property the object must be what the property holds:
an entity reference when its kind in ``kg.PROPERTIES`` is a ``Concept``,
else a literal whose datatype is ``xsd:boolean``, ``xsd:integer`` or
``xsd:double`` for those kinds and ``xsd:string`` for every other (a
literal without a datatype is a string); anything else is a
``GraphValidationError`` problem. A subject may name one type,
repeated or not: a known concept together with any other type is a
``GraphValidationError``.
"""

from __future__ import annotations

import re

from .errors import GraphValidationError, TurtleSyntaxError
from .kg import (
    Concept,
    KnowledgeGraph,
    PROPERTIES,
    new_entity,
    parse_property_value,
    render_property_value,
    resolve_property,
    sorted_entities,
)

NAMESPACES = {
    "entity": "http://example.org/Entity/",
    "property": "http://example.org/Property/",
    "concept": "http://example.org/Concept/",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
}

# Every other literal is an xsd:string.
_XSD_FOR_KIND = {"bool": "boolean", "int": "integer", "double": "double"}

_CONCEPTS = {concept.value for concept in Concept}

# The local name behind a prefix: every entity name the writer puts behind
# ``entity:`` must match it, or the reader rejects the document.
_LOCAL_NAME = r"[A-Za-z0-9_][A-Za-z0-9_-]*"
_LOCAL_NAME_RE = re.compile(_LOCAL_NAME)


def is_local_name(name: str) -> bool:
    """Whether ``name`` can be written as an entity and read back."""
    return _LOCAL_NAME_RE.fullmatch(name) is not None


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<prefix_kw>@prefix\b)"
    r"|(?P<iri><[^>]*>)"
    r"|(?P<literal>\"(?:[^\"\\]|\\.)*\"(?:\^\^[A-Za-z][A-Za-z0-9_]*:" + _LOCAL_NAME + r")?)"
    r"|(?P<pname>[A-Za-z][A-Za-z0-9_]*:" + _LOCAL_NAME + r")"
    r"|(?P<pname_ns>[A-Za-z][A-Za-z0-9_]*:)"
    r"|(?P<kw_a>\ba\b)"
    r"|(?P<punct>[.;,])"
)


def _position(text, offset):
    """The 1-based line and column of `offset` in `text`."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokenize(text):
    """Returns the (kind, text, offset) of every token, comments and
    whitespace left out, then an ("end", "", offset) mark at the last one."""
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        if kind != "ws" and kind != "comment":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    if pos < len(text):
        line, column = _position(text, pos)
        raise TurtleSyntaxError(f"unexpected character {text[pos]!r}", line, column)
    tokens.append(("end", "", tokens[-1][2] if tokens else 0))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.prefixes: dict[str, str] = {}

    def _error(self, message, offset, expected=None):
        line, column = _position(self.text, offset)
        return TurtleSyntaxError(message, line, column, expected=expected)

    def _next(self, kinds, expected, statement_at=None):
        """Takes the next token, whose kind must be one of `kinds`. At the
        end mark the error is the end of the document, or the end of the
        statement at `statement_at` when that is given."""
        kind, text, offset = self.tokens[self.idx]
        if kind == "end":
            if statement_at is None:
                raise self._error("unexpected end of document", offset, expected)
            raise self._error("unexpected end of statement", statement_at, expected)
        if kind not in kinds:
            raise self._error(f"unexpected token {text!r}", offset, expected)
        self.idx += 1
        return kind, text, offset

    def _local(self, text, offset):
        """The local name of a prefixed name whose prefix is declared."""
        prefix, local = text.split(":", 1)
        if prefix not in self.prefixes:
            raise self._error(f"unknown prefix {prefix!r}", offset)
        return local

    def parse(self):
        """Returns raw triples as (subject, predicate, object-token) rows."""
        triples = []
        while self.tokens[self.idx][0] != "end":
            if self.tokens[self.idx][0] == "prefix_kw":
                self.idx += 1
                _kind, name, _at = self._next(("pname_ns",), "prefix:")
                _kind, iri, _at = self._next(("iri",), "<iri>")
                _kind, dot, dot_at = self._next(("punct",), ".")
                if dot != ".":
                    raise self._error(f"unexpected {dot!r}", dot_at, ".")
                self.prefixes[name[:-1]] = iri[1:-1]
                continue
            triples.extend(self._statement())
        return triples

    def _statement(self):
        _kind, subject_text, subject_at = self._next(("pname",), "subject")
        subject = self._local(subject_text, subject_at)
        out = []
        while True:
            kind, verb, verb_at = self._next(("kw_a", "pname"), "predicate", subject_at)
            predicate = verb if kind == "kw_a" else self._local(verb, verb_at)
            while True:
                kind, obj, obj_at = self._next(("pname", "literal"), "object", verb_at)
                if kind == "pname":
                    self._local(obj, obj_at)
                elif obj[-1] != '"':
                    # A typed literal. The namespaces are fixed, so its
                    # datatype is the local name, kept under the one
                    # prefix the writer declares.
                    at = obj.rindex('"') + 3
                    if not obj.startswith("xsd:", at) or "xsd" not in self.prefixes:
                        obj = obj[:at] + "xsd:" + self._local(obj[at:], obj_at)
                out.append((subject, predicate, obj))
                if self.tokens[self.idx][1] != ",":
                    break
                self.idx += 1
            # The object loop took every ',', so the separator is '.' or ';'.
            _kind, sep, _at = self._next(("punct",), "';' or '.'")
            if sep == ".":
                return out
            if self.tokens[self.idx][1] == ".":
                self.idx += 1
                return out


def _unescape(text):
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _object_type(token_text):
    """What an object token read by _Parser holds: None for an entity
    reference, else the local name of its literal's datatype ("string"
    when it has none)."""
    if token_text[0] != '"':
        return None
    if token_text[-1] == '"':
        return "string"
    return token_text.rpartition(":")[2]


def _datatype(kind):
    """The local name of the datatype a property's literals carry, or None
    for a property that holds entity references."""
    if isinstance(kind, Concept):
        return None
    return _XSD_FOR_KIND.get(kind, "string")


def _type_text(object_type):
    return "an entity reference" if object_type is None else f"xsd:{object_type}"


def _decode_object(token_text):
    """Returns ("literal", lexical) or ("entity", local name)."""
    if token_text.startswith('"'):
        return "literal", _unescape(token_text[1 : token_text.rindex('"')])
    return "entity", token_text.split(":", 1)[1]


def parse_turtle(text: str) -> KnowledgeGraph:
    """Parse a Turtle document into a validated knowledge graph."""
    raw = _Parser(text).parse()
    graph = KnowledgeGraph()
    problems: list[str] = []

    types: dict[str, list[str]] = {}
    for subject, predicate, obj_text in raw:
        if predicate != "a":
            continue
        obj_kind, value = _decode_object(obj_text)
        if obj_kind != "entity":
            problems.append(f"entity {subject!r}: type must be a concept reference")
            continue
        names = types.setdefault(subject, [])
        if value not in names:
            names.append(value)
    type_of: dict[str, Concept] = {}
    for subject, names in types.items():
        if not _CONCEPTS.intersection(names):
            continue  # unknown concepts only, preserved opaquely below
        if len(names) > 1:
            problems.append(f"entity {subject!r}: typed as {' and '.join(names)}")
        else:
            type_of[subject] = Concept(names[0])

    entities = {name: new_entity(concept, name) for name, concept in type_of.items()}

    for subject, predicate, obj_text in raw:
        if predicate == "a" and subject in type_of:
            continue
        concept = type_of.get(subject)
        resolved = resolve_property(concept, predicate) if concept else None
        if concept is None or resolved is None:
            obj_kind, decoded = _decode_object(obj_text)
            stored = obj_text if obj_kind == "literal" else decoded
            graph.add_extra_triple(subject, predicate, stored)
            continue
        attr, value_kind, multi, _req = PROPERTIES[concept][resolved]
        got, want = _object_type(obj_text), _datatype(value_kind)
        if got != want:
            problems.append(
                f"{concept.value} {subject!r}: {resolved} is {_type_text(got)}, "
                f"expected {_type_text(want)}"
            )
            continue
        _obj_kind, lexical = _decode_object(obj_text)
        try:
            value = parse_property_value(value_kind, lexical)
        except ValueError as exc:
            problems.append(
                f"{concept.value} {subject!r}: bad value for {resolved} ({exc})"
            )
            continue
        entity = entities[subject]
        if multi:
            bucket = getattr(entity, attr)
            if value not in bucket:
                bucket.append(value)
        else:
            setattr(entity, attr, value)

    for entity in entities.values():
        graph.add(entity)

    if problems:
        raise GraphValidationError(problems)
    graph.validate()
    return graph


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def write_turtle(graph: KnowledgeGraph) -> str:
    """Serialize a graph; parse_turtle(write_turtle(g)) is isomorphic to g."""
    lines = [f"@prefix {p}: <{iri}> ." for p, iri in NAMESPACES.items()]
    lines.append("")

    for entity in sorted_entities(graph):
        lines.append(f"entity:{entity.name} a concept:{entity.concept.value};")
        rendered: list[str] = []
        for prop, (attr, kind, multi, _req) in PROPERTIES[entity.concept].items():
            value = getattr(entity, attr)
            if value is None:
                continue
            datatype = _datatype(kind)
            for item in value if multi else [value]:
                if datatype is None:
                    rendered.append(f"property:{prop} entity:{item}")
                else:
                    lexical = _escape(render_property_value(kind, item))
                    rendered.append(f'property:{prop} "{lexical}"^^xsd:{datatype}')
        for i, row in enumerate(rendered):
            lines.append(f"    {row}{';' if i < len(rendered) - 1 else ' .'}")
        if not rendered:
            lines[-1] = lines[-1][:-1] + " ."
        lines.append("")

    for subject, predicate, obj in sorted(graph.extra_triples):
        verb = "a" if predicate == "a" else f"property:{predicate}"
        if obj.startswith('"'):
            rendered_obj = obj
        elif predicate == "a":
            rendered_obj = f"concept:{obj}"
        else:
            rendered_obj = f"entity:{obj}"
        lines.append(f"entity:{subject} {verb} {rendered_obj} .")
    return "\n".join(lines).rstrip() + "\n"

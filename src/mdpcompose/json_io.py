"""Flat JSON mirror of the knowledge graph.

Layout: ``{"entities": [{"name": ..., "concept": ..., "properties": {...}}]}``
with property keys equal to the serialized property names, in the order
``kg.PROPERTIES`` lists them for the entity's concept. Multi-valued
properties are JSON arrays; opaque (unknown) properties are kept under a
reserved ``"x-triples"`` list so the mirror stays lossless.
"""

from __future__ import annotations

import json

from .errors import SchemaError
from .kg import (
    Concept,
    KnowledgeGraph,
    PROPERTIES,
    new_entity,
    parse_property_value,
    render_property_value,
    sorted_entities,
)


def _json_value(kind, value):
    if kind == "bool":
        return bool(value)
    if kind == "int":
        return int(value)
    if kind == "double":
        return float(value)
    return render_property_value(kind, value)


def to_json(graph: KnowledgeGraph) -> str:
    entities = []
    for entity in sorted_entities(graph):
        props: dict = {}
        for prop, (attr, kind, multi, _req) in PROPERTIES[entity.concept].items():
            value = getattr(entity, attr)
            if value is None:
                continue
            if multi:
                props[prop] = [_json_value(kind, item) for item in value]
            else:
                props[prop] = _json_value(kind, value)
        entities.append(
            {"name": entity.name, "concept": entity.concept.value, "properties": props}
        )
    document: dict = {"entities": entities}
    if graph.extra_triples:
        document["x-triples"] = [list(t) for t in sorted(graph.extra_triples)]
    return json.dumps(document, separators=(",", ":"))


def from_json(text: str) -> KnowledgeGraph:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from None
    if not isinstance(document, dict) or "entities" not in document:
        raise SchemaError('top level must be an object with an "entities" list')
    rows = document["entities"]
    if not isinstance(rows, list):
        raise SchemaError('"entities" must be a list')

    graph = KnowledgeGraph()
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SchemaError(f"entities[{i}] is not an object")
        for key in ("name", "concept", "properties"):
            if key not in row:
                raise SchemaError(f"entities[{i}]: missing field {key!r}")
        try:
            concept = Concept(row["concept"])
        except ValueError:
            raise SchemaError(
                f"entities[{i}]: unknown concept {row['concept']!r}"
            ) from None
        if not isinstance(row["properties"], dict):
            raise SchemaError(f'entities[{i}]: "properties" must be an object')
        entity = new_entity(concept, str(row["name"]))
        spec = PROPERTIES[concept]
        seen = set()
        for prop, raw in row["properties"].items():
            if prop not in spec:
                raise SchemaError(
                    f"{concept.value} {entity.name!r}: unknown property {prop!r}"
                )
            attr, kind, multi, _req = spec[prop]
            seen.add(prop)
            try:
                if multi:
                    if not isinstance(raw, list):
                        raise ValueError("expected a list")
                    setattr(
                        entity, attr, [parse_property_value(kind, item) for item in raw]
                    )
                else:
                    setattr(entity, attr, parse_property_value(kind, raw))
            except ValueError as exc:
                raise SchemaError(
                    f"{concept.value} {entity.name!r}: bad value for {prop} ({exc})"
                ) from None
        for prop, (_attr, _kind, multi, required) in spec.items():
            if required and prop not in seen:
                raise SchemaError(
                    f"{concept.value} {entity.name!r}: missing mandatory field {prop}"
                )
        graph.add(entity)

    triples = document.get("x-triples", [])
    if not isinstance(triples, list):
        raise SchemaError('"x-triples" must be a list')
    for triple in triples:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise SchemaError('"x-triples" rows must hold [subject, predicate, object]')
        graph.add_extra_triple(*[str(part) for part in triple])

    graph.validate()
    return graph

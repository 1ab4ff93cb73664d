"""Entity-Component-System substrate used by the DOD engine."""

from .components import CHUNK_ENTITIES, FieldSpec, SoATable
from .commands import CommandBuffer, consolidate
from .entity import (
    BACKENDS, EGRESS_SCHEMA, EntityKind, INGRESS_SCHEMA, RECEIVER_SCHEMA,
    SENDER_SCHEMA, World, make_table,
)

__all__ = [
    "CHUNK_ENTITIES", "FieldSpec", "SoATable", "NumpyTable",
    "CommandBuffer", "consolidate",
    "BACKENDS", "EntityKind", "World", "make_table",
    "SENDER_SCHEMA", "RECEIVER_SCHEMA", "INGRESS_SCHEMA", "EGRESS_SCHEMA",
]


def __getattr__(name):
    # NumpyTable is exported lazily so `import repro.core.ecs` works on
    # interpreters without numpy (the python backend needs none).
    if name == "NumpyTable":
        from .numpy_table import NumpyTable
        return NumpyTable
    raise AttributeError(name)

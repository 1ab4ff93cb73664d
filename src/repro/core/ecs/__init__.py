"""Entity-Component-System substrate used by the DOD engine."""

from .components import FieldSpec, SoATable
from .entity import (
    EGRESS_SCHEMA, EgressCols, EntityKind, RECEIVER_SCHEMA, SENDER_SCHEMA,
    World,
)

__all__ = [
    "FieldSpec", "SoATable",
    "EntityKind", "World", "EgressCols",
    "SENDER_SCHEMA", "RECEIVER_SCHEMA", "EGRESS_SCHEMA",
]

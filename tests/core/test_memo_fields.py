"""The window memo's closed world, column by column.

Every column of the sender, receiver and egress tables is either in one
of the memo's field tables — encoded in the signature and moved by a
cycle jump, or, for a counter, added to by one — or named here
with the gate that keeps a memoized window from ever reading it.  A new
column fails this test until it is put on one side, which is what keeps
adding one to the memo a one-line table edit.
"""

import inspect

from repro.core import memo
from repro.core.ecs import EGRESS_SCHEMA, RECEIVER_SCHEMA, SENDER_SCHEMA
from repro.core.engine import DodEngine

#: Columns written only by ``build()``: every window reads the same value.
STATIC = "static"

#: ``table -> column -> gate``.  A gate is ``static`` or a reason the memo
#: counts: ``memo.disabled.<gate>`` (the cache is never built) or
#: ``memo.ineligible.<gate>`` (the window runs for real).
UNREAD = {
    "senders": {
        "total_segs": STATIC,
        # The DCTCP / RENO machine: only FLOW_START, TIMER and ACK
        # entries drive it, and each makes the window ineligible.
        **dict.fromkeys(("snd_una", "next_seq", "cwnd", "ssthresh", "alpha",
                         "acked_win", "marked_win", "alpha_seq", "cut_seq",
                         "dupacks", "srtt_ps", "rttvar_ps", "rto_ps",
                         "backoff", "rtx_deadline", "timer_gen", "done",
                         "done_ps"), "cca_entry"),
    },
    "receivers": {"needs_ack": STATIC},
    "egress": {"avg_bytes": "red_aqm"},  # RED's EWMA never repeats
}

SCHEMAS = {"senders": SENDER_SCHEMA, "receivers": RECEIVER_SCHEMA,
           "egress": EGRESS_SCHEMA}


def memo_tables():
    """``table -> [column, ...]`` over every memo field table, repeats
    kept so a column listed twice shows up."""
    tables = {name: [] for name in SCHEMAS}
    for table, column, _kind in memo.FLOW_FIELDS:
        tables[table].append(column)
    tables["egress"] += list(memo.PORT_COUNTERS) + list(memo.PORT_FIELDS)
    return tables


def test_every_column_is_encoded_or_gated_exactly_once():
    encoded = memo_tables()
    for table, schema in SCHEMAS.items():
        columns = [f.name for f in schema]
        listed = encoded[table] + list(UNREAD[table])
        assert sorted(listed) == sorted(columns), table
    # Each gate is a reason the memo or the engine's memo gate returns.
    sources = (inspect.getsource(memo)
               + inspect.getsource(DodEngine._maybe_init_memo))
    for gates in UNREAD.values():
        for gate in set(gates.values()) - {STATIC}:
            assert f'"{gate}"' in sources, gate

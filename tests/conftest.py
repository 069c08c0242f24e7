from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import settings

from genmine import EventInstance, EventLog, Trace, make_net

# A failing property test prints its @reproduce_failure line, so a one-off
# failure can be replayed.  The parent is the active profile (CI's "ci"
# profile, with its derandomize, or the default), so nothing else changes.
settings.register_profile("print-blob", parent=settings.default, print_blob=True)
settings.load_profile("print-blob")

EPOCH = datetime(2021, 6, 1, tzinfo=timezone.utc)


def trace_from_labels(labels, case_id="c1", start=EPOCH):
    events = tuple(
        EventInstance(lbl, start + timedelta(seconds=i)) for i, lbl in enumerate(labels)
    )
    return Trace(case_id=case_id, events=events)


def one_transition_net_json(**changes):
    """The JSON of the net p -[t: a]-> q, with ``changes`` to its fields."""
    data = {
        "places": ["p", "q"],
        "transitions": [{"id": "t", "label": "a"}],
        "arcs": [{"from": "p", "to": "t"}, {"from": "t", "to": "q"}],
        "initial_marking": {"p": 1},
        "final_markings": [{"q": 1}],
    }
    data.update(changes)
    return data


# A net JSON whose names are not strings, or that repeats a place or an
# arc -> what `load_net` says of it.
BAD_NAME_NETS = {
    "label_int": (one_transition_net_json(transitions=[{"id": "t", "label": 5}]),
                  "transition 't' label must be a string or null, got 5"),
    "label_bool": (one_transition_net_json(transitions=[{"id": "t", "label": True}]),
                   "transition 't' label must be a string or null, got True"),
    "transition_id_int": (
        one_transition_net_json(
            transitions=[{"id": 7, "label": "a"}, {"id": "u", "label": "b"}],
            arcs=[{"from": "p", "to": 7}, {"from": 7, "to": "q"},
                  {"from": "p", "to": "u"}, {"from": "u", "to": "q"}]),
        "place and transition ids must be strings, got 7"),
    "place_int": (one_transition_net_json(places=[3, "p", "q"]),
                  "place and transition ids must be strings, got 3"),
    "places_string": (one_transition_net_json(places="pq"), "places must be a list, got 'pq'"),
    "place_repeated": (one_transition_net_json(places=["p", "q", "p"]), "place 'p' is repeated"),
    "arc_repeated": (
        one_transition_net_json(arcs=[{"from": "p", "to": "t"}, {"from": "p", "to": "t"},
                                      {"from": "t", "to": "q"}]),
        "arc ('p', 't') is repeated"),
}


def log_from_variants(variant_lists):
    traces = tuple(
        trace_from_labels(labels, case_id=f"c{i + 1}") for i, labels in enumerate(variant_lists)
    )
    return EventLog(traces)


@pytest.fixture
def sequence_net_ab():
    """p_src -> a -> p1 -> b -> p_sink"""
    return make_net(
        places=["p_src", "p1", "p_sink"],
        transitions=[("t_a", "a"), ("t_b", "b")],
        arcs=[("p_src", "t_a"), ("t_a", "p1"), ("p1", "t_b"), ("t_b", "p_sink")],
        initial_marking={"p_src": 1},
        final_markings=[{"p_sink": 1}],
    )


@pytest.fixture
def xor_net_abc():
    """a then (b | c)"""
    return make_net(
        places=["p0", "p1", "p2"],
        transitions=[("t_a", "a"), ("t_b", "b"), ("t_c", "c")],
        arcs=[
            ("p0", "t_a"), ("t_a", "p1"),
            ("p1", "t_b"), ("t_b", "p2"),
            ("p1", "t_c"), ("t_c", "p2"),
        ],
        initial_marking={"p0": 1},
        final_markings=[{"p2": 1}],
    )


@pytest.fixture
def silent_skip_net():
    """a then (b | silent skip)"""
    return make_net(
        places=["p0", "p1", "p2"],
        transitions=[("t_a", "a"), ("t_b", "b"), ("t_tau", None)],
        arcs=[
            ("p0", "t_a"), ("t_a", "p1"),
            ("p1", "t_b"), ("t_b", "p2"),
            ("p1", "t_tau"), ("t_tau", "p2"),
        ],
        initial_marking={"p0": 1},
        final_markings=[{"p2": 1}],
    )


@pytest.fixture
def two_token_net():
    """A one-token net that starts with two tokens on p: "a" moves a token
    p -> q or p -> r, and a second "a" q -> r; "b" moves one q -> p and a
    silent transition r -> q."""
    return make_net(
        places=["p", "q", "r"],
        transitions=[("t_a1", "a"), ("t_a2", "a"), ("t_a3", "a"), ("t_b", "b"), ("tau", None)],
        arcs=[
            ("p", "t_a1"), ("t_a1", "q"),
            ("q", "t_a2"), ("t_a2", "r"),
            ("p", "t_a3"), ("t_a3", "r"),
            ("q", "t_b"), ("t_b", "p"),
            ("r", "tau"), ("tau", "q"),
        ],
        initial_marking={"p": 2},
        final_markings=[{"r": 2}],
    )

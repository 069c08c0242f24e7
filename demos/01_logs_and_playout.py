#!/usr/bin/env python3
"""Walkthrough: event logs, variants, and Petri-net playout.

Builds a small ground-truth net, plays out its variant set, and shows the
log-side data model (traces -> variant log -> unique variant log).
"""

from genmine import (
    SystemSpec,
    build_system,
    build_variant_logs,
    complexity_profile,
    playout_enumerate,
    split_system,
    synth_event_log,
)

# A seeded block-structured system: XOR choices, sequences, a bounded loop.
spec = SystemSpec(
    seed=78,
    depth=2,
    alphabet_budget=8,
    weights={"seq": 1.0, "xor": 1.5, "loop": 0.5},
    fanout_min=2,
    fanout_max=3,
)
net = build_system(spec)
print(f"built net: {len(net.places)} places, {len(net.transitions)} transitions")

profile = complexity_profile(net)
print(
    f"complexity: |A|={profile.alphabet_size}, "
    f"max variant length={profile.max_variant_len}, |V_S|={profile.variant_count}"
)

# Exhaustive playout under the standard bounds: every place holds at most
# three tokens, so the variant set is finite.
v_s = playout_enumerate(net, max_len=None, token_cap=3)
print(f"playout produced {len(v_s)} variants; shortest: {min(v_s, key=len)}")

# Hold out 30% of the variants as "unobserved" system behavior.
truth = split_system(v_s, ratio=0.7, seed=1)
print(f"observed |L+|={len(truth.lplus)}, unobserved |V_u|={len(truth.v_u)}")

# Synthesize an event log with one trace per observed variant.
log = synth_event_log(truth.lplus, seed=1)
lstar, lplus = build_variant_logs(log)
assert lplus.as_set() == truth.lplus.as_set()
print(f"synthetic log: {len(log)} traces, max trace length {max(len(t) for t in log)}")
first = log.traces[0]
print(f"first trace {first.case_id}: {[e.label for e in first.events]}")

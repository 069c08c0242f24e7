"""Independent oracle implementations used to cross-check the library.

These deliberately share no code with the package: the playout oracle is a
plain recursive path enumeration over dict markings, which also counts the
(marking, prefix) pairs it visits, and the gradient oracle is central finite
differences over its own closed form of the discriminator loss
(``log sigmoid`` via ``np.logaddexp``).  The
sampling oracle draws every symbol with ``rng.choice`` from the generator's
public next-symbol distribution, bypassing its compiled draw tables, and
the log-probability oracle reads that distribution afresh for every label.  The
feature oracle counts a variant's k-grams into a dense vector in a plain
loop, as the scorer did before it built rows with ``np.bincount``.  The
MH reference runs its chains on scalar ``rng.random()`` calls and tests
each step with ``mh_acceptance``, as the sampler did before its chains read
their uniforms in blocks; ``draw_batch_reference`` is
``sampling.draw_batch`` on scalar calls: it hands each draw the generator
itself, so nothing needs to put the generator back.  The
token-replay and escaping-edges references are the searches the package
ran before its sparse-marking core, kept on dense per-place count vectors
(one entry per place) with a plain enabling scan over every transition.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from genmine.errors import BudgetExceededError
from genmine.sampling import mh_acceptance


def brute_force_playout(net, max_len, token_cap, budget=2_000_000):
    """Recursive marking-graph enumeration; exact but unoptimized."""
    return brute_force_playout_pairs(net, max_len, token_cap, budget)[0]


def brute_force_playout_pairs(net, max_len, token_cap, budget=2_000_000):
    """``brute_force_playout``'s variants and the number of distinct
    (marking, prefix) pairs it visited."""
    pre = {t.tid: [] for t in net.transitions}
    post = {t.tid: [] for t in net.transitions}
    labels = {t.tid: t.label for t in net.transitions}
    for src, dst in net.arcs:
        if src in net.places:
            pre[dst].append(src)
        else:
            post[src].append(dst)
    order = sorted(labels)
    finals = [dict(fm) for fm in net.final_markings]
    results: set[tuple[str, ...]] = set()
    seen: set[tuple[tuple[tuple[str, int], ...], tuple[str, ...]]] = set()
    counter = [0]

    def matches_final(marking: dict) -> bool:
        for fm in finals:
            if all(marking.get(p, 0) == fm.get(p, 0) for p in set(marking) | set(fm)):
                return True
        return False

    def rec(marking: dict, prefix: tuple[str, ...]) -> None:
        key = (tuple(sorted((p, c) for p, c in marking.items() if c > 0)), prefix)
        if key in seen:
            return
        seen.add(key)
        counter[0] += 1
        if counter[0] > budget:
            raise RuntimeError("oracle budget exhausted")
        if finals and prefix and matches_final(marking):
            results.add(prefix)
        progressed = False
        for tid in order:
            if any(marking.get(p, 0) < 1 for p in pre[tid]):
                continue
            progressed = True
            nxt = dict(marking)
            for p in pre[tid]:
                nxt[p] -= 1
            for p in post[tid]:
                nxt[p] = nxt.get(p, 0) + 1
            if token_cap is not None and any(c > token_cap for c in nxt.values()):
                continue
            lab = labels[tid]
            if lab is None:
                rec(nxt, prefix)
            else:
                if max_len is not None and len(prefix) >= max_len:
                    continue
                rec(nxt, prefix + (lab,))
        if not progressed and not finals and prefix:
            results.add(prefix)

    rec({p: c for p, c in net.initial_marking}, ())
    return frozenset(results), counter[0]


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def loss_reference(raw_real, raw_fake):
    """Closed form of the logistic discriminator loss on raw scores."""
    return float(-np.mean(_log_sigmoid(raw_real)) - np.mean(_log_sigmoid(-raw_fake)))


def finite_diff_gradient(feats_pos, feats_neg, weights, bias, h=1e-5):
    """Central finite differences of the reference loss w.r.t. weights and bias."""

    def value(w, b):
        return loss_reference(feats_pos @ w + b, feats_neg @ w + b)

    grad = np.zeros_like(weights)
    for i in range(len(weights)):
        up = weights.copy()
        up[i] += h
        down = weights.copy()
        down[i] -= h
        grad[i] = (value(up, bias) - value(down, bias)) / (2 * h)
    grad_b = (value(weights, bias + h) - value(weights, bias - h)) / (2 * h)
    return grad, grad_b


def draw_batch_reference(g, n, rng):
    """``sampling.draw_batch`` as it was before blocks: ``n`` draws, each
    reading the generator itself one scalar ``random()`` at a time."""
    return [g(rng) for _ in range(n)]


def featurize_reference(scorer, v):
    """A variant's discriminator features, counted into a dense vector one
    k-gram at a time: k = 1 over the labels, k = 2 and 3 over the labels
    padded with the boundary markers, then the normalized length."""
    index = {feat: i for i, feat in enumerate(scorer.vocabulary)}
    padded = ["\x01start\x01", *v, "\x01end\x01"]
    grams = [f"g1:{label}" for label in v]
    for k in (2, 3):
        grams += [f"g{k}:" + "|".join(padded[i:i + k]) for i in range(len(padded) - k + 1)]
    vec = np.zeros(len(scorer.vocabulary))
    for gram in grams:
        if gram in index:
            vec[index[gram]] += 1.0
    if "len" in index:
        vec[index["len"]] = len(v) / scorer.max_len_ref
    return vec


def sample_variant_reference(gen, temperature, rng):
    """One variant drawn symbol by symbol with ``rng.choice(p=...)``."""
    syms = gen.symbols()
    end_index = len(syms) - 1
    emitted: list[str] = []
    while True:
        probs = gen.next_distribution(gen.context_of(emitted), mask_end=not emitted)
        if temperature != 1.0:
            logp = np.log(probs, out=np.full_like(probs, -np.inf), where=probs > 0)
            logp = logp / temperature
            logp -= logp.max()
            probs = np.exp(logp)
            probs /= probs.sum()
        idx = int(rng.choice(len(syms), p=probs))
        if idx == end_index:
            break
        emitted.append(syms[idx])
        if len(emitted) >= gen.max_len:
            break
    return tuple(emitted)


def log_prob_reference(gen, v):
    """A variant's log-probability from one fresh ``next_distribution`` row
    per label and one for the end marker (none at the length bound)."""
    if len(v) > gen.max_len:
        return -math.inf
    index = {s: i for i, s in enumerate(gen.symbols())}
    logp = 0.0
    emitted: list[str] = []
    for label in v:
        if label not in index:
            return -math.inf
        p = gen.next_distribution(gen.context_of(emitted), mask_end=not emitted)[index[label]]
        if p <= 0.0:
            return -math.inf
        logp += math.log(p)
        emitted.append(label)
    if len(v) < gen.max_len:
        p = gen.next_distribution(gen.context_of(emitted))[-1]
        if p <= 0.0:
            return -math.inf
        logp += math.log(p)
    return logp


def mh_chain_reference(g, d_p, v_init, kappa, rng, strict_pseudocode=False):
    """One MH chain; returns (candidate, #accepted, #draws)."""
    v_x = v_init
    p_x = d_p(v_x)
    accepted = 0
    for _ in range(kappa):
        v_y = g(rng)
        p_y = d_p(v_y)
        alpha = mh_acceptance(p_x, p_y)
        if alpha > rng.random():
            v_x, p_x = v_y, p_y
            accepted += 1
    if strict_pseudocode:
        return g(rng), accepted, kappa + 1
    return v_x, accepted, kappa


def mh_sample_reference(g, d_p, lplus, lplus_e, patience, kappa, rng,
                        strict_pseudocode=False):
    """MH chains from random holdout starts until ``patience`` misses in a row.

    Returns (v_hat_s, v_hat_u, draw_count, acceptance_rate).
    """
    inits = list(lplus_e)
    v_hat_s = set()
    misses = draws = accepted_total = steps_total = 0
    while misses < patience:
        v_ref = inits[int(rng.integers(len(inits)))]
        chain_rng = rng.spawn(1)[0]
        candidate, accepted, chain_draws = mh_chain_reference(
            g, d_p, v_ref, kappa, chain_rng, strict_pseudocode
        )
        draws += chain_draws
        accepted_total += accepted
        steps_total += kappa
        if candidate != v_ref and candidate not in v_hat_s:
            v_hat_s.add(candidate)
            misses = 0
        else:
            misses += 1
    v_hat_s = frozenset(v_hat_s)
    return v_hat_s, v_hat_s - lplus.as_set(), draws, accepted_total / steps_total


# ---------------------------------------------------------------------------
# Dense-vector token replay and escaping-edges precision
# ---------------------------------------------------------------------------

REPLAY_POP_LIMIT = 200_000
CLOSURE_LIMIT = 20_000


class DenseNet:
    """Index-based view of a net: markings are tuples of per-place counts."""

    def __init__(self, net):
        self.place_order = sorted(net.places)
        self.place_index = {p: i for i, p in enumerate(self.place_order)}
        self.transitions = sorted(net.transitions, key=lambda t: t.tid)
        self.pre: list[tuple[int, ...]] = []
        self.post: list[tuple[int, ...]] = []
        pre_map: dict[str, list[int]] = {t.tid: [] for t in self.transitions}
        post_map: dict[str, list[int]] = {t.tid: [] for t in self.transitions}
        for src, dst in net.arcs:
            if src in net.places:
                pre_map[dst].append(self.place_index[src])
            else:
                post_map[src].append(self.place_index[dst])
        for t in self.transitions:
            self.pre.append(tuple(sorted(pre_map[t.tid])))
            self.post.append(tuple(sorted(post_map[t.tid])))
        self.initial = self.vector(net.initial())
        self.finals = tuple(self.vector(fm) for fm in net.finals())
        self.silent = tuple(i for i, t in enumerate(self.transitions) if t.label is None)
        self.by_label: dict[str, tuple[int, ...]] = {}
        for i, t in enumerate(self.transitions):
            if t.label is not None:
                self.by_label.setdefault(t.label, ())
                self.by_label[t.label] += (i,)

    def vector(self, marking):
        vec = [0] * len(self.place_order)
        for p, c in marking.items():
            vec[self.place_index[p]] = c
        return tuple(vec)

    def is_enabled(self, vec, ti):
        return all(vec[p] >= 1 for p in self.pre[ti])

    def fire(self, vec, ti):
        out = list(vec)
        for p in self.pre[ti]:
            out[p] -= 1
        for p in self.post[ti]:
            out[p] += 1
        return tuple(out)

    def enabled_indices(self, vec):
        return [i for i in range(len(self.transitions)) if self.is_enabled(vec, i)]


def _dense_silent_closure(cn, vec):
    seen = {vec}
    frontier = [vec]
    while frontier:
        cur = frontier.pop()
        for si in cn.silent:
            if not cn.is_enabled(cur, si):
                continue
            nxt = cn.fire(cur, si)
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return seen


def replay_counts_reference(net, variant, pop_limit=REPLAY_POP_LIMIT):
    """(missing, remaining, consumed, produced) of the cheapest replay of ``variant``."""
    cn = DenseNet(net)
    init_produced = sum(cn.initial)
    start = (0, cn.initial)
    counter = 0
    heap = [(0, 0, counter, 0, cn.initial, 0, init_produced, None)]
    best = {start: (0, 0)}
    pops = 0
    n = len(variant)
    while heap:
        cost, firings, _, pos, vec, consumed, produced, settled = heapq.heappop(heap)
        if settled is not None:
            miss_f, rem_f, final = settled
            return (cost - rem_f, rem_f, consumed + sum(final), produced)
        pops += 1
        if pops > pop_limit:
            raise BudgetExceededError(
                f"token replay exceeded {pop_limit} state expansions",
                partial_count=pos,
            )
        if best.get((pos, vec), (cost + 1, 0)) < (cost, firings):
            continue

        def push(cost2, firings2, pos2, vec2, consumed2, produced2):
            nonlocal counter
            key = (pos2, vec2)
            if key not in best or (cost2, firings2) < best[key]:
                best[key] = (cost2, firings2)
                counter += 1
                heapq.heappush(
                    heap, (cost2, firings2, counter, pos2, vec2, consumed2, produced2, None)
                )

        if pos == n:
            counter += 1
            if cn.finals:
                for f in cn.finals:
                    miss_f = sum(max(0, fc - mc) for fc, mc in zip(f, vec))
                    rem_f = sum(max(0, mc - fc) for fc, mc in zip(f, vec))
                    counter += 1
                    heapq.heappush(
                        heap,
                        (cost + miss_f + rem_f, firings, counter, pos, vec, consumed,
                         produced, (miss_f, rem_f, f)),
                    )
            else:
                rem = sum(vec)
                heapq.heappush(
                    heap,
                    (cost + rem, firings, counter, pos, vec, consumed, produced, (0, rem, ())),
                )
        else:
            label = variant[pos]
            cands = cn.by_label.get(label, ())
            if not cands:
                push(cost + 1, firings + 1, pos + 1, vec, consumed + 1, produced)
            disabled = None
            for ti in cands:
                deficit = sum(1 for p in cn.pre[ti] if vec[p] < 1)
                if deficit and (disabled is None or deficit < disabled[0]):
                    disabled = (deficit, ti)
                if deficit:
                    continue
                push(cost, firings + 1, pos + 1, cn.fire(vec, ti),
                     consumed + len(cn.pre[ti]), produced + len(cn.post[ti]))
            if disabled is not None:
                deficit, ti = disabled
                out = list(vec)
                for p in cn.pre[ti]:
                    if out[p] >= 1:
                        out[p] -= 1
                for p in cn.post[ti]:
                    out[p] += 1
                push(cost + deficit, firings + 1, pos + 1, tuple(out),
                     consumed + len(cn.pre[ti]), produced + len(cn.post[ti]))
        for si in cn.silent:
            if cn.is_enabled(vec, si):
                push(cost, firings + 1, pos, cn.fire(vec, si),
                     consumed + len(cn.pre[si]), produced + len(cn.post[si]))
    raise BudgetExceededError("token replay found no settlement", partial_count=0)


def etc_precision_reference(net, lstar, closure_limit=CLOSURE_LIMIT):
    """Escaping-edges precision over the prefix automaton of ``lstar``."""
    cn = DenseNet(net)
    root = {"children": {}, "count": len(lstar)}
    for v in lstar:
        node = root
        for label in v:
            node = node["children"].setdefault(label, {"children": {}, "count": 0})
            node["count"] += 1
    escaping = 0
    allowed = 0
    queue = deque([(root, frozenset([cn.initial]))])
    while queue:
        node, markings = queue.popleft()
        closure = set()
        for m in markings:
            closure.update(_dense_silent_closure(cn, m))
        if len(closure) > closure_limit:
            raise BudgetExceededError(
                "escaping-edges replay exceeded marking limit",
                partial_count=closure_limit + 1,
            )
        enabled_labels = set()
        for m in closure:
            for ti in cn.enabled_indices(m):
                label = cn.transitions[ti].label
                if label is not None:
                    enabled_labels.add(label)
        observed = set(node["children"])
        allowed += node["count"] * len(enabled_labels)
        escaping += node["count"] * len(enabled_labels - observed)
        for label, child in node["children"].items():
            cands = cn.by_label.get(label, ())
            child_markings = {
                cn.fire(m, ti) for m in closure for ti in cands if cn.is_enabled(m, ti)
            }
            if child_markings:
                queue.append((child, frozenset(child_markings)))
    if allowed == 0:
        return 1.0
    return 1.0 - escaping / allowed

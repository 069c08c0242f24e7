"""Independent oracle implementations used to cross-check the library.

These deliberately share no code with the package: the playout oracle is a
plain recursive path enumeration over dict markings, and the gradient
oracle is central finite differences over the loss evaluation.  The
sampling oracle draws every symbol with ``rng.choice`` from the generator's
public next-symbol distribution, bypassing its compiled draw tables.
"""

from __future__ import annotations

import numpy as np

from genmine import losses


def brute_force_playout(net, max_len, token_cap, budget=2_000_000):
    """Recursive marking-graph enumeration; exact but unoptimized."""
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
    return frozenset(results)


def finite_diff_gradient(loss_id, feats_pos, feats_neg, weights, bias, h=1e-5):
    """Central finite differences of the loss w.r.t. weights and bias."""

    def value(w, b):
        raw_r = feats_pos @ w + b
        raw_f = feats_neg @ w + b
        return losses.loss_value(loss_id, raw_r, raw_f)

    grad = np.zeros_like(weights)
    for i in range(len(weights)):
        up = weights.copy()
        up[i] += h
        down = weights.copy()
        down[i] -= h
        grad[i] = (value(up, bias) - value(down, bias)) / (2 * h)
    grad_b = (value(weights, bias + h) - value(weights, bias - h)) / (2 * h)
    return grad, grad_b


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

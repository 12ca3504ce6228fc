"""Multi-core DR rounds over forked worker processes.

Each DR round touches only one target's delta, so the rounds of one
epoch are embarrassingly parallel.  :func:`parallel_dr_rounds` maps the
targets over **real worker processes** (``fork`` start method, so the
model, dataset and parameter space are inherited copy-on-write — nothing
is pickled on the way in); each child sends back its shard's deltas.
Each target's RNG derives from ``(seed, "pdr", target)`` alone, so
results are byte-identical for every worker count (the n_workers=1 fast
path runs in-process and is the reference).

With ``n_workers=1`` (or when ``fork`` is unavailable) the entry point
degrades to the exact sequential code path — no processes, no pipes.
"""

from __future__ import annotations

import os
import traceback
from multiprocessing import connection, get_context

from ..core.regularization import domain_regularization_round
from ..utils import profiling
from ..utils.seeding import spawn_rng

__all__ = [
    "RemoteWorkerError",
    "resolve_worker_count",
    "parallel_dr_rounds",
]


class RemoteWorkerError(RuntimeError):
    """A forked worker died; carries the remote traceback text."""


def resolve_worker_count(n_workers=None):
    """Resolve a worker count: ``None``/0 → one per available core."""
    if n_workers is None or n_workers == 0:
        n_workers = os.cpu_count() or 1
    if n_workers < 0:
        raise ValueError("n_workers must be None or >= 0")
    return n_workers


def _fork_available():
    try:
        return "fork" in __import__("multiprocessing").get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def _collect_results(conns):
    """Wait for every worker's ``done`` payload; ``conns[slot]`` is its pipe.

    Returns the payloads as a list in slot order.  Raises
    :class:`RemoteWorkerError` when any worker reports a failure (after
    draining the rest, so no child is left blocked on a send), listing
    the failures in slot order.
    """
    open_slots = list(range(len(conns)))
    results, failures = {}, {}
    while open_slots:
        ready = connection.wait([conns[slot] for slot in open_slots])
        for slot in [s for s in open_slots if conns[s] in ready]:
            open_slots.remove(slot)
            try:
                kind, payload = conns[slot].recv()
            except EOFError:
                failures[slot] = f"worker {slot} exited without reporting"
                continue
            if kind == "done":
                results[slot] = payload
            else:
                assert kind == "fail"
                failures[slot] = payload
    if failures:
        raise RemoteWorkerError(
            "\n".join(failures[slot] for slot in sorted(failures))
        )
    return [results[slot] for slot in sorted(results)]


def _reseed_module_rngs(model, seed, target):
    """Re-key every module RNG stream (dropout) to ``(seed, target)``.

    Module generators otherwise advance with each training forward, so a
    target's stream position would depend on which targets ran before it
    in the same process — the one piece of state that would break
    worker-count invariance.
    """
    for name, module in model.named_modules():
        rng = getattr(module, "_rng", None)
        if rng is not None and hasattr(rng, "bit_generator"):
            fresh = spawn_rng(seed, "pdr", target, "module", name or ".")
            rng.bit_generator.state = fresh.bit_generator.state


def _dr_targets(model, dataset, space, config, seed, targets):
    """DR rounds for ``targets``; per-target RNG keys make the schedule
    independent of which process runs which target."""
    out = {}
    for target in targets:
        _reseed_module_rngs(model, seed, target)
        rng = spawn_rng(seed, "pdr", target)
        out[target] = domain_regularization_round(
            model, dataset, space, target, config, rng
        )
    return out


def _dr_worker_main(conn, model, dataset, space, config, seed, targets):
    try:
        deltas = _dr_targets(model, dataset, space, config, seed, targets)
        conn.send(("done", deltas))
    except Exception:
        conn.send(("fail", traceback.format_exc()))
    finally:
        conn.close()


def parallel_dr_rounds(model, dataset, space, config, seed, targets=None,
                       n_workers=None):
    """DR rounds for every target domain, mapped over forked workers.

    Returns ``{target: new delta}``.  Unlike sequential
    ``MAMDR.fit`` — which threads one RNG through all targets — each
    target's RNG here derives from ``(seed, "pdr", target)`` alone, so
    the result is byte-identical for *any* worker count, including the
    ``n_workers=1`` in-process reference path.  The caller owns applying
    the deltas (``space.set_delta``).
    """
    if targets is None:
        targets = list(range(dataset.n_domains))
    targets = list(targets)
    n_workers = min(resolve_worker_count(n_workers), max(1, len(targets)))
    if n_workers <= 1 or not _fork_available() or len(targets) <= 1:
        return _dr_targets(model, dataset, space, config, seed, targets)

    shards = [targets[i::n_workers] for i in range(n_workers)]
    shards = [s for s in shards if s]
    ctx = get_context("fork")
    conns, procs = [], []
    try:
        for shard in shards:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_dr_worker_main,
                args=(child_conn, model, dataset, space, config, seed, shard),
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        results = _collect_results(conns)
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    deltas = {}
    for shard_deltas in results:
        deltas.update(shard_deltas)
    profiling.count("parallel.dr_round")
    return deltas

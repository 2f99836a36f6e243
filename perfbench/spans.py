"""Outside-in span tracing for the reserving benchmark.

The package binds its imports by name, so a span around a function has to
be installed on the module that makes the call, not on the module that
defines it (``reserve_rl.env.empirical_cvar``, not
``reserve_rl.risk.empirical_cvar``).  :data:`TARGETS` lists every wrapped
call site.  Nothing in ``src/`` is edited: :meth:`Tracer.install` swaps the
attributes in place and :meth:`Tracer.uninstall` puts the originals back.

Spans live in flat in-memory arrays (name, parent, stage call, start,
end) while the program runs and are written out once at the end.  Each
stage call through the CLI opens a root span, and every span below it
carries that call's id.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import defaultdict


def _mlp_name(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return "nets.mlp_forward.b1" if x.shape[0] == 1 else "nets.mlp_forward.batched"


def _note_cvar(tracer, args, kwargs, result):
    if not result.warmup:
        tracer.add("risk.empirical_cvar.warm", 1)
        tracer.add("risk.buffer_len.sum", len(args[0]))


def _note_write_csv(tracer, args, kwargs, result):
    tracer.add("env.Trace.write_csv.rows", args[0].n_steps)


def _note_episodes(counter):
    def note(tracer, args, kwargs, result):
        episodes = args[2] if len(args) > 2 else kwargs["episodes"]
        tracer.add(counter, episodes)
    return note


def _note_bootstrap(tracer, args, kwargs, result):
    tracer.add("baselines.bootstrap.sims", result.n_sims)
    tracer.add("baselines.bootstrap.retries", result.n_retries)


#: (module, attribute, span name, note).  The span name is a callable when
#: it depends on the arguments; a note records counts from the call.
TARGETS = (
    ("reserve_rl.env", "empirical_cvar", "risk.empirical_cvar", _note_cvar),
    ("reserve_rl.env", "volatility_proxy", "env.volatility_proxy", None),
    ("reserve_rl.env", "shock_for_step", "regimes.shock_for_step", None),
    ("reserve_rl.env:ReserveEnv", "step", "env.step", None),
    ("reserve_rl.env:ReserveEnv", "reset", "env.reset", None),
    ("reserve_rl.env:Trace", "write_csv", "env.Trace.write_csv", _note_write_csv),
    ("reserve_rl.agent", "act_sample", "agent.act_sample", None),
    ("reserve_rl.agent", "state_value", "agent.state_value", None),
    ("reserve_rl.agent", "ppo_update", "agent.ppo_update", None),
    ("reserve_rl.agent", "ppo_loss_and_grads", "agent.ppo_loss_and_grads", None),
    ("reserve_rl.agent", "compute_gae", "agent.compute_gae", None),
    ("reserve_rl.agent", "mlp_forward", _mlp_name, None),
    ("reserve_rl.agent", "clip_global_norm", "nets.clip_global_norm", None),
    ("reserve_rl.nets:Adam", "step", "nets.Adam.step", None),
    ("reserve_rl.evaluate", "act_greedy", "agent.act_greedy", None),
    ("reserve_rl.evaluate", "run_policy_episodes", "evaluate.run_policy_episodes",
     _note_episodes("evaluate.run_policy_episodes.episodes")),
    ("reserve_rl.evaluate", "compute_metrics", "evaluate.compute_metrics", None),
    ("reserve_rl.baselines", "replay_static_policy", "baselines.replay_static_policy",
     _note_episodes("baselines.replay_static_policy.episodes")),
    ("reserve_rl.cli", "bootstrap_chain_ladder", "baselines.bootstrap_chain_ladder",
     _note_bootstrap),
    ("reserve_rl.cli", "train_curriculum", "agent.train_curriculum", None),
    ("reserve_rl.cli", "evaluate_models", "evaluate.evaluate_models", None),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.call_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._call = [0]
        self._saved: list[tuple[object, str, object]] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, note=None):
        """``fn`` wrapped so that every call records one span."""
        fixed = None if callable(name) else self._id(name)
        stack, call = self._stack, self._call
        name_ids, parents, calls = self.name_id, self.parent, self.call_id
        starts, ends, clock = self.start_ns, self.end_ns, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(fixed if fixed is not None else self._id(name(args, kwargs)))
            parents.append(stack[-1])
            calls.append(call[0])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return wrapper

    def stage(self, stage: str, fn):
        """Run one stage call as a root span under a fresh call id."""
        self._call[0] += 1
        return self.span(f"cli.{stage}", fn)()

    def install(self) -> None:
        for target, attr, name, note in TARGETS:
            owner = _resolve(target)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, median microseconds."""
        n = len(self.start_ns)
        child_ns = [0] * n
        durations: dict[int, list[int]] = defaultdict(list)
        self_ns: dict[int, int] = defaultdict(int)
        for i in range(n):
            d = self.end_ns[i] - self.start_ns[i]
            durations[self.name_id[i]].append(d)
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += d
        for i in range(n):
            self_ns[self.name_id[i]] += self.end_ns[i] - self.start_ns[i] - child_ns[i]
        out = {}
        for nid, ds in durations.items():
            out[self.names[nid]] = {
                "calls": len(ds),
                "total_s": sum(ds) / 1e9,
                "self_s": self_ns[nid] / 1e9,
                "p50_us": statistics.median(ds) / 1e3,
            }
        return out

    def write(self, path: str) -> None:
        """Every span as one CSV row, in start order."""
        with open(path, "w") as handle:
            handle.write("call_id,span_id,parent_id,name,start_ns,end_ns\n")
            for i in range(len(self.start_ns)):
                handle.write(
                    f"{self.call_id[i]},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start_ns[i]},{self.end_ns[i]}\n"
                )

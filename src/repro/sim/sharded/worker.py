"""Process backend: one forked worker per shard, stepped over pipes.

Protocol (parent → worker / worker → parent):

* on start: worker builds its :class:`~repro.sim.sharded.context.
  ShardContext` (replica construction hits the per-process topo cache)
  and replies ``("ready", next_event_time)``;
* ``("step", barrier, inbox)`` → inject the inbox, run the window,
  reply ``("stepped", outbox, next_event_time, busy_s)``;
* ``("finish",)`` → reply ``("report", report_dict)`` and exit.

A batch of rows crosses the pipes as the bytes its sender pickled
once: the parent forwards them unopened to the destination, the only
process that unpickles and decodes them.  The parent broadcasts
``step`` to every worker before collecting any reply, so the K windows
compute concurrently; determinism needs no cooperation from the OS
scheduler because each destination orders its rows canonically (see
:mod:`repro.sim.sharded.context`).  A worker's whole session is one GC
pause, as is the parent's run.

Workers fork when the platform allows it (Linux: inherits the warm
parent topo cache for free); otherwise they spawn, which only requires
what the protocol already guarantees — picklable configs, plans and
workloads.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
from typing import List, Optional

from ...workload import ScriptedWorkload
from ..engine import gc_paused
from .context import ShardContext
from .core import ShardedRunError
from .plan import ShardPlan


def shard_worker_main(conn, config, plan: ShardPlan, shard_id: int,
                      workload: ScriptedWorkload) -> None:
    """Worker entry point: build the shard replica and serve steps."""
    try:
        with gc_paused():
            ctx = ShardContext(config, plan, shard_id, workload)
            conn.send(("ready", ctx.sim.next_event_time()))
            while True:
                command = conn.recv()
                op = command[0]
                if op == "step":
                    _, barrier, inbox = command
                    outbox, next_time, busy = ctx.step(barrier, map(pickle.loads, inbox))
                    for shard, (earliest, count, rows) in outbox.items():
                        outbox[shard] = earliest, count, pickle.dumps(rows, -1)
                    conn.send(("stepped", outbox, next_time, busy))
                elif op == "finish":
                    conn.send(("report", ctx.report()))
                    return
                else:
                    conn.send(("error", f"unknown command {op!r}", ""))
                    return
    except EOFError:  # parent died; exit quietly
        return
    except Exception as exc:  # pragma: no cover - surfaced in the parent
        try:
            conn.send(("error", repr(exc), traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class ProcessTransport:
    """Parent-side driver of K shard workers."""

    def __init__(self, config, plan: ShardPlan, workload: ScriptedWorkload) -> None:
        ctx = _mp_context()
        self.pipes = []
        self.procs = []
        for shard in range(plan.k):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, config, plan, shard, workload),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            proc.start()
            child_conn.close()
            self.pipes.append(parent_conn)
            self.procs.append(proc)

    def _send(self, shard: int, command: tuple) -> None:
        try:
            self.pipes[shard].send(command)
        except OSError as exc:  # BrokenPipeError, ConnectionResetError
            raise ShardedRunError(f"shard {shard} worker is gone: {exc!r}") from exc

    def _recv(self, shard: int):
        try:
            message = self.pipes[shard].recv()
        except (EOFError, OSError) as exc:
            raise ShardedRunError(
                f"shard {shard} worker died without replying"
            ) from exc
        if message[0] == "error":
            raise ShardedRunError(
                f"shard {shard} worker failed: {message[1]}\n{message[2]}"
            )
        return message

    def start(self) -> List[Optional[float]]:
        return [self._recv(shard)[1] for shard in range(len(self.pipes))]

    def step_all(self, barrier: float, inboxes: List[list]) -> List[tuple]:
        for shard, inbox in enumerate(inboxes):
            self._send(shard, ("step", barrier, inbox))
        return [self._recv(shard)[1:] for shard in range(len(self.pipes))]

    def finish(self) -> List[dict]:
        for shard in range(len(self.pipes)):
            self._send(shard, ("finish",))
        reports = [self._recv(shard)[1] for shard in range(len(self.pipes))]
        for proc in self.procs:
            proc.join(timeout=10.0)
        return reports

    def close(self) -> None:
        for pipe in self.pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)

"""Spans recorded from outside manetsim, by wrapping its public functions.

A :class:`Tracer` keeps one span per wrapped call (name, parent, start,
end) in flat arrays, plus a few counters, and writes them to an ``.npz``
chunk when its process is done with a command or a sweep task.  Nothing
under ``src/`` changes: :func:`install` patches module attributes and
class methods before the model is built.

Two wrapper sets exist.  The probe set (one span per command, per run and
per output directory) is always on; the end-to-end metrics come from runs
that have only this set.  The layer set adds a span per call into every
layer, and is on only in traced runs.

Three things decide where a wrapper goes:

* ``simulation`` imports ``discover_paths``, ``packetize`` and
  ``generate_ts_matrix`` by name, ``routing`` imports ``path_mean_ts`` by
  name, and ``cli`` imports ``load_config_file`` and ``run_once_to_dir`` by
  name, so those are patched in the importing module;
* ``SimulationRun`` hands the bound methods ``medium.connectivity`` and
  ``_neighbors_of`` to ``SourceProtocol`` and ``MacLayer`` at construction,
  so classes are patched before any model exists;
* sweep workers are forked from the traced process, so they inherit the
  wrappers; the task wrapper drops the spans copied from the parent and
  writes its own chunk after every task.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array

import numpy as np

import speed

ROOT_SPAN = -1
FEW_CALLS = 64


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise OSError(f"no {field} in /proc/self/status")


def rss_kb() -> int:
    """This process's resident set size now."""
    return _status_kb("VmRSS")


def peak_rss_kb() -> int:
    """This process's peak resident set size so far."""
    return _status_kb("VmHWM")


class Tracer:
    """Span and counter store for one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [ROOT_SPAN]
        self.counts: dict[str, int] = {}
        self.runs: list[dict] = []
        self.meta: dict = {}
        self.pid = self.root_pid = os.getpid()
        self._chunk = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.stack.pop()
        self.end[i] = time.perf_counter()

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def high_water(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def wrap(self, name: str, fn):
        """``fn`` with one span per call; the hot path binds locals."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def clear(self) -> None:
        """Forget everything in place (wrappers hold the same objects)."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        del self.stack[1:]
        self.counts.clear()
        self.runs.clear()
        self.meta.clear()

    def adopt_fork(self) -> bool:
        """True in a forked worker, which drops the spans copied from the
        parent the first time it asks."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.clear()
            speed.start()
            self.rss_start_kb = rss_kb()
        return self.pid != self.root_pid

    def flush(self) -> None:
        """Write this process's spans and counters, then forget them."""
        meta = {"pid": self.pid, "names": self.names, "counts": self.counts,
                "runs": self.runs, **self.meta}
        path = os.path.join(self.out_dir, f"trace-{self.pid}-{self._chunk}.npz")
        sample_start, sample_s = speed.take()
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 sample_start=np.array(sample_start, dtype=np.float64),
                 sample_s=np.array(sample_s, dtype=np.float64),
                 meta=np.array(json.dumps(meta)))
        self._chunk += 1
        self.clear()


def _run_record(run, result, start: float, end: float) -> dict:
    """Exact model counts of one finished SimulationRun, and the packets
    its MAC still held when the clock stopped.  Private attributes are read
    directly, so that a rename fails the run instead of reading 0."""
    queued: dict[str, int] = {}
    for node in run.mac.nodes.values():
        for queue in node.queues:
            for packet in queue:
                queued[packet.klass.value] = queued.get(packet.klass.value,
                                                        0) + 1
    return {
        "start": start, "end": end,
        "master_seed": run.config.master_seed, "w_ts": run.config.w_ts,
        "events": run.sim.queue.processed,
        "class_counters": result.class_counters,
        "flows": [{"flow_id": f["flow_id"], "generated": f["generated"],
                   "delivered": f["delivered"]} for f in result.flows],
        "total_generated": result.total_generated,
        "total_delivered": result.total_delivered,
        "iterations": result.iterations,
        "drops_by_cause": result.drops_by_cause,
        "queued_end": queued,
        "in_service_end": sum(node.transmitting
                              for node in run.mac.nodes.values()),
        "cache_entries_end": len(run.medium._graph_cache),
        "collectors_end": sum(len(p._collectors)
                              for p in run.protocols.values()),
    }


def install(tracer: Tracer, layers: bool) -> None:
    """Patch manetsim; call after import and before any model is built."""
    from manetsim import (cli, engine, harness, mac, mobility, radio,
                          routing, simulation)

    # -- probe set: always on ------------------------------------------------
    cli.main = tracer.wrap("cli.main", cli.main)
    cli.load_config_file = tracer.wrap("config.load", cli.load_config_file)

    nid_out = tracer.name_id("harness.run_once_to_dir")
    orig_out = harness.run_once_to_dir

    @functools.wraps(orig_out)
    def run_once_to_dir(config, out_dir):
        before = len(tracer.runs)
        i = tracer.open(nid_out)
        try:
            return orig_out(config, out_dir)
        finally:
            tracer.close(i)
            if len(tracer.runs) > before:
                tracer.runs[-1]["out_dir"] = os.path.abspath(out_dir)

    harness.run_once_to_dir = cli.run_once_to_dir = run_once_to_dir

    orig_point = harness._run_point

    @functools.wraps(orig_point)
    def run_point(task):
        forked = tracer.adopt_fork()
        try:
            return orig_point(task)
        finally:
            if forked:
                # the worker's own growth: a forked process does not count
                # the file pages it shares with its parent until it touches
                # them, so its peak is not comparable with the parent's
                tracer.meta["rss_growth_kb"] = (peak_rss_kb()
                                                - tracer.rss_start_kb)
                tracer.flush()

    harness._run_point = run_point

    nid_run = tracer.name_id("simulation.run")
    orig_run = simulation.SimulationRun.run

    @functools.wraps(orig_run)
    def run(self):
        i = tracer.open(nid_run)
        try:
            result = orig_run(self)
        finally:
            tracer.close(i)
        tracer.runs.append(
            _run_record(self, result, tracer.start[i], tracer.end[i]))
        return result

    simulation.SimulationRun.run = run

    if layers:
        _install_layers(tracer, engine, harness, mac, mobility, radio,
                        routing, simulation)


def _install_layers(tracer, engine, harness, mac, mobility, radio, routing,
                    simulation) -> None:
    wrap = tracer.wrap

    # engine: queue operations, the loop, and every event handler
    queue = engine.EventQueue
    queue.pop = wrap("engine.pop", queue.pop)
    queue.peek_time = wrap("engine.peek_time", queue.peek_time)
    engine.Simulator.run_until = wrap("engine.run_until",
                                      engine.Simulator.run_until)
    orig_push = wrap("engine.push", queue.push)
    nid_handler = tracer.name_id("simulation.handler")

    def push(self, at, action):
        def handler():
            i = tracer.open(nid_handler)
            try:
                action()
            finally:
                tracer.close(i)
        return orig_push(self, at, handler)

    queue.push = push

    # mobility, social and simulation set-up
    mobility.position_at = wrap("mobility.position_at", mobility.position_at)
    mobility.generate_waypoint_trace = wrap(
        "mobility.trace_build", mobility.generate_waypoint_trace)
    simulation.generate_ts_matrix = wrap("social.ts_matrix_build",
                                         simulation.generate_ts_matrix)
    simulation.SimulationRun.__init__ = wrap(
        "simulation.build", simulation.SimulationRun.__init__)

    # radio: connectivity split into snapshot builds and cache hits; the
    # split reads Medium._graph_cache, the cache the snapshots live in
    nid_build = tracer.name_id("radio.connectivity.build")
    nid_hit = tracer.name_id("radio.connectivity.hit")
    orig_conn = radio.Medium.connectivity

    @functools.wraps(orig_conn)
    def connectivity(self, t):
        i = tracer.open(nid_hit if t in self._graph_cache else nid_build)
        try:
            return orig_conn(self, t)
        finally:
            tracer.close(i)

    radio.Medium.connectivity = connectivity
    radio.Medium.link_state = wrap("radio.link_state", radio.Medium.link_state)
    radio.Medium.transmit = wrap("radio.transmit", radio.Medium.transmit)

    # mac: load scans, neighbour-list lengths, admission and high-water marks
    layer = mac.MacLayer
    layer.neighborhood_load = wrap("mac.neighborhood_load",
                                   layer.neighborhood_load)
    orig_mac_init = layer.__init__

    @functools.wraps(orig_mac_init)
    def mac_init(self, node_ids, capacity=mac.DEFAULT_QUEUE_CAPACITY,
                 neighbor_provider=None):
        if neighbor_provider is not None:
            provider = neighbor_provider

            def neighbor_provider(node, t):
                nbrs = provider(node, t)
                tracer.add("mac.neighbors_scanned", len(nbrs))
                return nbrs
        orig_mac_init(self, node_ids, capacity=capacity,
                      neighbor_provider=neighbor_provider)

    layer.__init__ = mac_init
    orig_enqueue = wrap("mac.enqueue", layer.enqueue)

    def enqueue(self, node, packet):
        accepted = orig_enqueue(self, node, packet)
        if accepted:
            ac = mac.category_of(packet)
            tracer.high_water(f"mac.queue_hwm.ac{int(ac)}",
                              len(self.nodes[node].queues[ac]))
        else:
            tracer.add("mac.enqueue.rejected")
        return accepted

    layer.enqueue = enqueue

    # routing and social
    discover = wrap("routing.discover_paths", routing.discover_paths)
    routing.discover_paths = simulation.discover_paths = discover
    routing.path_mean_ts = wrap("social.path_mean_ts", routing.path_mean_ts)
    protocol = routing.SourceProtocol
    orig_reply = protocol.on_probe_reply_at_source

    @functools.wraps(orig_reply)
    def on_probe_reply_at_source(self, packet):
        late = packet.payload["iteration"] <= self._decided_through
        tracer.add("routing.replies_late" if late
                   else "routing.replies_accepted")
        return orig_reply(self, packet)

    protocol.on_probe_reply_at_source = on_probe_reply_at_source

    # video, and the run inside run_once_to_dir, whose self time is then
    # the output writing
    simulation.packetize = wrap("video.packetize", simulation.packetize)
    harness.run_simulation = wrap("harness.run_simulation",
                                  harness.run_simulation)


def load_chunks(directory: str) -> list[dict]:
    """Every chunk written under ``directory``, with calls and self time per
    span name, the (start, end) of every span of names called at most
    ``FEW_CALLS`` times (per command and per run), and the host-speed
    samples (start, duration) taken in its process."""
    chunks = []
    for entry in sorted(os.listdir(directory)):
        if not (entry.startswith("trace-") and entry.endswith(".npz")):
            continue
        with np.load(os.path.join(directory, entry)) as data:
            meta = json.loads(str(data["meta"]))
            name = data["name"].astype(np.int64)
            parent = data["parent"].astype(np.int64)
            start, end = data["start"], data["end"]
            meta["samples"] = (data["sample_start"], data["sample_s"])
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        self_time = dur - covered
        n = len(meta["names"])
        calls = np.bincount(name, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        meta["stats"] = {
            label: {"calls": int(calls[k]), "self_s": float(own[k])}
            for k, label in enumerate(meta["names"])}
        meta["spans"] = {
            label: np.column_stack((start[name == k],
                                    end[name == k])).tolist()
            for k, label in enumerate(meta["names"]) if calls[k] <= FEW_CALLS}
        chunks.append(meta)
    return chunks

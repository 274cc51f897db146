"""The benchmark's seeded workloads and the client-side oracles.

Each workload opens one durable session on the server, builds its starting
state with a warm-up script, and then runs its timed phase.  Every reply is
checked against an oracle computed from the client's own copy of the input:

* ``ask reach`` against connectivity of the client's edge set
  (``repro.baselines`` union-find);
* ``query forest`` with ``spanning_forest_is_valid``;
* ``query product_bits`` against Python integer multiplication.

A mismatch raises :class:`OracleMismatch`; an error reply raises
:class:`RequestFailed`.  Either ends the run without metrics.

Everything a workload sends follows from its seed.  The only choice that
reacts to a reply is the forest-edge victim of ``reach_forest_churn``, and
that reply is verified before it is used.
"""

from __future__ import annotations

import itertools
import random
import selectors
from collections import deque
from time import perf_counter

from repro.baselines.arithmetic import bits_to_int
from repro.baselines.graphs import same_component, spanning_forest_is_valid
from repro.baselines.unionfind import DisjointSets

from wire import Connection

__all__ = [
    "OracleMismatch",
    "RequestFailed",
    "Recorder",
    "ForestChurn",
    "ReadMostly",
    "ReadMostlyClosed",
    "MultBitflip",
    "WORKLOADS",
]


class OracleMismatch(Exception):
    """A reply disagreed with the client-side oracle."""


class RequestFailed(Exception):
    """The server answered a request with an error."""


class Recorder:
    """Client-observed samples of one timed phase."""

    def __init__(self) -> None:
        self.latency_ms: dict[str, list[float]] = {"read": [], "insert": [], "delete": []}
        #: frame id -> (kind, latency in ms), for matching server spans
        self.timed: dict[int, tuple[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.lag_ms: list[float] = []
        self.backlog = 0
        self.seconds = 0.0
        #: auxiliary tuples added or removed by the acknowledged writes
        self.tuples_changed = 0

    @property
    def writes(self) -> int:
        return len(self.latency_ms["insert"]) + len(self.latency_ms["delete"])

    def record(self, rid: int, kind: str, ms: float, result=None) -> None:
        self.latency_ms[kind].append(ms)
        self.timed[rid] = (kind, ms)
        if kind in ("insert", "delete"):
            self.tuples_changed += result["stats"]["tuples_added"] + result["stats"]["tuples_removed"]


def _sym(edges) -> set[tuple[int, int]]:
    """Both orientations of each undirected edge, as the server stores E."""
    return {(a, b) for a, b in edges} | {(b, a) for a, b in edges}


class Workload:
    """Shared plumbing: frame ids, the request log, checked calls."""

    name = ""
    program = ""
    loop = "closed"

    def __init__(self, seed: int, n: int) -> None:
        self.n = n
        self.rng = random.Random(seed)
        self.log: list[bytes] = []
        self._ids = itertools.count(1)

    @property
    def session(self) -> str:
        return self.name

    def describe(self) -> dict:
        return {"program": self.program, "n": self.n, "loop": self.loop, "clients": 1}

    def frame(self, op: str, **fields) -> dict:
        return {"id": next(self._ids), "op": op, "session": self.session, **fields}

    @staticmethod
    def write(kind: str, rel: str, *tup: int) -> dict:
        return {"request": {"op": "ins" if kind == "insert" else "del", "rel": rel, "tup": list(tup)}}

    def call(self, conn: Connection, frame: dict, kind: str, rec: Recorder | None):
        """One closed-loop request; ``rec`` is None outside the timed phase."""
        started = perf_counter()
        reply = conn.call(frame)
        ms = (perf_counter() - started) * 1e3
        if rec is not None:
            rec.attempted += 1
        if not reply.get("ok"):
            if rec is not None:
                rec.failed += 1
            raise RequestFailed(f"{frame['op']} failed: {reply.get('error')}")
        if rec is not None:
            rec.record(frame["id"], kind, ms, reply["result"])
        return reply["result"]

    def open_session(self, port: int, warmup: list[dict]) -> Connection:
        conn = Connection(port, self.log)
        self.call(conn, self.frame("open", program=self.program, n=self.n), "", None)
        script = [item["request"] for item in warmup]
        result = self.call(conn, self.frame("apply_script", script=script), "", None)
        if result["errors"] or result["applied"] != len(script):
            raise RequestFailed(f"warm-up script failed: {result['errors']}")
        return conn


class ForestChurn(Workload):
    """reach_u, closed loop: delete a forest edge, reinsert it, ask.

    The graph is a seeded Hamiltonian cycle plus seeded chords up to the
    density.  Without bridges every forest delete finds a replacement edge,
    so each delete runs the rewiring path and each reinsert is the same
    non-merging insert, whatever the seed."""

    name = "reach_forest_churn"
    program = "reach_u"

    def __init__(self, seed: int, n: int = 16, density: float = 0.3) -> None:
        super().__init__(seed, n)
        self.density = density
        order = list(range(n))
        self.rng.shuffle(order)
        self.edges = {tuple(sorted((order[i - 1], order[i]))) for i in range(n)}
        chords = [
            pair for pair in itertools.combinations(range(n), 2) if pair not in self.edges
        ]
        size = round(density * n * (n - 1) / 2)
        self.edges |= set(self.rng.sample(chords, max(0, size - len(self.edges))))
        self._warmup = sorted(self.edges)

    def describe(self) -> dict:
        return {**super().describe(), "density": self.density}

    def setup(self, port: int) -> list[Connection]:
        conn = self.open_session(
            port, [self.write("insert", "E", a, b) for a, b in self._warmup]
        )
        self.cycle(conn, None)  # compiles the delete rule and both queries
        return [conn]

    def cycle(self, conn: Connection, rec: Recorder | None) -> None:
        rows = self.call(conn, self.frame("query", name="forest"), "read", rec)
        forest = {(a, b) for a, b in rows}
        if not spanning_forest_is_valid(self.n, _sym(self.edges), forest):
            raise OracleMismatch(f"forest {sorted(forest)} is not a spanning forest")
        victim = self.rng.choice(sorted((a, b) for a, b in forest if a < b))
        self.call(conn, self.frame("apply", **self.write("delete", "E", *victim)), "delete", rec)
        self.edges.discard(victim)
        self.call(conn, self.frame("apply", **self.write("insert", "E", *victim)), "insert", rec)
        self.edges.add(victim)
        s, t = self.rng.sample(range(self.n), 2)
        got = self.call(conn, self.frame("ask", name="reach", params={"s": s, "t": t}), "read", rec)
        want = same_component(self.n, self.edges).connected(s, t)
        if got != want:
            raise OracleMismatch(f"reach({s}, {t}) = {got}, oracle says {want}")

    def run(self, conns, seconds: float, rec: Recorder, max_ops: int | None) -> None:
        (conn,) = conns
        started = perf_counter()
        deadline = started + seconds
        cycles = 0
        while perf_counter() < deadline and (max_ops is None or cycles < max_ops):
            self.cycle(conn, rec)
            cycles += 1
        rec.seconds = perf_counter() - started


class MultBitflip(Workload):
    """multiplication, closed loop: toggle a bit of X or Y, read the product."""

    name = "mult_bitflip"
    program = "multiplication"

    def __init__(self, seed: int, n: int = 32) -> None:
        super().__init__(seed, n)
        half = n // 2
        self.bits = {
            rel: {p for p in range(half) if self.rng.random() < 0.5} for rel in "XY"
        }

    def setup(self, port: int) -> list[Connection]:
        warmup = [self.write("insert", rel, p) for rel in "XY" for p in sorted(self.bits[rel])]
        conn = self.open_session(port, warmup)
        # toggle bit 0 of each factor twice: compiles all four rules
        for rel in "XY":
            for _ in range(2):
                self.toggle(conn, rel, 0, None)
        self.check_product(conn, None)
        return [conn]

    def toggle(self, conn: Connection, rel: str, p: int, rec: Recorder | None) -> None:
        kind = "delete" if p in self.bits[rel] else "insert"
        self.call(conn, self.frame("apply", **self.write(kind, rel, p)), kind, rec)
        self.bits[rel] ^= {p}

    def check_product(self, conn: Connection, rec: Recorder | None) -> None:
        rows = self.call(conn, self.frame("query", name="product_bits"), "read", rec)
        got = bits_to_int(tuple(row) for row in rows)
        want = bits_to_int(self.bits["X"]) * bits_to_int(self.bits["Y"])
        if got != want:
            raise OracleMismatch(f"product_bits = {got}, oracle says {want}")

    def run(self, conns, seconds: float, rec: Recorder, max_ops: int | None) -> None:
        (conn,) = conns
        started = perf_counter()
        deadline = started + seconds
        steps = 0
        while perf_counter() < deadline and (max_ops is None or steps < max_ops):
            self.toggle(conn, self.rng.choice("XY"), self.rng.randrange(self.n // 2), rec)
            self.check_product(conn, rec)
            steps += 1
        rec.seconds = perf_counter() - started


class ReadMostly(Workload):
    """reach_u, open loop: Poisson arrivals, one read and one write
    connection multiplexed by one thread; every tenth request is an insert
    of an absent edge, the rest are ``ask reach`` point reads.

    The warm-up graph is sparse and the same shape for every seed: two
    trees of n/2 vertices each, shaped as complete binary trees over a
    seeded labelling.  Inserts add seeded absent edges inside a tree, so the
    forest never changes and every insert does the same kind of work; reads
    ask seeded pairs, about half of them across the two trees."""

    name = "reach_read_mostly"
    program = "reach_u"
    loop = "open"
    WRITE_EVERY = 10

    # At this size and rate about an eighth of the reads wait behind an
    # insert, so read_p95 falls inside those waits rather than at their
    # edge, where it would jump with small changes in insert time; the trees
    # hold enough absent edges for a 45 s run.
    def __init__(self, seed: int, n: int = 80, rate: float = 300.0) -> None:
        super().__init__(seed, n)
        self.rate = rate
        vertices = list(range(n))
        self.rng.shuffle(vertices)
        trees = (vertices[: n // 2], vertices[n // 2 :])
        self._warmup = [
            (min(tree[i], tree[(i - 1) // 2]), max(tree[i], tree[(i - 1) // 2]))
            for tree in trees
            for i in range(1, len(tree))
        ]
        tree_edges = set(self._warmup)
        absent = [
            (a, b)
            for tree in trees
            for a, b in itertools.combinations(sorted(tree), 2)
            if (a, b) not in tree_edges
        ]
        self.rng.shuffle(absent)
        self._absent = iter(absent)
        # union-finds over edges acknowledged / sent: with inserts only,
        # a read's true answer lies between the two
        self.acked = DisjointSets(range(n))
        self.sent = DisjointSets(range(n))
        for a, b in self._warmup:
            self.acked.union(a, b)
            self.sent.union(a, b)
        self.arrivals = random.Random(seed + 1)

    def describe(self) -> dict:
        return {
            **super().describe(),
            "clients": 2,
            "rate_per_s": self.rate,
            "write_share": 1 / self.WRITE_EVERY,
            "warmup": f"two complete binary trees of {self.n // 2} vertices",
            "threads": 1,
        }

    def setup(self, port: int) -> list[Connection]:
        reads = Connection(port, self.log)
        writes = self.open_session(
            port, [self.write("insert", "E", a, b) for a, b in self._warmup]
        )
        self.call(reads, self.frame("ask", name="reach", params={"s": 0, "t": 1}), "", None)
        return [reads, writes]

    def _next_request(self, k: int, slot: int):
        if k % self.WRITE_EVERY == slot:
            pair = next(self._absent, None)
            if pair is None:
                raise ValueError(f"every edge inside the trees is present; n={self.n} is too small")
            a, b = pair
            self.sent.union(a, b)
            return "insert", (a, b), self.frame("apply", **self.write("insert", "E", a, b))
        s, t = self.rng.sample(range(self.n), 2)
        frame = self.frame("ask", name="reach", params={"s": s, "t": t})
        return "read", (s, t, self.acked.connected(s, t)), frame

    def _settle(self, reply: dict, entry, now: float, rec: Recorder) -> None:
        rid, kind, payload, due = entry
        if reply.get("id") != rid:
            raise RequestFailed(f"reply id {reply.get('id')} for request {rid}")
        if not reply.get("ok"):
            rec.failed += 1
            raise RequestFailed(f"request {rid} failed: {reply.get('error')}")
        rec.record(rid, kind, (now - due) * 1e3, reply["result"])
        if kind == "insert":
            self.acked.union(*payload)
            return
        s, t, lower = payload
        got = reply["result"]
        if (lower and not got) or (got and not self.sent.connected(s, t)):
            raise OracleMismatch(f"reach({s}, {t}) = {got} outside the oracle's bounds")

    def run(self, conns, seconds: float, rec: Recorder, max_ops: int | None) -> None:
        reads, writes = conns
        pending: dict[Connection, deque] = {reads: deque(), writes: deque()}
        # select(2) takes microsecond timeouts; epoll rounds up to whole ms
        selector = selectors.SelectSelector()
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)

        def receive(timeout: float) -> None:
            for key, _ in selector.select(timeout):
                conn = key.data
                replies = conn.recv_ready()
                now = perf_counter()
                for reply in replies:
                    self._settle(reply, pending[conn].popleft(), now, rec)

        try:
            started = perf_counter()
            end = started + seconds
            due = started
            slot = 0
            for k in itertools.count():
                if k % self.WRITE_EVERY == 0:
                    slot = self.rng.randrange(self.WRITE_EVERY)
                due += self.arrivals.expovariate(self.rate)
                if due >= end or (max_ops is not None and k >= max_ops):
                    break
                while (now := perf_counter()) < due:
                    receive(due - now)
                kind, payload, frame = self._next_request(k, slot)
                conn = writes if kind == "insert" else reads
                conn.send(frame)
                rec.lag_ms.append((perf_counter() - due) * 1e3)
                rec.attempted += 1
                pending[conn].append((frame["id"], kind, payload, due))
            while (now := perf_counter()) < end and max_ops is None:
                receive(end - now)
            rec.seconds = perf_counter() - started
            rec.backlog = sum(len(queue) for queue in pending.values())
            drain_by = perf_counter() + 60.0
            while any(pending.values()):
                if perf_counter() > drain_by:
                    raise RequestFailed("replies still missing 60 s after the run")
                receive(1.0)
        finally:
            selector.close()


class ReadMostlyClosed(ReadMostly):
    """``reach_read_mostly``'s requests in a closed loop: one request in
    flight, sent at the open loop's seeded times or at once when the
    previous reply came later.  Nothing queues in the server, so each
    latency is one request's service time.  On a shared two-vCPU host the
    open loop's queues turned host noise into run-to-run spreads of 17-87%
    of the median on its read and insert latencies."""

    name = "reach_read_mostly_closed"
    loop = "closed"

    def run(self, conns, seconds: float, rec: Recorder, max_ops: int | None) -> None:
        reads, writes = conns
        started = perf_counter()
        end = started + seconds
        due = started
        slot = 0
        for k in itertools.count():
            if k % self.WRITE_EVERY == 0:
                slot = self.rng.randrange(self.WRITE_EVERY)
            due += self.arrivals.expovariate(self.rate)
            if max(due, perf_counter()) >= end or (max_ops is not None and k >= max_ops):
                break
            # spin, not sleep: on a shared two-vCPU host, waking from idle
            # added 25% to insert p50 and 60% to read p95 in interleaved runs
            while perf_counter() < due:
                pass
            kind, payload, frame = self._next_request(k, slot)
            if kind == "insert":
                self.call(writes, frame, kind, rec)
                self.acked.union(*payload)
                continue
            s, t, want = payload
            got = self.call(reads, frame, kind, rec)
            if got != want:
                raise OracleMismatch(f"reach({s}, {t}) = {got}, oracle says {want}")
        rec.seconds = perf_counter() - started


WORKLOADS = {cls.name: cls for cls in (ForestChurn, ReadMostly, ReadMostlyClosed, MultBitflip)}

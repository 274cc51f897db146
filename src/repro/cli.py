"""Command-line interface: ``python -m repro`` / ``dynfo``.

Subcommands
-----------

``list``
    List the paper's programs with their theorem and metric summary.
``bench E2 [E5 ...] [--full]``
    Run experiments from DESIGN.md Sec. 4 and print their tables
    (``all`` runs the whole suite).
``verify reach_u [--n 8] [--steps 120] [--seed 0] [--audit-every N] [--journal PATH] [--max-rows N]``
    Replay a randomized workload against the from-scratch oracle,
    optionally self-auditing the auxiliary structure, journaling every
    request to a crash-safe write-ahead log (then replaying it and
    failing unless the replay reaches the live structure), and/or
    capping the materialization budget per update.
``explain reach_u [--backend relational|dense] [--rule insert:E] [--query reach]``
    Print the compiled physical plans the engine caches and replays —
    the static view of what every update/query executes.
``demo``
    A tiny REACH_u session showing the update formulas at work.
``serve [--host H] [--port P] [--data-dir DIR] [--metrics-port P] ...``
    Host the concurrent multi-session serving layer over NDJSON/TCP
    (see docs/TUTORIAL.md Sec. 8); ``--metrics-port`` adds a
    Prometheus-style ``/metrics`` endpoint and ``--slowlog-ms`` sets
    the slow-request threshold (docs/TUTORIAL.md Sec. 9).
``client ACTION [...]``
    Talk to a running server: ``ping``, ``open``, ``ins``, ``del``,
    ``set``, ``ask``, ``query``, ``stats``, ``sessions``, ``save``,
    ``close``, ``slowlog``, ``pipe`` (NDJSON frames from stdin), or
    ``trace ACTION ...`` (run one op with tracing on and print its
    span tree).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .bench import EXPERIMENTS, run_experiment
from .dynfo.oracles import (
    bipartite_checker,
    connectivity_checker,
    lca_checker,
    matching_checker,
    msf_checker,
    parity_checker,
    paths_checker,
    product_checker,
    spanning_forest_checker,
    transitive_reduction_checker,
)
from .dynfo.journal import RequestJournal, recover
from .dynfo.verify import exact_relation_checker, verify_program
from .programs import PROGRAM_FACTORIES
from .workloads import (
    bitflip_script,
    bounded_degree_script,
    dag_script,
    forest_script,
    number_bit_script,
    undirected_script,
    weighted_script,
)

# program name -> (script maker, oracle checkers)
_VERIFIABLE = {
    "parity": (bitflip_script, [parity_checker()]),
    "prefix_parity": (
        bitflip_script,
        [
            exact_relation_checker(
                "prefixes",
                lambda inputs: {
                    (p,)
                    for p in range(inputs.n)
                    if len(
                        [1 for (o,) in inputs.relation_view("M") if o <= p]
                    )
                    % 2
                    == 1
                },
            )
        ],
    ),
    "reach_u": (
        undirected_script,
        [connectivity_checker(), spanning_forest_checker()],
    ),
    "reach_u_arity2": (undirected_script, [connectivity_checker()]),
    "reach_acyclic": (dag_script, [paths_checker()]),
    "transitive_reduction": (
        dag_script,
        [paths_checker(), transitive_reduction_checker()],
    ),
    "msf": (weighted_script, [msf_checker()]),
    "bipartite": (undirected_script, [bipartite_checker()]),
    "matching": (
        lambda n, steps, seed: bounded_degree_script(n, steps, seed=seed),
        [matching_checker()],
    ),
    "lca": (forest_script, [lca_checker()]),
    "multiplication": (number_bit_script, [product_checker()]),
}


def _cmd_list(_: argparse.Namespace) -> int:
    print(f"{'program':<22} {'depth':>5} {'rank':>4} {'arity':>5}  notes")
    print("-" * 88)
    for name, factory in sorted(PROGRAM_FACTORIES.items()):
        program = factory()
        note = program.notes.split(".  ")[0].split(": ")[0].rstrip(".")
        print(
            f"{name:<22} {program.max_connective_depth():>5} "
            f"{program.max_quantifier_rank():>4} {program.aux_arity():>5}  {note}"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    names = list(args.experiments)
    if not names or [n.lower() for n in names] == ["all"]:
        names = list(EXPERIMENTS)
    for name in names:
        start = time.perf_counter()
        table = run_experiment(name, quick=not args.full)
        elapsed = time.perf_counter() - start
        print(table.render())
        print(f"  [{elapsed:.1f}s]")
        print()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    name = args.program
    if name not in _VERIFIABLE:
        print(
            f"no scripted oracle for {name!r}; choose from "
            f"{', '.join(sorted(_VERIFIABLE))}",
            file=sys.stderr,
        )
        return 2
    script_maker, checkers = _VERIFIABLE[name]
    program = PROGRAM_FACTORIES[name]()
    script = script_maker(args.n, args.steps, seed=args.seed)
    journal = RequestJournal(args.journal) if args.journal else None
    start = time.perf_counter()
    try:
        harness = verify_program(
            program,
            args.n,
            script,
            checkers,
            audit_every=args.audit_every,
            journal=journal,
            max_rows=args.max_rows,
        )
    finally:
        if journal is not None:
            journal.close()
    elapsed = time.perf_counter() - start
    extras = []
    if args.audit_every:
        extras.append(f"integrity-audited every {args.audit_every} requests")
    if args.journal:
        replayed = recover(program, args.journal, n=args.n, attach=False)
        if replayed.structure != harness.engine.structure:
            print(f"{name}: the journal {args.journal} does not replay to the "
                  "live structure (did it hold an earlier run?)", file=sys.stderr)
            return 1
        extras.append(f"journaled to {args.journal} and replayed to the same state")
    print(
        f"{name}: {len(script)} requests on n={args.n} verified against the "
        f"from-scratch oracle after every request ({elapsed:.1f}s)"
        + ("".join(f"; {extra}" for extra in extras))
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .logic.explain import render_plan, render_rule_plans

    name = args.program
    if name not in PROGRAM_FACTORIES:
        print(
            f"unknown program {name!r}; choose from "
            f"{', '.join(sorted(PROGRAM_FACTORIES))}",
            file=sys.stderr,
        )
        return 2
    program = PROGRAM_FACTORIES[name]()
    # the plans the engine runs: each definition's Δ⁺/Δ⁻ pair, compiled
    # per (backend, n) with the backend's one compile choice (logic/plan.py)
    compiled = program.compile(args.backend, args.n)

    def show(blocks: list[str]) -> None:
        for block in blocks:
            print(f"\n{block}")

    rules = []
    for kind, table in (
        ("insert", program.on_insert),
        ("delete", program.on_delete),
        ("set", program.on_set),
        ("op", program.on_operation),
    ):
        for rel, rule in sorted(table.items()):
            rules.append((f"{kind}:{rel}", rule))
    wanted = {r for r in (args.rule or [])}
    unknown = wanted - {tag for tag, _ in rules}
    unknown_queries = set(args.query or []) - set(program.queries)
    if unknown or unknown_queries:
        if unknown:
            print(
                f"no rule {sorted(unknown)}; available: "
                f"{', '.join(tag for tag, _ in rules)}",
                file=sys.stderr,
            )
        if unknown_queries:
            print(
                f"no query {sorted(unknown_queries)}; available: "
                f"{', '.join(sorted(program.queries))}",
                file=sys.stderr,
            )
        return 2
    show_all = not wanted and not args.query
    print(f"{name}: compiled plans for backend {args.backend!r}")
    for tag, rule in rules:
        if not show_all and tag not in wanted:
            continue
        show(render_rule_plans(tag, rule, compiled.rule_plans(rule)))
    for qname, query in sorted(program.queries.items()):
        if not show_all and qname not in (args.query or []):
            continue
        frame = ", ".join(query.frame) or "boolean"
        print(f"\nquery :: {qname}({frame})")
        print(render_plan(compiled.query_plan(query)))
    return 0


def _cmd_demo(_: argparse.Namespace) -> int:
    from .dynfo import DynFOEngine
    from .logic import format_formula
    from .programs import make_reach_u_program

    program = make_reach_u_program()
    print("REACH_u update formulas (Theorem 4.1):")
    for kind, rules in (("insert", program.on_insert), ("delete", program.on_delete)):
        for rel, rule in rules.items():
            print(f"\non {kind}({rel}, a, b):")
            for temp in rule.temporaries:
                print(f"  [temp] {temp.name}({', '.join(temp.frame)}) :=")
                print(f"      {format_formula(temp.formula)}")
            for definition in rule.definitions:
                print(f"  {definition.name}'({', '.join(definition.frame)}) :=")
                print(f"      {format_formula(definition.formula)}")
    engine = DynFOEngine(program, 8)
    for (u, v) in [(0, 1), (1, 2), (4, 5)]:
        engine.insert("E", u, v)
    print("\nafter ins(E,0,1), ins(E,1,2), ins(E,4,5):")
    print("  reach(0, 2) =", engine.ask("reach", s=0, t=2))
    print("  reach(0, 5) =", engine.ask("reach", s=0, t=5))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import DynFOServer, DynFOService, serve_forever

    # SIGTERM (systemd, docker stop, plain `kill`) shuts down as cleanly
    # as Ctrl-C: snapshot durable sessions before exiting.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    service = DynFOService(
        data_dir=args.data_dir,
        max_sessions=args.max_sessions,
        read_workers=args.read_workers,
        max_batch=args.max_batch,
        max_queue_depth=args.max_queue,
        default_deadline=args.deadline_ms / 1e3 if args.deadline_ms else None,
        slowlog_ms=args.slowlog_ms,
    )
    server = DynFOServer(host=args.host, port=args.port, service=service)
    metrics_server = None
    if args.metrics_port is not None:
        from .obs import start_metrics_server

        metrics_server = start_metrics_server(
            service, host=args.host, port=args.metrics_port
        )
        metrics_host, metrics_port = metrics_server.server_address[:2]
        print(
            f"metrics exposition on http://{metrics_host}:{metrics_port}/metrics",
            flush=True,
        )
    durability = f"durable under {args.data_dir}" if args.data_dir else "in-memory"
    print(
        f"dynfo service on {args.host}:{server.port} ({durability}; "
        f"max {args.max_sessions} sessions, {args.read_workers} read workers, "
        f"batches up to {args.max_batch}, slow log past {args.slowlog_ms:g}ms); "
        "Ctrl-C to stop",
        flush=True,
    )
    try:
        serve_forever(server)
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
    print("stopped; sessions snapshotted" if args.data_dir else "stopped")
    return 0


def _parse_params(pairs: Sequence[str]) -> dict[str, int]:
    params: dict[str, int] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name:
            raise SystemExit(f"expected name=value, got {pair!r}")
        try:
            params[name] = int(value)
        except ValueError:
            raise SystemExit(f"param {name!r} needs an int, got {value!r}") from None
    return params


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from .dynfo.errors import EngineError
    from .dynfo.requests import Delete, Insert, SetConst, request_to_item
    from .service import TCPServiceClient
    from .service.protocol import decode_frame, encode_frame

    def need(count: int, usage: str) -> Sequence[str]:
        if len(args.args) < count:
            raise SystemExit(f"usage: client {args.action} {usage}")
        return args.args

    deadline = args.deadline_ms

    def frame_for(action: str, rest: Sequence[str]) -> dict:
        """One scheduler-visible op as a raw wire frame (for ``trace``)."""

        def want(count: int, usage: str) -> None:
            if len(rest) < count:
                raise SystemExit(f"usage: client trace {action} {usage}")

        item: dict
        if action in ("ins", "del"):
            want(3, "SESSION REL ELEM [ELEM ...]")
            cls = Insert if action == "ins" else Delete
            request = cls(rest[1], tuple(int(v) for v in rest[2:]))
            item = {
                "op": "apply",
                "session": rest[0],
                "request": request_to_item(request),
            }
        elif action == "set":
            want(3, "SESSION NAME VALUE")
            item = {
                "op": "apply",
                "session": rest[0],
                "request": request_to_item(SetConst(rest[1], int(rest[2]))),
            }
        elif action in ("ask", "query"):
            want(2, "SESSION QUERY [name=value ...]")
            item = {
                "op": action,
                "session": rest[0],
                "name": rest[1],
                "params": _parse_params(rest[2:]),
            }
        else:
            raise SystemExit(
                f"cannot trace {action!r}; traceable: ins, del, set, ask, query"
            )
        if deadline is not None:
            item["deadline_ms"] = deadline
        return item
    try:
        with TCPServiceClient(host=args.host, port=args.port) as client:
            action = args.action
            if action == "ping":
                print(client.ping())
            elif action == "sessions":
                print("\n".join(client.sessions()) or "(no sessions)")
            elif action == "stats":
                which = args.args[0] if args.args else None
                print(json.dumps(client.stats(which), indent=2, sort_keys=True))
            elif action == "open":
                rest = need(1, "SESSION [PROGRAM N]")
                name = rest[0]
                program = rest[1] if len(rest) > 1 else None
                n = int(rest[2]) if len(rest) > 2 else None
                print(json.dumps(client.open(name, program, n=n), sort_keys=True))
            elif action in ("ins", "del"):
                rest = need(3, "SESSION REL ELEM [ELEM ...]")
                cls = Insert if action == "ins" else Delete
                request = cls(rest[1], tuple(int(v) for v in rest[2:]))
                result = client.apply(rest[0], request, deadline_ms=deadline)
                print(json.dumps(result, sort_keys=True))
            elif action == "set":
                rest = need(3, "SESSION NAME VALUE")
                result = client.apply(
                    rest[0], SetConst(rest[1], int(rest[2])), deadline_ms=deadline
                )
                print(json.dumps(result, sort_keys=True))
            elif action == "ask":
                rest = need(2, "SESSION QUERY [name=value ...]")
                params = _parse_params(rest[2:])
                print(
                    client.ask(rest[0], rest[1], deadline_ms=deadline, **params)
                )
            elif action == "query":
                rest = need(2, "SESSION QUERY [name=value ...]")
                params = _parse_params(rest[2:])
                rows = client.query(rest[0], rest[1], deadline_ms=deadline, **params)
                for row in sorted(rows):
                    print(" ".join(map(str, row)))
            elif action == "save":
                rest = need(1, "SESSION")
                print(json.dumps(client.save(rest[0]), sort_keys=True))
            elif action == "close":
                rest = need(1, "SESSION")
                print(json.dumps(client.close_session(rest[0]), sort_keys=True))
            elif action == "slowlog":
                which = args.args[0] if args.args else None
                log = client.slowlog(which)
                entries = log.get("entries", [])
                print(
                    f"{len(entries)} slow request(s) past "
                    f"{log.get('threshold_ms')}ms"
                    + (f" ({log['dropped']} dropped)" if log.get("dropped") else "")
                )
                for entry in entries:
                    print(json.dumps(entry, sort_keys=True))
            elif action == "trace":
                from .obs.trace import render_trace

                rest = need(1, "ACTION [ARGS ...]")
                item = frame_for(rest[0], rest[1:])
                result, trace = client.call_traced(item)
                print(json.dumps(result, sort_keys=True))
                if trace is not None:
                    print(render_trace(trace))
            elif action == "pipe":
                # raw NDJSON passthrough: frames on stdin, responses on stdout
                for line in sys.stdin:
                    if not line.strip():
                        continue
                    response = client.call(decode_frame(line))
                    sys.stdout.write(encode_frame(response).decode("utf-8"))
                    sys.stdout.flush()
            else:  # pragma: no cover - argparse choices guard this
                raise SystemExit(f"unknown action {action!r}")
    except EngineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(
            f"cannot reach {args.host}:{args.port}: {error}", file=sys.stderr
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynfo",
        description=(
            "Reproduction of Patnaik & Immerman, 'Dyn-FO: A Parallel, "
            "Dynamic Complexity Class' (PODS 1994)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the paper's programs").set_defaults(
        fn=_cmd_list
    )

    bench = sub.add_parser("bench", help="run experiments E1..E18")
    bench.add_argument("experiments", nargs="*", help="experiment ids or 'all'")
    bench.add_argument("--full", action="store_true", help="bigger sweeps")
    bench.set_defaults(fn=_cmd_bench)

    verify = sub.add_parser("verify", help="oracle-verify a program")
    verify.add_argument("program", help="program name (see 'list')")
    verify.add_argument("--n", type=int, default=7, help="universe size")
    verify.add_argument("--steps", type=int, default=80, help="request count")
    verify.add_argument("--seed", type=int, default=0, help="workload seed")
    verify.add_argument(
        "--audit-every",
        type=int,
        default=0,
        metavar="N",
        help="cross-check the auxiliary structure against a from-scratch "
        "replay every N requests (0 = off)",
    )
    verify.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append every accepted request to a crash-safe write-ahead "
        "journal at PATH, then replay it and fail unless the replay reaches "
        "the live structure",
    )
    verify.add_argument(
        "--max-rows",
        type=int,
        default=None,
        metavar="N",
        help="materialization budget per update (rows for the relational "
        "backend); typed EngineError when exceeded",
    )
    verify.set_defaults(fn=_cmd_verify)

    explain = sub.add_parser(
        "explain", help="print a program's compiled physical plans"
    )
    explain.add_argument("program", help="program name (see 'list')")
    explain.add_argument(
        "--backend",
        choices=["relational", "dense"],
        default="relational",
        help="compile for this executor (plan shape differs: the dense "
        "backend skips And-over-Or distribution)",
    )
    explain.add_argument(
        "--rule",
        action="append",
        metavar="KIND:NAME",
        help="only these rules (e.g. insert:E, delete:E); repeatable",
    )
    explain.add_argument(
        "--query",
        action="append",
        metavar="NAME",
        help="only these named queries; repeatable",
    )
    explain.add_argument(
        "--n",
        type=int,
        default=8,
        metavar="N",
        help="universe size the plans are compiled for",
    )
    explain.set_defaults(fn=_cmd_explain)

    sub.add_parser("demo", help="print REACH_u's formulas, run a session").set_defaults(
        fn=_cmd_demo
    )

    serve = sub.add_parser(
        "serve", help="host engine sessions over NDJSON/TCP"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="directory for durable sessions (journal + snapshot per "
        "session); omit for in-memory sessions",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=64, help="session table size"
    )
    serve.add_argument(
        "--read-workers", type=int, default=8, help="reader thread pool size"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most writes one group-commit batch may coalesce",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="per-session admission limit (queued-or-running requests)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=30000.0,
        help="default per-request deadline (0 = none)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also expose Prometheus-style text metrics over HTTP at "
        "/metrics on this port (0 = ephemeral)",
    )
    serve.add_argument(
        "--slowlog-ms",
        type=float,
        default=250.0,
        help="requests slower than this land in the slow-request ring "
        "buffer ('client slowlog')",
    )
    serve.set_defaults(fn=_cmd_serve)

    client = sub.add_parser("client", help="talk to a running server")
    client.add_argument(
        "action",
        choices=[
            "ping",
            "open",
            "ins",
            "del",
            "set",
            "ask",
            "query",
            "stats",
            "sessions",
            "save",
            "close",
            "slowlog",
            "trace",
            "pipe",
        ],
        help="what to do",
    )
    client.add_argument(
        "args",
        nargs="*",
        help="action arguments, e.g. 'open chat reach_u 16', "
        "'ins chat E 0 1', 'ask chat reach s=0 t=5'",
    )
    client.add_argument("--host", default="127.0.0.1", help="server address")
    client.add_argument("--port", type=int, default=8642, help="server port")
    client.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline sent with writes and reads",
    )
    client.set_defaults(fn=_cmd_client)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Experiments E1-E18 (see DESIGN.md Sec. 4).

The paper proves membership theorems rather than reporting measurements, so
each experiment quantifies one of its claims on synthetic workloads:

* E1-E14 — one experiment per theorem: the Dyn-FO program's per-request
  cost (update + maintained-query) against from-scratch static
  recomputation of the same answer;
* E15 — evaluator ablation (naive / relational / dense backends);
* E16 — the "Parallel" claim: per-update formula depth (= CRAM[1] steps)
  is a constant independent of n;
* E17 — auxiliary-arity ablation: Theorem 4.1's arity-3 PV versus the
  [DS95] arity-2 forest+closure;
* E18 — bounded expansion: requests translated per source request under
  the Example 2.1 reduction.

Every experiment returns a :class:`~repro.bench.harness.Table`.  ``quick``
shrinks sweeps so the whole suite runs in minutes; the benchmark files in
``benchmarks/`` time the same kernels under pytest-benchmark.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Mapping, Sequence

from ..baselines import (
    alternating_reaches,
    bits_to_int,
    deterministic_reachable,
    forest_lca,
    is_bipartite,
    is_k_edge_connected,
    kruskal_msf,
    mod_counter_dfa,
    reachable_pairs_undirected,
    transitive_closure,
    transitive_reduction_dag,
)
from ..dynfo import DynFOEngine, Request, apply_request
from ..dynfo.program import DynFOProgram
from ..logic.structure import Structure
from ..programs import (
    KEdgeAnalyzer,
    make_bipartite_program,
    make_dyck_program,
    make_kedge_program,
    make_lca_program,
    make_matching_program,
    make_msf_program,
    make_multiplication_program,
    make_pad_reach_a_program,
    make_parity_program,
    make_reach_acyclic_program,
    make_reach_d_engine,
    make_reach_u_arity2_program,
    make_reach_u_program,
    make_regular_program,
    make_transitive_reduction_program,
)
from ..programs.dyck import left_relation, right_relation
from ..programs.regular import symbol_relation
from ..reductions import measure_expansion, reduction_d_to_u
from ..workloads import (
    PadAdversary,
    bitflip_script,
    bounded_degree_script,
    dag_script,
    dyck_edit_script,
    forest_script,
    number_bit_script,
    reach_d_script,
    undirected_script,
    weighted_script,
    word_edit_script,
)
from .harness import Table

__all__ = ["EXPERIMENTS", "run_experiment"]

_MS = 1e3  # render seconds as milliseconds


# ---------------------------------------------------------------------------
# shared arms
# ---------------------------------------------------------------------------


def _time_dynamic(
    program: DynFOProgram,
    n: int,
    script: Sequence[Request],
    query: Callable[[DynFOEngine], object],
    warmup: int = 0,
    backend: str = "relational",
) -> tuple[float, float]:
    """(avg update seconds, avg query seconds) for the Dyn-FO arm."""
    engine = DynFOEngine(program, n, backend=backend)
    for request in script[:warmup]:
        engine.apply(request)
    measured = script[warmup:]
    start = time.perf_counter()
    for request in measured:
        engine.apply(request)
    update = (time.perf_counter() - start) / max(len(measured), 1)
    repeats = 5
    start = time.perf_counter()
    for _ in range(repeats):
        query(engine)
    return update, (time.perf_counter() - start) / repeats


def _time_static(
    vocabulary,
    n: int,
    script: Sequence[Request],
    recompute: Callable[[Structure], object],
    symmetric: frozenset[str] = frozenset(),
    warmup: int = 0,
) -> float:
    """Avg seconds per (apply request + recompute answer from scratch)."""
    inputs = Structure.initial(vocabulary, n)
    for request in script[:warmup]:
        apply_request(inputs, request, symmetric)
    measured = script[warmup:]
    start = time.perf_counter()
    for request in measured:
        apply_request(inputs, request, symmetric)
        recompute(inputs)
    return (time.perf_counter() - start) / max(len(measured), 1)


def _dyn_static_table(
    experiment: str,
    title: str,
    program_maker: Callable[[], DynFOProgram],
    script_maker: Callable[[int], Sequence[Request]],
    query: Callable[[DynFOEngine], object],
    recompute: Callable[[Structure], object],
    sizes: Sequence[int],
    notes: str = "",
    warmup_fraction: float = 0.3,
) -> Table:
    table = Table(
        experiment,
        title,
        (
            "n",
            "dyn update (ms)",
            "dyn query (ms)",
            "static upd+recompute (ms)",
            "static/dyn-query ratio",
        ),
        notes=notes,
    )
    program = program_maker()
    for n in sizes:
        script = list(script_maker(n))
        warmup = int(len(script) * warmup_fraction)
        update, query_time = _time_dynamic(program, n, script, query, warmup)
        static = _time_static(
            program.input_vocabulary,
            n,
            script,
            recompute,
            program.symmetric_inputs,
            warmup,
        )
        ratio = static / query_time if query_time > 0 else float("inf")
        table.add(n, update * _MS, query_time * _MS, static * _MS, ratio)
    return table


# ---------------------------------------------------------------------------
# E1 .. E14
# ---------------------------------------------------------------------------


def e01_parity(quick: bool = True) -> Table:
    sizes = (64, 256, 1024) if quick else (64, 256, 1024, 4096)
    return _dyn_static_table(
        "E1",
        "PARITY (Example 3.2): maintained bit vs recount",
        make_parity_program,
        lambda n: bitflip_script(n, 60, seed=1),
        lambda engine: engine.ask("odd"),
        lambda inputs: len(inputs.relation_view("M")) % 2 == 1,
        sizes,
        notes="""Shape: the dyn query cost is flat in n (a nullary-relation
        lookup), as is its per-update cost beyond the mirrored string
        rewrite.  Python's set-size recount is faster in wall clock at any
        feasible n — the reproduced claim is structural: one O(1)-depth FO
        step per request (E16), where statically PARITY needs no FO formula
        at all [A83, FSS84].""",
    )


def e02_reach_u(quick: bool = True) -> Table:
    sizes = (8, 12, 16) if quick else (8, 12, 16, 24, 32)
    return _dyn_static_table(
        "E2",
        "REACH_u (Theorem 4.1): spanning forest vs all-pairs BFS",
        make_reach_u_program,
        lambda n: undirected_script(n, 50, seed=2),
        lambda engine: engine.query("connected"),
        lambda inputs: reachable_pairs_undirected(
            inputs.n, inputs.relation_view("E")
        ),
        sizes,
        notes="""Shape: per-update cost is history-independent (same script
        position costs the same at step 10 and step 1000) and the maintained
        connectivity relation answers all-pairs queries by lookup, while
        the static arm pays a full components recomputation per request.""",
    )


def e03_reach_acyclic(quick: bool = True) -> Table:
    sizes = (8, 12, 16) if quick else (8, 12, 16, 24)
    return _dyn_static_table(
        "E3",
        "REACH(acyclic) (Theorem 4.2): path relation vs DFS closure",
        make_reach_acyclic_program,
        lambda n: dag_script(n, 60, seed=3),
        lambda engine: engine.query("paths"),
        lambda inputs: transitive_closure(inputs.n, inputs.relation_view("E")),
        sizes,
    )


def e04_reach_d(quick: bool = True) -> Table:
    sizes = (6, 8, 10) if quick else (6, 8, 10, 14)
    table = Table(
        "E4",
        "REACH_d (Ex. 2.1 + Prop 5.3): transferred engine vs direct walk",
        ("n", "dyn update (ms)", "dyn query (ms)", "static (ms)", "max target requests"),
        notes="""Shape: each source request translates to a *bounded* number
        of target requests (<= 5 observed; Definition 5.1), so the
        transferred update cost tracks REACH_u's, independent of history.""",
    )
    for n in sizes:
        script = list(reach_d_script(n, 40, seed=4))
        engine = make_reach_d_engine(n)
        start = time.perf_counter()
        for request in script:
            engine.apply(request)
        update = (time.perf_counter() - start) / len(script)
        start = time.perf_counter()
        for _ in range(5):
            engine.ask("reach")
        query = (time.perf_counter() - start) / 5
        shadow = Structure.initial(engine.reduction.source, n)
        start = time.perf_counter()
        for request in script:
            apply_request(shadow, request)
            deterministic_reachable(
                n,
                set(shadow.relation_view("E")),
                shadow.constant("s"),
                shadow.constant("t"),
            )
        static = (time.perf_counter() - start) / len(script)
        table.add(n, update * _MS, query * _MS, static * _MS, engine.max_delta_seen)
    return table


def e05_transitive_reduction(quick: bool = True) -> Table:
    sizes = (8, 12) if quick else (8, 12, 16)
    return _dyn_static_table(
        "E5",
        "Transitive reduction (Corollary 4.3) vs closure-based recompute",
        make_transitive_reduction_program,
        lambda n: dag_script(n, 50, seed=5),
        lambda engine: engine.query("tr"),
        lambda inputs: transitive_reduction_dag(
            inputs.n, set(inputs.relation_view("E"))
        ),
        sizes,
    )


def e06_msf(quick: bool = True) -> Table:
    sizes = (8, 10) if quick else (8, 10, 12, 14)
    return _dyn_static_table(
        "E6",
        "Minimum spanning forest (Theorem 4.4) vs Kruskal",
        make_msf_program,
        lambda n: weighted_script(n, 40, seed=6),
        lambda engine: engine.query("forest"),
        lambda inputs: kruskal_msf(
            inputs.n,
            {(u, v) for (u, v, w) in inputs.relation_view("Ew")},
            {
                (u, v): w
                for (u, v, w) in inputs.relation_view("Ew")
                if u < v
            },
        ),
        sizes,
        notes="""Both arms produce the identical (memoryless) forest under
        the (weight, endpoints) key; the dyn arm keeps PV so connectivity
        queries stay lookups.""",
    )


def e07_bipartite(quick: bool = True) -> Table:
    sizes = (8, 12) if quick else (8, 12, 16)
    return _dyn_static_table(
        "E7",
        "Bipartiteness (Theorem 4.5(1)) vs BFS 2-coloring",
        make_bipartite_program,
        lambda n: undirected_script(n, 50, seed=7),
        lambda engine: engine.ask("bipartite"),
        lambda inputs: is_bipartite(inputs.n, inputs.relation_view("E")),
        sizes,
    )


def e08_kedge(quick: bool = True) -> Table:
    table = Table(
        "E8",
        "k-edge connectivity (Theorem 4.5(2)): composed FO query vs max-flow",
        ("n", "k", "dyn query (ms)", "static min-cut (ms)", "agree"),
        notes="""The k = 2 query composes the Theorem 4.1 deletion formula
        once and quantifies over deleted edges; its cost grows with the
        composition depth (formula size, E16) — the theorem's point is
        expressibility at fixed k, not raw speed.""",
    )
    ks = (1, 2) if quick else (1, 2, 3)
    for n in ((6,) if quick else (6, 8)):
        program = make_kedge_program()
        engine = DynFOEngine(program, n)
        script = undirected_script(n, 24, seed=8, p_delete=0.3)
        for request in script:
            engine.apply(request)
        analyzer = KEdgeAnalyzer(engine, max_deletions=max(ks) - 1)
        inputs = Structure.initial(program.input_vocabulary, n)
        for request in script:
            apply_request(inputs, request, program.symmetric_inputs)
        edges = set(inputs.relation_view("E"))
        for k in ks:
            start = time.perf_counter()
            got = analyzer.is_k_edge_connected(k)
            dyn = time.perf_counter() - start
            start = time.perf_counter()
            want = is_k_edge_connected(n, edges, k)
            static = time.perf_counter() - start
            table.add(n, k, dyn * _MS, static * _MS, got == want)
    return table


def e09_matching(quick: bool = True) -> Table:
    sizes = (8, 12) if quick else (8, 12, 16)

    def greedy_rebuild(inputs: Structure):
        matched: set[int] = set()
        matching = set()
        for (u, v) in sorted(inputs.relation_view("E")):
            if u != v and u not in matched and v not in matched:
                matching.add((u, v))
                matched.update((u, v))
        return matching

    return _dyn_static_table(
        "E9",
        "Maximal matching (Theorem 4.5(3)) vs greedy rebuild",
        make_matching_program,
        lambda n: bounded_degree_script(n, 50, max_degree=3, seed=9),
        lambda engine: engine.query("matching"),
        greedy_rebuild,
        sizes,
        notes="""Answers are property-checked (validity + maximality), not
        equality-checked: the two arms may pick different maximal matchings.""",
    )


def e10_lca(quick: bool = True) -> Table:
    sizes = (8, 12) if quick else (8, 12, 16)

    def all_pairs_lca(inputs: Structure):
        edges = set(inputs.relation_view("E"))
        return {
            (x, y, forest_lca(inputs.n, edges, x, y))
            for x in range(inputs.n)
            for y in range(inputs.n)
        }

    return _dyn_static_table(
        "E10",
        "LCA in directed forests (Theorem 4.5(4)) vs ancestor walks",
        make_lca_program,
        lambda n: forest_script(n, 50, seed=10),
        lambda engine: engine.query("lca"),
        all_pairs_lca,
        sizes,
    )


def e11_regular(quick: bool = True) -> Table:
    sizes = (8, 12, 16) if quick else (8, 12, 16, 24)
    dfa = mod_counter_dfa(3)
    program = make_regular_program(dfa, name="mod3")

    def rebuild(inputs: Structure):
        word: list = [None] * inputs.n
        for symbol in dfa.alphabet:
            for (p,) in inputs.relation_view(symbol_relation(symbol)):
                word[p] = symbol
        return dfa.run(word)

    return _dyn_static_table(
        "E11",
        "Regular language #1(w) = 0 mod 3 (Theorem 4.6) vs DFA re-run",
        lambda: program,
        lambda n: word_edit_script(dfa, n, 50, seed=11),
        lambda engine: engine.ask("accepted"),
        rebuild,
        sizes,
        notes="""The interval table St has Theta(n^2 |Q|^2) tuples, so dyn
        updates grow ~n^2 while the acceptance query stays a lookup; the
        static DFA re-run is O(n) per request but pays per *query* too.""",
    )


def e12_multiplication(quick: bool = True) -> Table:
    sizes = (16, 24) if quick else (16, 24, 32)
    return _dyn_static_table(
        "E12",
        "Multiplication (Proposition 4.7): FO carry updates vs remultiply",
        make_multiplication_program,
        lambda n: number_bit_script(n, 60, seed=12),
        lambda engine: engine.query("product_bits"),
        lambda inputs: bits_to_int(inputs.relation_view("X"))
        * bits_to_int(inputs.relation_view("Y")),
        sizes,
        notes="""Python bignums make the static arm unbeatable in wall
        clock; the reproduced claim is that each bit change is a single
        constant-depth FO step (carry lookahead), not a hardware race.""",
    )


def e13_dyck(quick: bool = True) -> Table:
    sizes = (8, 12) if quick else (8, 12, 16)
    k = 2
    program = make_dyck_program(k)

    def reparse(inputs: Structure):
        word = {}
        for t in range(1, k + 1):
            for (p,) in inputs.relation_view(left_relation(t)):
                word[p] = ("L", t)
            for (p,) in inputs.relation_view(right_relation(t)):
                word[p] = ("R", t)
        from ..baselines import dyck_check

        return dyck_check(word)

    return _dyn_static_table(
        "E13",
        "Dyck language D^2 (Proposition 4.8): level shifts vs re-parse",
        lambda: program,
        lambda n: dyck_edit_script(k, n, 50, seed=13),
        lambda engine: engine.ask("member"),
        reparse,
        sizes,
    )


def e14_pad_reach_a(quick: bool = True) -> Table:
    sizes = (5, 6) if quick else (5, 6, 8)
    table = Table(
        "E14",
        "PAD(REACH_a) (Theorem 5.14): per-request FO step vs full fixpoint",
        (
            "n",
            "per-request (ms)",
            "requests per real change",
            "per real change (ms)",
            "full fixpoint (ms)",
            "answers agree",
        ),
        notes="""Padding gives the program n first-order steps per real
        change; the pipeline's per-request cost is flat, and the aggregate
        per-real-change work tracks one full fixpoint recomputation —
        exactly the amortization the theorem trades on.""",
    )
    for n in sizes:
        program = make_pad_reach_a_program()
        engine = DynFOEngine(program, n)
        adversary = PadAdversary(n)
        for _ in range(n):
            engine.set_const("s", 0)
        rng = random.Random(14)
        agree = True
        start = time.perf_counter()
        requests = 0
        for _ in range(8):
            for request in adversary.random_batch(rng):
                engine.apply(request)
                requests += 1
            got = engine.ask("pad_member")
            want = alternating_reaches(
                n, adversary.edges, adversary.universal, adversary.s, adversary.t
            )
            agree &= got == want
        per_request = (time.perf_counter() - start) / requests
        start = time.perf_counter()
        for _ in range(10):
            alternating_reaches(
                n, adversary.edges, adversary.universal, adversary.s, adversary.t
            )
        fixpoint = (time.perf_counter() - start) / 10
        table.add(
            n,
            per_request * _MS,
            n,
            per_request * n * _MS,
            fixpoint * _MS,
            agree,
        )
    return table


# ---------------------------------------------------------------------------
# E15 .. E18: ablations
# ---------------------------------------------------------------------------


def e15_backends(quick: bool = True) -> Table:
    table = Table(
        "E15",
        "Evaluator ablation on REACH_u updates",
        ("n", "backend", "update (ms)"),
        notes="""naive = brute-force semantics (reference); relational =
        join planning (default); dense = vectorized CRAM simulation with
        scope-shared tensor axes (rank = frame + max quantifier nesting).
        The dense arm wins while n^rank tensors fit in memory — constant
        *depth*, polynomial hardware, exactly the FO = CRAM[1] reading.""",
    )
    cases = [
        (6, ("naive", "relational", "dense")),
        (10, ("relational", "dense")),
        (16, ("relational", "dense")),
    ]
    if not quick:
        cases.append((24, ("relational", "dense")))
    program = make_reach_u_program()
    for n, backends in cases:
        script = undirected_script(n, 30, seed=15)
        for backend in backends:
            update, _ = _time_dynamic(
                program, n, script, lambda e: None, backend=backend
            )
            table.add(n, backend, update * _MS)
    return table


def e16_depth(quick: bool = True) -> Table:
    table = Table(
        "E16",
        "Parallel-time accounting: formula depth and rank are O(1) in n",
        ("program", "max connective depth", "max quantifier rank", "aux arity"),
        notes="""Connective depth = CRAM[1] parallel steps per update; it
        depends on the program, never on n — the 'Parallel' in the title.
        Compare: a static BFS needs Omega(diameter) sequential rounds.""",
    )
    programs = [
        make_parity_program(),
        make_reach_u_program(),
        make_reach_u_arity2_program(),
        make_reach_acyclic_program(),
        make_transitive_reduction_program(),
        make_msf_program(),
        make_bipartite_program(),
        make_matching_program(),
        make_lca_program(),
        make_regular_program(mod_counter_dfa(3), name="mod3"),
        make_multiplication_program(),
        make_dyck_program(2),
        make_pad_reach_a_program(),
    ]
    for program in programs:
        table.add(
            program.name,
            program.max_connective_depth(),
            program.max_quantifier_rank(),
            program.aux_arity(),
        )
    return table


def e17_arity(quick: bool = True) -> Table:
    sizes = (8, 12) if quick else (8, 12, 16, 20)
    table = Table(
        "E17",
        "Auxiliary arity ablation: PV (arity 3) vs FD+TC (arity 2, [DS95])",
        ("n", "arity-3 update (ms)", "arity-2 update (ms)", "aux tuples a3", "aux tuples a2"),
        notes="""The arity-2 program stores O(n^2) auxiliary tuples against
        PV's O(n^3); updates pay for rerooting instead.  Answers agree
        (tested), so this is a pure space/maintenance trade-off.""",
    )
    for n in sizes:
        script = undirected_script(n, 40, seed=17)
        p3, p2 = make_reach_u_program(), make_reach_u_arity2_program()
        u3, _ = _time_dynamic(p3, n, script, lambda e: None)
        u2, _ = _time_dynamic(p2, n, script, lambda e: None)
        e3 = DynFOEngine(p3, n)
        e3.run(script)
        e2 = DynFOEngine(p2, n)
        e2.run(script)
        tuples3 = sum(e3.structure.cardinality(r.name) for r in p3.aux_vocabulary)
        tuples2 = sum(e2.structure.cardinality(r.name) for r in p2.aux_vocabulary)
        table.add(n, u3 * _MS, u2 * _MS, tuples3, tuples2)
    return table


def e18_expansion(quick: bool = True) -> Table:
    trials = 120 if quick else 400
    table = Table(
        "E18",
        "Bounded expansion of I_{d-u} (Definition 5.1, Example 2.1)",
        ("n", "trials", "max changed target tuples", "bound holds (<= 6)"),
        notes="""Random single requests against random sources; the output
        of the reduction never changes in more than a constant number of
        tuples, which is what lets Proposition 5.3 transfer Dyn-FO.""",
    )
    for n in ((5, 7) if quick else (5, 7, 9)):
        report = measure_expansion(reduction_d_to_u(), n=n, trials=trials, seed=18)
        table.add(n, report.trials, report.max_delta, report.max_delta <= 6)
    return table


def e19_history_independence(quick: bool = True) -> Table:
    steps = 160 if quick else 400
    n = 10
    table = Table(
        "E19",
        "History independence: per-request cost along a long run (REACH_u)",
        ("segment", "avg update (ms)", "avg delta rows written", "avg temp tuples"),
        notes="""Definition 3.1's g_n sees only (current structure, request):
        per-request cost depends on the current density, never on how many
        requests came before.  Segment averages along one long run stay
        flat once the density stabilizes (the first segment is cheaper only
        because the graph is still filling up).  "delta rows written" counts
        the rows the definitions' delta plans (the tuples each update adds
        and removes) emitted, not the size of the redefined relations.""",
    )
    program = make_reach_u_program()
    engine = DynFOEngine(program, n)
    script = undirected_script(n, steps, seed=19)
    quarter = len(script) // 4
    for index in range(4):
        segment = script[index * quarter : (index + 1) * quarter]
        tuples = 0
        temps = 0
        start = time.perf_counter()
        for request in segment:
            engine.apply(request)
            tuples += engine.last_update_stats["tuples_written"]
            temps += engine.last_update_stats["temporary_tuples"]
        elapsed = (time.perf_counter() - start) / len(segment)
        label = f"requests {index * quarter}..{(index + 1) * quarter - 1}"
        table.add(label, elapsed * _MS, tuples / len(segment), temps / len(segment))
    return table


def e20_query_crossover(quick: bool = True) -> Table:
    sizes = (8, 12) if quick else (8, 12, 16, 20)
    table = Table(
        "E20",
        "Query-frequency crossover: maintained lookups vs per-query BFS",
        (
            "n",
            "dyn update (ms)",
            "dyn lookup (ms)",
            "static point query (ms)",
            "break-even queries/update",
        ),
        notes="""A maintained structure pays per *update* and answers each
        point query by one auxiliary-tuple lookup (PV(a, b, a)); a lazy one
        recomputes connectivity per query.  The dyn arm amortizes once each
        update is followed by ~ dyn_update / (static_query - dyn_lookup)
        queries — the crossover DESIGN.md's shape claims are about.""",
    )
    program = make_reach_u_program()
    for n in sizes:
        script = undirected_script(n, 40, seed=20)
        engine = DynFOEngine(program, n)
        start = time.perf_counter()
        for request in script:
            engine.apply(request)
        update = (time.perf_counter() - start) / len(script)
        pairs = [(a, b) for a in range(0, n, 2) for b in range(1, n, 2)][:20]
        # the maintained answer is literally one auxiliary tuple: PV(a, b, a)
        structure = engine.structure
        start = time.perf_counter()
        for _ in range(50):
            for (a, b) in pairs:
                a == b or structure.holds("PV", (a, b, a))
        dyn_query = (time.perf_counter() - start) / (50 * len(pairs))
        inputs = Structure.initial(program.input_vocabulary, n)
        for request in script:
            apply_request(inputs, request, program.symmetric_inputs)
        edges = inputs.relation_view("E")
        sets = None
        start = time.perf_counter()
        for (a, b) in pairs:
            from ..baselines import same_component

            same_component(n, edges).connected(a, b)
        static_query = (time.perf_counter() - start) / len(pairs)
        if static_query > dyn_query:
            breakeven = update / (static_query - dyn_query)
            table.add(n, update * _MS, dyn_query * _MS, static_query * _MS, round(breakeven))
        else:
            table.add(n, update * _MS, dyn_query * _MS, static_query * _MS, "none")
    return table


EXPERIMENTS: Mapping[str, Callable[[bool], Table]] = {
    "E1": e01_parity,
    "E2": e02_reach_u,
    "E3": e03_reach_acyclic,
    "E4": e04_reach_d,
    "E5": e05_transitive_reduction,
    "E6": e06_msf,
    "E7": e07_bipartite,
    "E8": e08_kedge,
    "E9": e09_matching,
    "E10": e10_lca,
    "E11": e11_regular,
    "E12": e12_multiplication,
    "E13": e13_dyck,
    "E14": e14_pad_reach_a,
    "E15": e15_backends,
    "E16": e16_depth,
    "E17": e17_arity,
    "E18": e18_expansion,
    "E19": e19_history_independence,
    "E20": e20_query_crossover,
}


def run_experiment(name: str, quick: bool = True) -> Table:
    """Run one experiment by id (e.g. ``"E2"``)."""
    try:
        fn = EXPERIMENTS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}"
        ) from None
    return fn(quick)

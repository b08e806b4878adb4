"""The paper's coloring procedure on the parallelizable interference
graph (Section 4, "Coloring procedure").

Structure, following the pseudo-code:

1. **Simplify** — repeatedly delete nodes of degree < r (pushing them
   on the selection stack).
2. **Sacrifice parallelism** — while some remaining node has degree < r
   *when only interference edges are considered*, remove one false-
   dependence edge not in E_r, chosen by scheduling considerations (the
   edge whose co-issue "contributes the least"), from both the working
   graph and the output graph; then simplify again.  "The second while
   loop guarantees that the convergence property of the algorithm will
   be similar to the one proved for the original algorithm" — pressure
   caused purely by false edges is always relieved before any spill.
3. **Spill** — if still stuck, choose v minimizing
   ``h*(v) = cost(v)/Σ w({u,v})`` and put it on the spill list.
4. **Select** — color in reverse deletion order on the (edge-reduced)
   graph; if the spill list is non-empty the caller inserts spill code
   and repeats the whole procedure.

Two implementations share this contract.  :func:`pinter_color` is the
compact kernel every caller runs: webs are numbered by index, each
edge class is one big-int bitrow per web, degrees are counters, and
every step pops a worklist instead of rescanning the graph.
:func:`reference_pinter_color` is the original networkx procedure, kept
as the oracle.  Both return the same coloring, spill list, selection
order, removed false edges (order and orientation included), reduced
graph, counters and error messages — pinned by
``tests/core/test_compact_pinter.py`` and cross-checked every round by
the driver's paranoid mode.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Literal, Optional, Tuple

import networkx as nx

from repro.analysis.webs import Web
from repro.core.edge_weights import (
    DEFAULT_CONFIG,
    EdgeWeightConfig,
    h_star_metric,
)
from repro.core.parallel_interference import (
    EdgeOrigin,
    ParallelInterferenceGraph,
)
from repro.core.scheduling_value import SchedulingValueModel
from repro.obs import get_metrics, get_tracer
from repro.utils.bits import iter_bits, popcount
from repro.utils.errors import AllocationError
from repro.utils.faults import trip

EdgePolicy = Literal["node", "global", "lazy"]

#: Both colorers call ``check_deadline`` once every this many simplify,
#: sacrifice and spill steps (a power of two).
DEADLINE_STRIDE = 64


@dataclass
class PinterColoringResult:
    """Outcome of one run of the combined coloring procedure.

    Attributes:
        coloring: web → color for every non-spilled web.
        spilled: Spill victims in choice order.
        selection_order: Deletion order (colored in reverse).
        removed_false_edges: Parallelism given up under pressure, in
            removal order — each entry is a (web, web) pair.
        graph: G as the procedure received it (not mutated).
        reduced_graph: The output graph after false-edge removals (the
            graph the selection phase colored against): a copy of
            ``graph`` minus ``removed_false_edges``, built on first read.
    """

    coloring: Dict[Web, int]
    spilled: List[Web]
    selection_order: List[Web]
    removed_false_edges: List[Tuple[Web, Web]]
    graph: nx.Graph = field(repr=False, compare=False)

    @cached_property
    def reduced_graph(self) -> nx.Graph:
        reduced = self.graph.copy()
        reduced.remove_edges_from(self.removed_false_edges)
        return reduced

    @property
    def num_colors_used(self) -> int:
        return len(set(self.coloring.values())) if self.coloring else 0

    @property
    def has_spills(self) -> bool:
        return bool(self.spilled)

    @property
    def parallelism_sacrificed(self) -> int:
        return len(self.removed_false_edges)

    def signature(self) -> tuple:
        """Every field by web index, order and orientation included —
        what the driver's paranoid cross-check and the benchmark
        compare between the two colorers."""
        return (
            [(web.index, color) for web, color in self.coloring.items()],
            [web.index for web in self.spilled],
            [web.index for web in self.selection_order],
            [(a.index, b.index) for a, b in self.removed_false_edges],
            [(a.index, b.index) for a, b in self.reduced_graph.edges()],
        )


def _emit_round(
    pig: ParallelInterferenceGraph,
    simplified: int,
    optimistic_pushes: int,
    spilled: int,
    removed: int,
    passes: int,
) -> None:
    """The ``color.round`` event and ``color.*`` counters of one run."""
    tracer = get_tracer()
    metrics = get_metrics()
    tracer.event(
        "color.round",
        nodes=pig.graph.number_of_nodes(),
        simplified=simplified,
        optimistic_pushes=optimistic_pushes,
        spilled=spilled,
        false_edges_removed=removed,
    )
    tracer.counter("color.simplify_passes", passes)
    metrics.counter("color.rounds").inc()
    metrics.counter("color.simplified").inc(simplified)
    metrics.counter("color.optimistic_pushes").inc(optimistic_pushes)
    metrics.counter("color.spilled").inc(spilled)
    metrics.counter("color.false_edges_removed").inc(removed)
    metrics.counter("color.simplify_passes").inc(passes)


def pinter_color(
    pig: ParallelInterferenceGraph,
    num_registers: int,
    cost: Optional[Callable[[Web], float]] = None,
    weight_config: EdgeWeightConfig = DEFAULT_CONFIG,
    edge_policy: EdgePolicy = "node",
    value_model: Optional[SchedulingValueModel] = None,
    optimistic: bool = False,
    bias: Optional[Dict[Web, List[Web]]] = None,
    check_deadline: Optional[Callable[[], None]] = None,
) -> PinterColoringResult:
    """Run the combined coloring procedure.

    The compact kernel: its output equals
    :func:`reference_pinter_color`'s field for field.  Webs are
    numbered by position in index order; interference, shared and
    false-only adjacency are big-int bitrows; degrees and per-class
    neighbor counts are maintained on every removal.

    - **Simplify** pops a heap keyed ``pass * n + position``: a node
      that becomes simplifiable behind the oracle's scan position
      waits for the next pass, one ahead of it is taken in this pass,
      so the stack order and pass count match the oracle's
      index-ordered multi-pass scan.
    - **Sacrifice** takes the lowest blocked node from a lazily
      invalidated heap (``ideg < r <= ideg + fdeg``); each node's
      false edges sit in a heap keyed ``(edge_value, neighbor)``, built
      on first use (one global edge heap under ``"global"``).
    - **Spill** scans the live positions; ``h*`` is ``cost / (c_i*w_i
      + c_f*w_f + c_b*w_b)`` from the class counts, exact for integer
      edge weights (every shipped config).  Any other weight config
      runs on the oracle.
    - **Select** tests one member bitmask per color.

    Args:
        pig: The parallelizable interference graph (not mutated).  Its
            webs must carry distinct indices, as the webs of one build
            do: positions stand in for the oracle's index tie-breaks.
        num_registers: r, the machine's register count.
        cost: Spill cost per web (a pure function; evaluated once per
            web); defaults to uniform cost 1.
        weight_config: Edge prices for the h* denominator.
        edge_policy: How to pick the sacrificed false edge — ``"node"``
            removes the least-valuable false edge at a node that would
            become simplifiable ("with respect to a selected node");
            ``"global"`` removes the globally least-valuable false edge;
            ``"lazy"`` (extension) removes nothing up front — nodes
            blocked by false edges are pushed optimistically, and only
            a node that finds no color at selection time falls back to
            interference-only constraints, sacrificing exactly the
            false edges its color then violates.
        value_model: Precomputed scheduling values (built on the first
            sacrifice when omitted).
        optimistic: Briggs-style optimism — push the h*-chosen victim
            on the selection stack and spill only nodes that actually
            find no color.  The PIG's false edges make it much denser
            than the interference graph, so pessimistic degree counting
            over-spills badly; optimism recovers most of it (extension
            beyond the paper's Chaitin-based procedure).
        bias: Optional mov-coalescing bias (web → mov partners); when
            several colors are legal, a partner's color is preferred so
            the mov becomes an identity move.  Never affects
            colorability (see :mod:`repro.regalloc.coalesce`).
        check_deadline: Optional callback polled every
            :data:`DEADLINE_STRIDE` simplify/sacrifice/spill steps; it
            raises to preempt the procedure.

    Returns:
        A :class:`PinterColoringResult`.  When ``spilled`` is non-empty
        the caller must insert spill code and re-run on the rewritten
        program.

    Raises:
        AllocationError: when only spill temporaries remain blocked.
    """
    graph = pig.graph
    n = graph.number_of_nodes()
    w_i = weight_config.interference_weight
    w_f = weight_config.parallelism_weight
    w_b = weight_config.shared_weight
    if not all(
        float(w).is_integer() and abs(w) * n < 2 ** 53 for w in (w_i, w_f, w_b)
    ):
        # h* below is computed from class counts, which equals the
        # oracle's neighbor-order float sum only while every partial
        # sum is an exact integer.  Other configs (none ship) run on
        # the oracle itself.
        return reference_pinter_color(
            pig, num_registers, cost=cost, weight_config=weight_config,
            edge_policy=edge_policy, value_model=value_model,
            optimistic=optimistic, bias=bias, check_deadline=check_deadline,
        )
    trip("core.pinter_color")
    webs = sorted(graph.nodes(), key=lambda w: w.index)
    r = num_registers
    limit = r - 1
    if cost is None:
        cost = lambda _web: 1.0  # noqa: E731 - simple default
    pos = {web: i for i, web in enumerate(webs)}
    # rank: position in the graph's own node order, which orients the
    # oracle's ``"global"`` candidate edges.
    rank = [0] * n
    for i, web in enumerate(graph):
        rank[pos[web]] = i

    interference_flag = EdgeOrigin.INTERFERENCE.value
    both_flag = EdgeOrigin.BOTH.value
    irow = [0] * n  # edges carrying the INTERFERENCE flag
    brow = [0] * n  # of those, edges in E_f as well (BOTH)
    frow = [0] * n  # false-only edges still in the working graph
    for web, nbrs in graph.adjacency():
        i_bits = b_bits = f_bits = 0
        for nbr, data in nbrs.items():
            bit = 1 << pos[nbr]
            flag = data["origin"].value
            if flag & interference_flag:
                i_bits |= bit
                if flag == both_flag:
                    b_bits |= bit
            else:
                f_bits |= bit
        a = pos[web]
        irow[a], brow[a], frow[a] = i_bits, b_bits, f_bits
    ideg = [popcount(row) for row in irow]
    fdeg = [popcount(row) for row in frow]

    track_shared = w_i != w_b
    bdeg = [popcount(row) for row in brow] if track_shared else []

    alive = (1 << n) - 1
    stack: List[int] = []
    spilled: List[int] = []
    removed: List[Tuple[int, int]] = []
    simplified = 0
    optimistic_pushes = 0
    passes = 0
    ticks = 0
    stride_mask = DEADLINE_STRIDE - 1
    # Simplify worklist keyed pass * n + position; wl_base/wl_pos are
    # the key base and position of the node being simplified (0/-1
    # between simplify calls, so new entries join the next call's
    # first pass).
    worklist = [i for i in range(n) if ideg[i] + fdeg[i] < r]
    wl_base = 0
    wl_pos = -1
    # Nodes with interference degree < r, lowest position first; the
    # live ones are exactly the oracle's sacrificial candidates once
    # simplify has run dry.
    blocked = [i for i in range(n) if ideg[i] < r]
    heappush, heappop = heapq.heappush, heapq.heappop

    def poll() -> None:
        nonlocal ticks
        ticks += 1
        if not ticks & stride_mask:
            check_deadline()

    def remove(x: int) -> None:
        nonlocal alive
        alive ^= 1 << x
        row = irow[x] & alive
        while row:
            low = row & -row
            y = low.bit_length() - 1
            row ^= low
            d = ideg[y] - 1
            ideg[y] = d
            if d + fdeg[y] == limit:
                heappush(worklist, wl_base + (y if y > wl_pos else n + y))
            if d == limit:
                heappush(blocked, y)
        row = frow[x] & alive
        while row:
            low = row & -row
            y = low.bit_length() - 1
            row ^= low
            d = fdeg[y] - 1
            fdeg[y] = d
            if ideg[y] + d == limit:
                heappush(worklist, wl_base + (y if y > wl_pos else n + y))
        if track_shared:
            for y in iter_bits(brow[x] & alive):
                bdeg[y] -= 1

    def simplify() -> None:
        nonlocal wl_base, wl_pos, simplified, passes
        last = -1
        while worklist:
            p, x = divmod(heappop(worklist), n)
            if not (alive >> x) & 1:
                continue
            wl_base, wl_pos = p * n, x
            stack.append(x)
            remove(x)
            simplified += 1
            last = p
            if check_deadline is not None:
                poll()
        wl_base, wl_pos = 0, -1
        # The oracle ends every call with one pass that finds nothing.
        passes += last + 2

    def first_blocked() -> int:
        while blocked and not (alive >> blocked[0]) & 1:
            heappop(blocked)
        return blocked[0] if blocked else -1

    def edge_value(a: int, b: int) -> float:
        nonlocal value_model
        if value_model is None:
            value_model = SchedulingValueModel.build(pig)
        return value_model.edge_value(webs[a], webs[b])

    node_heaps: Dict[int, list] = {}
    global_heap: Optional[list] = None

    def remove_one_false_edge() -> bool:
        nonlocal global_heap
        if edge_policy == "global":
            if global_heap is None:
                global_heap = []
                for a in iter_bits(alive):
                    for b in iter_bits((frow[a] & alive) >> (a + 1)):
                        b += a + 1
                        lo, hi = (a, b) if rank[a] < rank[b] else (b, a)
                        global_heap.append((edge_value(lo, hi), lo, hi))
                heapq.heapify(global_heap)
            heap = global_heap
            while heap:
                _, a, b = heap[0]
                if (alive >> a) & (alive >> b) & (frow[a] >> b) & 1:
                    break
                heappop(heap)
        else:
            a = first_blocked()
            if a < 0:
                return False
            heap = node_heaps.get(a)
            if heap is None:
                heap = [
                    (edge_value(a, b), b) for b in iter_bits(frow[a] & alive)
                ]
                heapq.heapify(heap)
                node_heaps[a] = heap
            while heap:
                b = heap[0][1]
                if (alive >> b) & (frow[a] >> b) & 1:
                    break
                heappop(heap)
        if not heap:
            return False
        heappop(heap)
        frow[a] ^= 1 << b
        frow[b] ^= 1 << a
        for z in (a, b):
            d = fdeg[z] - 1
            fdeg[z] = d
            if ideg[z] + d == limit:
                heappush(worklist, z)
        removed.append((a, b))
        return True

    def weight_total(x: int) -> float:
        """The h* denominator Σ w({x, y}) over x's working neighbors."""
        shared = bdeg[x] if track_shared else 0
        return (ideg[x] - shared) * w_i + fdeg[x] * w_f + shared * w_b

    inf = float("inf")
    costs: List[Optional[float]] = [None] * n
    lazy = edge_policy == "lazy"
    while alive:
        simplify()
        if not alive:
            break
        if lazy:
            x = first_blocked()
            if x >= 0:
                stack.append(x)
                remove(x)
                optimistic_pushes += 1
                continue
        else:
            while alive and first_blocked() >= 0:
                if check_deadline is not None:
                    poll()
                if not remove_one_false_edge():
                    break
                simplify()
        if not alive:
            break
        if check_deadline is not None:
            poll()
        victim = -1
        best = inf
        for x in iter_bits(alive):
            total = weight_total(x)
            if total <= 0.0:
                continue
            spill_cost = costs[x]
            if spill_cost is None:
                spill_cost = costs[x] = cost(webs[x])
            metric = spill_cost / total
            if metric != inf and (victim < 0 or metric < best):
                victim, best = x, metric
        if victim < 0:
            raise AllocationError(
                "irreducible register pressure: {} values including "
                "spill temporaries exceed r={}".format(
                    popcount(alive), num_registers
                )
            )
        if optimistic or lazy:
            stack.append(victim)  # may still find a color at select time
            optimistic_pushes += 1
        else:
            spilled.append(victim)
        remove(victim)

    from repro.regalloc.coalesce import choose_biased_color

    coloring: Dict[Web, int] = {}
    members = [0] * max(r, 0)
    colors = range(max(r, 0))
    for x in reversed(stack):
        web = webs[x]
        row = irow[x] | frow[x]
        free = [c for c in colors if not row & members[c]]
        color = choose_biased_color(free, web, coloring, bias)
        if color is None:
            if lazy:
                # Fall back to interference-only constraints: give up
                # exactly the false edges the chosen color violates.
                hard = irow[x]
                color = next((c for c in colors if not hard & members[c]), None)
                if color is not None:
                    for y in iter_bits(frow[x] & members[color]):
                        removed.append((x, y) if x <= y else (y, x))
            elif not optimistic:
                raise AllocationError(
                    "no free color for {} among {}".format(web, num_registers)
                )
        if color is None:
            spilled.append(x)
        else:
            coloring[web] = color
            members[color] |= 1 << x

    _emit_round(
        pig, simplified, optimistic_pushes, len(spilled), len(removed), passes
    )
    return PinterColoringResult(
        coloring=coloring,
        spilled=[webs[x] for x in spilled],
        selection_order=[webs[x] for x in stack],
        removed_false_edges=[(webs[a], webs[b]) for a, b in removed],
        graph=graph,
    )


def _false_only_edges_at(graph: nx.Graph, node: Web) -> List[Tuple[Web, Web]]:
    return [
        (node, nbr)
        for nbr in sorted(graph.neighbors(node), key=lambda w: w.index)
        if graph.edges[node, nbr]["origin"] == EdgeOrigin.FALSE
    ]


def reference_pinter_color(
    pig: ParallelInterferenceGraph,
    num_registers: int,
    cost: Optional[Callable[[Web], float]] = None,
    weight_config: EdgeWeightConfig = DEFAULT_CONFIG,
    edge_policy: EdgePolicy = "node",
    value_model: Optional[SchedulingValueModel] = None,
    optimistic: bool = False,
    bias: Optional[Dict[Web, List[Web]]] = None,
    check_deadline: Optional[Callable[[], None]] = None,
) -> PinterColoringResult:
    """The combined coloring procedure on networkx — the oracle of
    :func:`pinter_color`, which must reproduce its result field for
    field.

    Args:
        pig: The parallelizable interference graph (not mutated; the
            procedure works on copies).
        num_registers: r, the machine's register count.
        cost: Spill cost per web; defaults to uniform cost 1.
        weight_config: Edge prices for the h* denominator.
        edge_policy: How to pick the sacrificed false edge — ``"node"``
            removes the least-valuable false edge at a node that would
            become simplifiable ("with respect to a selected node");
            ``"global"`` removes the globally least-valuable false edge;
            ``"lazy"`` (extension) removes nothing up front — nodes
            blocked by false edges are pushed optimistically, and only
            a node that finds no color at selection time falls back to
            interference-only constraints, sacrificing exactly the
            false edges its color then violates.
        value_model: Precomputed scheduling values (built on demand).
        optimistic: Briggs-style optimism — push the h*-chosen victim
            on the selection stack and spill only nodes that actually
            find no color.  The PIG's false edges make it much denser
            than the interference graph, so pessimistic degree counting
            over-spills badly; optimism recovers most of it (extension
            beyond the paper's Chaitin-based procedure).
        bias: Optional mov-coalescing bias (web → mov partners); when
            several colors are legal, a partner's color is preferred so
            the mov becomes an identity move.  Never affects
            colorability (see :mod:`repro.regalloc.coalesce`).
        check_deadline: Optional callback polled every
            :data:`DEADLINE_STRIDE` simplify/sacrifice/spill steps.

    Returns:
        A :class:`PinterColoringResult`.  When ``spilled`` is non-empty
        the caller must insert spill code and re-run on the rewritten
        program.
    """
    trip("core.pinter_color")
    if cost is None:
        cost = lambda _web: 1.0  # noqa: E731 - simple default
    if value_model is None:
        value_model = SchedulingValueModel.build(pig)

    # The output graph: false-edge removals apply here and to the
    # working copy; selection colors against this graph.
    reduced = pig.graph.copy()
    work = pig.graph.copy()
    stack: List[Web] = []
    spilled: List[Web] = []
    removed: List[Tuple[Web, Web]] = []
    simplified = 0
    optimistic_pushes = 0
    passes = 0
    ticks = 0

    def poll() -> None:
        nonlocal ticks
        ticks += 1
        if check_deadline is not None and not ticks % DEADLINE_STRIDE:
            check_deadline()

    # h* is evaluated against the *current* working graph: in(v) is the
    # live neighbor set at spill time.
    reduced_pig = pig.copy()
    reduced_pig.graph = work
    metric = h_star_metric(reduced_pig, cost, weight_config)

    # Incremental degree bookkeeping: ideg counts edges carrying the
    # INTERFERENCE flag, fdeg counts false-only edges; total degree is
    # their sum.  Maintaining counters (instead of rescanning neighbor
    # edge attributes) is what keeps large blocks tractable.
    ideg: Dict[Web, int] = {node: 0 for node in work.nodes()}
    fdeg: Dict[Web, int] = {node: 0 for node in work.nodes()}
    for a, b, data in work.edges(data=True):
        if data["origin"] & EdgeOrigin.INTERFERENCE:
            ideg[a] += 1
            ideg[b] += 1
        else:
            fdeg[a] += 1
            fdeg[b] += 1

    def remove_node(node: Web) -> None:
        for nbr in work.neighbors(node):
            if work.edges[node, nbr]["origin"] & EdgeOrigin.INTERFERENCE:
                ideg[nbr] -= 1
            else:
                fdeg[nbr] -= 1
        work.remove_node(node)
        del ideg[node]
        del fdeg[node]

    # Sorted once: nodes are only ever removed, so every index-ordered
    # scan below walks this list and skips dead entries (``node in
    # ideg`` — the counters double as the alive set) instead of
    # re-sorting the survivors on every pass.
    ordered_nodes = sorted(work.nodes(), key=lambda w: w.index)

    def simplify() -> None:
        nonlocal simplified, passes
        progress = True
        while progress:
            progress = False
            passes += 1
            for node in ordered_nodes:
                if node not in ideg:
                    continue
                if ideg[node] + fdeg[node] < num_registers:
                    poll()
                    stack.append(node)
                    remove_node(node)
                    simplified += 1
                    progress = True

    def sacrificial_candidates() -> List[Web]:
        """Nodes blocked only by false edges: interference degree < r
        but total degree >= r."""
        return [
            node
            for node in ordered_nodes
            if node in ideg
            and ideg[node] < num_registers <= ideg[node] + fdeg[node]
        ]

    def remove_one_false_edge() -> bool:
        if edge_policy == "global":
            candidates = [
                (a, b)
                for a, b, data in work.edges(data=True)
                if data["origin"] == EdgeOrigin.FALSE
            ]
        else:
            # "with respect to a selected node": pick the first blocked
            # node and shed its least valuable false edge.
            nodes = sacrificial_candidates()
            candidates = []
            if nodes:
                candidates = _false_only_edges_at(work, nodes[0])
        if not candidates:
            return False
        victim = min(
            candidates,
            key=lambda edge: (
                value_model.edge_value(edge[0], edge[1]),
                edge[0].index,
                edge[1].index,
            ),
        )
        work.remove_edge(*victim)
        fdeg[victim[0]] -= 1
        fdeg[victim[1]] -= 1
        if reduced.has_edge(*victim):
            reduced.remove_edge(*victim)
        removed.append(victim)
        return True

    lazy = edge_policy == "lazy"
    while work.number_of_nodes():
        simplify()
        if not work.number_of_nodes():
            break
        if lazy:
            # Lazy mode: nodes whose pressure comes from false edges
            # are pushed optimistically; selection decides whether any
            # parallelism must actually be given up.
            lazy_candidates = sacrificial_candidates()
            if lazy_candidates:
                node = lazy_candidates[0]
                stack.append(node)
                remove_node(node)
                optimistic_pushes += 1
                continue
        else:
            # Second loop: relieve pressure that is due to false edges
            # only — a sacrificial candidate always owns a removable
            # false edge, so this loop is guaranteed to progress.
            while work.number_of_nodes() and sacrificial_candidates():
                poll()
                if not remove_one_false_edge():
                    break
                simplify()
        if not work.number_of_nodes():
            break
        # Every remaining node now has interference degree >= r: the
        # pressure is real, spill the node minimizing h*.  Nodes with
        # infinite metric (spill temporaries) are never victims —
        # re-spilling a one-statement range cannot reduce pressure.
        poll()
        candidates = [
            node
            for node in ordered_nodes
            if node in ideg and metric(node) != float("inf")
        ]
        if not candidates:
            raise AllocationError(
                "irreducible register pressure: {} values including "
                "spill temporaries exceed r={}".format(
                    work.number_of_nodes(), num_registers
                )
            )
        victim = min(candidates, key=metric)
        if optimistic or lazy:
            stack.append(victim)  # may still find a color at select time
            optimistic_pushes += 1
        else:
            spilled.append(victim)
        remove_node(victim)

    from repro.regalloc.coalesce import choose_biased_color

    if optimistic or lazy:
        coloring = {}
        for node in reversed(stack):
            used = {
                coloring[nbr]
                for nbr in reduced.neighbors(node)
                if nbr in coloring
            }
            free = [c for c in range(num_registers) if c not in used]
            color = choose_biased_color(free, node, coloring, bias)
            if color is None and lazy:
                # Fall back to interference-only constraints: give up
                # exactly the false edges the chosen color violates.
                hard = {
                    coloring[nbr]
                    for nbr in reduced.neighbors(node)
                    if nbr in coloring
                    and reduced.edges[node, nbr]["origin"]
                    & EdgeOrigin.INTERFERENCE
                }
                color = next(
                    (c for c in range(num_registers) if c not in hard),
                    None,
                )
                if color is not None:
                    for nbr in sorted(
                        reduced.neighbors(node), key=lambda w: w.index
                    ):
                        if (
                            nbr in coloring
                            and coloring[nbr] == color
                            and reduced.edges[node, nbr]["origin"]
                            == EdgeOrigin.FALSE
                        ):
                            removed.append(
                                (node, nbr)
                                if node.index <= nbr.index
                                else (nbr, node)
                            )
            if color is None:
                spilled.append(node)
            else:
                coloring[node] = color
        for a, b in removed:
            if reduced.has_edge(a, b):
                reduced.remove_edge(a, b)
    else:
        colorable = reduced.subgraph(stack)
        coloring = {}
        for node in reversed(stack):
            used = {
                coloring[nbr]
                for nbr in colorable.neighbors(node)
                if nbr in coloring
            }
            free = [c for c in range(num_registers) if c not in used]
            color = choose_biased_color(free, node, coloring, bias)
            if color is None:
                raise AllocationError(
                    "no free color for {} among {}".format(
                        node, num_registers
                    )
                )
            coloring[node] = color
    _emit_round(
        pig, simplified, optimistic_pushes, len(spilled), len(removed), passes
    )
    result = PinterColoringResult(
        coloring=coloring,
        spilled=spilled,
        selection_order=list(stack),
        removed_false_edges=removed,
        graph=pig.graph,
    )
    result.reduced_graph = reduced
    return result


def banked_pinter_color(
    pig: ParallelInterferenceGraph,
    budget,
    cost: Optional[Callable[[Web], float]] = None,
    weight_config: EdgeWeightConfig = DEFAULT_CONFIG,
    edge_policy: EdgePolicy = "node",
    optimistic: bool = False,
    bias: Optional[Dict[Web, List[Web]]] = None,
) -> Dict[str, PinterColoringResult]:
    """Run the combined procedure once per register class.

    For machines with split fixed/floating-point files
    (:class:`~repro.regalloc.classes.BankedBudget`), each class-induced
    subgraph of G is colored independently against its own budget —
    cross-class edges cannot be violated (two files never share a
    register), so dropping them loses nothing.

    Returns:
        class name → :class:`PinterColoringResult`.
    """
    from repro.regalloc.classes import class_subgraph, split_webs_by_class

    value_model = SchedulingValueModel.build(pig)
    groups = split_webs_by_class(pig.webs, chains=pig.interference.chains)
    results: Dict[str, PinterColoringResult] = {}
    for register_class in ("int", "float"):
        sub = pig.copy()
        sub.graph = class_subgraph(pig.graph, groups[register_class])
        results[register_class] = pinter_color(
            sub,
            budget.of(register_class),
            cost=cost,
            weight_config=weight_config,
            edge_policy=edge_policy,
            value_model=value_model,
            optimistic=optimistic,
            bias=bias,
        )
    return results


def optimal_pig_coloring(
    pig: ParallelInterferenceGraph,
    max_nodes: int = 40,
) -> Dict[Web, int]:
    """An *optimal* (minimum-color) coloring of G by exact search —
    the object of Theorems 1 and 2, practical for the worked examples
    and property tests.

    Raises:
        AllocationError: when the graph exceeds *max_nodes*.
    """
    from repro.regalloc.chaitin import exact_chromatic_number

    chi = exact_chromatic_number(pig.graph, node_limit=max_nodes)
    result = pinter_color(pig, num_registers=chi)
    if result.has_spills or result.removed_false_edges:
        raise AllocationError(
            "internal error: coloring with chi={} colors spilled".format(chi)
        )
    return result.coloring

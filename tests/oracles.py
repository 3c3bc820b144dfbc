"""Independent oracles shared by the test modules.

Everything here recomputes results from the product table alone, without
the package's vectorized closure, flag propagation, or partition code, so
agreement is evidence rather than tautology.
"""
import heapq
import itertools
import sys
from collections import deque
from pathlib import Path

from pargoids import generators, pargoid, polyclone, types
from pargoids.errors import InternalError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return pargoid.parse(FIXTURES.joinpath(name).read_bytes(), "text")


def three():
    return load("three.pgd")


def six():
    return load("six.pgd")


def five():
    return load("five.pgd")


def void2():
    return pargoid.Pargoid(("x", "y"), {})


def chain3():
    # f applies to u giving v; nothing else multiplies
    return pargoid.Pargoid(("f", "u", "v"), {(0, 1): 2})


def single():
    return pargoid.Pargoid(("x",), {})


def pointwise(g, p, q):
    """Pointwise product of two graph tuples."""
    return tuple(
        None if p[x] is None or q[x] is None
        else g.table.get((p[x], q[x]))
        for x in range(g.size))


def ops(clone):
    """Every op of the clone as a UnaryPolyOp, in op order."""
    return [clone.op(i) for i in range(clone.op_count)]


def brute_force_clone_graphs(g):
    """Clone graph set by a pairs fixpoint over tuples: each round
    multiplies every graph with each one first found in the round before,
    both ways, until a round finds nothing new."""
    n = g.size
    graphs = {tuple(range(n))} | {(b,) * n for b in range(n)}
    fresh = graphs
    while fresh:
        new = set()
        for p in graphs:
            for q in fresh:
                new.add(pointwise(g, p, q))
                new.add(pointwise(g, q, p))
        fresh = new - graphs
        graphs |= fresh
    return graphs


def worklist_clone(g):
    """Clone graphs in the documented discovery order, one product at a time,
    their witness terms, and the generations of that worklist.

    Identity, then each constant map, then for the op under work, i, the
    products ops[j].ops[i] for j <= i followed by ops[i].ops[j] for j < i;
    a graph is numbered when first seen, and its term is the product of
    its factors' terms. Generation 0 is the seed ops; generation k + 1 is
    the ops first seen while working generation k. Each is a half-open op
    range (lo, hi).
    """
    n = g.size
    order = []
    terms = []
    seen = set()

    def add(graph, term):
        if graph not in seen:
            seen.add(graph)
            order.append(graph)
            terms.append(term)

    add(tuple(range(n)), polyclone.VAR)
    for b in range(n):
        add((b,) * n, polyclone.Const(g.element(b)))
    generations = [(0, len(order))]
    i = 0
    while i < len(order):
        if i == generations[-1][1]:
            generations.append((i, len(order)))
        for j in range(i + 1):
            add(pointwise(g, order[j], order[i]), polyclone.Prod(terms[j], terms[i]))
        for j in range(i):
            add(pointwise(g, order[i], order[j]), polyclone.Prod(terms[i], terms[j]))
        i += 1
    return order, terms, generations


def runs_reference(rows):
    """Runs of equal padded rows, by a stable sort of their 64-bit words.

    Each row is read as machine-order 64-bit words, compared from the last
    word to the first, as np.lexsort orders them. Returns the runs in
    sorted order, each the ascending list of its row indices: the stable
    sort keeps equal rows in input order, so the earliest row leads.
    """
    def words(i):
        data = bytes(rows[i])
        return tuple(int.from_bytes(data[k:k + 8], sys.byteorder)
                     for k in range(len(data) - 8, -1, -8))

    runs = []
    last = None
    for i in sorted(range(len(rows)), key=words):
        if words(i) != last:
            runs.append([])
            last = words(i)
        runs[-1].append(i)
    return runs


def level_reference(g, graph):
    """0 for a total constant map, 1 for a map constant on its domain
    only (the empty map included), 2 for a nonconstant map."""
    if _is_constant_graph(g, graph, "total"):
        return 0
    return 1 if _is_constant_graph(g, graph, "on-domain") else 2


def seed_reference(g, graphs):
    """Each graph's highest right-factor level over the products p.q of
    the list that give it, or 0 when none does; the graphs must be closed
    under the product."""
    index = {graph: i for i, graph in enumerate(graphs)}
    seeds = [0] * len(graphs)
    for q in graphs:
        level = level_reference(g, q)
        if level:
            for p in graphs:
                r = index[pointwise(g, p, q)]
                seeds[r] = max(seeds[r], level)
    return seeds


def doubling_chain(n):
    """a_k a_(k-1) = a_(k-1): typable, and the type of a_k has 2^(k+1) - 1 nodes."""
    return pargoid.Pargoid(tuple(f"a{i}" for i in range(n)),
                           {(k, k - 1): k - 1 for k in range(1, n)})


def has_application_cycle(g):
    """Whether the application order of g has a cycle: a depth-first
    search over the edges a -> b and a -> ab of each defined product ab,
    which meets a cycle exactly when an edge leads back to an element
    still on the search path."""
    succ = [[] for _ in range(g.size)]
    for (a, b), c in g.table.items():
        succ[a] += (b, c)
    state = [0] * g.size  # 0 unseen, 1 on the search path, 2 finished
    for root in range(g.size):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            u, edges = stack[-1]
            v = next(edges, None)
            if v is None:
                state[u] = 2
                stack.pop()
            elif state[v] == 1:
                return True
            elif state[v] == 0:
                state[v] = 1
                stack.append((v, iter(succ[v])))
    return False


def divergence_reference(g):
    """The smallest element that cannot reach, by repeated application to
    carrier elements, one whose row is not total; None when every element
    can. A breadth-first search forward from every start element."""
    n = g.size
    successors = [set() for _ in range(n)]
    row_len = [0] * n
    for (a, _), c in g.table.items():
        successors[a].add(c)
        row_len[a] += 1
    for s in range(n):
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if row_len[u] < n:
                break
            for v in sorted(successors[u]):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        else:
            return g.element(s)
    return None


def doubling_type(k, ground="g0"):
    """T_0 = ground, T_(i+1) = T_i -> T_i: a DAG of k + 1 terms whose tree
    has 2^(k+1) - 1 nodes."""
    t = types.Ground(ground)
    for _ in range(k):
        t = types.Arrow(t, t)
    return t


def brute_force_partition(g, graphs=None):
    """Blocks of equal convergence profile, as a sorted tuple of tuples."""
    if graphs is None:
        graphs = brute_force_clone_graphs(g)
    order = sorted(graphs, key=lambda gr: tuple(-1 if v is None else v for v in gr))
    prof = {}
    for e in range(g.size):
        prof.setdefault(tuple(gr[e] is not None for gr in order), []).append(e)
    return tuple(sorted(tuple(b) for b in prof.values()))


def condition_i_reference(clone, varpi):
    """(op, a, c) for the first definite op, in op order, whose domain
    crosses blocks, and its lexicographically first crossing pair; None
    when there is none. A per-op scan of the classified clone's ops."""
    for op in ops(clone):
        if not op.is_definite:
            continue
        dom = [i for i, v in enumerate(op.graph) if v is not None]
        for i, a in enumerate(dom):
            for c in dom[i + 1:]:
                if varpi.class_of[a] != varpi.class_of[c]:
                    return op, a, c
    return None


def separator_reference(clone, a, c):
    """First op, in op order, converging on exactly one of a and c."""
    for op in ops(clone):
        if (op.graph[a] is None) != (op.graph[c] is None):
            return op
    return None


def topological_typing_reference(g, varpi):
    """Types of typing construction, built along a topological order.

    Ground blocks as in construct_typing; then the whole application order
    is sorted by Kahn's algorithm, smallest index first among the ready
    elements, and each untyped element takes type(b) -> type(ab) for the
    smallest b in its sorted row. Any cycle of the order is an error.
    """
    n = g.size
    rows = [[] for _ in range(n)]
    below = [set() for _ in range(n)]
    for (a, b), c in g.table.items():
        rows[a].append((b, c))
        below[a] |= {b, c}
    for r in rows:
        r.sort()
    out = [None] * n
    for blk in varpi.blocks:
        if any(not rows[e] for e in blk):
            for e in blk:
                out[e] = types.Ground(f"g{blk[0]}")

    above = [[] for _ in range(n)]
    indegree = [len(below[a]) for a in range(n)]
    for a in range(n):
        for b in below[a]:
            above[b].append(a)
    ready = [e for e in range(n) if indegree[e] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        e = heapq.heappop(ready)
        order.append(e)
        for a in above[e]:
            indegree[a] -= 1
            if indegree[a] == 0:
                heapq.heappush(ready, a)
    if len(order) != n:
        raise InternalError("application order contains a cycle")
    for e in order:
        if out[e] is None:
            b, c = rows[e][0]
            out[e] = types.Arrow(out[b], out[c])
    return tuple(out)


def small_tables(max_n):
    """(n, table) for every table with n <= max_n and at most 4 defined
    products: all 83 tables with n <= 2, and 12,826 more with n = 3."""
    for n in range(1, max_n + 1):
        cells = list(itertools.product(range(n), repeat=2))
        for k in range(min(len(cells), 4) + 1):
            for pairs in itertools.combinations(cells, k):
                for values in itertools.product(range(n), repeat=k):
                    yield n, dict(zip(pairs, values))


def set_partitions(n):
    """Every set partition of range(n), n >= 1, as a tuple of class
    labels: element 0 is in class 0, and each later element joins a class
    already opened or opens the next one (restricted growth strings)."""
    labels = [0] * n

    def grow(e, opened):
        if e == n:
            yield tuple(labels)
            return
        for k in range(opened + 1):
            labels[e] = k
            yield from grow(e + 1, max(opened, k + 1))

    return grow(1, 1)


def partition_typing(n, table, strong):
    """The carrier partition of some typing of the table, or None.

    A typing's classes (elements of equal type) satisfy four conditions,
    and any partition satisfying them gives a typing, whose classes with
    an empty row are distinct grounds and whose others are the arrows
    type(D) -> type(C), built in the order of the acyclic class graph:

    - each class K with a defined product has one domain class D, holding
      every b of a product a b = c with a in K, and one codomain class C,
      holding every such c;
    - for the strong notion, the row of each member of K is exactly D;
    - no two such classes share their (D, C);
    - the graph K -> D, K -> C over classes is acyclic.

    Every partition is tried, so neither notion is decided by unification
    or through the clone. Returns the classes as ascending tuples, in the
    order of their least members.
    """
    rows = [frozenset(b for (a, b) in table if a == e) for e in range(n)]
    for labels in set_partitions(n):
        if _typing_partition(table, rows, labels, strong):
            classes = {}
            for e, k in enumerate(labels):
                classes.setdefault(k, []).append(e)
            return tuple(tuple(c) for c in classes.values())
    return None


def _typing_partition(table, rows, labels, strong):
    sides = {}  # arrow class -> (domain class, codomain class)
    for (a, b), c in table.items():
        if sides.setdefault(labels[a], (labels[b], labels[c])) != (labels[b], labels[c]):
            return False
    if len(set(sides.values())) < len(sides):
        return False
    if strong:
        members = {}
        for e, k in enumerate(labels):
            members.setdefault(k, set()).add(e)
        if any(k in sides and rows[e] != members[sides[k][0]]
               for e, k in enumerate(labels)):
            return False
    # peel off the classes whose sides are all built; a cycle stalls it
    built = set(labels) - sides.keys()
    pending = dict(sides)
    while pending:
        ready = [k for k, (d, c) in pending.items() if d in built and c in built]
        if not ready:
            return False
        built.update(ready)
        for k in ready:
            del pending[k]
    return True


def _is_trivial_graph(g, graph):
    n = g.size
    if any(v is None for v in graph):
        return False
    return graph == tuple(range(n)) or len(set(graph)) == 1


def _is_constant_graph(g, graph, reading):
    n = g.size
    if reading == "total":
        return all(v is not None for v in graph) and len(set(graph)) == 1
    return len({v for v in graph if v is not None}) <= 1


def definite_oracle_both(g, graphs):
    """Definite graph sets under both readings, by a factorization fixpoint.

    Materializes every ordered product r = p.q once, then iterates until
    no graph with p definite or q nonconstant is newly nontrivial-definite.
    Quadratic in the clone size; only for small instances.
    """
    glist = sorted(graphs, key=lambda gr: tuple(-1 if v is None else v for v in gr))
    index = {gr: i for i, gr in enumerate(glist)}
    triples = [(i, j, index[pointwise(g, p, q)])
               for i, p in enumerate(glist) for j, q in enumerate(glist)]
    trivial = [_is_trivial_graph(g, r) for r in glist]
    out = {}
    for reading in ("total", "on-domain"):
        constant = [_is_constant_graph(g, q, reading) for q in glist]
        definite = [False] * len(glist)
        changed = True
        while changed:
            changed = False
            for i, j, r in triples:
                if not definite[r] and not trivial[r] \
                        and (definite[i] or not constant[j]):
                    definite[r] = True
                    changed = True
        out[reading] = {glist[k] for k, flag in enumerate(definite) if flag}
    return out


def enumerate_terms(g, max_size):
    """All terms with node count up to max_size, leaves first."""
    by_size = {1: [polyclone.VAR]
               + [polyclone.Const(g.element(e)) for e in range(g.size)]}
    for k in range(2, max_size + 1):
        terms = []
        for i in range(1, k - 1):
            for left in by_size[i]:
                for right in by_size[k - 1 - i]:
                    terms.append(polyclone.Prod(left, right))
        by_size[k] = terms
    return [t for k in range(1, max_size + 1) for t in by_size[k]]


def term_nodes(t):
    """Node count of a term: leaves are 1, a product is 1 + both sides."""
    count, stack = 0, [t]
    while stack:
        t = stack.pop()
        count += 1
        if isinstance(t, polyclone.Prod):
            stack += (t.left, t.right)
    return count


def random_term(g, rng, max_size):
    """Random term of odd node count up to max_size; rng is a SplitMix64."""
    size = 1 + 2 * rng.below((max_size + 1) // 2)
    return _random_term_sized(g, rng, size)


def _random_term_sized(g, rng, size):
    if size == 1:
        k = rng.below(g.size + 1)
        return polyclone.VAR if k == g.size else polyclone.Const(g.element(k))
    left = 1 + 2 * rng.below((size - 1) // 2)
    return polyclone.Prod(_random_term_sized(g, rng, left),
                          _random_term_sized(g, rng, size - 1 - left))


def arbitrary_batch(count, sizes, densities, seed0):
    """Deterministic stream of gen_arbitrary instances for property tests."""
    out = []
    for k in range(count):
        cfg = generators.GenConfig(size=sizes[k % len(sizes)],
                                   seed=seed0 + k,
                                   density=densities[k % len(densities)])
        out.append((cfg, generators.gen_arbitrary(cfg)))
    return out


def typed_literal_batch(count, seed0):
    """Small typed_literal instances (4-6 elements); under the on-domain
    reading their clones hold many partial one-valued ops."""
    out = []
    for k in range(count):
        cfg = generators.GenConfig(size=4 + k % 3, seed=seed0 + k,
                                   mode="typed_literal", density=0.7,
                                   type_depth=2 + k % 2,
                                   ground_count=1 + (k // 3) % 2)
        out.append(generators.gen_typed(cfg)[0])
    return out


def _type_depth(t):
    if isinstance(t, types.Ground):
        return 0
    return 1 + max(_type_depth(t.antecedent), _type_depth(t.consequent))


def gen_typed_reference(cfg):
    """gen_typed with each candidate type's depth recomputed by recursion
    and every pair of the table scanned for a type match."""
    root = generators.SplitMix64(cfg.seed)
    table_rng = root.split()
    type_rng = root.split()
    n = cfg.size
    pool = [types.Ground(f"g{i}") for i in range(cfg.ground_count)]
    extras = type_rng.below(n - cfg.ground_count + 1)
    for _ in range(2 * extras):
        if len(pool) == n:
            break
        t = types.Arrow(pool[type_rng.below(len(pool))], pool[type_rng.below(len(pool))])
        if t not in pool and _type_depth(t) <= cfg.type_depth:
            pool.append(t)
    k = len(pool)
    assignment = pool + [pool[type_rng.below(k)] for _ in range(n - k)]
    for i in range(n - 1, 0, -1):
        j = type_rng.below(i + 1)
        assignment[i], assignment[j] = assignment[j], assignment[i]
    table = {}
    for a in range(n):
        ta = assignment[a]
        if not isinstance(ta, types.Arrow):
            continue
        for b in range(n):
            if assignment[b] != ta.antecedent:
                continue
            if cfg.mode == "typed_literal" and not table_rng.float01() < cfg.density:
                continue
            members = [e for e in range(n) if assignment[e] == ta.consequent]
            table[(a, b)] = members[table_rng.below(len(members))]
    return (pargoid.Pargoid(tuple(f"e{i}" for i in range(n)), table),
            types.Typing(tuple(assignment)))

"""Independent oracles shared by the test modules.

Everything here recomputes results from the product table alone, without
the package's vectorized closure, flag propagation, or partition code, so
agreement is evidence rather than tautology.
"""
from pathlib import Path

from pargoids import generators, pargoid, polyclone, types

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return pargoid.parse(FIXTURES.joinpath(name).read_bytes(), "text")


def three():
    return load("three.pgd")


def six():
    return load("six.pgd")


def void2():
    return pargoid.Pargoid(("x", "y"), {})


def chain3():
    # f applies to u giving v; nothing else multiplies
    return pargoid.Pargoid(("f", "u", "v"), {(0, 1): 2})


def single():
    return pargoid.Pargoid(("x",), {})


def eval_term_int(g, t, x):
    """Recursive term evaluation over raw indices; None = diverges."""
    if isinstance(t, polyclone.Var):
        return x
    if isinstance(t, polyclone.Const):
        return t.value.index
    left = eval_term_int(g, t.left, x)
    right = eval_term_int(g, t.right, x)
    if left is None or right is None:
        return None
    return g.table.get((left, right))


def term_graph_int(g, t):
    return tuple(eval_term_int(g, t, x) for x in range(g.size))


def witness_graphs(g, terms):
    """Value tables of many structure-sharing terms in one shared walk."""
    val = {}
    for root in terms:
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) in val:
                continue
            if isinstance(t, polyclone.Var):
                val[id(t)] = tuple(range(g.size))
            elif isinstance(t, polyclone.Const):
                val[id(t)] = (t.value.index,) * g.size
            else:
                left = val.get(id(t.left))
                right = val.get(id(t.right))
                if left is None or right is None:
                    stack.append(t)
                    if left is None:
                        stack.append(t.left)
                    if right is None:
                        stack.append(t.right)
                else:
                    val[id(t)] = pointwise_values(g, left, right)
    return [val[id(t)] for t in terms]


def pointwise_values(g, left, right):
    return tuple(
        None if left[x] is None or right[x] is None
        else g.table.get((left[x], right[x]))
        for x in range(g.size))


def pointwise(g, p, q):
    """Pointwise product of two graph tuples."""
    return pointwise_values(g, p, q)


def brute_force_clone_graphs(g):
    """Clone graph set by naive iterate-all-pairs fixpoint over tuples."""
    n = g.size
    graphs = {tuple(range(n))} | {(b,) * n for b in range(n)}
    while True:
        new = set()
        for p in graphs:
            for q in graphs:
                r = pointwise(g, p, q)
                if r not in graphs:
                    new.add(r)
        if not new:
            return graphs
        graphs |= new


def worklist_clone_graphs(g):
    """Clone graphs in the documented discovery order, one product at a time.

    Identity, then each constant map, then for the op under work, i, the
    products ops[j].ops[i] for j <= i followed by ops[i].ops[j] for j < i;
    a graph is numbered when first seen.
    """
    n = g.size
    order = []
    seen = set()

    def add(graph):
        if graph not in seen:
            seen.add(graph)
            order.append(graph)

    add(tuple(range(n)))
    for b in range(n):
        add((b,) * n)
    i = 0
    while i < len(order):
        for j in range(i + 1):
            add(pointwise(g, order[j], order[i]))
        for j in range(i):
            add(pointwise(g, order[i], order[j]))
        i += 1
    return order


def doubling_chain(n):
    """a_k a_(k-1) = a_(k-1): typable, and the type of a_k has 2^(k+1) - 1 nodes."""
    return pargoid.Pargoid(tuple(f"a{i}" for i in range(n)),
                           {(k, k - 1): k - 1 for k in range(1, n)})


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

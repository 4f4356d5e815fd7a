"""Independent reference implementations used as test oracles.

Everything here works on plain Python data (label tuples, edge sets,
dict-of-tuple grade columns, nested support dicts) with naive subset
enumeration, so a bug in the library's vectorized code cannot hide in a
shared code path.
"""

from itertools import combinations


def nonempty_subsets(labels):
    labels = tuple(labels)
    for size in range(1, len(labels) + 1):
        for combo in combinations(labels, size):
            yield frozenset(combo)


def edge_set(mu):
    """Beat pairs of a library MajorityRelation, as a plain set."""
    return set(mu.edges())


def _beats(edges, x, y):
    return (x, y) in edges


def dominators(labels, edges, x):
    return frozenset(y for y in labels if (y, x) in edges)


def dominated(labels, edges, x):
    return frozenset(y for y in labels if (x, y) in edges)


# -- set-valued solution concepts -------------------------------------------

def brute_dominant_sets(labels, edges):
    """Inclusion-minimal sets whose every member beats every outsider."""
    dominant = [
        b
        for b in nonempty_subsets(labels)
        if all((x, y) in edges for x in b for y in labels if y not in b)
    ]
    return sorted(
        (b for b in dominant if not any(o < b for o in dominant)),
        key=sorted,
    )


def brute_undominated_sets(labels, edges):
    """Inclusion-minimal sets no outsider beats into."""
    undominated = [
        b
        for b in nonempty_subsets(labels)
        if not any((y, x) in edges for x in b for y in labels if y not in b)
    ]
    return sorted(
        (b for b in undominated if not any(o < b for o in undominated)),
        key=sorted,
    )


def sink_components(labels, arcs):
    """Strongly connected components with no arc leaving them (Tarjan's
    algorithm on the digraph ``arcs``), sorted like the library's output.

    Polynomial, so it reaches sizes where subset enumeration cannot.
    """
    succ = {x: [y for y in labels if (x, y) in arcs] for x in labels}
    index, low, stack, on_stack, components = {}, {}, [], set(), []

    def visit(x):
        index[x] = low[x] = len(index)
        stack.append(x)
        on_stack.add(x)
        for y in succ[x]:
            if y not in index:
                visit(y)
                low[x] = min(low[x], low[y])
            elif y in on_stack:
                low[x] = min(low[x], index[y])
        if low[x] == index[x]:
            component = set()
            while x not in component:
                component.add(stack.pop())
            on_stack.difference_update(component)
            components.append(frozenset(component))

    for x in labels:
        if x not in index:
            visit(x)
    sinks = [c for c in components if all(y in c for x in c for y in succ[x])]
    return sorted(sinks, key=sorted)


def scc_dominant_sets(labels, edges):
    """Minimal dominant sets: the sink components of "fails to beat"."""
    fails = {(x, y) for x in labels for y in labels if x != y and (x, y) not in edges}
    return sink_components(labels, fails)


def scc_undominated_sets(labels, edges):
    """Minimal undominated sets: the sink components of "is beaten by"."""
    return sink_components(labels, {(y, x) for x, y in edges})


def is_weakly_stable(labels, edges, b):
    for y in labels:
        if y in b:
            continue
        if any((y, x) in edges for x in b):  # outside threat
            if not any((z, y) in edges for z in b):  # nobody answers it
                return False
    return True


def brute_weakly_stable_sets(labels, edges):
    """All weakly stable sets of the smallest size that admits one."""
    for size in range(1, len(labels) + 1):
        found = [
            frozenset(c)
            for c in combinations(labels, size)
            if is_weakly_stable(labels, edges, frozenset(c))
        ]
        if found:
            return sorted(found, key=sorted)
    return []


def brute_k_stable_sets(labels, edges, k):
    """Smallest sets reaching every outsider by a beat path of length <= k."""
    labels = tuple(labels)
    step = {x: {y for y in labels if (x, y) in edges} for x in labels}
    reach = {x: set(step[x]) for x in labels}
    frontier = {x: set(step[x]) for x in labels}
    for _ in range(k - 1):
        frontier = {
            x: {z for y in frontier[x] for z in step[y]} for x in labels
        }
        for x in labels:
            reach[x] |= frontier[x]
    for size in range(1, len(labels) + 1):
        found = []
        for combo in combinations(labels, size):
            covered = set(combo)
            for x in combo:
                covered |= reach[x]
            if len(covered) == len(labels):
                found.append(frozenset(combo))
        if found:
            return sorted(found, key=sorted)
    return []


# -- covering rules ----------------------------------------------------------
#
# Each covering relation as a set of pairs (x, y), "x covers y"; the rule
# chooses the alternatives nothing covers.

def fishburn_covering(labels, edges):
    ds = {x: dominators(labels, edges, x) for x in labels}
    return {(x, y) for x in labels for y in labels if ds[x] < ds[y]}


def uncovered_1_covering(labels, edges):
    ds = {x: dominators(labels, edges, x) for x in labels}
    return {(x, y) for x, y in edges if ds[x] <= ds[y]}


def uncovered_2_covering(labels, edges):
    ls = {x: dominated(labels, edges, x) for x in labels}
    return {(x, y) for x, y in edges if ls[y] <= ls[x]}


def richelson_covering(labels, edges):
    return uncovered_1_covering(labels, edges) & uncovered_2_covering(labels, edges)


def _uncovered(labels, covering):
    return frozenset(labels) - {y for _, y in covering}


def brute_fishburn(labels, edges):
    return _uncovered(labels, fishburn_covering(labels, edges))


def brute_uncovered_1(labels, edges):
    return _uncovered(labels, uncovered_1_covering(labels, edges))


def brute_uncovered_2(labels, edges):
    return _uncovered(labels, uncovered_2_covering(labels, edges))


def brute_richelson(labels, edges):
    return _uncovered(labels, richelson_covering(labels, edges))


# -- pairwise counts and grades of plain order lists -------------------------

def brute_support(orders):
    """support[x][y] = number of orders placing x above y, for x != y."""
    support = {x: {y: 0 for y in orders[0] if y != x} for x in orders[0]}
    for order in orders:
        for i, x in enumerate(order):
            row = support[x]
            for y in order[i + 1:]:
                row[y] += 1
    return support


def brute_majority_edges(orders):
    """Pairs (x, y) that a strict majority of the orders place x above y."""
    n = len(orders)
    return {
        (x, y) for x, row in brute_support(orders).items() for y, s in row.items() if 2 * s > n
    }


def brute_grade_columns(orders):
    """columns[x] = x's grade in each order: m for a best place, 1 for a worst."""
    m = len(orders[0])
    return {x: tuple(m - order.index(x) for order in orders) for x in orders[0]}


# -- simple relation rules ---------------------------------------------------

def brute_condorcet(labels, edges):
    return frozenset(
        x for x in labels if all((x, y) in edges for y in labels if y != x)
    )


def brute_core(labels, edges):
    return frozenset(
        x for x in labels if not any((y, x) in edges for y in labels)
    )


def brute_copeland(labels, edges, variant):
    def score(x):
        wins = sum(1 for y in labels if (x, y) in edges)
        losses = sum(1 for y in labels if (y, x) in edges)
        return {1: wins - losses, 2: wins, 3: -losses}[variant]

    scores = {x: score(x) for x in labels}
    best = max(scores.values())
    return frozenset(x for x, s in scores.items() if s == best)


# -- support-matrix rules ----------------------------------------------------

def brute_minimax(labels, support):
    """support[x][y] = number of criteria ranking x above y."""
    worst = {
        x: max((support[y][x] for y in labels if y != x), default=0) for x in labels
    }
    best = min(worst.values())
    return frozenset(x for x, w in worst.items() if w == best)


def brute_simpson(labels, support):
    weakest = {
        x: min((support[x][y] for y in labels if y != x), default=0) for x in labels
    }
    best = max(weakest.values())
    return frozenset(x for x, w in weakest.items() if w == best)


# -- grade-based rules -------------------------------------------------------

def brute_threshold_order(labels, columns):
    """columns[x] = tuple of grades; returns classes, best first.

    An alternative's signature counts how often it gets the worst occurring
    grade, then the next worst, and so on; lexicographically smaller is
    better.
    """
    scale = sorted({g for col in columns.values() for g in col})
    vec = {
        x: tuple(sum(1 for g in columns[x] if g == s) for s in scale)
        for x in labels
    }
    classes = []
    for x in sorted(labels, key=lambda lab: vec[lab]):
        if classes and vec[next(iter(classes[-1]))] == vec[x]:
            classes[-1] = classes[-1] | {x}
        else:
            classes.append(frozenset({x}))
    return classes


def brute_super_threshold(labels, columns):
    """Alternatives whose grade sum is at least the mean grade sum."""
    sums = {x: sum(columns[x]) for x in labels}
    mean = sum(sums.values()) / len(labels)
    return frozenset(x for x in labels if sums[x] >= mean)


def brute_q_pareto(labels, columns, q):
    def dominators_of(x):
        return [
            y
            for y in labels
            if y != x
            and all(gy >= gx for gy, gx in zip(columns[y], columns[x]))
        ]

    return frozenset(x for x in labels if len(dominators_of(x)) <= q)


# -- scoring procedures on plain order lists ---------------------------------

def brute_simple_majority(orders):
    n = len(orders)
    counts = _firsts(orders)
    return frozenset(x for x, c in counts.items() if 2 * c > n)


def brute_plurality(orders):
    labels = sorted(orders[0])
    counts = {x: 0 for x in labels}
    counts.update(_firsts(orders))
    best = max(counts.values())
    return frozenset(x for x in labels if counts[x] == best)


def brute_inverse_plurality(orders):
    labels = sorted(orders[0])
    counts = {x: 0 for x in labels}
    for order in orders:
        counts[order[-1]] += 1
    fewest = min(counts.values())
    return frozenset(x for x in labels if counts[x] == fewest)


def brute_q_approval(orders, q):
    labels = sorted(orders[0])
    counts = {x: 0 for x in labels}
    for order in orders:
        for x in order[:q]:
            counts[x] += 1
    best = max(counts.values())
    return frozenset(x for x in labels if counts[x] == best)


def brute_borda_rule(orders):
    labels = sorted(orders[0])
    scores = _borda(orders, labels)
    best = max(scores.values())
    return frozenset(x for x in labels if scores[x] == best)


# -- elimination procedures on plain order lists -----------------------------

def _firsts(orders):
    counts = {}
    for order in orders:
        counts[order[0]] = counts.get(order[0], 0) + 1
    return counts


def _restrict_orders(orders, keep):
    keep = set(keep)
    return [tuple(x for x in order if x in keep) for order in orders]


def brute_hare(orders):
    labels = sorted(orders[0])
    n = len(orders)
    while True:
        counts = {x: 0 for x in labels}
        counts.update(_firsts(orders))
        for x in labels:
            if 2 * counts[x] > n:
                return frozenset({x})
        if len(set(counts.values())) == 1:
            return frozenset(labels)
        worst = min(counts.values())
        labels = [x for x in labels if counts[x] != worst]
        orders = _restrict_orders(orders, labels)


def brute_coombs(orders):
    labels = sorted(orders[0])
    n = len(orders)
    while True:
        counts = {x: 0 for x in labels}
        counts.update(_firsts(orders))
        for x in labels:
            if 2 * counts[x] > n:
                return frozenset({x})
        lasts = {x: 0 for x in labels}
        for order in orders:
            lasts[order[-1]] += 1
        if len(set(lasts.values())) == 1:
            return frozenset(labels)
        most = max(lasts.values())
        labels = [x for x in labels if lasts[x] != most]
        orders = _restrict_orders(orders, labels)


def _borda(orders, labels):
    m = len(labels)
    scores = {x: 0 for x in labels}
    for order in orders:
        for pos, x in enumerate(order):
            scores[x] += m - 1 - pos
    return scores


def brute_inverse_borda(orders):
    labels = sorted(orders[0])
    while True:
        scores = _borda(orders, labels)
        if len(set(scores.values())) == 1:
            return frozenset(labels)
        worst = min(scores.values())
        labels = [x for x in labels if scores[x] != worst]
        orders = _restrict_orders(orders, labels)


def brute_nanson(orders):
    labels = sorted(orders[0])
    while True:
        scores = _borda(orders, labels)
        mean = sum(scores.values()) / len(labels)
        keep = [x for x in labels if scores[x] >= mean]
        if len(keep) == len(labels):
            return frozenset(labels)
        labels = keep
        orders = _restrict_orders(orders, labels)


def brute_run_off(orders):
    labels = sorted(orders[0])
    if len(labels) == 1:
        return frozenset(labels)
    n = len(orders)
    counts = {x: 0 for x in labels}
    counts.update(_firsts(orders))
    top_score = max(counts.values())
    top = [x for x in labels if counts[x] == top_score]
    if len(top) < 2:
        second = max(c for x, c in counts.items() if c != top_score)
        top += [x for x in labels if counts[x] == second]
    finalists = _restrict_orders(orders, top)
    finals = {x: 0 for x in top}
    finals.update(_firsts(finalists))
    return frozenset(x for x in top if 2 * finals[x] > n)

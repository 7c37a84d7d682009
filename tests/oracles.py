"""Independent brute-force oracles for dispatch and class definitions.

These deliberately re-derive selection from first principles (list
scans, breadth-first search) rather than reusing any interpreter code,
so agreement is meaningful.
"""

from collections import deque

from mls import values


def s3_first_match(class_vector, defined):
    """First class string with a bound `generic.class`, else default."""
    for cls in class_vector:
        if cls in defined:
            return cls
    if "default" in defined:
        return "default"
    return None


def bfs_distance(graph, frm, to):
    """Shortest-path distance over the containment graph; distance to
    ANY is the number of reachable classes including the start."""
    if to == "ANY":
        seen = {frm}
        queue = deque([frm])
        while queue:
            c = queue.popleft()
            for p in graph.get(c, ()):
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return len(seen)
    dist = {frm: 0}
    queue = deque([frm])
    while queue:
        c = queue.popleft()
        if c == to:
            return dist[c]
        for p in graph.get(c, ()):
            if p not in dist:
                dist[p] = dist[c] + 1
                queue.append(p)
    return dist.get(to)


def s4_select(graph, signatures, actuals):
    """Enumerate every method signature, score per-argument distances,
    minimize the sum, break ties lexicographically left to right."""
    admissible = []
    for sig in signatures:
        dists = []
        for actual, declared in zip(actuals, sig):
            d = bfs_distance(graph, actual, declared)
            if d is None:
                break
            dists.append(d)
        else:
            admissible.append((sum(dists), tuple(dists), sig))
    if not admissible:
        return "NONE"
    best = min(k[:2] for k in admissible)
    winners = [sig for s, t, sig in admissible if (s, t) == best]
    if len(winners) > 1:
        return "AMBIGUOUS"
    return winners[0]


def dummy_method(formal_names):
    closure = values.Closure([(n, None) for n in formal_names], None, None)
    return values.Value(values.CLOSURE, closure)


def _ancestors(graph, frm):
    """Every class reachable from `frm`, itself included."""
    seen = {frm}
    queue = deque([frm])
    while queue:
        for p in graph.get(queue.popleft(), ()):
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def definition_verdict(classes, name, kind, contains, members, methods=()):
    """Why defining class `name` over `classes` must fail, or None.

    `classes` maps each class to (kind, contains, members, methods); kind
    is "basic", "s4" or "ref", and members are the slots of an S4 class or
    the fields of a reference class.  Returns "basic", "undefined",
    "cycle" or "clash".  A clash is a slot declared by two S4 classes in
    one ancestry, or in a reference class: an ancestor that is not a
    reference class, a field declared twice, or a field that is also a
    method."""
    if classes.get(name, ("",))[0] == "basic":
        return "basic"
    graph = {c: entry[1] for c, entry in classes.items()}
    for sup in contains:
        if sup not in classes:
            return "undefined"
        if sup == name or name in _ancestors(graph, sup):
            return "cycle"
    candidate = {**classes, name: (kind, list(contains), list(members), list(methods))}
    graph[name] = list(contains)
    for cls, (cls_kind, _, _, _) in candidate.items():
        ancestry = [candidate[a] for a in _ancestors(graph, cls)]
        declared = [m for entry in ancestry if entry[0] == cls_kind for m in entry[2]]
        if len(declared) != len(set(declared)):
            return "clash"
        if cls_kind == "ref" and (
            any(entry[0] != "ref" for entry in ancestry)
            or set(declared) & {m for entry in ancestry for m in entry[3]}
        ):
            return "clash"
    return None

"""Helpers shared by the test modules: (n x 3) triple rows, a set oracle of
a graph's facts built from its splits, one-pair queries and gradient rows,
per-row oracles of the study's two negative samplers, of tail ranking and
of the logistic function, the two-cell GRU aggregator, the tape's
coalesce, a dict BFS and the
per-head 1-/2-hop ring read from it, the contrastive core's earlier
batched form, the synthetic generator's pair loop and set-and-loop
splits, a model built from its parts, a tiny cycle graph, and two
summaries of one label's row of a false-negative report's hop histogram.

The fact oracle is plain Python sets over the splits' triples, so it checks
the library's int64 fact keys without sharing any code with them. The
sampler oracles draw one row at a time with rng.choice, so they check the
library's batched draws id for id and stream for stream. The rank oracle
counts one row's scores at a time, so it checks evaluate's batched counts
rank for rank. The logistic oracle is the two-branch form with masked
stores, so it checks model._sigmoid bit for bit. The GRU oracle runs two
full cells, the first from a state of zeros with its reset gate and
recurrent products, so it checks the model's zero-state first cell bit for
bit. The coalesce oracle is the tape's earlier np.unique and flat bincount
form, so it checks the tape's written-out sort id for id and byte for
byte. The core oracle allocates
a fresh array at every step (np.where copies, boolean column indexing,
concatenated score and gradient blocks), so it checks the library's one
cell buffer, written in place, bit for bit. The BFS oracle walks one
source level by level through Python dicts, so it checks the package's
blocked hop walk (the ring table, distances_within, and hops_at, which
the false-negative study reads) id for id and hop for hop. The synthetic oracles are the generator's earlier
form. Its pair loop calls rng.random() once per ordered pair and
rng.integers() once per accept, so it checks the library's array reads of
the same PCG64 words (integer thresholds, buffered 32-bit halves, the
generator handed back) fact for fact and state for state; a numpy whose
stream changes fails those tests rather than changing data silently. Its
partition puts the held-out fact indices in two Python sets and tests each
fact's membership in a loop, so it checks the library's split codes fact
for fact and order for order."""

import math

import numpy as np

from kgcl.data import KnowledgeGraph
from kgcl.graph import StructureIndex
from kgcl.losses import _LOWEST, LossValue, _mean_exp, _term
from kgcl.model import EmbeddingModel, aggregate_batch, backward
from kgcl.sampling import LABELS


def triple_rows(*triples) -> np.ndarray:
    """The given (head, relation, tail) tuples as an (n x 3) int64 array, the
    form of a split and of a training batch."""
    return np.array(triples, dtype=np.int64).reshape(len(triples), 3)


def tails_by_query(*splits) -> dict[tuple[int, int], set[int]]:
    """{(head, relation): its tails} over every triple of the given splits."""
    out: dict[tuple[int, int], set[int]] = {}
    for triples in splits:
        for h, r, t in triples.tolist():
            out.setdefault((h, r), set()).add(t)
    return out


def known_tails(kg) -> dict[tuple[int, int], set[int]]:
    return tails_by_query(kg.train, kg.valid, kg.test)


def query(model, head: int, relation: int) -> np.ndarray:
    """The query embedding of one (head, relation) pair."""
    return aggregate_batch(model, np.array([head]), np.array([relation]))[0][0]


def in_batch_negative_sample(
    tails: np.ndarray, own_tail: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count draws i.i.d. from the batch's tails with every copy of own_tail
    removed; an empty pool draws nothing and consumes nothing."""
    pool = tails[tails != own_tail]
    if pool.size == 0:
        return pool
    return rng.choice(pool, size=count, replace=True)


def hard_negative_softmax_sample(
    e_hr: np.ndarray, candidate_ids: np.ndarray, model, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count draws i.i.d. from the softmax of the candidates' scores against
    the query e_hr."""
    scores = model.entity_table[candidate_ids] @ np.asarray(e_hr, dtype=np.float64)
    weights = np.exp(scores - scores.max())
    return rng.choice(candidate_ids, size=count, replace=True, p=weights / weights.sum())


def rank_from_scores(gold_score: float, other_scores: np.ndarray) -> int:
    """Rank of the gold candidate among other_scores: one plus the number of
    strictly better scores, with ties counted at their average position,
    rounded up."""
    above = int(np.count_nonzero(other_scores > gold_score))
    ties = int(np.count_nonzero(other_scores == gold_score))
    return 1 + above + (ties + 1) // 2


def bfs_distances(idx: StructureIndex, source: int, cap: int) -> dict[int, int]:
    """{entity: its distance from source} for every entity within cap hops,
    the source at 0: one breadth-first search over the index's CSR, level by
    level through Python dicts and lists."""
    dist = {source: 0}
    frontier = [source]
    depth = 0
    indptr, indices = idx.indptr, idx.indices
    while frontier and depth < cap:
        depth += 1
        nxt = []
        for node in frontier:
            for nb in indices[indptr[node] : indptr[node + 1]].tolist():
                if nb not in dist:
                    dist[nb] = depth
                    nxt.append(nb)
        frontier = nxt
    return dist


def ring_oracle(idx: StructureIndex, head: int) -> np.ndarray:
    """The sorted int64 ids at distance 1 or 2 from head: the distance-1 and
    distance-2 slices of one BFS capped at 2."""
    dist = bfs_distances(idx, head, 2)
    return np.array(sorted(node for node, d in dist.items() if d > 0), dtype=np.int64)


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    each branch stored through a boolean mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_cell_forward_oracle(x: np.ndarray, h: np.ndarray, p: dict[str, np.ndarray]):
    """One full GRU cell from state h: update gate, reset gate, candidate."""
    z = masked_sigmoid(x @ p["w_z"].T + h @ p["u_z"].T + p["b_z"])
    r = masked_sigmoid(x @ p["w_r"].T + h @ p["u_r"].T + p["b_r"])
    rh = r * h
    n = np.tanh(x @ p["w_n"].T + rh @ p["u_n"].T + p["b_n"])
    return (1.0 - z) * n + z * h, (x, h, z, r, rh, n)


def gru_cell_backward_oracle(d_out: np.ndarray, cache, p: dict[str, np.ndarray],
                             grads: dict[str, np.ndarray]):
    """(d loss / d x, d loss / d h) of one full cell, its parameter
    gradients added to grads."""
    x, h, z, r, rh, n = cache
    dn, dz, dh = d_out * (1.0 - z), d_out * (h - n), d_out * z
    dan = dn * (1.0 - n * n)
    grads["w_n"] += dan.T @ x
    grads["u_n"] += dan.T @ rh
    grads["b_n"] += dan.sum(axis=0)
    dx, drh = dan @ p["w_n"], dan @ p["u_n"]
    dr = drh * h
    dh += drh * r
    dar = dr * r * (1.0 - r)
    grads["w_r"] += dar.T @ x
    grads["u_r"] += dar.T @ h
    grads["b_r"] += dar.sum(axis=0)
    dx += dar @ p["w_r"]
    dh += dar @ p["u_r"]
    daz = dz * z * (1.0 - z)
    grads["w_z"] += daz.T @ x
    grads["u_z"] += daz.T @ h
    grads["b_z"] += daz.sum(axis=0)
    dx += daz @ p["w_z"]
    dh += daz @ p["u_z"]
    return dx, dh


def gru_oracle(model: EmbeddingModel, heads, relations, d_query, tape):
    """The gru aggregator's queries as two full cells, the first from
    np.zeros, with d_query pushed back through both into tape."""
    p, eh = model.aggregator, model.entity_table[heads]
    h1, c1 = gru_cell_forward_oracle(eh, np.zeros_like(eh), p)
    h2, c2 = gru_cell_forward_oracle(model.relation_table[relations], h1, p)
    d_er, dh1 = gru_cell_backward_oracle(d_query, c2, p, tape.aggregator)
    d_eh, _ = gru_cell_backward_oracle(dh1, c1, p, tape.aggregator)
    tape.add_entity(heads, d_eh)
    tape.add_relation(relations, d_er)
    return h2


def coalesce_oracle(id_chunks, grad_chunks, dim):
    """(sorted unique ids, summed rows) as GradientTape's entity_rows and
    relation_rows return them: np.unique's inverse, then one flat bincount
    that adds each cell's rows in row order from 0.0."""
    if not id_chunks:
        return np.zeros(0, dtype=np.int64), np.zeros((0, dim))
    ids = np.concatenate(id_chunks)
    grads = np.concatenate(grad_chunks, axis=0)
    unique, inverse = np.unique(ids, return_inverse=True)
    cells = (inverse[:, None] * dim + np.arange(dim)).ravel()
    summed = np.bincount(cells, grads.ravel(), minlength=unique.size * dim)
    return unique, summed.reshape(unique.size, dim)


def log_estimate_oracle(block: np.ndarray, variant: str):
    """Per row of a block of scores, -inf marking an empty cell: log K neg
    and the block of its derivatives by the scores (losses._log_estimate)."""
    if not block.size:
        return np.full(len(block), -np.inf), block
    c = block.max(axis=1)
    w = np.exp(block - np.maximum(c, _LOWEST)[:, None])
    s1 = np.maximum(w.sum(axis=1), 1.0)
    if variant == "eq7":
        k = np.maximum((block > -np.inf).sum(axis=1), 1)
        s2 = np.maximum((w * w).sum(axis=1), 1.0)
        return c + np.log(k * s2 / s1), w * (2.0 * w / s2[:, None] - 1.0 / s1[:, None])
    return c + np.log(s1), w / s1[:, None]


def log_mass_oracle(neg: np.ndarray, struct=None, tau=0.0, variant="alg1", floor=0.0):
    """(log M, clamped, d log M / d neg, d log M / d struct, log K neg,
    log fn) per row, as losses._log_mass returns them."""
    log_neg, d_neg = log_estimate_oracle(neg, variant)
    log_mass, log_fn, d_fn = log_neg - math.log1p(-tau), np.full(len(neg), -np.inf), neg[:, :0]
    if struct is not None:
        log_fn, d_fn = log_estimate_oracle(struct, variant)
        log_fn -= np.log(np.maximum((struct > -np.inf).sum(axis=1), 1))
    rate = tau if variant == "eq7" else tau * (1.0 - tau)
    if floor or rate and d_fn.size:
        k = (neg > -np.inf).sum(axis=1)
    if rate and d_fn.size:
        log_k = np.log(k, out=np.full(len(k), -np.inf), where=k > 0)
        share = np.exp(np.minimum(math.log(rate) + log_fn + log_k - np.maximum(log_neg, _LOWEST),
                                  0.0))
        log_mass += np.log1p(-share, out=np.full(len(k), -np.inf), where=share < 1.0)
        inv = np.divide(1.0, 1.0 - share, out=np.zeros(len(k)), where=share < 1.0)
        d_neg *= inv[:, None]
        d_fn *= -(share * inv)[:, None]
    else:
        d_fn *= 0.0
    clamped = np.zeros(len(neg), dtype=bool)
    if floor:
        least = k * floor
        log_floor = np.log(least, out=np.full(len(k), -np.inf), where=least > 0.0)
        clamped = log_mass < log_floor
        log_mass = np.where(clamped, log_floor, log_mass)
        d_neg *= ~clamped[:, None]
        d_fn *= ~clamped[:, None]
    return log_mass, clamped, d_neg, d_fn, log_neg, log_fn


def score_oracle(anchors: np.ndarray, table: np.ndarray, block: np.ndarray, own: np.ndarray):
    """(cells, filled, pull) as losses._score returns them: shared columns
    of block (a column without ids among them, as id -1) by one product,
    every other cell by a row dot."""
    top = block.max(axis=0)
    shared = np.where(block >= 0, block, top).min(axis=0) == top
    dense_ids, ids = top[shared], np.concatenate([block[:, ~shared], own], axis=1)
    dense, rows, size = table[dense_ids], table[ids], dense_ids.size
    filled = np.concatenate([block[:, shared], ids], axis=1) >= 0
    scores = np.concatenate([anchors @ dense.T, np.einsum("bwd,bd->bw", rows, anchors)], axis=1)

    def pull(grad, push):
        g_dense, g_own, width = grad[:, :size], grad[:, size:], grad.shape[1] - size
        d_anchors = g_dense @ dense + np.einsum("bw,bwd->bd", g_own, rows[:, :width])
        keep, cells = push[:, :size].any(axis=0), push[:, size:]
        pushed = np.concatenate([dense_ids[keep], ids[:, :width][cells]])
        grads = [(g_dense.T @ anchors)[keep], (g_own[:, :, None] * anchors[:, None, :])[cells]]
        return d_anchors, pushed, np.concatenate(grads)

    return np.where(filled, scores, -np.inf), filled, pull


def contrastive_oracle(batch, negatives, model, tape, structure=None, tau=0.0, variant="alg1",
                       floor=0.0, bidirectional=False) -> LossValue:
    """losses._contrastive over the oracles above, its gradient assembled
    from concatenated blocks."""
    n = len(batch)
    heads, relations, tails = batch.T
    queries, cache = aggregate_batch(model, heads, relations)
    block = negatives.hard_and_batch_negatives
    k = block.shape[1]
    has_neg = (block >= 0).any(axis=1)
    own = tails[:, None]
    if structure is not None:
        own = np.concatenate([own, np.where(has_neg[:, None], structure, -1)], axis=1)
    cells, filled, pull = score_oracle(queries, model.entity_table, block, own)
    s_pos = cells[:, k]
    log_mass, clamped, d_neg, d_rho, log_neg, log_fn = log_mass_oracle(
        cells[:, :k], None if structure is None else cells[:, k + 1 :], tau, variant, floor
    )
    term, p_mass = _term(s_pos, log_mass)
    total, d_pos, touched = term.sum(), -p_mass, has_neg
    if bidirectional:
        contexts = negatives.negative_contexts
        anchors = model.entity_table[tails]
        ctx_cells, ctx_filled, ctx_pull = score_oracle(anchors, queries, contexts,
                                                       np.empty((n, 0), int))
        ctx_mass, _, d_ctx, *_ = log_mass_oracle(ctx_cells)
        ctx_term, p_ctx = _term(s_pos, ctx_mass)
        total, d_pos = total + ctx_term.sum(), d_pos - p_ctx
        touched = has_neg | ctx_filled.any(axis=1)
    pos, neg, false_neg, neg_hasa = _mean_exp(np.array([s_pos, log_neg, log_fn, log_mass]))
    value = LossValue(float(total), n, pos, neg, false_neg, neg_hasa, int(clamped.sum()))
    if tape is None:
        return value
    grad = [p_mass[:, None] * d_neg, d_pos[:, None]]
    if tau != 0.0:
        grad.append(p_mass[:, None] * d_rho)
    grad = np.concatenate(grad, axis=1)
    push = filled[:, : grad.shape[1]] & ~clamped[:, None]
    push[:, k] = touched
    d_queries, ids, rows = pull(grad, push)
    tape.add_entity(ids, rows)
    if bidirectional:
        d_tails, at, rows = ctx_pull(p_ctx[:, None] * d_ctx, ctx_filled)
        tape.add_entity(tails[touched], d_tails[touched])
        np.add.at(d_queries, at, rows)
    backward(model, cache, d_queries, tape)
    return value


def synthetic_pair_loop(spec) -> tuple[list[tuple[int, int, int]], np.random.Generator]:
    """The sampled facts as (head, relation, tail) ids in loop order, and the
    generator as the loop leaves it: one rng.random() per ordered pair
    u != v, accepted below the pair's block probability, and one
    rng.integers(relation_count) per accept."""
    rng = np.random.default_rng(spec.seed)
    n = spec.num_entities()
    per_block = spec.entities_per_block
    edges = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            same_block = u // per_block == v // per_block
            p = (spec.intra_block_edge_probability if same_block
                 else spec.inter_block_edge_probability)
            if rng.random() < p:
                edges.append((u, int(rng.integers(spec.relation_count)), v))
    return edges, rng


def synthetic_splits_oracle(spec) -> dict[str, list[tuple[str, str, str]]]:
    """generate_synthetic_kg's splits: the pair loop's facts, the fallback
    facts and the shuffle, with the held-out indices kept in sets and each
    fact placed by a membership loop."""
    edges, rng = synthetic_pair_loop(spec)
    n = spec.num_entities()
    per_block = spec.entities_per_block
    names = [f"b{b}_e{i}" for b in range(spec.block_count) for i in range(per_block)]
    relations = [f"rel_{j}" for j in range(spec.relation_count)]
    facts = [(names[u], relations[r], names[v]) for u, r, v in edges]
    covered = np.zeros(n, dtype=bool)
    for u, _, v in edges:
        covered[u] = covered[v] = True
    for u in range(n):
        if not covered[u]:
            block = u // per_block
            partner = block * per_block + (u % per_block + 1) % per_block
            if partner == u:
                partner = (u + 1) % n
            facts.append((names[u], relations[u % spec.relation_count], names[partner]))
            covered[u] = covered[partner] = True
    order = rng.permutation(len(facts))
    n_missing = int(round(spec.missing_fraction * len(facts)))
    missing_idx = order[:n_missing]
    n_valid = math.ceil(n_missing / 2)
    valid_idx = set(missing_idx[:n_valid].tolist())
    test_idx = set(missing_idx[n_valid:].tolist())
    dataset = {"train": [], "valid": [], "test": []}
    for i, fact in enumerate(facts):
        if i in valid_idx:
            dataset["valid"].append(fact)
        elif i in test_idx:
            dataset["test"].append(fact)
        else:
            dataset["train"].append(fact)
    return dataset


def grad_row(rows: tuple[np.ndarray, np.ndarray], row: int) -> np.ndarray:
    """One row of a coalesced (ids, gradients) pair such as
    tape.entity_rows(); zeros when the tape never touched the row."""
    ids, grads = rows
    hit = np.flatnonzero(ids == row)
    return grads[hit[0]] if hit.size else np.zeros(grads.shape[1])


def sum_model(entity_rows, relation_rows=None, num_relations=1) -> EmbeddingModel:
    """A sum-aggregator model over copies of the given rows; without
    relation rows, num_relations zero rows, so the query of (h, r) is
    exactly the entity row of h."""
    entity = np.asarray(entity_rows, dtype=np.float64)
    if relation_rows is None:
        relation_rows = np.zeros((num_relations, entity.shape[1]))
    relation = np.asarray(relation_rows, dtype=np.float64)
    params = np.concatenate([entity.ravel(), relation.ravel()])
    return EmbeddingModel(params, len(entity), len(relation), entity.shape[1], "sum")


def toy_cycle_kg(ring_size: int = 6) -> KnowledgeGraph:
    """Two rings of ring_size entities with fully functional relations:
    "next" walks each ring and "pair" jumps between rings. Validation and
    test repeat a third of the train facts each, so a model that memorizes
    the train split scores perfectly under filtered ranking."""
    if ring_size < 3:
        raise ValueError(f"ring_size must be >= 3, got {ring_size}")
    names = [f"n{i}" for i in range(2 * ring_size)]
    facts = []
    for ring in (0, 1):
        base = ring * ring_size
        for i in range(ring_size):
            facts.append((names[base + i], "next", names[base + (i + 1) % ring_size]))
    for i in range(ring_size):
        facts.append((names[i], "pair", names[ring_size + i]))
        facts.append((names[ring_size + i], "pair", names[i]))
    valid = facts[::3]
    test = facts[1::3]
    return KnowledgeGraph.from_string_triples(facts, valid, test)


def _label_row(report, label: str) -> np.ndarray:
    if label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}, got {label!r}")
    row = report.histogram[LABELS.index(label)]
    if not row.any():
        raise ValueError(f"no sampled negatives labeled {label!r}")
    return row


def mean_distance(report, label: str) -> float:
    """Mean bucketed hop distance of the report's draws labeled label; the
    overflow column counts as the cap."""
    row = _label_row(report, label)
    return int(row @ np.arange(row.size)) / int(row.sum())


def fraction_within(report, label: str, max_distance: int) -> float:
    """Share of the report's draws labeled label at most max_distance hops
    from the head; the overflow column never counts as near."""
    row = _label_row(report, label)
    near = row[:-1] @ (np.arange(report.distance_cap) <= max_distance)
    return int(near) / int(row.sum())

"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins a user-facing claim of the library: analytic gradients agree
with finite differences for every loss and aggregator, the gradient field
has the predicted push/pull geometry, the negative-mass estimators match
closed forms and converge, graph distances match an independent
Floyd-Warshall, sampler frequencies match their declared distributions,
ranking matches an exhaustive sort, the hard sampler provably surfaces more
hidden true facts and finds them near the head, training reaches high MRR
on a memorizable graph with debiasing at least matching the hard baseline,
and repeated runs are byte-for-byte reproducible. Every test also carries
an explicit wall-clock budget.
"""

import dataclasses
import math
import os
import statistics
import time
from collections import Counter

import numpy as np
import pytest

import kgcl.sampling
from fdcheck import loss_grad_rel_err
from kgcl.data import KnowledgeGraph, load_dataset
from kgcl.evaluation import evaluate, metrics_from_ranks
from kgcl.graph import (
    _index_from_triples,
    alpha_distribution,
    build_structure_index,
    distances_within,
    draw_ring_samples,
    hop_table,
)
from kgcl.losses import (
    LossConfig,
    _log_estimate,
    _log_mass,
    hard_infonce,
    hasa_loss,
    hasa_plus_loss,
    simple_infonce,
)
from kgcl.model import GradientTape, init_model
from kgcl.sampling import (
    NegativeSampleBatch,
    draw_in_batch_negatives,
    draw_softmax_negatives,
    run_false_negative_experiment,
    split_retain_missing,
)
from kgcl.synthetic import SyntheticKGSpec, generate_knowledge_graph
from kgcl.training import TrainConfig, sweep_tau, train
from support import (
    fraction_within,
    grad_row,
    known_tails,
    mean_distance,
    query,
    sum_model,
    toy_cycle_kg,
    triple_rows,
)

WN18RR_DIR = os.environ.get("KGCL_WN18RR_DIR", "")


def block(lists):
    """Ragged id lists as one int64 block, each row padded with -1."""
    out = np.full((len(lists), max(map(len, lists), default=0)), -1, dtype=np.int64)
    for row, ids in zip(out, lists):
        row[:len(ids)] = ids
    return out


def neg_batch(neg_lists, struct_lists=None, ctx_lists=None):
    n = len(neg_lists)
    return NegativeSampleBatch(
        hard_and_batch_negatives=block(neg_lists),
        structure_samples=block(struct_lists if struct_lists is not None else [[]] * n),
        negative_contexts=block(ctx_lists if ctx_lists is not None else [[]] * n),
    )


def random_instance(rng, kind, dim, n_entities, n_relations=3, n_triples=3,
                    k_neg=3, m_struct=2):
    model = init_model(n_entities, n_relations, dim, kind=kind,
                       seed=int(rng.integers(1 << 31)), init_scale=0.5)
    triples = []
    for _ in range(n_triples):
        h = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        t = int(rng.integers(n_entities))
        triples.append((h, r, t))
    negs, structs, ctxs = [], [], []
    for i, (_, _, tail) in enumerate(triples):
        pool = np.array([e for e in range(n_entities) if e != tail])
        negs.append(rng.choice(pool, size=k_neg, replace=True))
        structs.append(rng.integers(n_entities, size=m_struct))
        ctxs.append(np.array([j for j in range(n_triples) if j != i]))
    return model, triple_rows(*triples), neg_batch(negs, structs, ctxs)


def total_variation(empirical: dict, exact: dict) -> float:
    keys = set(empirical) | set(exact)
    return 0.5 * sum(abs(empirical.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------


def test_analytic_gradients_match_central_differences_everywhere():
    """All four losses, all three aggregators: sampled coordinates of the
    tape agree with central finite differences (step 1e-5) to a relative
    error under 1e-4, across 24 random instances with dim <= 8 and at most
    20 entities."""
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    losses = {
        "simple": lambda b, n, m, t, cfg: simple_infonce(b, n, m, t).loss,
        "hard": lambda b, n, m, t, cfg: hard_infonce(b, n, m, t).loss,
        "hasa": lambda b, n, m, t, cfg: hasa_loss(b, n, m, cfg, t).loss,
        "hasa_plus": lambda b, n, m, t, cfg: hasa_plus_loss(b, n, m, cfg, t).loss,
    }
    checked = 0
    for loss_name, call in losses.items():
        for kind in ("sum", "gru", "mlp"):
            for trial in range(2):
                dim = 4 if trial == 0 else 8
                n_entities = 12 if trial == 0 else 20
                cfg = LossConfig(
                    tau=0.25 if trial else 0.0,
                    debias_variant="alg1" if trial else "eq7",
                )
                model, batch, negatives = random_instance(
                    rng, kind, dim, n_entities)

                def loss_fn(m, tape, call=call, batch=batch,
                            negatives=negatives, cfg=cfg):
                    return call(batch, negatives, m, tape, cfg)

                err = loss_grad_rel_err(loss_fn, model, rng)
                assert err < 1e-4, f"{loss_name}/{kind} trial {trial}: {err}"
                checked += 1
    assert checked == 24
    assert time.monotonic() - started < 60.0


def test_tail_and_negative_gradients_cancel_and_oppose_along_the_query():
    """With the query held fixed, the positive-tail gradient and the summed
    negative-tail gradients cancel to 1e-10, they point antiparallel and
    parallel to the query, and when a negative ties the positive score the
    gradient difference reconstructs the query exactly."""
    started = time.monotonic()
    rng = np.random.default_rng(77)
    for loss_fn in (simple_infonce, hard_infonce):
        table = rng.normal(size=(6, 4))
        table[3] = table[1]
        model = sum_model(table)
        batch = triple_rows((0, 0, 1))
        negatives = neg_batch([[2, 3, 4]])
        tape = GradientTape(model)
        loss_fn(batch, negatives, model, tape)
        q = model.entity_table[0]
        g_tail = grad_row(tape.entity_rows(), 1)
        g_negs = [grad_row(tape.entity_rows(), j) for j in (2, 3, 4)]
        residual = g_tail + sum(g_negs)
        assert np.max(np.abs(residual)) < 1e-10
        unit = q / np.linalg.norm(q)
        np.testing.assert_allclose(
            float(g_tail @ unit) / np.linalg.norm(g_tail), -1.0, atol=1e-10)
        for g in g_negs:
            np.testing.assert_allclose(
                float(g @ unit) / np.linalg.norm(g), 1.0, atol=1e-10)
        diff = g_negs[1] - g_tail  # entity 3 ties the positive score
        assert np.max(np.abs(diff - q)) < 1e-10
    assert time.monotonic() - started < 1.0


def test_negative_mass_estimators_match_closed_forms_and_converge():
    """The row estimators the losses use reproduce the closed forms of the
    two exp-mass estimates on an enumerated support to 1e-10 relative, the
    debiased mass decomposes back into the mixture identity to 1e-10, and
    with 10x-support Monte Carlo draws at a fixed seed both estimates land
    within 2 percent. Each support is filed under one row of several, the
    others holding unrelated scores, as in a batch."""
    started = time.monotonic()
    rng = np.random.default_rng(2026)
    rel = lambda a, b: abs(a - b) / abs(b)

    def one_row(scores, others):
        """scores as row 1 of a three-row block whose rows 0 and 2 get
        others, each row padded with empty cells."""
        block = np.full((3, max(scores.size, others.size)), -np.inf)
        block[[0, 2], :others.size] = others
        block[1, :scores.size] = scores
        return block

    def estimate(scores, variant):
        block = one_row(scores, rng.normal(0.0, 3.0, size=4))
        # the row estimate carries the count of scores
        return math.exp(_log_estimate(block, variant)[0][1]) / scores.size

    support = rng.normal(0.0, 0.5, size=40)
    sum_e = math.fsum(math.exp(s) for s in support)
    true_mean = sum_e / support.size
    true_tilted = math.fsum(math.exp(2 * s) for s in support) / sum_e
    assert rel(estimate(support, "alg1"), true_mean) < 1e-10
    assert rel(estimate(support, "eq7"), true_tilted) < 1e-10

    # mixture identity: un-debiasing the debiased mass recovers the plain
    # negative estimate
    neg_scores = rng.normal(0.0, 0.8, size=9)
    struct_scores = rng.normal(0.3, 0.8, size=5)
    sigma = one_row(neg_scores, rng.normal(0.0, 3.0, size=2))
    rho = one_row(struct_scores, rng.normal(0.0, 3.0, size=3))
    for variant in ("eq7", "alg1"):
        cfg = LossConfig(tau=0.2, debias_variant=variant)
        knobs = (cfg.tau, cfg.debias_variant, cfg.floor_epsilon)
        mass = math.exp(_log_mass(sigma.copy(), rho.copy(), *knobs)[0][1])
        k = neg_scores.size
        neg_est = estimate(neg_scores, variant)
        false_est = estimate(struct_scores, variant)
        if variant == "eq7":
            recovered = (1 - cfg.tau) * mass / k + cfg.tau * false_est
        else:
            recovered = (mass / k + cfg.tau * false_est) * (1 - cfg.tau)
        assert rel(recovered, neg_est) < 1e-10

    draws = np.random.default_rng(0).choice(support, size=10 * support.size,
                                            replace=True)
    assert rel(estimate(draws, "alg1"), true_mean) < 0.02
    assert rel(estimate(draws, "eq7"), true_tilted) < 0.02
    assert time.monotonic() - started < 60.0


def floyd_warshall(n, edges):
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v in edges:
        if u != v:
            dist[u][v] = dist[v][u] = 1
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik == inf:
                continue
            row_i = dist[i]
            for j in range(n):
                alt = d_ik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def random_graph_kg(rng, n, n_edges):
    rows = [(f"v{i}", "self", f"v{i}") for i in range(n)]
    edges = []
    for _ in range(n_edges):
        u, v = rng.integers(n), rng.integers(n)
        if u == v:
            continue
        edges.append((int(u), int(v)))
        rows.append((f"v{u}", "r", f"v{v}"))
    kg = KnowledgeGraph.from_string_triples(rows, [], [])
    return kg, edges


def test_bounded_bfs_matches_floyd_warshall_and_hop_slices():
    """On 50 random undirected graphs of up to 50 nodes, capped
    breadth-first distances equal an independently coded Floyd-Warshall
    exactly: one source at a time (distances_within, hop_table's row for
    that source), and every source at once at every cap from 1 to n
    (hop_table, which the false-negative study reads), so the package's one
    hop walk is checked from each source alone and from all together. The
    1-/2-hop ring that training's structure draws use (the support of
    alpha_distribution, a row of the index's ring table) equals the
    distance-1 and distance-2 slices of that matrix."""
    started = time.monotonic()
    rng = np.random.default_rng(404)
    for trial in range(50):
        n = int(rng.integers(2, 51))
        kg, edges = random_graph_kg(rng, n, int(rng.integers(n, 3 * n + 1)))
        idx = build_structure_index(kg)
        oracle = floyd_warshall(n, edges)
        for src in range(n):
            got = distances_within(idx, src, cap=n)
            want = {v: d for v, d in enumerate(oracle[src]) if d <= n}
            assert got == want, f"trial {trial} source {src}"
            ring = alpha_distribution(idx, src).support.tolist()
            assert ring == [v for v, d in enumerate(oracle[src]) if d in (1, 2)]
        # spot-check a tighter cap too
        got = distances_within(idx, 0, cap=2)
        assert got == {v: d for v, d in enumerate(oracle[0]) if d <= 2}
        matrix = np.array(oracle)
        for cap in range(1, n + 1):
            keys, hops = hop_table(idx, np.arange(n), cap)
            table = np.full((n, n), math.inf)
            table.flat[keys] = hops
            np.testing.assert_array_equal(
                table, np.where(matrix <= cap, matrix, math.inf), f"trial {trial} cap {cap}")
    assert time.monotonic() - started < 60.0


def test_sampler_draw_frequencies_match_their_declared_distributions():
    """100k draws from each sampler stay within total variation 0.02 of the
    declared distribution: the in-batch tail-frequency pool, the softmax of
    model scores over candidates, and the uniform 1-/2-hop ring."""
    started = time.monotonic()
    draws_n = 100_000

    # in-batch pool: duplicated tails weight the distribution by count
    tails = [1, 1, 2, 2, 2, 3, 4, 1]
    batch = triple_rows(*[(9 + i, 0, t) for i, t in enumerate(tails)])
    own = tails[0]
    draws = draw_in_batch_negatives(batch[:, 2], draws_n, np.random.default_rng(11))[0]
    # each other tail in proportion to how often it occurs in the batch
    pool = Counter(t for t in tails if t != own)
    exact = {t: c / sum(pool.values()) for t, c in pool.items()}
    values, counts = np.unique(draws, return_counts=True)
    empirical = dict(zip(values.tolist(), (counts / draws_n).tolist()))
    assert total_variation(empirical, exact) <= 0.02

    # softmax of model scores over the support without the own tail 0
    model = init_model(12, 2, 6, kind="gru", seed=3, init_scale=1.0)
    candidates = np.arange(1, 10, dtype=np.int64)
    e_hr = query(model, 0, 1)
    draws = draw_softmax_negatives(
        model, e_hr[None], np.arange(10), np.array([0]), draws_n, np.random.default_rng(5)
    )[0]
    scores = [float(model.entity_table[c] @ e_hr) for c in candidates]
    z = math.fsum(math.exp(s) for s in scores)
    exact = {int(c): math.exp(s) / z for c, s in zip(candidates, scores)}
    values, counts = np.unique(draws, return_counts=True)
    empirical = dict(zip(values.tolist(), (counts / draws_n).tolist()))
    assert total_variation(empirical, exact) <= 0.02

    # uniform over the 1-/2-hop ring
    rows = [("v0", "r", "v1"), ("v0", "r", "v3"), ("v1", "r", "v2"),
            ("v3", "r", "v4"), ("v4", "r", "v5")]
    kg = KnowledgeGraph.from_string_triples(rows, [], [])
    idx = build_structure_index(kg)
    head = kg.entities["v0"]
    dist = alpha_distribution(idx, head)
    assert dist.support.size == 4  # v1, v2, v3, v4
    draws = draw_ring_samples(idx, np.array([head]), draws_n, np.random.default_rng(17))[0]
    exact = {int(e): 1.0 / dist.support.size for e in dist.support}
    values, counts = np.unique(draws, return_counts=True)
    empirical = dict(zip(values.tolist(), (counts / draws_n).tolist()))
    assert total_variation(empirical, exact) <= 0.02
    assert time.monotonic() - started < 120.0


def exhaustive_rank(gold_score, other_scores):
    scores = np.concatenate([[gold_score], np.asarray(other_scores)])
    ranked = np.sort(-scores)
    positions = [i + 1 for i, s in enumerate(ranked) if -s == gold_score]
    return math.ceil(sum(positions) / len(positions))


def test_tail_ranking_matches_an_exhaustive_sort_on_random_models(monkeypatch):
    """100 random models on small graphs: the ranks evaluate reports equal
    the rank read off a full sort (ties at the ceiling of their average
    position) under both raw and filtered protocols, over the full entity
    set and over a seeded candidate subsample (gold tails inside and
    outside it), with the triples split across chunks; exact ties are
    planted in the sum-aggregator trials. The metric arithmetic over ranks
    {1, 2, 10} is exact."""
    started = time.monotonic()
    rng = np.random.default_rng(888)
    tied = gold_inside = gold_outside = 0
    for trial in range(100):
        n = int(rng.integers(4, 11))
        rows = []
        for _ in range(n * 2):
            h, r, t = rng.integers(n), rng.integers(2), rng.integers(n)
            rows.append((f"e{h}", f"r{r}", f"e{t}"))
        kg = KnowledgeGraph.from_string_triples(rows[: n + 4], rows[n + 4: n + 6],
                                                rows[n + 6:])
        n_ent = kg.num_entities()
        kind = ("sum", "gru", "mlp")[trial % 3]
        model = init_model(n_ent, kg.num_relations(), 4, kind=kind,
                           seed=trial, init_scale=0.8)
        if kind == "sum":
            # rows in multiples of 1/8: every score is exact in any summation
            # order, so equal scores tie under every BLAS kernel
            for table in (model.entity_table, model.relation_table):
                table[:] = rng.integers(-2, 3, size=table.shape) / 8.0
        filtered = bool(trial % 2)
        limit = int(rng.integers(1, n_ent)) if trial % 4 >= 2 else 0
        # three triples per chunk
        monkeypatch.setattr(kgcl.sampling, "CELL_BUDGET", 3 * (limit or n_ent))
        report = evaluate(model, kg, split="train", filtered=filtered,
                          candidate_limit=limit, seed=trial)
        pool = range(n_ent)
        if limit:
            pool = np.random.default_rng(trial).choice(n_ent, size=limit, replace=False)
            pool = pool.tolist()
        assert report.triple_count == len(kg.train)
        known = known_tails(kg)
        for (head, relation, tail), rank in zip(kg.train.tolist(), report.ranks):
            q = query(model, head, relation)
            removed = set()
            if filtered:
                removed = known[(head, relation)] - {tail}
            others = [float(model.entity_table[e] @ q)
                      for e in pool
                      if e != tail and e not in removed]
            gold = float(model.entity_table[tail] @ q)
            assert rank == exhaustive_rank(gold, others), f"trial {trial}"
            tied += gold in others
            if limit:
                gold_inside += tail in pool
                gold_outside += tail not in pool
    assert tied and gold_inside and gold_outside
    report = metrics_from_ranks([1, 2, 10])
    np.testing.assert_allclose(report.mrr, 8.0 / 15.0, rtol=1e-12)
    np.testing.assert_allclose(report.mr, 13.0 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(report.hit1, 1.0 / 3.0)
    np.testing.assert_allclose(report.hit3, 2.0 / 3.0)
    np.testing.assert_allclose(report.hit10, 1.0)
    assert time.monotonic() - started < 60.0


def false_negative_study(kg_per_seed, seeds, k_grid, pretrain_epochs,
                         max_triples=None):
    """Pool the hidden-fact experiment over seeds; returns per-K counts per
    sampler plus one report whose histogram is the sum of every report's."""
    simple_counts = Counter()
    hard_counts = Counter()
    reports = []
    for seed in seeds:
        kg = kg_per_seed(seed)
        retain, _ = split_retain_missing(kg.train, 0.3, seed)
        pre = TrainConfig(loss_mode="simple", aggregator="sum", dim=16,
                          batch_size=16, epochs=pretrain_epochs,
                          learning_rate=0.01, weight_decay=0.0, seed=seed)
        model = train(pre, kg.replace_train(retain)).model
        for sampler, bucket in (("simple", simple_counts), ("hard", hard_counts)):
            report = run_false_negative_experiment(
                kg, 0.3, sampler, model, k_grid, seed, max_triples=max_triples)
            for k, _, count in report.counts:
                bucket[k] += count
            reports.append(report)
    pooled = sum(report.histogram for report in reports)
    return simple_counts, hard_counts, dataclasses.replace(reports[0], histogram=pooled)


def assert_false_negative_pattern(simple_counts, hard_counts, pooled, k_grid):
    for k in k_grid:
        assert simple_counts[k] > 0, f"simple sampler found nothing at K={k}"
        ratio = hard_counts[k] / simple_counts[k]
        assert ratio >= 1.5, f"K={k}: hard/simple ratio {ratio:.2f} below 1.5"
    mean_false = mean_distance(pooled, "false")
    mean_true = mean_distance(pooled, "true")
    assert mean_false < mean_true, (mean_false, mean_true)
    fraction = fraction_within(pooled, "false", 2)
    assert fraction >= 0.70, f"only {fraction:.2f} of false negatives within 2 hops"


def test_hard_sampling_surfaces_more_hidden_facts_and_finds_them_nearby():
    """Hide 30 percent of a blocky synthetic graph's facts, pretrain a
    scorer on the rest, and sample negatives: over seeds 0-2 the
    model-guided sampler proposes at least 1.5x as many hidden true facts
    as the in-batch sampler at every K, the hidden facts sit closer to the
    head than genuine negatives on average, and at least 70 percent of
    them lie within two hops."""
    started = time.monotonic()
    k_grid = [15, 31, 63]

    def kg_for(seed):
        spec = SyntheticKGSpec(block_count=16, entities_per_block=12,
                               relation_count=2,
                               intra_block_edge_probability=0.5,
                               inter_block_edge_probability=0.01,
                               missing_fraction=0.3, seed=seed)
        return generate_knowledge_graph(spec)

    results = false_negative_study(kg_for, (0, 1, 2), k_grid, pretrain_epochs=30)
    assert_false_negative_pattern(*results, k_grid)
    assert time.monotonic() - started < 300.0


@pytest.mark.skipif(not WN18RR_DIR, reason="KGCL_WN18RR_DIR is not set")
def test_wn18rr_shows_the_same_false_negative_pattern():
    """The directional claims of the synthetic hidden-fact study hold on
    WN18RR when a copy is supplied: more hidden facts under the hard
    sampler at every K, hidden facts nearer the head, most within two
    hops."""
    started = time.monotonic()

    def path(split):
        for ext in (".txt", ".tsv"):
            candidate = os.path.join(WN18RR_DIR, split + ext)
            if os.path.exists(candidate):
                return candidate
        raise FileNotFoundError(f"no {split} file under {WN18RR_DIR}")

    kg = load_dataset(path("train"), path("valid"), path("test"))

    def kg_for(_seed):
        return kg

    k_grid = [15, 31]
    results = false_negative_study(kg_for, (0,), k_grid, pretrain_epochs=2,
                                   max_triples=1500)
    assert_false_negative_pattern(*results, k_grid)
    assert time.monotonic() - started < 300.0


# Guarantee 8's tau, seeds and margins, chosen from a sweep of seeds 0-47
# and 100-147 (each seed its own graph): at tau 0.5 the gain over tau 0
# holds on each of its twelve runs of eight seeds and the edge over the
# control on ten.
DEBIAS_TAU = 0.5
DEBIAS_SEEDS = range(8)
DEBIAS_MIN_WINS = 6
DEBIAS_MIN_EDGE = 0.004


def test_toy_graph_reaches_high_mrr_and_the_head_ring_debiases_best():
    """A memorizable two-ring graph trains to validation MRR >= 0.8 well
    inside 200 epochs. On blocky graphs, one per seed, the debiased loss
    with the head's 1-/2-hop ring at DEBIAS_TAU beats the same loss at
    tau 0 (the hard baseline) on at least DEBIAS_MIN_WINS of the eight
    seeds, and beats a structure-blind control, whose ring around every
    head is every other entity, by at least DEBIAS_MIN_EDGE MRR on the
    median of the paired differences. At tau 0 the structure samples carry
    no weight, so the real ring and the control write equal models."""
    started = time.monotonic()
    toy = train(TrainConfig(loss_mode="simple", aggregator="gru", dim=16,
                            batch_size=8, epochs=100, learning_rate=0.01,
                            weight_decay=0.0, seed=0), toy_cycle_kg())
    assert toy.final_valid.mrr >= 0.8

    shared = dict(loss_mode="hasa", aggregator="sum", dim=16, batch_size=16, epochs=40,
                  learning_rate=0.01, weight_decay=0.0, m_structure=8)
    gains, edges = [], []
    for seed in DEBIAS_SEEDS:
        kg = generate_knowledge_graph(SyntheticKGSpec(
            block_count=4, entities_per_block=12, relation_count=2,
            intra_block_edge_probability=0.6, inter_block_edge_probability=0.02,
            missing_fraction=0.3, seed=seed))
        n = kg.num_entities()
        heads, tails = np.triu_indices(n, 1)
        control = _index_from_triples(np.stack([heads, 0 * heads, tails], axis=1), n)
        ring = build_structure_index(kg)
        base, real, blind = (train(TrainConfig(tau=tau, seed=seed, **shared), kg, idx)
                             for tau, idx in ((0.0, ring), (DEBIAS_TAU, ring),
                                              (DEBIAS_TAU, control)))
        if seed < 2:  # an exact identity: two graphs show it
            blind_base = train(TrainConfig(tau=0.0, seed=seed, **shared), kg, control)
            assert np.array_equal(base.model.params, blind_base.model.params)
        gains.append(real.final_valid.mrr - base.final_valid.mrr)
        edges.append(real.final_valid.mrr - blind.final_valid.mrr)
    assert sum(gain > 0 for gain in gains) >= DEBIAS_MIN_WINS, gains
    assert statistics.median(edges) >= DEBIAS_MIN_EDGE, edges
    assert time.monotonic() - started < 600.0


@pytest.mark.parametrize("mode", ["simple", "hard", "hasa", "hasa_plus"])
def test_identical_configs_write_byte_identical_artifacts(tmp_path, mode):
    """Two runs with the same config and seed leave byte-for-byte equal
    checkpoints and training logs, in every loss mode."""
    started = time.monotonic()
    rows = [("e%d" % i, "r%d" % (i % 2), "e%d" % ((i + 3) % 11)) for i in range(11)]
    kg = KnowledgeGraph.from_string_triples(rows, rows[:3], rows[3:5])
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = TrainConfig(loss_mode=mode, aggregator="gru", dim=8,
                          batch_size=4, epochs=3, learning_rate=0.01,
                          weight_decay=1e-4, tau=0.1, m_structure=3, seed=5,
                          eval_every=2, out_dir=str(out))
        train(cfg, kg)
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("checkpoint_final.kge", "checkpoint_best.kge",
                         "train_log.jsonl")
        })
    assert outputs[0] == outputs[1]
    assert time.monotonic() - started < 120.0

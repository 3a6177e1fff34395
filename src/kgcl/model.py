"""Embedding model: entity/relation tables, head-relation aggregators with
hand-written backward passes, sparse gradient accumulation, and a binary
checkpoint format.

The query embedding for a pair (h, r) is produced by one of three
aggregators over the rows e_h and e_r:

  sum   e_hr = e_h + e_r
  mlp   e_hr = tanh(W [e_h; e_r] + b)
  gru   two steps of a GRU cell starting from a zero state, fed e_h then e_r

All math is float64 numpy. Gradients flow into a GradientTape, which keeps
sparse per-row accumulators for the tables and dense accumulators for the
aggregator parameters; the optimizer consumes the coalesced rows.
"""

import math
from dataclasses import dataclass

import numpy as np

AGGREGATOR_KINDS = ("sum", "gru", "mlp")

CHECKPOINT_MAGIC = "KGE"
CHECKPOINT_VERSION = "v1"


def aggregator_param_shapes(kind: str, dim: int) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical parameter order per aggregator kind. Checkpoints and
    initialization both follow this order exactly."""
    if kind == "gru":
        square = (dim, dim)
        vec = (dim,)
        return [
            ("w_z", square), ("u_z", square), ("b_z", vec),
            ("w_r", square), ("u_r", square), ("b_r", vec),
            ("w_n", square), ("u_n", square), ("b_n", vec),
        ]
    if kind == "mlp":
        return [("w", (dim, 2 * dim)), ("b", (dim,))]
    if kind == "sum":
        return []
    raise ValueError(f"unknown aggregator kind {kind!r}, expected one of {AGGREGATOR_KINDS}")


def _views(flat: np.ndarray, shapes: list[tuple[str, tuple[int, ...]]]) -> dict[str, np.ndarray]:
    """{name: view of the next prod(shape) entries of flat}, in order; the
    shapes must cover flat exactly."""
    views, offset = {}, 0
    for name, shape in shapes:
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise ValueError(f"the parameter shapes hold {offset} values, not {flat.size}")
    return views


def _aggregator_size(kind: str, dim: int) -> int:
    return sum(math.prod(shape) for _, shape in aggregator_param_shapes(kind, dim))


class EmbeddingModel:
    """Every parameter lives in one float64 vector, params, in checkpoint
    order: the entity rows, the relation rows, then the aggregator
    parameters in aggregator_param_shapes order. tables is its
    (N + R) x dim row block; entity_table and relation_table are the two
    parts of tables, and aggregator[name] the rest, all views of params."""

    def __init__(self, params: np.ndarray, num_entities: int, num_relations: int, dim: int,
                 kind: str):
        if num_entities < 1 or num_relations < 1 or dim < 1:
            raise ValueError("num_entities, num_relations and dim must all be >= 1")
        rows = num_entities + num_relations
        self.params = params
        self.kind = kind
        self.tables = params[: rows * dim].reshape(rows, dim)
        self.entity_table = self.tables[:num_entities]
        self.relation_table = self.tables[num_entities:]
        self.aggregator = _views(params[rows * dim :], aggregator_param_shapes(kind, dim))

    @property
    def dim(self) -> int:
        return self.tables.shape[1]

    def num_entities(self) -> int:
        return self.entity_table.shape[0]

    def num_relations(self) -> int:
        return self.relation_table.shape[0]

    def copy(self) -> "EmbeddingModel":
        return EmbeddingModel(self.params.copy(), self.num_entities(), self.num_relations(),
                              self.dim, self.kind)


def init_model(
    num_entities: int,
    num_relations: int,
    dim: int,
    kind: str = "gru",
    seed: int = 0,
    init_scale: float = 0.05,
) -> EmbeddingModel:
    """Uniform(-init_scale, init_scale) initialization of params, drawn in
    checkpoint order from one seeded generator, so a seed pins the whole
    model."""
    size = (num_entities + num_relations) * dim + _aggregator_size(kind, dim)
    params = np.random.default_rng(seed).uniform(-init_scale, init_scale, size=size)
    return EmbeddingModel(params, num_entities, num_relations, dim, kind)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; min(x, -x) rather than -abs(x) keeps the
    # sign of a NaN, as the two-branch form does
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass
class AggregationCache:
    """Forward-pass intermediates needed by backward. One cache per batched
    aggregate call; backward may be invoked once or many times on it, each
    call accumulating into the tape."""

    heads: np.ndarray
    relations: np.ndarray
    inputs: tuple = ()


def _gru_cell_forward(x: np.ndarray, h: np.ndarray, p: dict[str, np.ndarray]):
    z = _sigmoid(x @ p["w_z"].T + h @ p["u_z"].T + p["b_z"])
    r = _sigmoid(x @ p["w_r"].T + h @ p["u_r"].T + p["b_r"])
    rh = r * h
    n = np.tanh(x @ p["w_n"].T + rh @ p["u_n"].T + p["b_n"])
    h_new = (1.0 - z) * n + z * h
    return h_new, (x, h, z, r, rh, n)


def _gru_first_cell_forward(x: np.ndarray, p: dict[str, np.ndarray]):
    """The cell from the zero state, whose recurrent products vanish: z and n
    read the input alone, there is no reset gate, and h1 = (1 - z) n."""
    z = _sigmoid(x @ p["w_z"].T + p["b_z"])
    n = np.tanh(x @ p["w_n"].T + p["b_n"])
    return (1.0 - z) * n, (x, z, n)


def _gru_first_cell_backward(d_out: np.ndarray, cache, p: dict[str, np.ndarray], grads: dict):
    """d loss / d x of the first cell, whose state, u_* and reset-gate gradients are 0."""
    x, z, n = cache
    dan = d_out * (1.0 - z) * (1.0 - n * n)
    daz = d_out * (0.0 - n) * z * (1.0 - z)
    grads["w_n"] += dan.T @ x
    grads["b_n"] += dan.sum(axis=0)
    grads["w_z"] += daz.T @ x
    grads["b_z"] += daz.sum(axis=0)
    return dan @ p["w_n"] + daz @ p["w_z"]


def _gru_cell_backward(d_out: np.ndarray, cache, p: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
    x, h, z, r, rh, n = cache
    dn = d_out * (1.0 - z)
    dz = d_out * (h - n)
    dh = d_out * z

    dan = dn * (1.0 - n * n)
    grads["w_n"] += dan.T @ x
    grads["u_n"] += dan.T @ rh
    grads["b_n"] += dan.sum(axis=0)
    dx = dan @ p["w_n"]
    drh = dan @ p["u_n"]
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


def aggregate_batch(
    model: EmbeddingModel, heads: np.ndarray, relations: np.ndarray
) -> tuple[np.ndarray, AggregationCache]:
    """Query embeddings for aligned head/relation id arrays. Returns the
    (n, dim) query matrix and the cache backward needs."""
    heads = np.asarray(heads, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    if heads.shape != relations.shape:
        raise ValueError("heads and relations must have matching shapes")
    _check_ids(heads, model.num_entities(), "entity")
    _check_ids(relations, model.num_relations(), "relation")
    eh = model.entity_table[heads]
    er = model.relation_table[relations]
    p = model.aggregator
    if model.kind == "sum":
        return eh + er, AggregationCache(heads, relations)
    if model.kind == "mlp":
        x = np.concatenate([eh, er], axis=1)
        pre = x @ p["w"].T + p["b"]
        q = np.tanh(pre)
        return q, AggregationCache(heads, relations, inputs=(x, q))
    h1, c1 = _gru_first_cell_forward(eh, p)
    h2, c2 = _gru_cell_forward(er, h1, p)
    return h2, AggregationCache(heads, relations, inputs=(c1, c2))


def _check_ids(ids: np.ndarray, bound: int, what: str) -> None:
    if ids.size and ids.view(np.uint64).max() >= bound:  # a negative id reads as >= 2**63
        raise ValueError(f"{what} id out of range [0, {bound})")


class GradientTape:
    """Sparse gradient accumulator.

    Table gradients are appended as (id array, gradient rows) pairs and
    coalesced on demand; aggregator gradients accumulate densely. A tape is
    used for exactly one optimizer step and then discarded.
    """

    def __init__(self, model: EmbeddingModel):
        self._dim = model.dim
        # per table, the (id arrays, gradient row blocks) added so far
        self._entity: tuple[list, list] = ([], [])
        self._relation: tuple[list, list] = ([], [])
        # the aggregator part of params' gradient, and its views by name
        self.aggregator_grad = np.zeros(model.params.size - model.tables.size)
        shapes = aggregator_param_shapes(model.kind, self._dim)
        self.aggregator = _views(self.aggregator_grad, shapes)

    def _add(self, table: tuple[list, list], ids: np.ndarray, grads: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        grads = np.asarray(grads, dtype=np.float64).reshape(ids.size, self._dim)
        if ids.size:
            table[0].append(ids)
            table[1].append(grads)

    def add_entity(self, ids: np.ndarray, grads: np.ndarray) -> None:
        self._add(self._entity, ids, grads)

    def add_relation(self, ids: np.ndarray, grads: np.ndarray) -> None:
        self._add(self._relation, ids, grads)

    @staticmethod
    def _coalesce(id_chunks, grad_chunks, dim):
        if not id_chunks:
            return np.zeros(0, dtype=np.int64), np.zeros((0, dim))
        ids = np.concatenate(id_chunks)
        grads = np.concatenate(grad_chunks, axis=0)
        # np.unique(ids, return_inverse=True) written out, runs counted from 1
        order = ids.argsort()
        run = ids[order]
        first = np.concatenate(([True], run[1:] != run[:-1]))  # the first id of each run
        inverse, unique = np.empty_like(order), run[first]
        inverse[order] = first.cumsum()
        # one flat bincount adds each cell's rows in row order from 0.0, as
        # np.add.at would; run r's cells are (r - 1) * dim + 0..dim-1
        cells = (inverse[:, None] * dim + np.arange(-dim, 0)).ravel()
        summed = np.bincount(cells, grads.ravel(), minlength=unique.size * dim)
        return unique, summed.reshape(unique.size, dim)

    def entity_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted unique ids, summed gradient rows) for the entity table."""
        return self._coalesce(*self._entity, self._dim)

    def relation_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return self._coalesce(*self._relation, self._dim)


def backward(
    model: EmbeddingModel,
    cache: AggregationCache,
    d_query: np.ndarray,
    tape: GradientTape,
) -> None:
    """Push upstream query gradients through the aggregator into the tape.

    d_query has one row per pair in the forward call. Gradients of loss
    terms that touch tail or negative embeddings directly do not pass
    through here; losses add those rows to the tape themselves.
    """
    if cache is None:
        raise ValueError("backward called without a forward cache")
    d_query = np.asarray(d_query, dtype=np.float64)
    p = model.aggregator
    if model.kind == "sum":
        d_eh = d_query
        d_er = d_query
    elif model.kind == "mlp":
        x, q = cache.inputs
        d_pre = d_query * (1.0 - q * q)
        tape.aggregator["w"] += d_pre.T @ x
        tape.aggregator["b"] += d_pre.sum(axis=0)
        dx = d_pre @ p["w"]
        dim = model.dim
        d_eh = dx[:, :dim]
        d_er = dx[:, dim:]
    else:
        c1, c2 = cache.inputs
        d_er, dh1 = _gru_cell_backward(d_query, c2, p, tape.aggregator)
        d_eh = _gru_first_cell_backward(dh1, c1, p, tape.aggregator)
    tape.add_entity(cache.heads, d_eh)
    tape.add_relation(cache.relations, d_er)


def save_checkpoint(model: EmbeddingModel, path: str) -> None:
    """Write an ASCII header line followed by params as raw little-endian
    float64: entity table, relation table, then aggregator parameters in
    canonical order."""
    header = (
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} "
        f"{model.num_entities()} {model.num_relations()} {model.dim} {model.kind}\n"
    )
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(model.params.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str) -> EmbeddingModel:
    with open(path, "rb") as handle:
        header = handle.readline().decode("ascii").strip()
        parts = header.split(" ")
        if len(parts) != 6 or parts[0] != CHECKPOINT_MAGIC or parts[1] != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} checkpoint")
        num_entities, num_relations, dim = int(parts[2]), int(parts[3]), int(parts[4])
        kind = parts[5]
        expected = (num_entities + num_relations) * dim + _aggregator_size(kind, dim)
        payload = handle.read()
    if len(payload) != expected * 8:
        raise ValueError(
            f"{path}: payload holds {len(payload) // 8} float64 values, expected {expected}"
        )
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return EmbeddingModel(params, num_entities, num_relations, dim, kind)

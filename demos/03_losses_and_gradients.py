"""
The four contrastive losses and their exact gradients
======================================================

"""

import numpy as np

from kgcl.losses import LossConfig, hard_infonce, hasa_loss, hasa_plus_loss, simple_infonce
from kgcl.model import GradientTape, init_model
from kgcl.sampling import NegativeSampleBatch

# A model holds an entity table, a relation table, and an aggregator that
# fuses (head, relation) into a query vector; scores are dot products.
model = init_model(num_entities=8, num_relations=2, dim=6, kind="gru", seed=0)

# A batch is a (B x 3) int64 array of (head, relation, tail) rows.
batch = np.array([[0, 0, 1], [2, 1, 3]])

# Negative material as one row per triple: scored negatives, structure
# samples from the head's hop rings, and the other batch positions as
# competing queries. A -1 cell would mark an empty slot.
negatives = NegativeSampleBatch(
    hard_and_batch_negatives=np.array([[2, 4, 5], [0, 6, 7]]),
    structure_samples=np.array([[4, 1], [6, 6]]),
    negative_contexts=np.array([[1], [0]]),
)

# All four losses share the positive term and differ only in the negative
# mass. tau is the assumed rate of false negatives among the negatives;
# the structure samples estimate the mass those false negatives contribute,
# which is subtracted back out.
cfg = LossConfig(tau=0.1)
for label, value in [
    ("simple ", simple_infonce(batch, negatives, model)),
    ("hard   ", hard_infonce(batch, negatives, model)),
    ("debias ", hasa_loss(batch, negatives, model, cfg)),
    ("debias+", hasa_plus_loss(batch, negatives, model, cfg)),
]:
    print(label, "loss per triple %.6f" % (value.loss / len(batch)),
          " positives %.4f  negatives %.4f" % (value.pos, value.neg))

# Gradients are analytic and land in a sparse tape: only the touched
# entity/relation rows, plus the aggregator parameters.
tape = GradientTape(model)
hasa_loss(batch, negatives, model, cfg, tape)
ids, rows = tape.entity_rows()
print("entity rows touched:", ids.tolist())
print("gradient norm per row:", np.round(np.linalg.norm(rows, axis=1), 4).tolist())

# Spot-check one coordinate against a central finite difference.
entity, coord = 1, 2
step = 1e-6
up = model.copy()
up.entity_table[entity, coord] += step
down = model.copy()
down.entity_table[entity, coord] -= step
numeric = (hasa_loss(batch, negatives, up, cfg).loss
           - hasa_loss(batch, negatives, down, cfg).loss) / (2 * step)
analytic = rows[ids.tolist().index(entity), coord]
print("d loss / d entity[%d][%d]: analytic %.8f vs numeric %.8f"
      % (entity, coord, analytic, numeric))

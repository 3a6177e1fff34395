"""
Sweeping tau: how much debiasing helps
=======================================

"""

import os
import tempfile

from kgcl.synthetic import SyntheticKGSpec, generate_knowledge_graph
from kgcl.training import TrainConfig, sweep_tau, write_sweep_csv

spec = SyntheticKGSpec(
    block_count=4,
    entities_per_block=12,
    relation_count=2,
    intra_block_edge_probability=0.6,
    inter_block_edge_probability=0.02,
    missing_fraction=0.3,
    seed=0,
)
kg = generate_knowledge_graph(spec)

shared = dict(aggregator="sum", dim=16, batch_size=16, epochs=40,
              learning_rate=0.01, weight_decay=0.0, m_structure=8, seed=0)

# One training run per tau; each subdirectory keeps its own checkpoints.
# At tau = 0 the debiased loss keeps no false-negative term: it is the
# hard-negative loss with the self-normalized (eq7) negative mass, so the
# sweep's first row is the baseline the others are read against.
out_dir = tempfile.mkdtemp(prefix="kgcl_demo_sweep_")
cfg = TrainConfig(loss_mode="hasa", out_dir=out_dir, **shared)
rows = sweep_tau(cfg, [0.0, 0.1, 0.2, 0.3], kg)
baseline = rows[0]["mrr"]
print("tau 0 (hard negatives, no debiasing) valid MRR: %.4f" % baseline)

print()
print("  tau    valid MRR   hits@10")
for row in rows[1:]:
    marker = "  (above tau 0)" if row["mrr"] > baseline else ""
    print("  %-5g  %.4f      %.4f%s" % (row["tau"], row["mrr"], row["hit10"], marker))

csv_path = os.path.join(out_dir, "tau_sweep.csv")
write_sweep_csv(rows, csv_path)
print()
print("table written to", csv_path)

"""
Measuring false negatives: hide facts, then watch the samplers find them
========================================================================

"""

from kgcl.sampling import LABELS, bucket_labels, run_false_negative_experiment, split_retain_missing
from kgcl.synthetic import SyntheticKGSpec, generate_knowledge_graph
from kgcl.training import TrainConfig, train

# The experiment: hide a fraction of the train facts, pretrain a scorer on
# what remains, then sample negatives for the retained triples. A sampled
# negative t is a false negative when (h, r, t) is one of the hidden facts.
spec = SyntheticKGSpec(
    block_count=8,
    entities_per_block=12,
    relation_count=2,
    intra_block_edge_probability=0.5,
    inter_block_edge_probability=0.01,
    missing_fraction=0.3,
    seed=0,
)
kg = generate_knowledge_graph(spec)
retain, missing = split_retain_missing(kg.train, 0.3, seed=0)
print("train facts:", len(kg.train), " retained:", len(retain),
      " hidden:", len(missing))

pretrain = TrainConfig(loss_mode="simple", aggregator="sum", dim=16,
                       batch_size=16, epochs=30, learning_rate=0.01,
                       weight_decay=0.0, seed=0)
model = train(pretrain, kg.replace_train(retain)).model

# Compare the in-batch sampler against the model-guided one across K.
k_values = [15, 31, 63]
reports = {
    sampler: run_false_negative_experiment(kg, 0.3, sampler, model,
                                           k_values, seed=0)
    for sampler in ("simple", "hard")
}
print()
print("hidden true facts proposed as negatives:")
for (k, _, simple), (_, _, hard) in zip(reports["simple"].counts, reports["hard"].counts):
    print("  K=%2d   simple %4d   hard %4d   ratio %.2f"
          % (k, simple, hard, hard / max(1, simple)))

# The hidden facts sit close to the head. Each report's histogram counts
# the sampled negatives by label and by hop distance from the head in the
# retained graph; the last bucket pools the cap and beyond with unreachable
# entities. Under the in-batch sampler the false negatives bunch one and
# two hops out while genuine negatives spread much farther, and the
# model-guided sampler finds nearly all of its false negatives within two
# hops.
print()
print("sampled negatives by hops from the head:")
for sampler, report in reports.items():
    print("  %-6s hops  " % sampler
          + "".join("%7s" % bucket for bucket in bucket_labels(report.distance_cap)))
    for label in ("false", "true"):
        print("         %-5s " % label
              + "".join("%7d" % count for count in report.histogram[LABELS.index(label)]))

"""
Measuring false negatives: hide facts, then watch the samplers find them
========================================================================

"""

from kgcl.sampling import run_false_negative_experiment, split_retain_missing
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

# The hidden facts sit close to the head: under the in-batch sampler they
# are markedly nearer than genuine negatives, and the model-guided sampler
# concentrates nearly all the false negatives it digs up within two hops.
print()
for sampler, report in reports.items():
    print("%s sampler: mean distance of false %.2f vs true %.2f, "
          "%.0f%% of false within 2 hops"
          % (sampler, report.mean_distance("false"),
             report.mean_distance("true"),
             100 * report.fraction_within("false", 2)))

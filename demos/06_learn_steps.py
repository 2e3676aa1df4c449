"""Learning a two-part classifier for the steps-and-sinusoids case.

Rising steps start low and climb to a high plateau; the label-0 traces
(falling steps and assorted sinusoids) each imitate part of that behavior but
never all of it.  Separating them takes a conjunction: start below a
threshold AND eventually exceed another.  The search has to reach length-4
templates, so this run takes about 40 seconds.
"""
from stlmine import LearnerConfig, gen_steps_and_sinusoids, learn, mcr, split_dataset

ds = gen_steps_and_sinusoids(seed=0)  # 10 rising (label 1), 18 others (label 0)
train, test = split_dataset(ds, 0.5, seed=0)
print(f"train {train.n} traces, test {test.n} traces")

# threshold 0.05 means: no more than 5% of the training traces misclassified;
# with 14 label-0 training traces that demands a perfect separation
result = learn(train, cfg=LearnerConfig(threshold=0.05))
c = result.classifier
print("learned:", c.formula)
print("template:", c.template)
print(f"train mcr {c.mcr:.3f}, test mcr {mcr(c.formula, test):.3f}")
print(f"{result.stats.templates_tried} templates tried, "
      f"{result.stats.templates_pruned} pruned, "
      f"{result.stats.boundary_points} boundary points, "
      f"{result.stats.elapsed_s:.0f} s")

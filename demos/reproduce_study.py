"""
Running the benchmark study in miniature
========================================

Executes a shrunk copy of the full estimator comparison (fewer dims,
fewer replicates) and exports the same CSV artifacts the command line
produces. The full study is one command:

    sparse-ou reproduce --out-dir study/

(its wall time on a 2-CPU host is in the README's ``reproduce`` section);
this miniature finishes in a few seconds.
"""

import os
import tempfile

from sparse_ou.experiments import (
    ExperimentPlan,
    export_figure_data,
    run_experiment,
    summarize,
)

plan = ExperimentPlan(
    dims=(5, 8, 11),
    replicates=3,
    n_paths=200,
    n_train=160,
    heatmap_dims=(5,),
)
report = run_experiment(plan, threads=os.cpu_count() or 1)

for line in summarize(report):
    print(line)

out_dir = os.path.join(tempfile.mkdtemp(), "mini_study")
outputs = export_figure_data(report, out_dir)
print()
print("wrote %d files to %s" % (len(outputs), out_dir))
for path in outputs[:5]:
    print("  ", os.path.basename(path))
print("   ...")

# rows.csv holds one row per (dim, replicate, estimator); the curve files
# aggregate means and standard deviations per dim, ready for plotting; the
# heatmap files dump raw and display-compressed drift matrices for the
# requested dims.

// Figure 4: performance improvement of SALIENT over the standard PyG
// workflow, one machine / one GPU, GraphSAGE fanout (15,10,5).
//
// REAL rows: full end-to-end epochs of both systems (this repository's real
// loaders, device streams, training loops) on scaled datasets on this
// machine. The measured speedup here is dominated by the sampler and the
// IPC emulation (one core: worker parallelism and transfer/compute overlap
// cannot manifest as wall-clock gains).
// SIMULATED rows: the calibrated cluster simulator with the paper-testbed
// profile, where all three optimizations contribute, reproducing the 3x.
#include "bench_common.h"
#include "core/system.h"
#include "sim/pipeline_model.h"

int main() {
  using namespace salient;
  using namespace salient::benchutil;
  const double scale = env_scale();

  heading("Figure 4 (paper): per-epoch time, PyG vs SALIENT (1 GPU)");
  {
    TablePrinter t({"Data Set", "PyG", "SALIENT", "Speedup"});
    t.add_row({"arxiv", "1.7s", "0.5s", "3.4x"});
    t.add_row({"products", "8.6s", "2.8s", "3.1x"});
    t.add_row({"papers", "50.4s", "16.5s", "3.1x"});
    t.print();
  }

  heading("Figure 4 (REAL, this machine, scaled datasets)");
  {
    TablePrinter t({"Data Set", "PyG-style", "SALIENT", "Speedup"});
    struct Spec {
      const char* preset;
      double scale;
    };
    for (const Spec spec : {Spec{"arxiv-sim", 0.2 * scale},
                            Spec{"products-sim", 0.1 * scale}}) {
      auto run = [&](LoaderKind kind) {
        SystemConfig cfg;
        cfg.dataset = spec.preset;
        cfg.dataset_scale = spec.scale;
        // A narrow hidden layer keeps the epoch preparation-bound, which is
        // the regime where the real (single-core-visible) SALIENT gains —
        // faster sampler, no IPC copies — show up in wall clock.
        cfg.hidden_channels = 16;
        cfg.batch_size = 512;
        cfg.num_workers = 2;
        cfg.loader_kind = kind;
        System sys(cfg);
        sys.train_epoch();  // warm-up
        return sys.train_epoch().epoch_seconds;
      };
      const double pyg = run(LoaderKind::kBaseline);
      const double sal = run(LoaderKind::kSalient);
      t.add_row({spec.preset, fmt(pyg, 2) + "s", fmt(sal, 2) + "s",
                 fmt(pyg / sal, 2) + "x"});
    }
    t.print();
  }

  heading("Figure 4 (SIMULATED, paper testbed, full-scale workloads)");
  {
    TablePrinter t({"Data Set", "PyG", "SALIENT", "Speedup"});
    for (const char* name : {"arxiv", "products", "papers"}) {
      const sim::WorkloadModel w = sim::paper_workload(name);
      const double pyg =
          sim::simulate_epoch(w, sim::HwProfile{}, sim::SystemOptions::pyg(),
                              20, 1)
              .epoch_seconds;
      const double sal = sim::simulate_epoch(w, sim::HwProfile{},
                                             sim::SystemOptions::salient(),
                                             20, 1)
                             .epoch_seconds;
      t.add_row({name, fmt(pyg, 2) + "s", fmt(sal, 2) + "s",
                 fmt(pyg / sal, 2) + "x"});
    }
    t.print();
  }
  return 0;
}

#include "catalog.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"rows_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<const char*> kLayers = {"workload", "sim", "common", "dse",
                                          "ml",       "engine", "net"};

const std::vector<MetricSpec> kPerLayer = {
    {"workload.synth_s", "s"},
    {"workload.simpoint_s", "s"},
    {"workload.reduced_instr", "count"},
    {"sim.busy_s", "s"},
    {"sim.ns_per_instr", "ns"},
    {"sim.config_ms_p50", "ms"},
    {"sim.config_ms_p99", "ms"},
    {"sim.cycles_checksum", "cycles"},
    {"sim.ipc_mean", "ratio"},
    {"sim.l1d_miss_rate_mean", "ratio"},
    {"sim.l2_miss_rate_mean", "ratio"},
    {"sim.dtlb_miss_rate_mean", "ratio"},
    {"sim.mispredict_rate_mean", "ratio"},
    {"pool.utilization", "ratio"},
    {"pool.queue_wait_us", "us"},
    {"json.parse_us_p50", "us"},
    {"dse.sampler_random_s", "s"},
    {"dse.sampler_adaptive_s", "s"},
    {"dse.evaluate_s", "s"},
    {"dse.cell_parallelism", "ratio"},
    {"dse.cells", "count"},
    {"dse.cell_failures", "count"},
    {"ml.cv_s.LR-B", "s"},
    {"ml.cv_s.NN-E", "s"},
    {"ml.cv_s.NN-S", "s"},
    {"ml.fit_s.LR-B", "s"},
    {"ml.fit_s.NN-E", "s"},
    {"ml.fit_s.NN-S", "s"},
    {"ml.predict_rows_per_s", "1/s"},
    {"engine.handle_us_p50", "us"},
    {"engine.handle_us_p99", "us"},
    {"engine.predict_us_p50", "us"},
    {"engine.handle_share", "ratio"},
    {"engine.session.coalesced", "count"},
    {"net.wait_us_p50", "us"},
    {"net.wait_us_p99", "us"},
    {"net.bytes_per_request", "B"},
    {"net.shed", "count"},
    {"net.io_errors", "count"},
    {"process.cpu_s", "s"},
    {"trace.attributed_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.self_s.workload", "s"},
    {"trace.self_s.sim", "s"},
    {"trace.self_s.common", "s"},
    {"trace.self_s.dse", "s"},
    {"trace.self_s.ml", "s"},
    {"trace.self_s.engine", "s"},
    {"trace.self_s.net", "s"},
};

}  // namespace perfbench

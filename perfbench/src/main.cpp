// Repo benchmark entry point: runs one named workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1), each as {"value": v, "unit": u}.  The line before it holds
// the run's deterministic counters.  A failed output check prints the
// result with "correct": false and exits 1; a usage or set-up error exits
// 2 without a result.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Report;

struct MetricOut {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

std::vector<MetricOut> end_to_end(const Report& r) {
  const double ops_per_s = r.wall_s > 0 ? r.ops / r.wall_s : 0.0;
  const double attempted = static_cast<double>(r.attempted);
  return {
      {"setup_s", perfbench::median(r.setup_s), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"latency_p50_ms", perfbench::percentile(r.latency_ms, 50), "ms"},
      {"latency_tail_ms", perfbench::percentile(r.latency_ms, r.tail_pct),
       "ms"},
      {"cost_total", r.cost_total, "cost"},
      {"gap_pct_mean", r.gap_pct_mean, "%"},
      {"peak_rss_mb", perfbench::peak_rss_mb(), "MiB"},
      {"success_pct",
       attempted > 0
           ? 100.0 * (attempted - static_cast<double>(r.failed)) / attempted
           : 0.0,
       "%"},
  };
}

/// Every per-layer metric, in a fixed order; a layer a workload does not
/// exercise reads 0.
std::vector<MetricOut> per_layer(const Report& r) {
  static const std::vector<std::pair<const char*, const char*>> timed = {
      {"model.instance_build_ms", "ms"},
      {"core.genetic_ms", "ms"},
      {"core.annealing_ms", "ms"},
      {"core.aligned_dp_ms", "ms"},
      {"core.coord_descent_ms", "ms"},
      {"core.greedy_ms", "ms"},
      {"core.lower_bound_ms", "ms"},
      {"core.hierarchical_ms", "ms"},
      {"core.member_waste_pct", "%"},
      {"engine.portfolio_overhead_ms", "ms"},
      {"cache.key_ms", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"cache.hit_latency_ms", "ms"},
      {"io.render_ms", "ms"},
      {"service.handle_line_ms", "ms"},
      {"service.parse_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.dispatch_wait_ms", "ms"},
      {"streaming.append_us", "us"},
      {"streaming.resolve_ms", "ms"},
  };
  static const std::vector<std::string> counters = [] {
    std::vector<std::string> names;
    for (const std::string& member : perfbench::member_names()) {
      names.push_back(perfbench::wins_counter(member));
    }
    for (const char* name :
         {"core.segments", "cache.hits", "cache.misses", "cache.coalesced",
          "cache.evictions", "io.response_bytes", "service.rejects",
          "streaming.resolves", "streaming.publications"}) {
      names.emplace_back(name);
    }
    return names;
  }();
  std::vector<MetricOut> out;
  for (const auto& [name, unit] : timed) {
    const auto it = r.layers.find(name);
    out.push_back({name, it == r.layers.end() ? 0.0 : it->second, unit});
  }
  for (const std::string& name : counters) {
    const auto it = r.counters.find(name);
    out.push_back({name,
                   it == r.counters.end() ? 0.0
                                          : static_cast<double>(it->second),
                   "count"});
  }
  const double untraced = r.wall_s > 0 ? r.ops / r.wall_s : 0.0;
  out.push_back({"support.pool_busy_pct", r.pool_busy_pct, "%"});
  out.push_back({"trace.overhead_pct",
                 untraced > 0 ? 100.0 * (1.0 - r.traced_ops_per_s / untraced)
                              : 0.0,
                 "%"});
  return out;
}

void print_result(const Report& r, bool trace) {
  std::string counters = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : r.counters) {
    counters += (first ? "\"" : ",\"") + name + "\":" + std::to_string(value);
    first = false;
  }
  std::cout << counters << "}}\n";

  const std::vector<MetricOut> metrics = trace ? per_layer(r) : end_to_end(r);
  std::string line = std::string("{\"correct\": ") +
                     (r.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  std::cout << line << "}}" << std::endl;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "batch_full|serve_fast|stream_fleet|long_trace --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (!have_workload || options.seconds <= 0) return usage("missing flags");

  static const std::vector<
      std::pair<const char*, std::function<Report(const perfbench::Options&)>>>
      workloads = {{"batch_full", perfbench::run_batch_full},
                   {"serve_fast", perfbench::run_serve_fast},
                   {"stream_fleet", perfbench::run_stream_fleet},
                   {"long_trace", perfbench::run_long_trace}};
  for (const auto& [name, run] : workloads) {
    if (options.workload != name) continue;
    Report report;
    try {
      report = run(options);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", name, error.what());
      return 2;
    }
    for (const std::string& error : report.errors) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
    }
    print_result(report, options.trace);
    return report.failed == 0 ? 0 : 1;
  }
  return usage(("unknown workload " + options.workload).c_str());
}

#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

std::map<std::string, SpanTotals> aggregate(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] += span.dur_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i].name];
      t.count += 1;
      t.total_ms += static_cast<double>(spans[i].dur_ns) / 1e6;
      t.self_ms += static_cast<double>(spans[i].dur_ns - child_ns[i]) / 1e6;
    }
  }
  return totals;
}

}  // namespace

std::int64_t SpanLog::begin(const char* name, std::uint64_t request,
                            std::int64_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ns = ns_between(epoch_, Clock::now());
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.dur_ns = ns_between(epoch_, Clock::now()) - span.start_ns;
}

std::int64_t SpanLog::add(const char* name, std::uint64_t request,
                          std::int64_t parent, Clock::time_point start,
                          Clock::time_point stop, SpanSource source) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ns = ns_between(epoch_, start);
  span.dur_ns = ns_between(start, stop);
  span.source = source;
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanLog::add_reported(const char* name, std::uint64_t request,
                                   std::int64_t parent, double dur_ms) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.dur_ns = static_cast<std::int64_t>(dur_ms * 1e6);
  span.source = SpanSource::kReported;
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, SpanTotals> collect(
    const Options& options, const std::vector<const SpanLog*>& logs) {
  if (!options.spans_path.empty()) {
    std::ofstream out(options.spans_path);
    if (!out) {
      throw std::runtime_error("cannot write spans to " + options.spans_path);
    }
    for (std::size_t t = 0; t < logs.size(); ++t) {
      for (const Span& span : logs[t]->spans()) {
        out << "{\"thread\":" << t << ",\"name\":\"" << span.name
            << "\",\"request\":" << span.request
            << ",\"parent\":" << span.parent << ",\"start_ns\":"
            << span.start_ns << ",\"dur_ns\":" << span.dur_ns
            << ",\"source\":\"" << static_cast<char>(span.source) << "\"}\n";
      }
    }
  }
  return aggregate(logs);
}

const char* member_span(const std::string& member) {
  if (member == "aligned-dp") return "core.aligned_dp";
  if (member == "greedy-w8") return "core.greedy";
  if (member == "coord-descent") return "core.coord_descent";
  if (member == "genetic") return "core.genetic";
  if (member == "annealing") return "core.annealing";
  throw std::runtime_error("no per-layer span for portfolio member '" +
                           member + "'");
}

double self_ms_per(const std::map<std::string, SpanTotals>& totals,
                   const std::string& name, double ops) {
  const auto it = totals.find(name);
  return it == totals.end() || ops <= 0 ? 0.0 : it->second.self_ms / ops;
}

}  // namespace perfbench

// tdp_trace — offline analyzer for traces exported by tdp::obs.
//
//   TDP_OBS=1 TDP_OBS_TRACE=run.json ./some_tdp_program
//   tdp_trace run.json
//
// Prints per-VP utilization with a blocking breakdown (compute vs time
// blocked in receive vs selective-receive misses) and, for each distributed
// call in the trace, the critical path: the longest chain of causally-linked
// spans recovered from the flow ids the runtime stamps into every message.
//
// The `why` subcommand explains one slow call from an exemplar document
// (the exposition server's `slow` verb, or a flight dump's
// <prefix>.slow.json):
//
//   tdp_trace why <call-id> slow.json    # a specific retained call
//   tdp_trace why slowest slow.json      # the slowest retained call
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/analyze.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <trace.json> [more-traces.json...]\n"
      << "       " << argv0 << " why <call-id|slowest> <slow.json>\n"
      << "  analyzes a Chrome trace exported by tdp::obs\n"
      << "  (capture one with TDP_OBS=1 TDP_OBS_TRACE=<path>)\n"
      << "  several traces merge before analysis: pass every rank's file\n"
      << "  from a multi-process run (tdp_trace tdp_trace.rank*.json) and\n"
      << "  cross-process sends pair with their remote receives by flow id\n"
      << "  `why` explains one slow call from an exemplar document\n"
      << "  (TDP_OBS_SLOW_MS + the `slow` socket verb, or <dump>.slow.json)\n";
  return 2;
}

int run_why(const std::string& which, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "tdp_trace: cannot open " << path << "\n";
    return 1;
  }
  std::vector<tdp::obs::CallExemplar> exemplars;
  std::string error;
  std::uint64_t slow_ms = 0;
  if (!tdp::obs::load_exemplars(in, exemplars, &error, &slow_ms)) {
    std::cerr << "tdp_trace: failed to parse " << path << ": " << error
              << "\n";
    return 1;
  }
  if (exemplars.empty()) {
    std::cerr << "tdp_trace: no exemplars in " << path
              << (slow_ms == 0
                      ? " (TDP_OBS_SLOW_MS was not set in the producer)"
                      : "")
              << "\n";
    return 1;
  }
  const tdp::obs::CallExemplar* chosen = nullptr;
  if (which == "slowest") {
    chosen = &exemplars.front();  // document order is slowest-first
    for (const tdp::obs::CallExemplar& ex : exemplars) {
      if (ex.latency_ns > chosen->latency_ns) chosen = &ex;
    }
  } else {
    const std::uint64_t id =
        static_cast<std::uint64_t>(std::strtoull(which.c_str(), nullptr, 10));
    for (const tdp::obs::CallExemplar& ex : exemplars) {
      if (ex.call_id == id) {
        chosen = &ex;
        break;
      }
    }
    if (chosen == nullptr) {
      std::cerr << "tdp_trace: call " << which << " not among the "
                << exemplars.size() << " retained exemplars (ids:";
      for (const tdp::obs::CallExemplar& ex : exemplars) {
        std::cerr << " " << ex.call_id;
      }
      std::cerr << ")\n";
      return 1;
    }
  }
  tdp::obs::write_why_report(std::cout, *chosen);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") return usage(argv[0]);
    args.push_back(arg);
  }
  if (!args.empty() && args[0] == "why") {
    if (args.size() != 3) return usage(argv[0]);
    return run_why(args[1], args[2]);
  }
  if (args.empty()) return usage(argv[0]);

  // One file is the single-process case; several merge into one event set
  // before analysis — the per-rank traces of a TDP_TRANSPORT=uds run.
  // Flow pairing matches "s"/"f" endpoints by id, and ids are unique
  // across a launch (obs::next_flow_id folds the rank in), so a send in
  // rank 0's file pairs with its receive in rank 3's.  Per-rank clocks
  // have independent epochs: pairing and per-VP utilization are exact,
  // cross-rank latencies are not comparable.
  std::vector<tdp::obs::LoadedEvent> events;
  for (const std::string& path : args) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "tdp_trace: cannot open " << path << "\n";
      return 1;
    }
    std::vector<tdp::obs::LoadedEvent> file_events;
    std::string error;
    tdp::obs::TraceMeta meta;
    if (!tdp::obs::load_chrome_trace(in, file_events, &error, &meta)) {
      std::cerr << "tdp_trace: failed to parse " << path << ": " << error
                << "\n";
      return 1;
    }
    if (meta.present && meta.truncated()) {
      // Loudly, before the report: every number below describes a partial
      // run.
      std::cerr << "tdp_trace: WARNING: " << path
                << ": flight-recorder trace — the oldest " << meta.overwritten
                << " of " << meta.recorded
                << " events were overwritten; the report covers only the "
                   "most recent window\n";
    }
    events.insert(events.end(),
                  std::make_move_iterator(file_events.begin()),
                  std::make_move_iterator(file_events.end()));
  }
  const tdp::obs::TraceReport report = tdp::obs::analyze_trace(events);
  tdp::obs::write_report(std::cout, report);
  return 0;
}

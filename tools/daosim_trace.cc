// daosim_trace — critical-path analysis of a trace dump.
//
// Ingests the chrome-trace JSON written by `daosim_run --trace` (or a bench
// binary under DAOSIM_TRACE) and answers "where did the ops spend their
// time": per-op-type p50/p95/p99 station breakdowns with the queue-wait vs
// service split, tail exemplar leg trees, folded stacks for flamegraph.pl /
// speedscope, and a per-station A/B diff of two runs.
//
//   daosim_trace breakdown trace.json
//   daosim_trace exemplars --top 3 trace.json
//   daosim_trace folded trace.json > run.folded
//   daosim_trace diff before.json after.json
//
// Exits non-zero (with no partial output) on missing files or a trace
// schema this build does not understand.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/trace_reader.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s COMMAND [options] FILE.json [FILE2.json]\n"
      "Critical-path analysis of a daosim trace dump (daosim_run --trace,\n"
      "or DAOSIM_TRACE with the bench binaries).\n"
      "commands:\n"
      "  breakdown FILE        per-op-type p50/p95/p99 station breakdown\n"
      "                        (queue-wait vs service; sums == span)\n"
      "  exemplars FILE        slowest ops per type with full leg trees\n"
      "  folded FILE           folded-stack flamegraph lines to stdout\n"
      "  diff FILE_A FILE_B    per-station comparison of two runs\n"
      "  hops FILE             cross-node ops: node (pid) chains in visit\n"
      "                        order with per-hop send-leg latencies\n"
      "options:\n"
      "  --top N               exemplar count per op type, or detailed op\n"
      "                        count for hops (default 5)\n",
      argv0);
  std::exit(2);
}

/// --top N: a whole decimal number >= 1. Anything else (a sign, trailing
/// junk such as "3x", an out-of-range value) prints usage and exits 2.
int parseTop(const char* argv0, const char* text) {
  const char* end = text + std::strlen(text);
  int n = 0;
  const auto [ptr, ec] = std::from_chars(text, end, n);
  if (ec != std::errc{} || ptr != end || n < 1) {
    std::fprintf(stderr,
                 "invalid value for --top: '%s' (want a whole number >= 1)\n",
                 text);
    usage(argv0);
  }
  return n;
}

/// Cross-node op report: ops whose legs touch more than one trace pid
/// (node), the node chain in first-visit order, and every "send" leg's
/// latency.
void writeHops(std::ostream& os, const daosim::obs::TraceDump& d,
               std::size_t top) {
  using daosim::obs::OpRecord;
  using daosim::obs::TraceEvent;
  struct Hopper {
    const OpRecord* op;
    std::vector<int> chain;  // pids in first-visit order
  };
  std::vector<Hopper> multi;
  for (const OpRecord& op : d.ops) {
    // Legs are stored in record order; visit order is by leg start time.
    std::vector<const TraceEvent*> legs;
    for (const TraceEvent& l : op.legs) legs.push_back(&l);
    std::stable_sort(legs.begin(), legs.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->ts < b->ts;
                     });
    Hopper h{&op, {}};
    auto visit = [&](daosim::obs::TrackId t) {
      if (t >= d.tracks.size()) return;
      const int pid = d.tracks[t].pid;
      if (h.chain.empty() || h.chain.back() != pid) h.chain.push_back(pid);
    };
    visit(op.track);
    for (const TraceEvent* l : legs) visit(l->track);
    std::vector<int> uniq = h.chain;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    if (uniq.size() > 1) multi.push_back(std::move(h));
  }
  os << multi.size() << " of " << d.ops.size()
     << " ops cross nodes (legs on more than one pid)\n";
  if (multi.empty()) return;
  std::stable_sort(multi.begin(), multi.end(),
                   [](const Hopper& a, const Hopper& b) {
                     return a.op->dur > b.op->dur;
                   });
  std::size_t shown = 0;
  for (const Hopper& h : multi) {
    if (shown++ >= top) break;
    const OpRecord& op = *h.op;
    os << "\n" << op.type << " seq " << op.seq << "  start " << op.start
       << " ns  dur " << op.dur << " ns\n  nodes:";
    for (std::size_t i = 0; i < h.chain.size(); ++i) {
      os << (i == 0 ? " " : " -> ") << h.chain[i];
    }
    os << "\n";
    for (const TraceEvent& l : op.legs) {
      if (l.name == nullptr || std::strcmp(l.name, "send") != 0) continue;
      const int pid =
          l.track < d.tracks.size() ? d.tracks[l.track].pid : -1;
      os << "  send @ node " << pid << ": ts " << l.ts << " ns, dur "
         << l.dur << " ns (wait " << l.wait << " ns)\n";
    }
  }
  if (multi.size() > shown) {
    os << "\n(" << multi.size() - shown
       << " more; raise --top to list them)\n";
  }
}

daosim::obs::TraceDump load(const std::string& file) {
  std::ifstream is(file);
  if (!is) {
    std::fprintf(stderr, "daosim_trace: cannot open %s\n", file.c_str());
    std::exit(1);
  }
  return daosim::obs::parseChromeTrace(is);
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  std::size_t top = 5;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto value = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--top") {
      top = static_cast<std::size_t>(parseTop(argv[0], value()));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    } else if (command.empty()) {
      command = arg;
    } else {
      files.push_back(arg);
    }
  }
  const std::size_t want_files = command == "diff" ? 2 : 1;
  if (command.empty() || files.size() != want_files) usage(argv[0]);
  if (command != "breakdown" && command != "exemplars" &&
      command != "folded" && command != "diff" && command != "hops") {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    usage(argv[0]);
  }

  try {
    using namespace daosim::obs;
    // Parse everything up front, then print: a schema error after partial
    // output would defeat the non-zero-exit contract.
    const TraceDump a = load(files[0]);
    const auto stations_a = stationNames(a.tracks);
    std::ostringstream out;
    if (command == "breakdown") {
      writeCriticalPath(out, a.ops, stations_a);
    } else if (command == "exemplars") {
      writeExemplars(out, a.ops, stations_a, top);
    } else if (command == "folded") {
      writeFoldedStacks(out, a.ops, stations_a);
    } else if (command == "hops") {
      writeHops(out, a, top);
    } else {  // diff
      const TraceDump b = load(files[1]);
      writeStationDiff(out, a.ops, stations_a, b.ops, stationNames(b.tracks));
    }
    std::cout << out.str();
    if (a.dropped_opens != 0) {
      std::fprintf(stderr,
                   "daosim_trace: note: %zu op span(s) never ended "
                   "(run cut off mid-op); they are excluded\n",
                   a.dropped_opens);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daosim_trace: %s\n", e.what());
    return 1;
  }
}

// daosim_metrics — bottleneck report from a telemetry dump.
//
// Reads a schema-versioned CSV written by `daosim_run --telemetry` (or a
// bench binary under DAOSIM_TELEMETRY), attributes utilization per station
// class, and prints which layer bounds the run plus per-component tables
// and straggler flags. The simulated analogue of pointing `daos_metrics`
// at a busy engine.
//
//   daosim_metrics telem.csv
//   daosim_metrics --top 20 telem.csv
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/telemetry_reader.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--top N] FILE.csv\n"
               "Prints a bottleneck/utilization report from a telemetry CSV\n"
               "dump (daosim_run --telemetry, or DAOSIM_TELEMETRY with the\n"
               "bench binaries). --top N controls the hottest-component\n"
               "table length (default 10).\n",
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

}  // namespace

int main(int argc, char** argv) {
  int top_n = 10;
  std::string file;
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
      top_n = parseTop(argv[0], value());
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else if (file.empty() && arg[0] != '-') {
      file = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (file.empty()) usage(argv[0]);
  try {
    std::ifstream is(file);
    if (!is) {
      std::fprintf(stderr, "daosim_metrics: cannot open %s\n", file.c_str());
      return 1;
    }
    const daosim::obs::TelemetryDump dump =
        daosim::obs::parseTelemetryCsv(is);
    daosim::obs::writeReport(std::cout, daosim::obs::analyze(dump), top_n);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daosim_metrics: %s\n", e.what());
    return 1;
  }
}

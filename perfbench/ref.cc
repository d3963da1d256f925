// perfbench_ref: a fixed reference workload that measures how fast the host
// runs right now, and prints its own time in seconds on stdout.
//
// The host's speed drifts over seconds and minutes on a shared machine, so
// perfbench/run.py times this program next to every driver sample and
// scales the sample's host times to a fixed reference speed. The work is a
// std::map of 300k random keys, inserted then looked up: allocation and
// pointer chasing, like the simulator's own data structures. It does not
// link the daosim library, so no change to the library can change it.
//
//   perfbench_ref
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>

int main() {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint64_t kKeys = 300000;
  constexpr std::uint64_t kMix = 0x9E3779B97F4A7C15ULL;
  const Clock::time_point t0 = Clock::now();
  std::map<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < kKeys; ++i) m[(i * kMix) >> 20] = i;
  std::uint64_t found = 0;
  for (std::uint64_t i = 0; i < kKeys; i += 3) found += m.count((i * kMix) >> 20);
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("%.9f %llu\n", s, static_cast<unsigned long long>(found));
  return found == (kKeys + 2) / 3 ? 0 : 1;
}

// Seeded CL001 violation a token regex cannot see: the chrono clock is
// hidden behind a `using` alias, so no *_clock::now() token ever appears.
// cliquelint expands the alias before matching.
#include <chrono>
#include <cstdint>

namespace ccq {

using Clock = std::chrono::steady_clock;

std::uint64_t nondeterministic_stamp() {
  const auto t0 = Clock::now();
  return static_cast<std::uint64_t>(t0.time_since_epoch().count());
}

}  // namespace ccq

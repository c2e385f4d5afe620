// Unit checks of the benchmark's percentile and answer-oracle helpers.
// Exits non-zero on the first failed check; registered with CTest by
// perfbench/CMakeLists.txt.

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "measure.hpp"

namespace {

int failures = 0;

void check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

perfbench::LatencyHistogram one_to(std::size_t n) {
  perfbench::LatencyHistogram h;
  for (std::size_t i = n; i >= 1; --i) h.add(static_cast<double>(i));  // any order
  return h;
}

bool near(std::optional<double> v, double want) {
  return v && std::fabs(*v - want) <= 0.005 * want;
}

void percentiles() {
  const auto h = one_to(1000);
  check(h.count() == 1000, "count");
  check(near(h.percentile(0.50), 500.0), "p50 of 1..1000 is the 500th value");
  check(near(h.percentile(0.99), 990.0), "p99 of 1..1000 is the 990th value (10 samples beyond)");
  check(!one_to(999).percentile(0.99), "p99 of 999 samples has only 9 beyond: refused");
  check(!one_to(19).percentile(0.50), "p50 of 19 samples has only 9 beyond: refused");
  check(near(one_to(20).percentile(0.50), 10.0), "p50 of 20 samples is the 10th value");
  check(near(one_to(21).percentile(0.50), 11.0), "p50 of 21 samples is the 11th value");
  check(!perfbench::LatencyHistogram{}.percentile(0.5), "empty histogram has no percentile");

  // Non-Ok answers count as +inf: 20 of 1000 push the p99 to infinity.
  auto failed = one_to(980);
  for (int i = 0; i < 20; ++i) failed.add(std::numeric_limits<double>::infinity());
  check(failed.count() == 1000, "inf samples are counted");
  check(near(failed.percentile(0.50), 500.0), "p50 ignores the failed tail");
  check(failed.percentile(0.99) && std::isinf(*failed.percentile(0.99)), "p99 lands on +inf");

  auto merged = one_to(500);
  merged.merge(one_to(500));
  check(merged.count() == 1000 && near(merged.percentile(0.50), 250.0), "merge adds counts");
  check(near(one_to(100).percentile(0.50), 50.0) && near(one_to(20000).percentile(0.99), 19800.0),
        "0.5 % buckets hold across magnitudes");

  check(perfbench::median({3, 1, 2}) == 2.0, "median of odd count");
  check(perfbench::median({4, 1, 2, 3}) == 2.5, "median of even count");
}

void sort_oracle() {
  using absort::BitVec;
  check(perfbench::sort_answer_ok(BitVec::parse("0011"), 4, 2), "sorted, same popcount");
  check(!perfbench::sort_answer_ok(BitVec::parse("0101"), 4, 2), "unsorted answer rejected");
  check(!perfbench::sort_answer_ok(BitVec::parse("0111"), 4, 2), "popcount change rejected");
  check(!perfbench::sort_answer_ok(BitVec::parse("011"), 4, 2), "short answer rejected");
}

void permute_oracle() {
  const std::vector<std::uint16_t> dest = {2, 0, 3, 1};    // input i goes to output dest[i]
  const std::vector<std::uint32_t> good = {1, 3, 0, 2};    // output j receives input good[j]
  const std::vector<std::uint32_t> swapped = {3, 1, 0, 2};
  const std::vector<std::uint32_t> short_src = {1, 3, 0};
  const std::vector<std::uint32_t> out_of_range = {1, 3, 0, 7};
  const auto ok = [&](const std::vector<std::uint32_t>& src) {
    return perfbench::permute_answer_ok(std::span<const std::uint32_t>(src),
                                        std::span<const std::uint16_t>(dest));
  };
  check(ok(good), "inverse permutation accepted");
  check(!ok(swapped), "two swapped outputs rejected");
  check(!ok(short_src), "short answer rejected");
  check(!ok(out_of_range), "out-of-range source rejected");
}

}  // namespace

int main() {
  percentiles();
  sort_oracle();
  permute_oracle();
  if (failures) return EXIT_FAILURE;
  std::printf("perf_unit: all checks passed\n");
  return EXIT_SUCCESS;
}

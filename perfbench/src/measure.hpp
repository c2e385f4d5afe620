#pragma once
// Measurement helpers shared by the measuring process and its unit checks:
// a fixed-memory latency histogram whose percentiles refuse to extrapolate,
// the answer oracles every measured request goes through, and the process
// probes.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "absort/util/bitvec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Samples that must lie strictly above a reported percentile.
inline constexpr std::size_t kMinTail = 10;

[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Fixed-memory latency histogram: log-spaced buckets 0.5 % wide from
/// 0.01 us up, plus a bucket for +inf (a refused or failed request, which
/// misses every latency goal).  Memory does not grow with the request count,
/// so the benchmark's own bookkeeping stays out of peak_rss_mb.
///
/// percentile(q) takes the nearest-rank sample (rank ceil(q * count)) and
/// returns a value inside that sample's bucket, within 0.5 % of the exact
/// value.
/// It is empty unless at least kMinTail samples lie above that rank, so a
/// p99 needs at least 1000 samples and a p50 at least 20.
class LatencyHistogram {
 public:
  void add(double us) {
    ++total_;
    if (!std::isfinite(us)) return;  // counted in total_ only: ranks past every bucket
    const std::size_t b = bucket(us);
    if (b >= counts_.size()) counts_.resize(b + 1, 0);
    ++counts_[b];
  }

  void merge(const LatencyHistogram& o) {
    if (o.counts_.size() > counts_.size()) counts_.resize(o.counts_.size(), 0);
    for (std::size_t b = 0; b < o.counts_.size(); ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  [[nodiscard]] std::optional<double> percentile(double q) const {
    if (total_ == 0 || !(q > 0.0) || q > 1.0) return std::nullopt;
    const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_) - 1e-9));
    const std::uint64_t idx = rank == 0 ? 0 : rank - 1;
    if (total_ - 1 - idx < kMinTail) return std::nullopt;
    std::uint64_t below = 0;  // samples in the buckets before b
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      if (below + counts_[b] > idx) {
        if (b == 0) return kMinUs;
        // Spread the bucket's samples evenly (in log space) across its range
        // [kMinUs * g^(b-1), kMinUs * g^b), so the result is not stuck on a
        // few bucket values.
        const double frac = (static_cast<double>(idx - below) + 0.5) / static_cast<double>(counts_[b]);
        return kMinUs * std::pow(kGrowth, static_cast<double>(b - 1) + frac);
      }
      below += counts_[b];
    }
    return std::numeric_limits<double>::infinity();
  }

 private:
  static constexpr double kMinUs = 0.01;
  static constexpr double kGrowth = 1.005;

  static std::size_t bucket(double us) {
    if (us <= kMinUs) return 0;
    return 1 + static_cast<std::size_t>(std::log(us / kMinUs) / std::log(kGrowth));
  }

  std::vector<std::uint64_t> counts_;  ///< finite samples per bucket
  std::uint64_t total_ = 0;            ///< finite and infinite samples
};

/// Median of a small sample (no tail rule: used for repeated timings).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Sort oracle: the 0-1 answer is complete when it has the input's length,
/// is sorted, and keeps the input's population count.
[[nodiscard]] inline bool sort_answer_ok(const absort::BitVec& out, std::size_t n,
                                         std::size_t ones) {
  return out.size() == n && out.is_sorted_ascending() && out.count_ones() == ones;
}

/// Permute oracle: output_source inverts dest (output_source[dest[i]] == i).
template <typename Src, typename Dest>
[[nodiscard]] bool permute_answer_ok(std::span<const Src> output_source,
                                     std::span<const Dest> dest) {
  if (output_source.size() != dest.size()) return false;
  for (std::size_t i = 0; i < dest.size(); ++i) {
    const auto d = static_cast<std::size_t>(dest[i]);
    if (d >= output_source.size() || static_cast<std::size_t>(output_source[d]) != i) return false;
  }
  return true;
}

/// Peak resident set of this process in MiB.
[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// User + system CPU time this process has used, in microseconds.
[[nodiscard]] inline double cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Live threads of this process (the Threads: line of /proc/self/status).
[[nodiscard]] inline int thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

}  // namespace perfbench

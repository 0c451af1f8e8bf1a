// Result accounting and the one-line JSON result.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Named measurements plus the operation tally of one run.
class Report {
 public:
  struct Value {
    double value = 0;
    std::string unit;
  };

  /// Records a metric; a value that is not finite invalidates the run.
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const { return metrics_.at(name).value; }
  const std::map<std::string, Value>& metrics() const { return metrics_; }

  /// Counts `n` operations; each one either succeeds or is passed to Fail.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Records one failed or wrong operation, with a note for stderr.
  void Fail(const std::string& why);
  /// Marks the whole run incorrect without counting an operation (a drifted
  /// fingerprint, a build that did not validate).
  void Invalidate(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

  /// The result object, restricted to `names` (all of which must be set).
  std::string Json(const std::vector<std::string>& names) const;

 private:
  std::map<std::string, Value> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  uint64_t notes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

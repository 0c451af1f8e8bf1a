#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

double PeakRssMb() {
  // VmHWM is the peak of this program's own address space. getrusage's
  // ru_maxrss also holds the peak of the process that started this one,
  // which a build process would report as its own.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    uint64_t kib = 0;
    if (key == "VmHWM:" && status >> kib) {
      return static_cast<double>(kib) / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) Invalidate("metric " + name + " is not finite");
  metrics_[name] = Value{std::isfinite(value) ? value : 0.0, unit};
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (notes_++ < 20) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

void Report::Invalidate(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "INCORRECT: %s\n", why.c_str());
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Value& v = metrics_.at(names[i]);
    std::snprintf(buf, sizeof(buf), "%.17g", v.value);
    out += (i == 0 ? "\"" : ", \"") + names[i] + "\": {\"value\": " + buf +
           ", \"unit\": \"" + v.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

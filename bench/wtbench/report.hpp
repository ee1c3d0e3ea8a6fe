// Metric collection and output: one `name value unit` line per metric on
// stdout, and JSON encodings for the results file and the final line.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace wtbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void PrintLines() const {
    for (const Metric& m : metrics_) {
      std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string Json() const {
    std::string out = "{";
    for (const Metric& m : metrics_) {
      if (out.size() > 1) out += ", ";
      char num[64];
      // Non-finite values cannot be JSON numbers; none is expected, and
      // one that slips through reads as an obviously wrong huge value.
      std::snprintf(num, sizeof(num), "%.17g",
                    std::isfinite(m.value) ? m.value : 1e300);
      out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace wtbench

// Tiny machine-readable result sink shared by the benchmark drivers: a
// flat JSON array of {benchmark, circuit, threads, metric, value} records,
// one per measured number, so CI can archive and diff benchmark runs
// without scraping the human-oriented tables. A record with `text` set
// carries a string value, e.g. the build type a run was measured with.
//
//   [
//     {"benchmark": "bench_throughput", "circuit": "s1423", "threads": 4,
//      "metric": "qps_b8", "value": 1234.5},
//     ...
//   ]
//
// Header-only on purpose: the bench/ directory has no library target.
#pragma once

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <cmath>

namespace sddict::bench {

struct JsonRecord {
  JsonRecord(std::string benchmark_, std::string circuit_,
             std::size_t threads_, std::string metric_, double value_,
             std::string text_ = {})
      : benchmark(std::move(benchmark_)),
        circuit(std::move(circuit_)),
        threads(threads_),
        metric(std::move(metric_)),
        value(value_),
        text(std::move(text_)) {}

  std::string benchmark;  // driver name, e.g. "bench_throughput"
  std::string circuit;    // benchmark circuit the number was measured on
  std::size_t threads = 0;  // thread count of the configuration (0 = n/a)
  std::string metric;     // e.g. "qps_b8", "kernel_speedup", "sim_s"
  double value = 0;
  std::string text;       // when set, written as the value instead
};

namespace detail {

inline void append_json_string(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace detail

// Serializes the records and writes them to `path`, overwriting any
// previous run's file. Throws std::runtime_error on I/O failure. Non-finite
// values become JSON null (JSON has no NaN/Inf).
inline void write_bench_json(const std::string& path,
                             const std::vector<JsonRecord>& records) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out += "  {\"benchmark\": ";
    detail::append_json_string(&out, r.benchmark);
    out += ", \"circuit\": ";
    detail::append_json_string(&out, r.circuit);
    out += ", \"threads\": " + std::to_string(r.threads);
    out += ", \"metric\": ";
    detail::append_json_string(&out, r.metric);
    out += ", \"value\": ";
    if (!r.text.empty()) {
      detail::append_json_string(&out, r.text);
    } else if (std::isfinite(r.value)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.9g", r.value);
      out += buf;
    } else {
      out += "null";
    }
    out += i + 1 < records.size() ? "},\n" : "}\n";
  }
  out += "]\n";

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  f.flush();
  if (!f) throw std::runtime_error("failed to write " + path);
}

}  // namespace sddict::bench

#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "distance/simd.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace hostbench {

namespace {
std::string StampJson(const Args& args);
}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // inf - inf would be NaN: an infinite neighbour wins outright.
  if (frac == 0 || v[lo] == v[hi]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.major_faults = ru.ru_majflt;
  u.minor_faults = ru.ru_minflt;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t request) {
  if (!enabled_) return;
  const double s = std::chrono::duration<double, std::micro>(start - epoch_).count();
  const double e = std::chrono::duration<double, std::micro>(end - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{request, name, s, e});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::map<std::string, double> Tracer::SecondsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += (s.end_us - s.start_us) * 1e-6;
  return out;
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  f << "[";
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\":" << JsonString(s.name)
      << ",\"request\":" << s.request
      << ",\"start_us\":" << JsonNumber(s.start_us)
      << ",\"end_us\":" << JsonNumber(s.end_us) << "}";
  }
  f << "\n]\n";
  f.flush();
  return static_cast<bool>(f);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Check(bool ok, const std::string& what) {
  Ops(1, ok ? 0 : 1);
  if (!ok) std::fprintf(stderr, "hostbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::Detail(const std::string& key, const std::string& json_value) {
  details_.push_back({key, json_value});
}
void Report::Detail(const std::string& key, double value) {
  details_.push_back({key, JsonNumber(value)});
}
void Report::DetailString(const std::string& key, const std::string& value) {
  details_.push_back({key, JsonString(value)});
}

void Report::Print(const Args& args) const {
  std::ostringstream detail;
  detail << "{\"report\": {\"workload\": " << JsonString(args.workload)
         << ", \"trace\": " << (args.trace ? "true" : "false")
         << ", \"stamp\": " << StampJson(args);
  for (const auto& [k, v] : details_) detail << ", " << JsonString(k) << ": " << v;
  detail << "}}";
  std::printf("%s\n", detail.str().c_str());

  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<size_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(v.value) << ", \"unit\": " << JsonString(v.unit) << "}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Environment stamp: CPU model, nproc, SIMD tier, compiler, build type,
/// commit, seed, and CAGRA_FORCE_SCALAR when set — as a JSON object.
std::string StampJson(const Args& args) {
  std::ostringstream s;
  s << "{\"cpu\": " << JsonString(CpuModel())
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"simd\": " << JsonString(cagra::SimdLevelName(cagra::ActiveSimdLevel()))
    << ", \"compiler\": " << JsonString(Compiler())
    << ", \"build_type\": " << JsonString(HOSTBENCH_BUILD_TYPE)
    << ", \"commit\": " << JsonString(args.commit) << ", \"seed\": " << args.seed
    << ", \"seconds\": " << JsonNumber(args.seconds)
    << ", \"host_threads\": " << kHostThreads;
  if (const char* forced = std::getenv("CAGRA_FORCE_SCALAR")) {
    s << ", \"CAGRA_FORCE_SCALAR\": " << JsonString(forced);
  }
  s << "}";
  return s.str();
}

}  // namespace

}  // namespace hostbench

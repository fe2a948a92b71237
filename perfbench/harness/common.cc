#include "perfbench/harness/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include <malloc.h>
#include <unistd.h>

namespace perfbench {

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double TailPercentile(const std::vector<double>& v, double* pct) {
  for (const double p : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) {
      *pct = p;
      return Quantile(v, p / 100.0);
    }
  }
  *pct = 0;
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double RssMb() {
  std::ifstream in("/proc/self/statm");
  double size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

double HeapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ms = MsSince(origin_);
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::Close(int index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ms = MsSince(origin_);
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Add(const std::string& name, double duration_ms) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.op = op_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.end_ms = MsSince(origin_);
  s.start_ms = s.end_ms - duration_ms;
  spans_.push_back(std::move(s));
}

void Tracer::Value(const std::string& name, double value) {
  if (enabled_) values_.push_back({op_, {name, value}});
}

std::vector<double> Tracer::PerOpValues(const std::string& name) const {
  std::map<int, double> per_op;
  for (const auto& [op, kv] : values_) {
    if (kv.first == name) per_op[op] += kv.second;
  }
  std::vector<double> out;
  for (const auto& [op, total] : per_op) out.push_back(total);
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\":" << i << ",\"name\":\"" << JsonEscape(s.name)
        << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"start_ms\":" << JsonNumber(s.start_ms)
        << ",\"end_ms\":" << JsonNumber(s.end_ms) << "}\n";
  }
  for (const auto& [op, kv] : values_) {
    out << "{\"value\":\"" << JsonEscape(kv.first) << "\",\"op\":" << op
        << ",\"v\":" << JsonNumber(kv.second) << "}\n";
  }
  return static_cast<bool>(out);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace perfbench

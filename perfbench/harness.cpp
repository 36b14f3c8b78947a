#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans -----------------------------------------------------------------

int SpanLog::open(const std::string& name) {
  Span s;
  s.name = name;
  s.start_ns = nowNs();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
  if (!stack_.empty() && stack_.back() == index) {
    stack_.pop_back();
  }
}

void SpanLog::add(const std::string& name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  spans_.push_back(std::move(s));
}

double SpanLog::totalMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.ms();
    }
  }
  return total;
}

double SpanLog::selfMs(int index) const {
  double self = spans_[static_cast<std::size_t>(index)].ms();
  for (const Span& s : spans_) {
    if (s.parent == index) {
      self -= s.ms();
    }
  }
  return self;
}

bool writeSpansJson(const std::string& path,
                    const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  // Span ids are global across logs; a parent refers to an id.
  out << "[\n";
  std::int64_t base = 0;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      const std::int64_t id =
          base + static_cast<std::int64_t>(&s - log.spans().data());
      out << (id == 0 ? "" : ",\n") << "{\"id\":" << id << ",\"name\":\""
          << jsonEscape(s.name) << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"op\":" << s.op
          << ",\"parent\":"
          << (s.parent < 0 ? std::string("null")
                           : std::to_string(base + s.parent))
          << "}";
    }
    base += static_cast<std::int64_t>(log.spans().size());
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

TailStat tailPercentile(std::vector<double> samples, std::size_t min_beyond) {
  TailStat t;
  t.samples = samples.size();
  if (samples.empty()) {
    return t;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n < min_beyond + 1) {
    t.value = samples.back();
    t.percentile = 100.0;
    t.beyond = 0;
    return t;
  }
  const std::size_t k = n - 1 - min_beyond;
  t.value = samples[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  t.beyond = n - 1 - k;
  t.qualified = true;
  return t;
}

// ---- host speed ----------------------------------------------------------

double calibrationKernelMs() {
  struct Ev {
    double t;
    std::uint32_t slot;
  };
  const auto later = [](const Ev& a, const Ev& b) { return a.t > b.t; };
  std::vector<double> state(1u << 16, 0.0);
  std::vector<Ev> heap;
  heap.reserve(4096);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::int64_t t0 = nowNs();
  for (std::uint32_t i = 0; i < 2048; ++i) {
    heap.push_back({static_cast<double>(next() % 1000), i});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  for (int step = 0; step < 100000; ++step) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Ev ev = heap.back();
    heap.pop_back();
    const std::uint64_t r = next();
    double& cell = state[(ev.slot * 2654435761u + r) & 0xffffu];
    cell = cell * 0.5 + ev.t;
    ev.t += 1.0 + static_cast<double>(r % 997);
    ev.slot = static_cast<std::uint32_t>(r >> 40);
    heap.push_back(ev);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  double sink = 0.0;
  for (const double v : state) {
    sink += v;
  }
  // The sum reaches the result only through a branch never taken, so the
  // kernel cannot be optimised away.
  return static_cast<double>(nowNs() - t0) * 1e-6 + (sink < 0.0 ? sink : 0.0);
}

// ---- failure accounting ----------------------------------------------------

void FailureLedger::fail(const std::string& kind, const std::string& detail) {
  ++failed_;
  auto [it, inserted] = kinds_.try_emplace(kind, 0, detail);
  (void)inserted;
  ++it->second.first;
}

double FailureLedger::failedPct() const {
  return attempted_ == 0 ? 0.0
                         : 100.0 * static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

// ---- metric naming ---------------------------------------------------------

namespace {
bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}
}  // namespace

bool validMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool validUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

// ---- outcome digests ------------------------------------------------------

Digest& Digest::add(const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  text_ += key;
  text_ += '=';
  text_ += buf;
  text_ += '\n';
  return *this;
}

Digest& Digest::add(const char* key, std::uint64_t v) {
  text_ += key;
  text_ += '=';
  text_ += std::to_string(v);
  text_ += '\n';
  return *this;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string twinMismatch(const Digest& traced, const Digest& untraced) {
  if (traced.str() == untraced.str()) {
    return {};
  }
  std::istringstream a(traced.str());
  std::istringstream b(untraced.str());
  std::string la;
  std::string lb;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga || !gb || la != lb) {
      return "traced '" + (ga ? la : std::string("<end>")) +
             "' vs untraced '" + (gb ? lb : std::string("<end>")) + "'";
    }
  }
}

// ---- JSON ------------------------------------------------------------------

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench

// Unit tests of the benchmark's own logic. Run by perfbench/run.py
// before every workload; exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<double>(n - i));  // descending: sort is needed
  }
  return v;
}

void testTailPercentile() {
  // 1000 samples 1..1000: index 989 (value 990) has exactly 10 beyond.
  TailStat t = tailPercentile(ramp(1000));
  EXPECT(t.qualified);
  EXPECT(t.value == 990.0);
  EXPECT(t.beyond == 10);
  EXPECT(t.samples == 1000);
  EXPECT(std::fabs(t.percentile - 99.0) < 1e-12);

  // The smallest qualifying sample count: 11 samples, the minimum is the
  // only value with ten beyond it.
  t = tailPercentile(ramp(11));
  EXPECT(t.qualified);
  EXPECT(t.value == 1.0);
  EXPECT(t.beyond == 10);

  // 10 samples: nothing has ten beyond; fall back to the maximum.
  t = tailPercentile(ramp(10));
  EXPECT(!t.qualified);
  EXPECT(t.value == 10.0);
  EXPECT(t.beyond == 0);

  // Ties: the selected order statistic still leaves ten samples after it.
  std::vector<double> ties(30, 5.0);
  ties.push_back(9.0);
  t = tailPercentile(ties);
  EXPECT(t.qualified);
  EXPECT(t.value == 5.0);
  EXPECT(t.beyond == 10);

  EXPECT(!tailPercentile({}).qualified);
}

void testFailureLedger() {
  FailureLedger l;
  EXPECT(l.failedPct() == 0.0);  // nothing attempted is not a failure
  for (int i = 0; i < 40; ++i) {
    l.attempt();
  }
  l.fail("oracle-violation", "seed 220");
  EXPECT(l.attempted() == 40);
  EXPECT(l.failed() == 1);
  EXPECT(std::fabs(l.failedPct() - 2.5) < 1e-12);
  l.attempt();
  l.fail("oracle-violation", "seed 401");
  l.attempt();
  l.fail("twin-mismatch", "op 3");
  EXPECT(l.failed() == 3);
  EXPECT(l.kinds().at("oracle-violation").first == 2);
  EXPECT(l.kinds().at("oracle-violation").second == "seed 220");
  EXPECT(l.kinds().at("twin-mismatch").first == 1);
  EXPECT(std::fabs(l.failedPct() - 300.0 / 42.0) < 1e-12);
}

void testMetricNames() {
  EXPECT(validMetricName("op_ms.p50"));
  EXPECT(validMetricName("missed_pct.predictive"));
  EXPECT(validMetricName("common.parallel.busy_frac"));
  EXPECT(validMetricName("0ms-x"));
  EXPECT(validMetricName(std::string(64, 'a')));
  EXPECT(!validMetricName(std::string(65, 'a')));
  EXPECT(!validMetricName(""));
  EXPECT(!validMetricName(".hidden"));
  EXPECT(!validMetricName("_x"));
  EXPECT(!validMetricName("op ms"));
  EXPECT(!validMetricName("op/ms"));
  EXPECT(!validMetricName("op%"));
  EXPECT(validUnit("ms"));
  EXPECT(validUnit("1/s"));
  EXPECT(validUnit("%"));
  EXPECT(validUnit("MiB"));
  EXPECT(!validUnit(""));
  EXPECT(!validUnit("per second"));
  EXPECT(!validUnit(std::string(17, 's')));
}

void testTwinMismatch() {
  Digest a;
  a.add("missed_pct", 3.25).add("replicate", std::uint64_t{7});
  Digest b;
  b.add("missed_pct", 3.25).add("replicate", std::uint64_t{7});
  EXPECT(twinMismatch(a, b).empty());
  EXPECT(fnv1a(a.str()) == fnv1a(b.str()));

  // One ulp apart is a mismatch: outcomes are compared bit for bit.
  Digest c;
  c.add("missed_pct", std::nextafter(3.25, 4.0))
      .add("replicate", std::uint64_t{7});
  const std::string diff = twinMismatch(c, a);
  EXPECT(!diff.empty());
  EXPECT(diff.find("missed_pct") != std::string::npos);
  EXPECT(fnv1a(a.str()) != fnv1a(c.str()));

  // A missing trailing field is a mismatch too.
  Digest d;
  d.add("missed_pct", 3.25);
  EXPECT(!twinMismatch(d, a).empty());
  EXPECT(!twinMismatch(a, d).empty());
}

void testSpans() {
  SpanLog log(3);
  const int op = log.open("op");
  const int child = log.open("apps.Scenario");
  log.close(child);
  log.add("core.replicate", log.spans()[1].end_ns, log.spans()[1].end_ns + 5);
  log.close(op);
  EXPECT(log.spans().size() == 3);
  EXPECT(log.spans()[1].parent == 0);
  EXPECT(log.spans()[2].parent == 0);
  EXPECT(log.spans()[2].op == 3);
  EXPECT(std::fabs(log.totalMs("core.replicate") - 5e-6) < 1e-12);
  EXPECT(log.selfMs(op) <= log.spans()[0].ms());
}

}  // namespace

int main() {
  testTailPercentile();
  testFailureLedger();
  testMetricNames();
  testTwinMismatch();
  testSpans();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}

// ampc_lint's own tests: every rule id must fire on its fixture under
// tests/lint_fixtures/, every rule must be silenced by a justified
// allow annotation, and the real tree must lint clean (the same check
// the `ampc_lint` ctest and the CI lint job run, kept here too so a
// plain test binary reproduces the gate).
#include "ampc_lint.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace ampc::lint {
namespace {

#ifndef AMPC_SOURCE_ROOT
#error "build must define AMPC_SOURCE_ROOT"
#endif

Report FixtureReport() {
  Options options;
  options.root = std::string(AMPC_SOURCE_ROOT) + "/tests/lint_fixtures";
  return Run(options);
}

// violations/suppressions per rule id.
struct RuleCounts {
  int violations = 0;
  int suppressed = 0;
};

std::map<std::string, RuleCounts> CountByRule(const Report& report) {
  std::map<std::string, RuleCounts> counts;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.suppressed) {
      counts[d.rule].suppressed++;
    } else {
      counts[d.rule].violations++;
    }
  }
  return counts;
}

TEST(AmpcLintTest, EveryRuleFiresOnItsFixture) {
  const Report report = FixtureReport();
  ASSERT_GT(report.files_scanned, 0) << "fixture tree missing";
  const auto counts = CountByRule(report);
  for (const RuleInfo& rule : Rules()) {
    const auto it = counts.find(rule.id);
    ASSERT_NE(it, counts.end()) << rule.id << " never fired on any fixture";
    EXPECT_GT(it->second.violations, 0)
        << rule.id << " has no unsuppressed fixture violation";
  }
}

TEST(AmpcLintTest, EveryRuleIsSilencedByItsAllowAnnotation) {
  const auto counts = CountByRule(FixtureReport());
  for (const RuleInfo& rule : Rules()) {
    const auto it = counts.find(rule.id);
    ASSERT_NE(it, counts.end());
    EXPECT_GT(it->second.suppressed, 0)
        << rule.id << " has no suppressed fixture case";
  }
}

TEST(AmpcLintTest, SuppressedFindingsCarryTheirJustification) {
  const Report report = FixtureReport();
  int suppressed = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (!d.suppressed) continue;
    ++suppressed;
    EXPECT_FALSE(d.justification.empty())
        << d.file << ":" << d.line << " [" << d.rule << "]";
  }
  EXPECT_GT(suppressed, 0);
}

TEST(AmpcLintTest, DiagnosticsAreClangStyleAndSorted) {
  const Report report = FixtureReport();
  ASSERT_FALSE(report.diagnostics.empty());
  const Diagnostic& first = report.diagnostics.front();
  const std::string line = first.ToString();
  EXPECT_NE(line.find(first.file + ":" + std::to_string(first.line) + ": "),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("[" + first.rule + "]"), std::string::npos) << line;
  EXPECT_TRUE(std::is_sorted(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        return a.file < b.file || (a.file == b.file && a.line < b.line);
      }));
}

TEST(AmpcLintTest, MalformedAnnotationsAreErrorsThemselves) {
  const Report report = FixtureReport();
  int malformed = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == "bad-suppression" && !d.suppressed) ++malformed;
  }
  // bad_suppression_bad.cc carries one of each malformation: missing
  // justification, unknown rule id, and a non-allow directive.
  EXPECT_EQ(malformed, 3);
}

TEST(AmpcLintTest, ScopeChecksKeepNonOutputAffectingPathsQuiet) {
  const Report report = FixtureReport();
  for (const Diagnostic& d : report.diagnostics) {
    // The identical unordered-map iteration placed under tools/ must not
    // fire: only output-affecting paths carry the determinism burden.
    EXPECT_NE(d.file, "tools/unordered_iter_tool.cc") << d.ToString();
    // The gated and annotation-silenced microbenches stay clean/quiet.
    EXPECT_NE(d.file, "bench/micro_gate_ok.cc") << d.ToString();
    if (d.file == "bench/micro_gate_allowed.cc") {
      EXPECT_TRUE(d.suppressed);
    }
  }
}

TEST(AmpcLintTest, GuardedAndGrandfatheredMetricsAreClean) {
  const Report report = FixtureReport();
  for (const Diagnostic& d : report.diagnostics) {
    if (d.file != "src/sim/metric_bad.cc") continue;
    // Only the unguarded new counter may fire — the zero-rate-guarded
    // counter and the grandfathered "rounds" write are conventions-clean.
    EXPECT_EQ(d.rule, "metric-zero-guard") << d.ToString();
    EXPECT_NE(d.message.find("shiny_new_counter"), std::string::npos)
        << d.ToString();
  }
}

// A machine's query caches take no lock, so core code must take them
// from the round's MachineContext: the direct ForMachine and
// QueryCacheFor handouts fire, and the same reads through the context
// stay clean.
TEST(AmpcLintTest, QueryCacheHandoutsGoThroughTheMachineContext) {
  const Report report = FixtureReport();
  std::vector<int> flagged_lines;
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_NE(d.file, "src/core/cache_direct_ok.cc") << d.ToString();
    if (d.file != "src/core/cache_direct_bad.cc") continue;
    EXPECT_EQ(d.rule, "core-store-direct") << d.ToString();
    EXPECT_FALSE(d.suppressed) << d.ToString();
    EXPECT_NE(d.message.find("MachineContext::DerivedCache"),
              std::string::npos)
        << d.ToString();
    flagged_lines.push_back(d.line);
  }
  // caches.ForMachine(...) and store.QueryCacheFor(...).
  EXPECT_EQ(flagged_lines, (std::vector<int>{10, 11}));
}

// det-rand bans the C library's time() and clock(), not a lambda or
// variable of that name that the file declares itself; the libc calls in
// det_rand_bad.cc are still reported.
TEST(AmpcLintTest, LocalsNamedLikeLibcCallsAreNotReported) {
  const Report report = FixtureReport();
  std::vector<std::string> libc_calls;
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_NE(d.file, "src/core/det_rand_local_ok.cc") << d.ToString();
    if (d.file != "src/core/det_rand_bad.cc" || d.rule != "det-rand") continue;
    for (const char* call : {"time()", "clock()"}) {
      if (d.message.starts_with(call)) libc_calls.push_back(call);
    }
  }
  EXPECT_EQ(libc_calls, (std::vector<std::string>{"time()", "clock()"}));
}

TEST(AmpcLintTest, JsonReportIsWellFormedAndComplete) {
  const Report report = FixtureReport();
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"errors\": " + std::to_string(report.errors())),
            std::string::npos);
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(json.find(std::string("\"id\": \"") + rule.id + "\""),
              std::string::npos)
        << rule.id;
  }
  // Suppressed findings stay in the report, marked as such.
  EXPECT_NE(json.find("\"suppressed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"justification\": "), std::string::npos);
}

TEST(AmpcLintTest, MissingTreeYieldsEmptyReport) {
  Options options;
  options.root = std::string(AMPC_SOURCE_ROOT) + "/no/such/tree";
  const Report report = ::ampc::lint::Run(options);
  EXPECT_EQ(report.files_scanned, 0);
  EXPECT_EQ(report.errors(), 0);
}

// The integration gate: the real tree must be clean. Identical to what
// `make lint`, the `ampc_lint` ctest, and the CI lint job enforce.
TEST(AmpcLintTest, RealTreeIsClean) {
  Options options;
  options.root = AMPC_SOURCE_ROOT;
  const Report report = ::ampc::lint::Run(options);
  ASSERT_GT(report.files_scanned, 100) << "scan missed the tree";
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_TRUE(d.suppressed) << d.ToString();
  }
  EXPECT_EQ(report.errors(), 0);
}

}  // namespace
}  // namespace ampc::lint

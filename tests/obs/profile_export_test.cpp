// EngineScope profile export: folded-stack reconstruction from interval
// nesting, the independent grammar validator, and the unified ops report.
#include "obs/profile_export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/engine_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/tenant_ledger.hpp"
#include "obs/trace.hpp"

namespace gv {
namespace {

TraceEvent make_event(const char* category, const char* name,
                      std::uint64_t start_ns, std::uint64_t dur_ns,
                      double tid = 0.0, bool async = false) {
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.async = async;
  ev.add_arg("tid", tid);
  return ev;
}

std::map<std::string, std::uint64_t> parse_folded(const std::string& folded) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream is(folded);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    out[line.substr(0, space)] = std::stoull(line.substr(space + 1));
  }
  return out;
}

TEST(FoldedProfile, SelfTimeIsDurationMinusChildren) {
  // tid 0:  root [0,1000)
  //           child [100,400)  with leaf [150,200)
  //           child [500,600)            (same frame, second visit: merges)
  std::vector<TraceEvent> events;
  events.push_back(make_event("serve", "root", 0, 1000));
  events.push_back(make_event("serve", "child", 100, 300));
  events.push_back(make_event("serve", "leaf", 150, 50));
  events.push_back(make_event("serve", "child", 500, 100));

  const std::string folded = folded_profile(events);
  std::string err;
  EXPECT_TRUE(validate_folded(folded, &err)) << err;

  const auto lines = parse_folded(folded);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines.at("tid_0;serve/root"), 600u);  // 1000 - 300 - 100
  EXPECT_EQ(lines.at("tid_0;serve/root;serve/child"), 350u);  // 250 + 100
  EXPECT_EQ(lines.at("tid_0;serve/root;serve/child;serve/leaf"), 50u);
}

TEST(FoldedProfile, ThreadsFoldIndependentlyAndAsyncIsSkipped) {
  std::vector<TraceEvent> events;
  events.push_back(make_event("a", "x", 0, 100, /*tid=*/0));
  events.push_back(make_event("a", "x", 0, 100, /*tid=*/1));
  // An async queue-wait overlapping both stacks must not corrupt either.
  events.push_back(make_event("a", "wait", 10, 500, /*tid=*/0, /*async=*/true));
  const auto lines = parse_folded(folded_profile(events));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines.at("tid_0;a/x"), 100u);
  EXPECT_EQ(lines.at("tid_1;a/x"), 100u);
}

TEST(FoldedProfile, StructuralCharactersAreSanitized) {
  std::vector<TraceEvent> events;
  events.push_back(make_event("cat", "bad name;x", 0, 10));
  const std::string folded = folded_profile(events);
  EXPECT_NE(folded.find("tid_0;cat/bad_name_x 10"), std::string::npos);
  std::string err;
  EXPECT_TRUE(validate_folded(folded, &err)) << err;
}

TEST(FoldedProfile, OverhangingChildIsClampedToItsParent) {
  // The child claims to end 20 ns past its parent (ns-granularity skew);
  // the builder trims it so the parent's self time never underflows.
  std::vector<TraceEvent> events;
  events.push_back(make_event("s", "parent", 0, 100));
  events.push_back(make_event("s", "child", 50, 70));
  const auto lines = parse_folded(folded_profile(events));
  EXPECT_EQ(lines.at("tid_0;s/parent"), 50u);
  EXPECT_EQ(lines.at("tid_0;s/parent;s/child"), 50u);
}

TEST(FoldedProfile, ValidatorRejectsMalformedLinesAndEmptyProfiles) {
  std::string err;
  EXPECT_TRUE(validate_folded("root;a/b 10\nroot;a/b;c 5\n", &err)) << err;
  // Empty: the CI gate must notice a silently-disabled recorder.
  EXPECT_FALSE(validate_folded("", &err));
  EXPECT_FALSE(validate_folded("no_count\n", &err));
  EXPECT_FALSE(validate_folded("stack 12x\n", &err));
  EXPECT_FALSE(validate_folded("a;;b 10\n", &err));  // empty frame
  EXPECT_FALSE(validate_folded(" 10\n", &err));      // empty stack
}

TEST(FoldedProfile, LiveRecorderRoundTrip) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  {
    TraceSpan outer("profile_test", "outer");
    TraceSpan inner("profile_test", "inner");
  }
  rec.set_enabled(false);
  const std::string folded = folded_profile_snapshot();
  std::string err;
  EXPECT_TRUE(validate_folded(folded, &err)) << err;
  EXPECT_NE(folded.find("profile_test/outer"), std::string::npos);
}

TEST(OpsReport, LiveAndCachedDocumentsValidate) {
  // A live probe makes the engines array non-trivial.
  EngineProbe probe(MetricsRegistry::global(), "ops-test");
  const std::string live = ops_report();
  std::string err;
  EXPECT_TRUE(validate_ops_report(live, &err)) << err;
  EXPECT_NE(live.find("\"schema\":\"gnnvault.ops_report.v1\""),
            std::string::npos);
  EXPECT_NE(live.find("\"engine\":\"ops-test\""), std::string::npos);

  const std::string cached = ops_report_cached();
  EXPECT_TRUE(validate_ops_report(cached, &err)) << err;
}

TEST(OpsReport, ValidatorIsIndependentOfTheWriter) {
  std::string err;
  EXPECT_FALSE(validate_ops_report("{}", &err));
  EXPECT_FALSE(validate_ops_report("not json", &err));
  // Truncation must not validate.
  std::string doc = ops_report();
  doc.resize(doc.size() / 2);
  EXPECT_FALSE(validate_ops_report(doc, &err));
  // A wrong schema tag must not validate.
  std::string wrong = ops_report();
  const auto pos = wrong.find("gnnvault.ops_report.v1");
  ASSERT_NE(pos, std::string::npos);
  wrong.replace(pos, 22, "gnnvault.ops_report.v9");
  EXPECT_FALSE(validate_ops_report(wrong, &err));
}

TEST(OpsReport, ValidatorDecodesStringEscapes) {
  // Regression: the independent reader used to push the escape LETTER
  // ("\n" decoded to 'n') and drop \u payloads entirely, so an escaped
  // string compared wrong against schema/name checks.  The schema tag
  // spelled with escapes must still validate...
  std::string doc = ops_report();
  const std::string plain = "\"gnnvault.ops_report.v1\"";
  const auto pos = doc.find(plain);
  ASSERT_NE(pos, std::string::npos);
  std::string escaped = "\"\\u0067nnvault.ops_report.v1\"";  // \u0067 == 'g'
  doc.replace(pos, plain.size(), escaped);
  std::string err;
  EXPECT_TRUE(validate_ops_report(doc, &err)) << err;
  // ...an invalid escape must not...
  std::string bad = doc;
  bad.replace(bad.find(escaped), escaped.size(),
              "\"\\qnnvault.ops_report.v1\"");
  EXPECT_FALSE(validate_ops_report(bad, &err));
  // ...and a tenant name exercising every escape class (quote, backslash,
  // newline, control char) survives writer-escape + reader-decode intact.
  auto& ledger = TenantLedger::global();
  int owner = 0;
  ledger.register_provider(&owner, "quo\"te\\back\nline\x01ctl", [] {
    TenantUsage u;
    u.ecalls = 1;
    return u;
  });
  const std::string report = ops_report();
  EXPECT_TRUE(validate_ops_report(report, &err)) << err;
  ledger.unregister(&owner);
}

TEST(OpsReport, ControlCharacterLabelsStayValidJson) {
  // Regression: the metrics and time-series writers escaped only '"' and
  // '\\', so a tenant named "line\nbreak" (the registry admits any
  // non-empty name, and TenantLedger::publish files it as a `tenant` label)
  // put a raw newline inside a JSON string, and the lenient reader accepted
  // it.
  const std::string tenant = "line\nbreak";
  auto& ledger = TenantLedger::global();
  int owner = 0;
  ledger.register_provider(&owner, tenant, [] {
    TenantUsage u;
    u.ecalls = 3;
    return u;
  });
  ledger.publish(MetricsRegistry::global());
  const std::string report = ops_report();
  ledger.unregister(&owner);

  // A raw control byte spliced into a string must not validate.
  const std::string name = "\"tenant.ecalls\"";
  const auto at = report.find(name);
  ASSERT_NE(at, std::string::npos);
  std::string spliced = report;
  spliced.insert(at + 1, 1, '\x01');
  std::string err;
  EXPECT_FALSE(validate_ops_report(spliced, &err));

  // The writer escapes the newline, and the published label round-trips.
  EXPECT_EQ(report.find(tenant), std::string::npos);
  ASSERT_TRUE(validate_ops_report(report, &err)) << err;
  const auto doc = parse_json(report, &err);
  ASSERT_TRUE(doc) << err;
  bool found = false;
  for (const JsonValue& g : doc->find("metrics", JsonValue::Type::kObject)
                                ->find("gauges", JsonValue::Type::kArray)
                                ->array) {
    const JsonValue* labels = g.find("labels", JsonValue::Type::kObject);
    const JsonValue* label =
        labels != nullptr ? labels->find("tenant", JsonValue::Type::kString)
                          : nullptr;
    if (label == nullptr || label->str != tenant ||
        g.find("name", JsonValue::Type::kString)->str != "tenant.ecalls") {
      continue;
    }
    found = true;
    EXPECT_EQ(g.find("value", JsonValue::Type::kNumber)->number, 3.0);
  }
  EXPECT_TRUE(found) << "no tenant.ecalls gauge labelled with the tenant";
}

TEST(OpsReport, FilesRoundTripThroughDisk) {
  const std::string dir = ::testing::TempDir();
  const std::string folded_path = dir + "/profile_test.folded";
  const std::string report_path = dir + "/ops_report_test.json";
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  {
    TraceSpan span("profile_test", "disk");
  }
  rec.set_enabled(false);
  write_folded(folded_path);
  write_ops_report(report_path);
  std::ifstream ff(folded_path);
  std::stringstream fs;
  fs << ff.rdbuf();
  std::string err;
  EXPECT_TRUE(validate_folded(fs.str(), &err)) << err;
  std::ifstream rf(report_path);
  std::stringstream rs;
  rs << rf.rdbuf();
  EXPECT_TRUE(validate_ops_report(rs.str(), &err)) << err;
}

}  // namespace
}  // namespace gv

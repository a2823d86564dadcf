// Unit tests for clip::util — units, RNG, strings, tables, CSV.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "temp_path.hpp"

namespace clip {
namespace {

using namespace clip::literals;

// ---------------------------------------------------------------- units ----

TEST(Units, ArithmeticOnLikeQuantities) {
  const Watts a(100.0), b(20.0);
  EXPECT_DOUBLE_EQ((a + b).value(), 120.0);
  EXPECT_DOUBLE_EQ((a - b).value(), 80.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 200.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 200.0);
  EXPECT_DOUBLE_EQ((a / 4.0).value(), 25.0);
}

TEST(Units, RatioOfLikeQuantitiesIsDimensionless) {
  const double ratio = Watts(150.0) / Watts(50.0);
  EXPECT_DOUBLE_EQ(ratio, 3.0);
}

TEST(Units, PowerTimesTimeIsEnergy) {
  const Joules e = Watts(50.0) * Seconds(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 500.0);
  EXPECT_DOUBLE_EQ((Seconds(10.0) * Watts(50.0)).value(), 500.0);
}

TEST(Units, EnergyDividedByTimeIsPower) {
  EXPECT_DOUBLE_EQ((Joules(500.0) / Seconds(10.0)).value(), 50.0);
}

TEST(Units, EnergyDividedByPowerIsTime) {
  EXPECT_DOUBLE_EQ((Joules(500.0) / Watts(50.0)).value(), 10.0);
}

TEST(Units, ComparisonOperators) {
  EXPECT_LT(Watts(10.0), Watts(20.0));
  EXPECT_GE(Watts(20.0), Watts(20.0));
  EXPECT_EQ(GHz(2.3), GHz(2.3));
}

TEST(Units, UserDefinedLiterals) {
  EXPECT_DOUBLE_EQ((120.0_W).value(), 120.0);
  EXPECT_DOUBLE_EQ((2.3_GHz).value(), 2.3);
  EXPECT_DOUBLE_EQ((1.5_s).value(), 1.5);
  EXPECT_DOUBLE_EQ((34.0_GBps).value(), 34.0);
  EXPECT_DOUBLE_EQ((180_W).value(), 180.0);
}

TEST(Units, CompoundAssignment) {
  Watts w(10.0);
  w += Watts(5.0);
  EXPECT_DOUBLE_EQ(w.value(), 15.0);
  w -= Watts(3.0);
  EXPECT_DOUBLE_EQ(w.value(), 12.0);
  w *= 2.0;
  EXPECT_DOUBLE_EQ(w.value(), 24.0);
}

TEST(Units, StreamOutput) {
  std::ostringstream os;
  os << Watts(42.5);
  EXPECT_EQ(os.str(), "42.5 W");
}

// ----------------------------------------------------------------- check ----

TEST(Check, RequireThrowsPreconditionError) {
  EXPECT_THROW(CLIP_REQUIRE(false, "boom"), PreconditionError);
}

TEST(Check, EnsureThrowsInvariantError) {
  EXPECT_THROW(CLIP_ENSURE(false, "boom"), InvariantError);
}

TEST(Check, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(CLIP_REQUIRE(true, "fine"));
  EXPECT_NO_THROW(CLIP_ENSURE(true, "fine"));
}

TEST(Check, MessageContainsExpressionAndContext) {
  try {
    CLIP_REQUIRE(1 == 2, "context message");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context message"), std::string::npos);
  }
}

// ------------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsNotDegenerate) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) seen.insert(r.next_u64());
  EXPECT_GT(seen.size(), 30u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += r.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

TEST(Rng, UniformIntSingleton) {
  Rng r(17);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(42, 42), 42);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng r(19);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng r(23);
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += r.normal(10.0, 2.0);
  EXPECT_NEAR(acc / n, 10.0, 0.1);
}

TEST(Rng, NormalRejectsNegativeStddev) {
  Rng r(1);
  EXPECT_THROW(r.normal(0.0, -1.0), PreconditionError);
}

TEST(Rng, LognormalIsPositive) {
  Rng r(29);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, SplitStreamsAreIndependentAndReproducible) {
  Rng a(31);
  Rng b(31);
  Rng as = a.split();
  Rng bs = b.split();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(as.next_u64(), bs.next_u64());
  // The parent stream continues differently from the split child.
  EXPECT_NE(a.next_u64(), as.next_u64());
}

TEST(Rng, BoundsValidation) {
  Rng r(1);
  EXPECT_THROW(r.uniform(5.0, 1.0), PreconditionError);
  EXPECT_THROW(r.uniform_int(5, 1), PreconditionError);
}

// --------------------------------------------------------------- strings ----

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(Strings, FormatPercentSigned) {
  EXPECT_EQ(format_percent(0.234), "+23.4%");
  EXPECT_EQ(format_percent(-0.05), "-5.0%");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");  // no truncation
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Strings, CsvEscapeQuotesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// ----------------------------------------------------------------- table ----

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), PreconditionError);
}

TEST(Table, MixedCellTypes) {
  Table t({"s", "d", "i"});
  t.add({"str", 3.14159, 42});
  EXPECT_EQ(t.row_count(), 1u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("3.142"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1,5", "x"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"1,5\",x\n");
}

TEST(Table, TitleIsPrinted) {
  Table t({"c"});
  t.set_title("My Title");
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("My Title"), std::string::npos);
}

// ------------------------------------------------------------------- csv ----

class CsvRoundTrip : public ::testing::Test {
 protected:
  std::filesystem::path path_ = unique_temp_path("clip_test_roundtrip", ".csv");
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(CsvRoundTrip, WriteThenReadPreservesContent) {
  CsvDocument doc;
  doc.header = {"name", "value"};
  doc.rows = {{"a", "1"}, {"with,comma", "2"}, {"with \"quote\"", "3"}};
  write_csv(path_, doc);
  const CsvDocument back = read_csv(path_);
  EXPECT_EQ(back.header, doc.header);
  EXPECT_EQ(back.rows, doc.rows);
}

TEST_F(CsvRoundTrip, ColumnIndexLookup) {
  CsvDocument doc;
  doc.header = {"x", "y", "z"};
  EXPECT_EQ(doc.column_index("y"), 1);
  EXPECT_EQ(doc.column_index("nope"), -1);
}

TEST(Csv, ParseLineHandlesQuotedCommas) {
  const auto fields = parse_csv_line("a,\"b,c\",d");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b,c");
}

TEST(Csv, ParseLineHandlesEscapedQuotes) {
  const auto fields = parse_csv_line("\"say \"\"hi\"\"\",x");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/definitely/not/here.csv"),
               PreconditionError);
}

TEST_F(CsvRoundTrip, RaggedRowRejected) {
  std::ofstream os(path_);
  os << "a,b\n1\n";
  os.close();
  EXPECT_THROW(read_csv(path_), PreconditionError);
}

}  // namespace
}  // namespace clip

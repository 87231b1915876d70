#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/tree_printer.h"

namespace extract {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kNotFound, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    EXPECT_NE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    EXTRACT_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = []() -> Result<int> { return 7; };
  auto fail = []() -> Result<int> { return Status::Internal("x"); };
  auto use = [&](bool ok_path) -> Result<int> {
    int v;
    if (ok_path) {
      EXTRACT_ASSIGN_OR_RETURN(v, produce());
    } else {
      EXTRACT_ASSIGN_OR_RETURN(v, fail());
    }
    return v + 1;
  };
  EXPECT_EQ(use(true).value(), 8);
  EXPECT_EQ(use(false).status().code(), StatusCode::kInternal);
}

// ----------------------------------------------------------- string_util --

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLowerCopy("TeXaS 42"), "texas 42");
  EXPECT_EQ(ToLowerCopy(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimView("  a b  "), "a b");
  EXPECT_EQ(TrimView("\t\n"), "");
  EXPECT_EQ(TrimView("x"), "x");
}

TEST(StringUtilTest, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Texas", "tExAs"));
  EXPECT_FALSE(EqualsIgnoreCase("Texas", "Texan"));
  EXPECT_FALSE(EqualsIgnoreCase("ab", "abc"));
}

TEST(StringUtilTest, TokenizeWords) {
  EXPECT_EQ(TokenizeWords("Brook Brothers, apparel!"),
            (std::vector<std::string>{"brook", "brothers", "apparel"}));
  EXPECT_EQ(TokenizeWords("  "), (std::vector<std::string>{}));
  EXPECT_EQ(TokenizeWords("a1-b2"), (std::vector<std::string>{"a1", "b2"}));
}

TEST(StringUtilTest, ContainsToken) {
  EXPECT_TRUE(ContainsToken("Brook Brothers", "brook"));
  EXPECT_TRUE(ContainsToken("Brook Brothers", "brothers"));
  EXPECT_FALSE(ContainsToken("Brook Brothers", "bro"));  // not a full token
  EXPECT_FALSE(ContainsToken("Brook", "brothers"));
  EXPECT_TRUE(ContainsToken("retailer", "retailer"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.04159, 1), "3.0");
  EXPECT_EQ(FormatDouble(1.75, 2), "1.75");
}

// The shell's `bound`/`result` arguments and the HTTP size parameters: a
// sign, whitespace or trailing text is refused, never wrapped or truncated.
TEST(StringUtilTest, ParseDecimalSizeIsStrict) {
  EXPECT_EQ(ParseDecimalSize("0"), size_t{0});
  EXPECT_EQ(ParseDecimalSize("20"), size_t{20});
  EXPECT_EQ(ParseDecimalSize("999999999999"), size_t{999999999999});
  for (const char* bad : {"", "-1", "+1", "x", "1x", " 1", "1 ", "1.5",
                          "1000000000000"}) {
    EXPECT_EQ(ParseDecimalSize(bad), std::nullopt) << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------- random --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfTest, RankZeroMostFrequent) {
  Rng rng(17);
  ZipfSampler zipf(10, 1.2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) counts[zipf.Sample(&rng)]++;
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 20000);
}

TEST(ZipfTest, ZeroSkewIsRoughlyUniform) {
  Rng rng(23);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) counts[zipf.Sample(&rng)]++;
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(ZipfTest, SingleRankDomain) {
  Rng rng(3);
  ZipfSampler zipf(1, 2.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(&rng), 0u);
}

// ---------------------------------------------------------- tree_printer --

TEST(TreePrinterTest, RendersNestedTree) {
  struct N {
    std::string label;
    std::vector<const N*> kids;
  };
  N leaf1{"b", {}}, leaf2{"c", {}};
  N root{"a", {&leaf1, &leaf2}};
  std::string out = RenderTree<const N*>(
      &root, [](const N* n) { return n->label; },
      [](const N* n) { return n->kids; });
  EXPECT_EQ(out, "a\n├── b\n└── c\n");
}

TEST(TreePrinterTest, RenderTableAligns) {
  std::string out = RenderTable({{"a", "bb"}, {"ccc", "d"}});
  EXPECT_EQ(out, "a    bb\nccc  d\n");
}

TEST(TreePrinterTest, EmptyTable) { EXPECT_EQ(RenderTable({}), ""); }

}  // namespace
}  // namespace extract

#include "search/slca.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "common/random.h"
#include "xml/parser.h"

namespace extract {
namespace {

struct Db {
  std::unique_ptr<XmlDocument> dom;
  IndexedDocument doc;
  InvertedIndex index;
};

Db Load(std::string_view xml) {
  auto parsed = ParseXml(xml);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto idx = IndexedDocument::Build(**parsed);
  EXPECT_TRUE(idx.ok()) << idx.status();
  Db out{std::move(*parsed), std::move(*idx), {}};
  out.index = InvertedIndex::Build(out.doc);
  return out;
}

std::vector<const PostingList*> Lists(const Db& db,
                                      std::initializer_list<const char*> kws) {
  std::vector<const PostingList*> out;
  for (const char* kw : kws) out.push_back(db.index.Find(kw));
  return out;
}

TEST(SlcaTest, SingleKeywordReturnsMatchesThemselves) {
  Db db = Load("<a><b>x</b><c><d>x</d></c></a>");
  auto slca = ComputeSlcaIndexedLookupEager(db.doc, Lists(db, {"x"}));
  // Matches are <b> and <d>; neither is an ancestor of the other.
  ASSERT_EQ(slca.size(), 2u);
  EXPECT_EQ(db.doc.label_name(slca[0]), "b");
  EXPECT_EQ(db.doc.label_name(slca[1]), "d");
}

TEST(SlcaTest, TwoKeywordsMeetAtCommonAncestor) {
  Db db = Load("<a><b><x>1</x><y>2</y></b><c><x>1</x></c></a>");
  // "1" and "2" co-occur only under <b>.
  auto slca = ComputeSlcaIndexedLookupEager(db.doc, Lists(db, {"1", "2"}));
  ASSERT_EQ(slca.size(), 1u);
  EXPECT_EQ(db.doc.label_name(slca[0]), "b");
}

TEST(SlcaTest, AncestorCandidateRemoved) {
  // Both stores contain (texas, shoes); the root also contains both but is
  // an ancestor of smaller witnesses.
  Db db = Load(R"(<stores>
    <store><state>texas</state><item>shoes</item></store>
    <store><state>texas</state><item>shoes</item></store>
  </stores>)");
  auto slca =
      ComputeSlcaIndexedLookupEager(db.doc, Lists(db, {"texas", "shoes"}));
  ASSERT_EQ(slca.size(), 2u);
  EXPECT_EQ(db.doc.label_name(slca[0]), "store");
  EXPECT_EQ(db.doc.label_name(slca[1]), "store");
}

TEST(SlcaTest, CrossBranchKeywordsMeetAtRoot) {
  Db db = Load("<a><b>x</b><c>y</c></a>");
  auto slca = ComputeSlcaIndexedLookupEager(db.doc, Lists(db, {"x", "y"}));
  ASSERT_EQ(slca.size(), 1u);
  EXPECT_EQ(slca[0], db.doc.root());
}

TEST(SlcaTest, KeywordMatchingTagName) {
  Db db = Load("<retailers><retailer><state>texas</state></retailer></retailers>");
  auto slca =
      ComputeSlcaIndexedLookupEager(db.doc, Lists(db, {"retailer", "texas"}));
  ASSERT_EQ(slca.size(), 1u);
  EXPECT_EQ(db.doc.label_name(slca[0]), "retailer");
}

TEST(SlcaTest, EmptyOnMissingKeyword) {
  Db db = Load("<a><b>x</b></a>");
  std::vector<const PostingList*> lists = Lists(db, {"x"});
  lists.push_back(nullptr);  // missing keyword
  EXPECT_TRUE(ComputeSlcaIndexedLookupEager(db.doc, lists).empty());
  EXPECT_TRUE(ComputeSlcaBySubtreeCounts(db.doc, lists).empty());
}

TEST(SlcaTest, ThreeKeywords) {
  Db db = Load(R"(<db>
    <r><name>alpha</name><state>texas</state><product>apparel</product></r>
    <r><name>beta</name><state>texas</state><product>food</product></r>
  </db>)");
  auto slca = ComputeSlcaIndexedLookupEager(
      db.doc, Lists(db, {"texas", "apparel", "r"}));
  ASSERT_EQ(slca.size(), 1u);
  EXPECT_EQ(db.doc.label_name(slca[0]), "r");
  // It is the first <r> (alpha).
  EXPECT_EQ(db.doc.text(db.doc.sole_text_child(db.doc.children(slca[0])[0])),
            "alpha");
}

// Hand-written shapes where the driving list is sparse against long runs
// of other nodes: a keyword pair at both ends of 40 fillers, an SLCA whose
// subtree spans 30 siblings, and one needle among 60 entries. ILE must
// agree with the counting oracle on each.
TEST(SlcaTest, IleMatchesOracleOnHandWrittenShapes) {
  std::string ends = "<root><item><name>alpha first</name><tag>beta</tag></item>";
  for (int i = 0; i < 40; ++i) {
    ends += "<item><name>filler" + std::to_string(i) + "</name></item>";
  }
  ends += "<item><name>alpha last</name><tag>beta</tag></item></root>";

  std::string span = "<root><wrap><a>left anchor</a>";
  for (int i = 0; i < 30; ++i) {
    span += "<pad><x>p" + std::to_string(i) + "</x></pad>";
  }
  span += "<b>right anchor</b></wrap></root>";

  std::string needle = "<root>";
  for (int i = 0; i < 60; ++i) {
    needle += "<entry><label>common node " + std::to_string(i) + "</label>";
    if (i == 17) needle += "<special>needle</special>";
    needle += "</entry>";
  }
  needle += "</root>";

  auto expect_agreement = [](const Db& db,
                             std::initializer_list<const char*> keywords) {
    std::vector<const PostingList*> lists = Lists(db, keywords);
    for (const PostingList* list : lists) ASSERT_NE(list, nullptr);
    auto ile = ComputeSlcaIndexedLookupEager(db.doc, lists);
    EXPECT_FALSE(ile.empty());
    EXPECT_EQ(ile, ComputeSlcaBySubtreeCounts(db.doc, lists));
  };
  Db ends_db = Load(ends);
  expect_agreement(ends_db, {"alpha", "beta"});
  expect_agreement(ends_db, {"alpha", "filler3"});
  Db span_db = Load(span);
  expect_agreement(span_db, {"left", "right"});
  expect_agreement(span_db, {"anchor"});
  Db needle_db = Load(needle);
  expect_agreement(needle_db, {"needle", "common"});
  expect_agreement(needle_db, {"needle", "node"});

  // "left right" has its only SLCA at <wrap>, spanning every sibling.
  auto wrap = ComputeSlcaIndexedLookupEager(span_db.doc,
                                            Lists(span_db, {"left", "right"}));
  ASSERT_EQ(wrap.size(), 1u);
  EXPECT_EQ(span_db.doc.label_name(wrap[0]), "wrap");
}

TEST(RemoveAncestorsTest, KeepsDeepestAntichain) {
  Db db = Load("<a><b><c>x</c></b><d>y</d></a>");
  NodeId a = 0, b = 1, c = 2, d = 4;
  EXPECT_EQ(RemoveAncestors(db.doc, {a, b, c, d}),
            (std::vector<NodeId>{c, d}));
  EXPECT_EQ(RemoveAncestors(db.doc, {b, d}), (std::vector<NodeId>{b, d}));
  EXPECT_EQ(RemoveAncestors(db.doc, {a, a, b}), (std::vector<NodeId>{b}));
  EXPECT_TRUE(RemoveAncestors(db.doc, {}).empty());
}

// ---------------- property: ILE agrees with the counting oracle (TEST_P) --

struct SlcaCase {
  uint64_t seed;
  size_t num_keywords;
};

class SlcaAgreement : public ::testing::TestWithParam<SlcaCase> {};

TEST_P(SlcaAgreement, IleMatchesOracleOnRandomDocuments) {
  Rng rng(GetParam().seed);
  // Random document over a tiny value vocabulary so keywords co-occur.
  std::string xml;
  std::function<void(int)> gen = [&](int depth) {
    std::string tag = "t" + std::to_string(rng.Uniform(3));
    xml += "<" + tag + ">";
    size_t kids = depth > 0 ? rng.Uniform(4) : 0;
    for (size_t i = 0; i < kids; ++i) gen(depth - 1);
    if (kids == 0) {
      xml += "w" + std::to_string(rng.Uniform(4));
    }
    xml += "</" + tag + ">";
  };
  gen(5);
  Db db = Load(xml);

  // Use value keywords w0..w3 (and sometimes a tag token).
  std::vector<std::string> pool = {"w0", "w1", "w2", "w3", "t0", "t1"};
  std::vector<const PostingList*> lists;
  for (size_t i = 0; i < GetParam().num_keywords; ++i) {
    const PostingList* list = db.index.Find(pool[rng.Uniform(pool.size())]);
    if (list == nullptr) return;  // keyword absent in this random doc: skip
    lists.push_back(list);
  }

  auto ile = ComputeSlcaIndexedLookupEager(db.doc, lists);
  auto oracle = ComputeSlcaBySubtreeCounts(db.doc, lists);
  EXPECT_EQ(ile, oracle) << xml;
}

INSTANTIATE_TEST_SUITE_P(
    RandomDocs, SlcaAgreement,
    ::testing::Values(SlcaCase{1, 2}, SlcaCase{2, 2}, SlcaCase{3, 2},
                      SlcaCase{4, 3}, SlcaCase{5, 3}, SlcaCase{6, 3},
                      SlcaCase{7, 4}, SlcaCase{8, 4}, SlcaCase{9, 2},
                      SlcaCase{10, 3}, SlcaCase{11, 4}, SlcaCase{12, 2},
                      SlcaCase{13, 3}, SlcaCase{14, 2}, SlcaCase{15, 3},
                      SlcaCase{16, 4}, SlcaCase{17, 2}, SlcaCase{18, 3},
                      SlcaCase{19, 2}, SlcaCase{20, 3}));

}  // namespace
}  // namespace extract

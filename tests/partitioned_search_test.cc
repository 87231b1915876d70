// Intra-document partition sharding must be invisible in results: the
// partition-parallel SLCA/XSeek search and the partition-parallel snippet
// scans must be byte-identical to the sequential reference path
// (partitions = 1 / partition_threads = 1) for every grid and thread
// count. This suite pins that equivalence — including the boundary cases a
// node-range grid invites: a keyword absent from a partition, an SLCA
// subtree straddling a partition boundary, and more partitions than
// matches. Runs under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <sstream>

#include "datagen/random_xml.h"
#include "datagen/retailer_dataset.h"
#include "search/search_engine.h"
#include "search/slca.h"
#include "snippet/snippet_context.h"
#include "snippet/snippet_service.h"
#include "snippet/snippet_tree.h"

namespace extract {
namespace {

// Byte-level view of everything a renderer can observe about a snippet.
std::string SerializeSnippet(const Snippet& s) {
  std::ostringstream out;
  out << "root: " << s.result_root << "\nnodes:";
  for (NodeId node : s.nodes) out << ' ' << node;
  out << "\nkey: " << (s.key.found() ? s.key.value : "(none)");
  out << "\nentity: label=" << s.return_entity.label
      << " evidence=" << static_cast<int>(s.return_entity.evidence)
      << " instances=";
  for (NodeId node : s.return_entity.instances) out << node << ',';
  out << "\nilist: " << s.ilist.ToString();
  out << "\ncoverage: " << RenderCoverage(s);
  out << "\ntree:\n" << RenderSnippet(s);
  return out.str();
}

// Loads `xml` twice: once with the sequential single-partition layout and
// once cut into tiny partitions (so even small subtrees straddle
// boundaries). Both databases index identical content.
struct DbPair {
  XmlDatabase sequential;
  XmlDatabase partitioned;
};

DbPair LoadPair(const std::string& xml, size_t target_nodes) {
  LoadOptions seq;
  seq.partitioning.target_nodes_per_partition = 1u << 30;
  LoadOptions par;
  par.partitioning.target_nodes_per_partition = target_nodes;
  par.partitioning.max_partitions = 0;
  auto a = XmlDatabase::Load(xml, seq);
  auto b = XmlDatabase::Load(xml, par);
  EXPECT_TRUE(a.ok()) << a.status();
  EXPECT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->partitions().count(), 1u);
  return DbPair{std::move(*a), std::move(*b)};
}

void ExpectSameResults(const std::vector<QueryResult>& expected,
                       const std::vector<QueryResult>& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].root, actual[i].root) << label << " result " << i;
    EXPECT_EQ(expected[i].slca, actual[i].slca) << label << " result " << i;
    ASSERT_EQ(expected[i].matches.size(), actual[i].matches.size()) << label;
    for (size_t k = 0; k < expected[i].matches.size(); ++k) {
      EXPECT_EQ(expected[i].matches[k], actual[i].matches[k])
          << label << " result " << i << " keyword " << k;
    }
  }
}

// Runs `query_text` through both databases with both engine modes and
// asserts the four runs agree (sequential db is the reference).
void ExpectSearchEquivalence(const DbPair& pair, const std::string& query_text,
                             size_t threads) {
  Query query = Query::Parse(query_text);
  SearchOptions seq_options;
  seq_options.partition_threads = 1;
  XSeekEngine reference(seq_options);
  auto expected = reference.Search(pair.sequential, query);
  ASSERT_TRUE(expected.ok()) << expected.status();

  SearchOptions par_options;
  par_options.partition_threads = threads;
  XSeekEngine partitioned(par_options);
  for (int run = 0; run < 3; ++run) {  // repeats: no schedule dependence
    auto actual = partitioned.Search(pair.partitioned, query);
    ASSERT_TRUE(actual.ok()) << actual.status();
    ExpectSameResults(*expected, *actual,
                      "query '" + query_text + "' threads " +
                          std::to_string(threads) + " run " +
                          std::to_string(run));
  }
}

TEST(PartitionedSearchTest, SyntheticDocAllQueriesAllThreadCounts) {
  RandomXmlOptions options;
  options.levels = 3;
  options.entities_per_parent = 6;
  options.seed = 7;
  RandomXmlData data = GenerateRandomXml(options);
  DbPair pair = LoadPair(data.xml, 50);
  ASSERT_GT(pair.partitioned.partitions().count(), 4u);

  std::vector<std::string> queries;
  queries.push_back("e1");                            // broad tag match
  queries.push_back("e2 e3");                         // nested entities
  for (size_t i = 0; i < data.keyword_pool.size() && i < 2; ++i) {
    queries.push_back(data.keyword_pool[i] + " e1");  // value + tag
  }
  for (const std::string& q : queries) {
    for (size_t threads : {0u, 2u, 4u, 8u}) {
      ExpectSearchEquivalence(pair, q, threads);
    }
  }
}

TEST(PartitionedSearchTest, RetailerDemoDocument) {
  DbPair pair = LoadPair(GenerateRetailerXml(), 20);
  ASSERT_GT(pair.partitioned.partitions().count(), 2u);
  for (const char* q : {"texas apparel retailer", "houston", "store clothes"}) {
    ExpectSearchEquivalence(pair, q, 4);
  }
}

// Keyword absent from a partition: the driving posting list has empty
// chunks. A two-entity document cut into many partitions guarantees whole
// partitions without any match.
TEST(PartitionedSearchTest, KeywordAbsentFromPartitions) {
  std::string xml = "<root>";
  // 40 filler entities with unrelated content, then the two matches at the
  // far ends of the document.
  xml += "<item><name>alpha first</name><tag>beta</tag></item>";
  for (int i = 0; i < 40; ++i) {
    xml += "<item><name>filler" + std::to_string(i) + "</name></item>";
  }
  xml += "<item><name>alpha last</name><tag>beta</tag></item></root>";
  DbPair pair = LoadPair(xml, 8);
  ASSERT_GT(pair.partitioned.partitions().count(), 4u);
  ExpectSearchEquivalence(pair, "alpha beta", 4);
  ExpectSearchEquivalence(pair, "alpha filler3", 4);
}

// More partitions than matches: every chunk holds at most one posting of
// the driving list.
TEST(PartitionedSearchTest, PartitionCountExceedsMatchCount) {
  std::string xml = "<root>";
  for (int i = 0; i < 60; ++i) {
    xml += "<entry><label>common node " + std::to_string(i) + "</label>";
    if (i == 17) xml += "<special>needle</special>";
    xml += "</entry>";
  }
  xml += "</root>";
  DbPair pair = LoadPair(xml, 4);  // dozens of partitions, 1 needle match
  ASSERT_GT(pair.partitioned.partitions().count(), 10u);
  ExpectSearchEquivalence(pair, "needle common", 8);
  ExpectSearchEquivalence(pair, "needle node", 3);
}

// An SLCA whose subtree straddles a partition boundary: with tiny
// partitions, a match pair separated by many interior nodes forces the
// witness subtree across several partitions; left/right matches from other
// lists also cross boundaries.
TEST(PartitionedSearchTest, SlcaStraddlesPartitionBoundary) {
  std::string xml = "<root><wrap>";
  xml += "<a>left anchor</a>";
  for (int i = 0; i < 30; ++i) {
    xml += "<pad><x>p" + std::to_string(i) + "</x></pad>";
  }
  xml += "<b>right anchor</b>";
  xml += "</wrap></root>";
  DbPair pair = LoadPair(xml, 6);
  ASSERT_GT(pair.partitioned.partitions().count(), 5u);
  // "left right" has its only SLCA at <wrap>, spanning every partition.
  ExpectSearchEquivalence(pair, "left right", 4);
  ExpectSearchEquivalence(pair, "anchor", 4);

  // Cross-check the partitioned SLCA kernel directly against the counting
  // oracle on the partitioned database.
  Query query = Query::Parse("left right");
  const XmlDatabase& db = pair.partitioned;
  std::vector<const PostingList*> lists;
  for (const std::string& k : query.keywords) {
    const PostingList* list = db.inverted().Find(k);
    ASSERT_NE(list, nullptr);
    lists.push_back(list);
  }
  auto oracle = ComputeSlcaBySubtreeCounts(db.index(), lists);
  auto partitioned = ComputeSlcaIndexedLookupEagerPartitioned(
      db.index(), lists, db.partitions(), 4);
  EXPECT_EQ(oracle, partitioned);
}

// The snippet-side scans: a partition-parallel SnippetContext must produce
// snippets byte-identical to the sequential context, result by result.
TEST(PartitionedSearchTest, PartitionedSnippetScansMatchSequential) {
  RandomXmlOptions options;
  options.levels = 3;
  options.entities_per_parent = 5;
  options.seed = 21;
  RandomXmlData data = GenerateRandomXml(options);
  DbPair pair = LoadPair(data.xml, 40);
  ASSERT_GT(pair.partitioned.partitions().count(), 3u);

  Query query = Query::Parse("e1 e2");
  XSeekEngine engine;
  auto results = engine.Search(pair.sequential, query);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());

  SnippetOptions snippet_options;
  snippet_options.size_bound = 12;

  // The reference: a single-partition database scans sequentially. The
  // partitioned context fans its scans out at the pool's configured width.
  SnippetService seq_service(&pair.sequential);
  SnippetContext seq_ctx(&pair.sequential, query);
  SnippetService par_service(&pair.partitioned);
  SnippetContext par_ctx(&pair.partitioned, query);
  for (const QueryResult& r : *results) {
    auto expected = seq_service.Generate(seq_ctx, r, snippet_options);
    auto actual = par_service.Generate(par_ctx, r, snippet_options);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(SerializeSnippet(*expected), SerializeSnippet(*actual))
        << "root " << r.root;
  }
  // The partitioned context attributed its scans per partition.
  bool saw_partition_attribution = false;
  for (const StageStat& stat : par_ctx.ScanStatsSnapshot()) {
    if (stat.name.rfind("scan.statistics.p", 0) == 0) {
      saw_partition_attribution = true;
    }
  }
  EXPECT_TRUE(saw_partition_attribution);
}

}  // namespace
}  // namespace extract

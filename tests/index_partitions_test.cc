// The partition grid is pure bookkeeping — but every partition-parallel
// path trusts it blindly, so its invariants (exact cover, ordering, clip
// correctness) get their own suite.

#include "index/index_partitions.h"

#include <gtest/gtest.h>

#include "datagen/random_xml.h"
#include "search/search_engine.h"

namespace extract {
namespace {

TEST(IndexPartitionsTest, DefaultIsSingleAllCoveringPartition) {
  IndexPartitions grid;
  EXPECT_EQ(grid.count(), 1u);
  EXPECT_EQ(grid.partition(0).begin, 0);
}

TEST(IndexPartitionsTest, BuildCoversAllNodesContiguously) {
  RandomXmlOptions options;
  options.levels = 2;
  options.entities_per_parent = 8;
  auto db = XmlDatabase::Load(GenerateRandomXml(options).xml);
  ASSERT_TRUE(db.ok()) << db.status();
  const IndexedDocument& doc = db->index();

  for (size_t target : {1u, 7u, 64u, 100000u}) {
    IndexPartitionOptions po;
    po.target_nodes_per_partition = target;
    po.max_partitions = 0;
    IndexPartitions grid = IndexPartitions::Build(doc, po);
    ASSERT_GE(grid.count(), 1u);
    EXPECT_EQ(grid.partition(0).begin, 0);
    EXPECT_EQ(grid.total_end(), static_cast<NodeId>(doc.num_nodes()));
    for (size_t p = 0; p < grid.count(); ++p) {
      EXPECT_FALSE(grid.partition(p).empty()) << "partition " << p;
      if (p > 0) {
        EXPECT_EQ(grid.partition(p - 1).end, grid.partition(p).begin);
      }
    }
    if (target >= doc.num_nodes()) EXPECT_EQ(grid.count(), 1u);
  }
}

TEST(IndexPartitionsTest, MaxPartitionsCapsTheCount) {
  RandomXmlOptions options;
  options.levels = 2;
  options.entities_per_parent = 8;
  auto db = XmlDatabase::Load(GenerateRandomXml(options).xml);
  ASSERT_TRUE(db.ok()) << db.status();

  IndexPartitionOptions po;
  po.target_nodes_per_partition = 1;  // would ask for one per node
  po.max_partitions = 5;
  IndexPartitions grid = IndexPartitions::Build(db->index(), po);
  EXPECT_EQ(grid.count(), 5u);
  EXPECT_EQ(grid.total_end(), static_cast<NodeId>(db->index().num_nodes()));
}

TEST(IndexPartitionsTest, DatabaseLoadBuildsGridPerOptions) {
  RandomXmlOptions options;
  options.levels = 2;
  options.entities_per_parent = 8;
  std::string xml = GenerateRandomXml(options).xml;

  // Default options: small document -> one partition (sequential layout).
  auto small = XmlDatabase::Load(xml);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->partitions().count(), 1u);

  LoadOptions load;
  load.partitioning.target_nodes_per_partition = 16;
  auto sharded = XmlDatabase::Load(xml, load);
  ASSERT_TRUE(sharded.ok());
  EXPECT_GT(sharded->partitions().count(), 1u);
  EXPECT_EQ(sharded->partitions().total_end(),
            static_cast<NodeId>(sharded->index().num_nodes()));
}

}  // namespace
}  // namespace extract

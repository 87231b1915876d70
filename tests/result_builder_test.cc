#include "search/result_builder.h"

#include <gtest/gtest.h>

namespace extract {
namespace {

TEST(MaterializeSubtreeTest, TextOnlyNode) {
  auto db = XmlDatabase::Load("<a><b>t</b></a>");
  ASSERT_TRUE(db.ok());
  NodeId text = 2;
  ASSERT_TRUE(db->index().is_text(text));
  auto node = MaterializeSubtree(db->index(), text);
  EXPECT_EQ(node->kind(), XmlNodeKind::kText);
  EXPECT_EQ(node->content(), "t");
}

}  // namespace
}  // namespace extract

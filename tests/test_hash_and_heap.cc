#include <gtest/gtest.h>

#include <string>

#include "index/table_heap.h"

namespace dfim {
namespace {

struct Row {
  int id;
  std::string name;
};

TEST(TableHeapTest, AppendGetScan) {
  TableHeap<Row> heap;
  EXPECT_TRUE(heap.empty());
  RowId a = heap.Append({1, "one"});
  RowId b = heap.Append({2, "two"});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(heap.Get(b).name, "two");
  int visits = 0;
  heap.Scan([&visits](RowId id, const Row& row) {
    EXPECT_EQ(static_cast<int>(id) + 1, row.id);
    ++visits;
  });
  EXPECT_EQ(visits, 2);
  heap.Clear();
  EXPECT_EQ(heap.size(), 0u);
}

}  // namespace
}  // namespace dfim

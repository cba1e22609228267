// Unit tests for predicates, aggregates and the OLTP TableQuery engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "table/aggregate.h"
#include "table/predicate.h"
#include "table/query.h"
#include "table/table.h"

namespace ddgms {
namespace {

Table MakePatients() {
  auto schema = Schema::Make({{"Id", DataType::kInt64},
                              {"Gender", DataType::kString},
                              {"Age", DataType::kInt64},
                              {"FBG", DataType::kDouble},
                              {"Diabetes", DataType::kString}});
  Table t(std::move(schema).value());
  struct RowSpec {
    int64_t id;
    const char* gender;
    int64_t age;
    double fbg;
    const char* diabetes;
  };
  const RowSpec rows[] = {
      {1, "F", 45, 5.0, "No"},  {2, "M", 52, 5.4, "No"},
      {3, "F", 61, 6.3, "No"},  {4, "M", 66, 7.8, "Yes"},
      {5, "F", 70, 8.4, "Yes"}, {6, "M", 74, 9.0, "Yes"},
      {7, "F", 77, 5.2, "No"},  {8, "F", 81, 7.2, "Yes"},
  };
  for (const RowSpec& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value::Int(r.id), Value::Str(r.gender),
                             Value::Int(r.age), Value::Real(r.fbg),
                             Value::Str(r.diabetes)})
                    .ok());
  }
  // One row with nulls.
  EXPECT_TRUE(t.AppendRow({Value::Int(9), Value::Str("M"), Value::Null(),
                           Value::Null(), Value::Str("No")})
                  .ok());
  return t;
}

// ------------------------------------------------------------ predicates

TEST(PredicateTest, ComparisonOperators) {
  Table t = MakePatients();
  EXPECT_EQ(t.MatchingRows([p = Eq("Gender", Value::Str("F"))](
                               const Table& tt, size_t i) {
              return p->Matches(tt, i);
            }).size(),
            5u);
  auto count = [&](PredicatePtr p) {
    return t.MatchingRows([&](const Table& tt, size_t i) {
              return p->Matches(tt, i);
            }).size();
  };
  EXPECT_EQ(count(Ne("Gender", Value::Str("F"))), 4u);
  EXPECT_EQ(count(Lt("Age", Value::Int(61))), 2u);
  EXPECT_EQ(count(Le("Age", Value::Int(61))), 3u);
  EXPECT_EQ(count(Gt("Age", Value::Int(74))), 2u);
  EXPECT_EQ(count(Ge("Age", Value::Int(74))), 3u);
}

TEST(PredicateTest, NullCellsFailComparisons) {
  Table t = MakePatients();
  auto p = Ge("Age", Value::Int(0));
  // Row 8 (id 9) has null Age: excluded.
  size_t matches = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (p->Matches(t, i)) ++matches;
  }
  EXPECT_EQ(matches, 8u);
}

TEST(PredicateTest, InBetweenNull) {
  Table t = MakePatients();
  auto count = [&](PredicatePtr p) {
    size_t n = 0;
    for (size_t i = 0; i < t.num_rows(); ++i) {
      if (p->Matches(t, i)) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(In("Id", {Value::Int(1), Value::Int(5)})), 2u);
  EXPECT_EQ(count(Between("Age", Value::Int(60), Value::Int(75))), 4u);
  EXPECT_EQ(count(IsNull("FBG")), 1u);
  EXPECT_EQ(count(NotNull("FBG")), 8u);
}

TEST(PredicateTest, LogicCombinators) {
  Table t = MakePatients();
  auto p = And(Eq("Diabetes", Value::Str("Yes")),
               Eq("Gender", Value::Str("F")));
  size_t n = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (p->Matches(t, i)) ++n;
  }
  EXPECT_EQ(n, 2u);

  auto q = Or(Lt("Age", Value::Int(50)), Gt("Age", Value::Int(80)));
  n = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (q->Matches(t, i)) ++n;
  }
  EXPECT_EQ(n, 2u);

  auto r = Not(Eq("Gender", Value::Str("F")));
  n = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (r->Matches(t, i)) ++n;
  }
  EXPECT_EQ(n, 4u);
}

TEST(PredicateTest, ValidateCatchesUnknownColumn) {
  Table t = MakePatients();
  EXPECT_TRUE(Eq("Nope", Value::Int(1))->Validate(t).IsNotFound());
  EXPECT_TRUE(And(Eq("Id", Value::Int(1)), IsNull("Nope"))
                  ->Validate(t)
                  .IsNotFound());
  EXPECT_TRUE(TruePredicate()->Validate(t).ok());
}

TEST(PredicateTest, ToStringReadable) {
  EXPECT_EQ(Eq("A", Value::Int(1))->ToString(), "A == 1");
  EXPECT_EQ(Between("A", Value::Int(1), Value::Int(2))->ToString(),
            "A BETWEEN 1 AND 2");
  EXPECT_EQ(Not(IsNull("A"))->ToString(), "NOT A IS NULL");
}

// ------------------------------------------------------------ aggregates

TEST(AggregateTest, NamesRoundTrip) {
  EXPECT_STREQ(AggFnName(AggFn::kAvg), "avg");
  EXPECT_EQ(*AggFnFromName("AVG"), AggFn::kAvg);
  EXPECT_EQ(*AggFnFromName("stdev"), AggFn::kStdDev);
  EXPECT_EQ(*AggFnFromName("mean"), AggFn::kAvg);
  EXPECT_FALSE(AggFnFromName("nope").ok());
}

TEST(AggregateTest, AccumulatorBasics) {
  Accumulator count(AggFn::kCount);
  Accumulator sum(AggFn::kSum);
  Accumulator avg(AggFn::kAvg);
  Accumulator min(AggFn::kMin);
  Accumulator max(AggFn::kMax);
  Accumulator stddev(AggFn::kStdDev);
  Accumulator distinct(AggFn::kCountDistinct);
  for (double v : {2.0, 4.0, 4.0, 6.0}) {
    Value val = Value::Real(v);
    count.Add(val);
    sum.Add(val);
    avg.Add(val);
    min.Add(val);
    max.Add(val);
    stddev.Add(val);
    distinct.Add(val);
  }
  count.Add(Value::Null());
  EXPECT_EQ(count.Finish(), Value::Int(5));
  EXPECT_EQ(sum.Finish(), Value::Real(16.0));
  EXPECT_EQ(avg.Finish(), Value::Real(4.0));
  EXPECT_EQ(min.Finish(), Value::Real(2.0));
  EXPECT_EQ(max.Finish(), Value::Real(6.0));
  EXPECT_NEAR(stddev.Finish().double_value(), std::sqrt(2.0), 1e-9);
  EXPECT_EQ(distinct.Finish(), Value::Int(3));
}

TEST(AggregateTest, EmptyGroupSemantics) {
  Accumulator avg(AggFn::kAvg);
  EXPECT_TRUE(avg.Finish().is_null());
  Accumulator count(AggFn::kCount);
  EXPECT_EQ(count.Finish(), Value::Int(0));
  Accumulator min(AggFn::kMin);
  EXPECT_TRUE(min.Finish().is_null());
}

// Merging the accumulators of the two parts of a stream, split at
// every point (so each side is empty once), equals feeding the whole
// stream to one accumulator, for every function.
void ExpectMergeOfSplitsMatchesWhole(const std::vector<Value>& stream) {
  const AggFn fns[] = {AggFn::kCount, AggFn::kCountValid,
                       AggFn::kCountDistinct, AggFn::kSum,
                       AggFn::kAvg, AggFn::kMin,
                       AggFn::kMax, AggFn::kVariance,
                       AggFn::kStdDev};
  for (AggFn fn : fns) {
    Accumulator whole(fn);
    for (const Value& v : stream) whole.Add(v);
    const Value want = whole.Finish();
    for (size_t split = 0; split <= stream.size(); ++split) {
      Accumulator left(fn);
      Accumulator right(fn);
      for (size_t i = 0; i < stream.size(); ++i) {
        (i < split ? left : right).Add(stream[i]);
      }
      left.Merge(right);
      const Value got = left.Finish();
      EXPECT_EQ(left.rows(), whole.rows());
      if (want.type() == DataType::kDouble &&
          got.type() == DataType::kDouble) {
        EXPECT_NEAR(got.double_value(), want.double_value(),
                    1e-12 * std::max(1.0, std::fabs(want.double_value())))
            << AggFnName(fn) << " split at " << split;
      } else {
        EXPECT_TRUE(got.type() == want.type() && got.Equals(want))
            << AggFnName(fn) << " split at " << split << ": got '"
            << got.ToString() << "' want '" << want.ToString() << "'";
      }
    }
  }
}

TEST(AggregateTest, MergeOfSplitNumericStreamWithNulls) {
  ExpectMergeOfSplitsMatchesWhole(
      {Value::Int(3), Value::Null(), Value::Real(2.5), Value::Int(-4),
       Value::Null(), Value::Real(7.25), Value::Int(3), Value::Real(3.0)});
}

TEST(AggregateTest, MergeOfSplitStringStream) {
  // Strings order under min/max, count under the count family and make
  // the sum family null.
  const std::vector<Value> stream = {Value::Str("b"), Value::Null(),
                                     Value::Str("a"), Value::Str("c"),
                                     Value::Str("a")};
  ExpectMergeOfSplitsMatchesWhole(stream);
  Accumulator min(AggFn::kMin);
  Accumulator max(AggFn::kMax);
  min.Add(stream[0]);
  max.Add(stream[0]);
  Accumulator rest_min(AggFn::kMin);
  Accumulator rest_max(AggFn::kMax);
  for (size_t i = 1; i < stream.size(); ++i) {
    rest_min.Add(stream[i]);
    rest_max.Add(stream[i]);
  }
  min.Merge(rest_min);
  max.Merge(rest_max);
  EXPECT_EQ(min.Finish(), Value::Str("a"));
  EXPECT_EQ(max.Finish(), Value::Str("c"));
}

TEST(AggregateTest, MergeKeepsANonNumericSumNull) {
  // One string under a sum-family function makes the result null on
  // whichever side of the split it lands.
  ExpectMergeOfSplitsMatchesWhole(
      {Value::Real(1.5), Value::Str("x"), Value::Int(2), Value::Null()});
  Accumulator numeric(AggFn::kSum);
  numeric.Add(Value::Real(1.5));
  Accumulator text(AggFn::kSum);
  text.Add(Value::Str("x"));
  numeric.Merge(text);
  EXPECT_TRUE(numeric.Finish().is_null());
}

TEST(AggregateTest, MergeOfEmptyAccumulators) {
  ExpectMergeOfSplitsMatchesWhole({});
  Accumulator avg(AggFn::kAvg);
  avg.Merge(Accumulator(AggFn::kAvg));
  EXPECT_TRUE(avg.Finish().is_null());
  EXPECT_EQ(avg.rows(), 0u);
}

TEST(AggregateTest, DropDistinctValuesKeepsTheCount) {
  Accumulator distinct(AggFn::kCountDistinct);
  for (const char* v : {"a", "b", "a", "c"}) distinct.Add(Value::Str(v));
  distinct.Add(Value::Null());
  const uint64_t before = distinct.ApproxBytes();
  distinct.DropDistinctValues();
  EXPECT_EQ(distinct.Finish(), Value::Int(3));
  EXPECT_EQ(distinct.rows(), 5u);
  EXPECT_LT(distinct.ApproxBytes(), before);
  EXPECT_EQ(distinct.ApproxBytes(), sizeof(Accumulator));
}

TEST(AggregateTest, SpecOutputName) {
  EXPECT_EQ((AggSpec{AggFn::kCount, "", ""}).OutputName(), "count(*)");
  EXPECT_EQ((AggSpec{AggFn::kAvg, "FBG", ""}).OutputName(), "avg(FBG)");
  EXPECT_EQ((AggSpec{AggFn::kAvg, "FBG", "mean_fbg"}).OutputName(),
            "mean_fbg");
}

// ------------------------------------------------------------ TableQuery

TEST(TableQueryTest, WhereSelectOrderLimit) {
  Table t = MakePatients();
  auto result = TableQuery(&t)
                    .Where(Eq("Diabetes", Value::Str("Yes")))
                    .Select({"Id", "Age"})
                    .OrderBy("Age", /*ascending=*/false)
                    .Limit(2)
                    .Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->num_columns(), 2u);
  EXPECT_EQ(*result->GetCell(0, "Id"), Value::Int(8));  // age 81
  EXPECT_EQ(*result->GetCell(1, "Id"), Value::Int(6));  // age 74
}

TEST(TableQueryTest, GroupByWithAggregates) {
  Table t = MakePatients();
  auto result =
      TableQuery(&t)
          .GroupBy({"Diabetes"})
          .Aggregate({{AggFn::kCount, "", "n"},
                      {AggFn::kAvg, "FBG", "mean_fbg"}})
          .OrderBy("Diabetes")
          .Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(*result->GetCell(0, "Diabetes"), Value::Str("No"));
  EXPECT_EQ(*result->GetCell(0, "n"), Value::Int(5));
  double mean_no = (*result->GetCell(0, "mean_fbg")).double_value();
  EXPECT_NEAR(mean_no, (5.0 + 5.4 + 6.3 + 5.2) / 4.0, 1e-9);
  EXPECT_EQ(*result->GetCell(1, "n"), Value::Int(4));
}

TEST(TableQueryTest, GlobalAggregationWithoutGroupBy) {
  Table t = MakePatients();
  auto result = TableQuery(&t)
                    .Aggregate({{AggFn::kMax, "Age", "oldest"}})
                    .Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(*result->GetCell(0, "oldest"), Value::Int(81));
}

TEST(TableQueryTest, GroupByDefaultCount) {
  Table t = MakePatients();
  auto result = TableQuery(&t).GroupBy({"Gender"}).Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
  EXPECT_TRUE(result->schema().HasField("count"));
}

TEST(TableQueryTest, NullGroupKeyFormsItsOwnGroup) {
  Table t = MakePatients();
  auto result = TableQuery(&t).GroupBy({"Age"}).Run();
  ASSERT_TRUE(result.ok());
  // 8 distinct ages + 1 null group.
  EXPECT_EQ(result->num_rows(), 9u);
}

TEST(TableQueryTest, SelectWithAggregateIsError) {
  Table t = MakePatients();
  auto result = TableQuery(&t)
                    .GroupBy({"Gender"})
                    .Select({"Id"})
                    .Run();
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(TableQueryTest, UnknownColumnsFail) {
  Table t = MakePatients();
  EXPECT_TRUE(TableQuery(&t)
                  .Where(Eq("Nope", Value::Int(1)))
                  .Run()
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      TableQuery(&t).GroupBy({"Nope"}).Run().status().IsNotFound());
  EXPECT_TRUE(TableQuery(&t)
                  .Aggregate({{AggFn::kAvg, "Nope", ""}})
                  .Run()
                  .status()
                  .IsNotFound());
}

TEST(TableQueryTest, AggregateWithoutColumnRequiresCount) {
  Table t = MakePatients();
  EXPECT_TRUE(TableQuery(&t)
                  .Aggregate({{AggFn::kAvg, "", ""}})
                  .Run()
                  .status()
                  .IsInvalidArgument());
}

// Property sweep: group-by counts partition the filtered rows for any
// grouping column.
class GroupByPartitionTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(GroupByPartitionTest, CountsSumToTotal) {
  Table t = MakePatients();
  auto result = TableQuery(&t)
                    .GroupBy({GetParam()})
                    .Aggregate({{AggFn::kCount, "", "n"}})
                    .Run();
  ASSERT_TRUE(result.ok());
  int64_t total = 0;
  const ColumnVector* n = *result->ColumnByName("n");
  for (size_t i = 0; i < n->size(); ++i) total += n->IntAt(i);
  EXPECT_EQ(total, static_cast<int64_t>(t.num_rows()));
}

INSTANTIATE_TEST_SUITE_P(AllColumns, GroupByPartitionTest,
                         ::testing::Values("Gender", "Diabetes", "Age",
                                           "FBG", "Id"));

}  // namespace
}  // namespace ddgms

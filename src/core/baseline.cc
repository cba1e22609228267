#include "core/baseline.h"

#include "table/predicate.h"
#include "table/query.h"

namespace ddgms::core {

namespace {

/// Rows whose `attribute` is one of `members`. `In` never matches a
/// null row, so a listed null adds the nulls, as the cube engine does.
PredicatePtr MemberOf(const std::string& attribute,
                      const std::vector<Value>& members) {
  for (const Value& m : members) {
    if (m.is_null()) return Or(In(attribute, members), IsNull(attribute));
  }
  return In(attribute, members);
}

}  // namespace

Result<Table> BaselineDgms::Execute(const olap::CubeQuery& query) const {
  if (flat_ == nullptr) {
    return Status::InvalidArgument("baseline has no table");
  }
  if (query.measures.empty()) {
    return Status::InvalidArgument("query needs >= 1 measure");
  }
  std::vector<PredicatePtr> preds;
  for (const olap::SlicerSpec& s : query.slicers) {
    preds.push_back(MemberOf(s.attribute, s.values));
  }
  std::vector<std::string> group_by;
  for (const olap::AxisSpec& a : query.axes) {
    group_by.push_back(a.attribute);
    if (!a.members.empty()) {
      preds.push_back(MemberOf(a.attribute, a.members));
    }
  }
  TableQuery tq(flat_);
  if (!preds.empty()) tq.Where(AllOf(std::move(preds)));
  tq.GroupBy(group_by);
  tq.Aggregate(query.measures);
  DDGMS_ASSIGN_OR_RETURN(Table result, tq.Run());
  if (!group_by.empty()) {
    DDGMS_ASSIGN_OR_RETURN(result, result.SortBy(group_by));
  }
  return result;
}

}  // namespace ddgms::core

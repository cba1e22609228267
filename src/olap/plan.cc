#include "olap/plan.h"

#include <algorithm>

#include "common/query_registry.h"
#include "common/strings.h"

namespace ddgms::olap {

namespace {

std::string FormatBytesShort(uint64_t bytes) {
  const double b = static_cast<double>(bytes);
  if (b < 1024.0) {
    return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  }
  if (b < 1024.0 * 1024.0) return StrFormat("%.1f KiB", b / 1024.0);
  if (b < 1024.0 * 1024.0 * 1024.0) {
    return StrFormat("%.1f MiB", b / (1024.0 * 1024.0));
  }
  return StrFormat("%.2f GiB", b / (1024.0 * 1024.0 * 1024.0));
}

struct RenderRow {
  std::string tree;   // prefix + operator + props
  std::string time;
  std::string rows;
  std::string bytes;
};

void CollectRows(const PlanNode& node, const std::string& prefix,
                 bool last, bool root, std::vector<RenderRow>* rows) {
  RenderRow row;
  row.tree = root ? "" : prefix + (last ? "`- " : "|- ");
  row.tree += node.op;
  for (const auto& [key, value] : node.props) {
    row.tree += " " + key + "=" + value;
  }
  row.time = StrFormat("%llu us",
                       static_cast<unsigned long long>(node.micros));
  if (node.rows_in != 0 || node.rows_out != 0) {
    row.rows = StrFormat("%llu -> %llu",
                         static_cast<unsigned long long>(node.rows_in),
                         static_cast<unsigned long long>(node.rows_out));
  }
  if (node.bytes != 0) row.bytes = FormatBytesShort(node.bytes);
  rows->push_back(std::move(row));
  const std::string child_prefix =
      root ? "" : prefix + (last ? "   " : "|  ");
  for (size_t i = 0; i < node.children.size(); ++i) {
    CollectRows(node.children[i], child_prefix,
                i + 1 == node.children.size(), false, rows);
  }
}

}  // namespace

void PlanNode::AddProp(const std::string& key, uint64_t value) {
  props.emplace_back(
      key, StrFormat("%llu", static_cast<unsigned long long>(value)));
}

PlanNode& PlanNode::AddChild(std::string op_name) {
  children.emplace_back(std::move(op_name));
  return children.back();
}

uint64_t PlanNode::TotalBytes() const {
  uint64_t total = bytes;
  for (const PlanNode& child : children) total += child.TotalBytes();
  return total;
}

std::string PlanNode::ToString() const {
  std::vector<RenderRow> rows;
  CollectRows(*this, "", true, true, &rows);
  size_t tree_w = 0, time_w = 0, rows_w = 0;
  for (const RenderRow& r : rows) {
    tree_w = std::max(tree_w, r.tree.size());
    time_w = std::max(time_w, r.time.size());
    rows_w = std::max(rows_w, r.rows.size());
  }
  std::string out;
  for (const RenderRow& r : rows) {
    out += r.tree + std::string(tree_w - r.tree.size() + 2, ' ');
    out += std::string(time_w - r.time.size(), ' ') + r.time;
    out += "  " + std::string(rows_w - r.rows.size(), ' ') + r.rows;
    if (!r.bytes.empty()) out += "  " + r.bytes;
    // Trim trailing alignment spaces on prop-less rows.
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += "\n";
  }
  return out;
}

Stage::Stage(PlanNode* parent, const char* op, const char* histogram,
             const char* query_stage)
    : TraceSpan(op, histogram, /*timed=*/parent != nullptr) {
  if (query_stage != nullptr) QueryRegistry::SetCurrentStage(query_stage);
  if (parent == nullptr) return;
  node_ = &parent->AddChild(op);
  if (ResourceMeter::Enabled()) pool_ = ScopedAccounting::Current();
  if (pool_ != nullptr) allocated_at_entry_ = pool_->allocated();
}

double Stage::Stop() {
  const double micros = TraceSpan::Stop();
  if (node_ == nullptr || filled_) return micros;
  filled_ = true;
  node_->micros = static_cast<uint64_t>(micros);
  if (pool_ != nullptr) node_->bytes = pool_->allocated() - allocated_at_entry_;
  return micros;
}

std::string PlanNode::ToJson() const {
  std::string out = StrFormat(
      "{\"op\":\"%s\",\"micros\":%llu,\"rows_in\":%llu,"
      "\"rows_out\":%llu,\"bytes\":%llu",
      JsonEscape(op).c_str(), static_cast<unsigned long long>(micros),
      static_cast<unsigned long long>(rows_in),
      static_cast<unsigned long long>(rows_out),
      static_cast<unsigned long long>(bytes));
  if (!props.empty()) {
    out += ",\"props\":{";
    for (size_t i = 0; i < props.size(); ++i) {
      if (i > 0) out += ",";
      out += '"';
      out += JsonEscape(props[i].first);
      out += "\":\"";
      out += JsonEscape(props[i].second);
      out += '"';
    }
    out += "}";
  }
  if (!children.empty()) {
    out += ",\"children\":[";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) out += ",";
      out += children[i].ToJson();
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace ddgms::olap

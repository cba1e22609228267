#include "etl/pipeline.h"

#include "common/csv.h"
#include "common/faults.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ddgms::etl {

std::string TransformReport::ToString() const {
  std::string out =
      StrFormat("transform: %zu -> %zu rows\n", input_rows, output_rows);
  out += cleaning.ToString();
  out += StrFormat("\ncardinality: %zu entities, max %zu visits",
                   cardinality.num_entities, cardinality.max_visits);
  if (!discretised_columns.empty()) {
    out += "\ndiscretised:";
    for (const std::string& c : discretised_columns) {
      out += " " + c;
    }
  }
  if (!quarantine.empty()) {
    out += "\n";
    out += quarantine.ToString();
  }
  return out;
}

namespace {

// Runs one named step with lenient row-level recovery: try the whole
// table; on failure probe each row in isolation, quarantine the rows
// that fail on their own, and re-run the step over the survivors. A
// failure no single row explains (missing column, bad configuration)
// is returned as a step-level error.
Status RunStepLenient(const std::string& step_name,
                      const std::function<Status(Table*)>& step,
                      Table* table, QuarantineReport* quarantine) {
  Table attempt = *table;
  Status st = step(&attempt);
  if (st.ok()) {
    *table = std::move(attempt);
    return Status::OK();
  }

  const size_t n = table->num_rows();
  std::vector<size_t> good;
  good.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Table probe = table->Take({i});
    Status row_status = step(&probe);
    if (row_status.ok()) {
      good.push_back(i);
      continue;
    }
    std::vector<std::string> cells;
    for (const Value& v : table->GetRow(i)) {
      cells.push_back(v.ToString());
    }
    quarantine->Add("etl:" + step_name, i + 1, /*field=*/"",
                    std::move(row_status),
                    TruncateForQuarantine(FormatCsvLine(cells)));
  }
  if (good.size() == n) {
    // No individual row reproduces the failure: step-level error.
    return st;
  }
  Table pruned = table->Take(good);
  Status retry_status = step(&pruned);
  if (!retry_status.ok()) {
    // Quarantining did not clear the failure; surface the original.
    return st;
  }
  *table = std::move(pruned);
  return Status::OK();
}

}  // namespace

Result<TransformReport> TransformPipeline::Run(
    Table* table, const PipelineRunOptions& options) const {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  TransformReport report;
  report.input_rows = table->num_rows();

  // The stages, in order, as uniformly typed named steps so strict and
  // lenient execution share one driver. Report-producing stages write
  // into `report` on every invocation; the last invocation of a step
  // (the one whose table mutation is committed) wins.
  struct NamedStep {
    std::string name;
    std::function<Status(Table*)> fn;
  };
  std::vector<NamedStep> steps;
  if (has_cleaner_) {
    steps.push_back(NamedStep{"clean", [this, &report](Table* t) {
                                DDGMS_ASSIGN_OR_RETURN(report.cleaning,
                                                       cleaner_.Run(t));
                                return Status::OK();
                              }});
  }
  for (const DiscretisationStep& step : discretisations_) {
    steps.push_back(
        NamedStep{"discretise " + step.source_column, [&step](Table* t) {
                    return ApplyScheme(t, step.source_column, step.scheme,
                                      step.EffectiveOutput());
                  }});
  }
  if (has_cardinality_) {
    steps.push_back(
        NamedStep{"cardinality", [this, &report](Table* t) {
                    DDGMS_ASSIGN_OR_RETURN(
                        report.cardinality,
                        AssignCardinality(t, entity_column_, date_column_,
                                          cardinality_options_));
                    return Status::OK();
                  }});
  }
  for (size_t i = 0; i < custom_steps_.size(); ++i) {
    steps.push_back(NamedStep{StrFormat("custom %zu", i + 1),
                              [this, i](Table* t) {
                                return custom_steps_[i](t);
                              }});
  }

  TraceSpan run_span("etl.pipeline.run", "ddgms.etl.run_latency_us");
  run_span.SetAttribute("steps", steps.size());
  run_span.SetAttribute("rows_in", report.input_rows);
  ScopedAccounting accounting("etl");

  const bool lenient = options.error_mode == ErrorMode::kLenient;
  for (const NamedStep& step : steps) {
    DDGMS_FAULT_POINT("etl.pipeline.step");
    TraceSpan step_span("etl.step", "ddgms.etl.step_latency_us");
    step_span.SetAttribute("step", step.name);
    step_span.SetAttribute("rows_in", table->num_rows());
    const size_t quarantined_before = report.quarantine.size();
    if (lenient) {
      DDGMS_RETURN_IF_ERROR(RunStepLenient(step.name, step.fn, table,
                                           &report.quarantine));
    } else {
      DDGMS_RETURN_IF_ERROR(step.fn(table));
    }
    step_span.SetAttribute("rows_out", table->num_rows());
    const size_t quarantined =
        report.quarantine.size() - quarantined_before;
    if (quarantined > 0) {
      step_span.SetAttribute("quarantined", quarantined);
      DDGMS_LOG_WARN("etl.step.quarantine")
          .With("step", step.name)
          .With("quarantined", quarantined)
          .With("rows_out", table->num_rows());
    }
    DDGMS_METRIC_INC("ddgms.etl.steps_run");
  }
  for (const DiscretisationStep& step : discretisations_) {
    report.discretised_columns.push_back(step.EffectiveOutput());
  }
  report.output_rows = table->num_rows();

  run_span.SetAttribute("rows_out", report.output_rows);
  DDGMS_LOG_INFO("etl.run")
      .With("steps", steps.size())
      .With("rows_in", report.input_rows)
      .With("rows_out", report.output_rows)
      .With("quarantined", report.quarantine.size());
  DDGMS_METRIC_INC("ddgms.etl.runs");
  DDGMS_METRIC_ADD("ddgms.etl.rows_in", report.input_rows);
  DDGMS_METRIC_ADD("ddgms.etl.rows_out", report.output_rows);
  return report;
}

std::function<Status(Table*)> DeriveYearStep(std::string date_column,
                                             std::string output_column) {
  return [date_column = std::move(date_column),
          output_column = std::move(output_column)](Table* table) {
    DDGMS_ASSIGN_OR_RETURN(const ColumnVector* date,
                           table->ColumnByName(date_column));
    if (date->type() != DataType::kDate) {
      return Status::InvalidArgument("column '" + date_column +
                                     "' is not a date column");
    }
    ColumnVector year(output_column, DataType::kInt64);
    for (size_t i = 0; i < date->size(); ++i) {
      if (date->IsNull(i)) {
        year.AppendNull();
      } else {
        year.AppendInt(date->DateAt(i).year());
      }
    }
    return table->AddColumn(std::move(year));
  };
}

}  // namespace ddgms::etl

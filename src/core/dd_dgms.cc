#include "core/dd_dgms.h"

#include <cassert>
#include <optional>
#include <unordered_set>

#include "common/faults.h"
#include "common/log.h"
#include "common/query_registry.h"
#include "common/strings.h"
#include "common/trace.h"
#include "table/sql.h"

namespace ddgms::core {

namespace {

/// The check Extend(extract, rows) needs: a facade recovered from disk
/// starts with an empty extract, which adopts any batch schema.
Status CheckExtend(const Table& extract, const Table& rows) {
  return extract.num_columns() == 0 ? Status::OK()
                                    : extract.CheckConcat(rows);
}

/// Appends `rows` to `extract` once CheckExtend has passed.
void Extend(Table* extract, Table rows) {
  if (extract->num_columns() == 0) {
    *extract = std::move(rows);
    return;
  }
  Status st = extract->Concat(rows);
  assert(st.ok());
  st.IgnoreError();
}

/// The rows of `after` that `before` does not hold: each row of
/// `before` cancels one equal row (same stage, number, field, status
/// and content) of `after`.
QuarantineReport RowsGained(const QuarantineReport& before,
                            const QuarantineReport& after) {
  std::unordered_multiset<std::string> held;
  for (const QuarantinedRow& row : before.rows()) {
    held.insert(row.ToString());
  }
  QuarantineReport gained;
  for (const QuarantinedRow& row : after.rows()) {
    auto it = held.find(row.ToString());
    if (it == held.end()) {
      gained.Add(row);
    } else {
      held.erase(it);
    }
  }
  return gained;
}

}  // namespace

Result<DdDgms> DdDgms::Build(Table raw,
                             const etl::TransformPipeline& pipeline,
                             warehouse::StarSchemaDef schema_def,
                             RobustnessOptions robustness,
                             QuarantineReport ingest_quarantine) {
  DdDgms dgms(std::move(raw), pipeline, std::move(schema_def),
              std::move(robustness), std::move(ingest_quarantine));
  DDGMS_RETURN_IF_ERROR(dgms.Rebuild(nullptr));
  return dgms;
}

Status DdDgms::Rebuild(const Table* batch) {
  DDGMS_FAULT_POINT("core.rebuild");
  TraceSpan rebuild_span("core.rebuild", "ddgms.core.rebuild_latency_us");
  // Everything up to the warehouse build runs on copies, so a rejected
  // batch leaves the facade as it was.
  Table working = raw_;
  if (batch != nullptr) DDGMS_RETURN_IF_ERROR(working.Concat(*batch));
  rebuild_span.SetAttribute("raw_rows", working.num_rows());
  etl::PipelineRunOptions pipeline_options;
  pipeline_options.error_mode = robustness_.error_mode;
  DDGMS_ASSIGN_OR_RETURN(etl::TransformReport report,
                         pipeline_.Run(&working, pipeline_options));
  warehouse::StarSchemaBuilder builder(schema_def_);
  warehouse::BuildOptions build_options;
  build_options.error_mode = robustness_.error_mode;
  build_options.quarantine = &report.quarantine;
  DDGMS_ASSIGN_OR_RETURN(warehouse::Warehouse wh,
                         builder.Build(working, build_options));
  if (batch != nullptr) Extend(&raw_, *batch);
  transformed_ = std::move(working);
  // Surface the merged view: ingestion-stage rows first, then this
  // run's pipeline and star-schema rows.
  QuarantineReport merged = ingest_quarantine_;
  merged.Merge(report.quarantine);
  // A rebuild quarantines every earlier row again; the sink takes each
  // row once.
  if (robustness_.quarantine_sink != nullptr) {
    robustness_.quarantine_sink->Merge(
        RowsGained(report_.quarantine, merged));
  }
  report.quarantine = std::move(merged);
  report_ = std::move(report);
  if (warehouse_ == nullptr) {
    warehouse_ = std::make_unique<warehouse::Warehouse>(std::move(wh));
  } else {
    // Assign in place so engine/cache pointers into the facade stay
    // valid across AcquireData rebuilds.
    *warehouse_ = std::move(wh);
  }
  rebuild_span.SetAttribute("fact_rows", warehouse_->fact().num_rows());
  rebuild_span.SetAttribute("quarantined", report_.quarantine.size());
  DDGMS_LOG_INFO("core.rebuild")
      .With("raw_rows", raw_.num_rows())
      .With("fact_rows", warehouse_->fact().num_rows())
      .With("quarantined", report_.quarantine.size());
  DDGMS_METRIC_INC("ddgms.core.rebuilds");
  return Status::OK();
}

Result<olap::Cube> DdDgms::Query(const olap::CubeQuery& query) const {
  olap::CubeEngine engine(warehouse_.get());
  return engine.Execute(query);
}

warehouse::TelemetrySampler& DdDgms::telemetry() const {
  if (telemetry_ == nullptr) {
    telemetry_ = std::make_unique<warehouse::TelemetrySampler>();
  }
  return *telemetry_;
}

Result<mdx::MdxResult> DdDgms::QueryMdx(const std::string& mdx_text) const {
  // Live-registered for /queryz and the stall watchdog. ExplainMdx
  // delegates here, so one registration covers both entry points; the
  // executor's stages report parse/compile/execute through the
  // thread-local channel this record opens.
  ScopedQueryRecord inflight("mdx", mdx_text);
  // The FROM clause routes the query: [Telemetry] goes to a warehouse
  // built from the sampler's accumulated history, every other cube to
  // the clinical warehouse.
  mdx::MdxExecutor executor(
      [this](const std::string& cube) -> Result<const warehouse::Warehouse*> {
        if (EqualsIgnoreCase(cube, warehouse_->def().fact_name) ||
            !EqualsIgnoreCase(cube, "Telemetry")) {
          return warehouse_.get();
        }
        DDGMS_ASSIGN_OR_RETURN(warehouse::Warehouse wh,
                               telemetry().BuildWarehouse());
        if (telemetry_warehouse_ == nullptr) {
          telemetry_warehouse_ =
              std::make_unique<warehouse::Warehouse>(std::move(wh));
        } else {
          *telemetry_warehouse_ = std::move(wh);
        }
        return telemetry_warehouse_.get();
      });
  // Clinical queries share the facade's cube cache. [Telemetry] queries
  // bypass it: their warehouse is rebuilt per query, so its new lineage
  // would invalidate every entry anyway.
  if (cube_cache_ == nullptr) {
    cube_cache_ = std::make_unique<olap::CachingCubeEngine>(warehouse_.get());
  }
  executor.set_cube_cache(cube_cache_.get());
  return executor.Execute(mdx_text);
}

Result<olap::PlanNode> DdDgms::ExplainMdx(const std::string& mdx_text) const {
  DDGMS_ASSIGN_OR_RETURN(mdx::MdxResult result, QueryMdx(mdx_text));
  return std::move(result.profile.plan);
}

Result<Table> DdDgms::QuerySql(const std::string& sql) const {
  SqlEngine engine;
  engine.RegisterTable("extract", &transformed_);
  engine.RegisterTable("fact", &warehouse_->fact());
  for (const warehouse::Dimension& dim : warehouse_->dimensions()) {
    engine.RegisterTable(dim.name(), &dim.table());
  }
  return engine.Execute(sql);
}

Result<Table> DdDgms::IsolateSubset(
    const std::vector<std::string>& attributes) const {
  return warehouse_->JoinedView(attributes);
}

Status DdDgms::AddFeedbackDimension(
    const std::string& dimension_name, const std::string& attribute,
    const std::function<Value(const warehouse::Warehouse&, size_t)>&
        labeler) {
  return warehouse_->AddFeedbackDimension(dimension_name, attribute,
                                          labeler);
}

Status DdDgms::AcquireData(const Table& new_raw_rows) {
  if (store_ != nullptr) return AcquireDataDurable(new_raw_rows);
  return Rebuild(&new_raw_rows);
}

Status DdDgms::AcquireDataDurable(const Table& new_raw_rows) {
  DDGMS_FAULT_POINT("core.acquire_durable");
  TraceSpan span("core.acquire_durable");
  span.SetAttribute("raw_rows", new_raw_rows.num_rows());
  // Every check that can reject the batch runs before it is journaled,
  // so a rejected batch leaves no trace and a journaled one always
  // replays. Transform just the batch. Deterministic steps (cleaning,
  // discretisation) behave exactly as in a full rebuild; batch-windowed
  // steps (cardinality) number within the batch, which replay
  // reproduces bit-for-bit because the journal stores the transformed
  // rows, not the raw ones.
  Table batch = new_raw_rows;
  etl::PipelineRunOptions pipeline_options;
  pipeline_options.error_mode = robustness_.error_mode;
  DDGMS_ASSIGN_OR_RETURN(etl::TransformReport batch_report,
                         pipeline_.Run(&batch, pipeline_options));
  // A lenient rebuild would quarantine these rows; so does the append.
  std::optional<Table> kept;
  if (robustness_.error_mode == ErrorMode::kLenient) {
    DDGMS_ASSIGN_OR_RETURN(
        kept, warehouse::QuarantineUnreferencedRows(
                  warehouse_->def(), batch, &batch_report.quarantine));
  }
  const Table& rows = kept ? *kept : batch;
  DDGMS_ASSIGN_OR_RETURN(warehouse::PreparedAppend prepared,
                         warehouse_->PrepareAppend(rows));
  // The facade's flat extracts follow the batch (QuerySql("extract")
  // and future non-durable rebuilds read them).
  DDGMS_RETURN_IF_ERROR(CheckExtend(raw_, new_raw_rows));
  DDGMS_RETURN_IF_ERROR(CheckExtend(transformed_, batch));
  // Write-ahead: the rows are journaled (and fsynced, by default)
  // before they are applied, so an OK from this call means they
  // survive a crash even though no snapshot was taken. Nothing after
  // this point can fail.
  DDGMS_RETURN_IF_ERROR(store_->AppendBatch(rows));
  warehouse_->CommitAppend(std::move(prepared));
  Extend(&raw_, new_raw_rows);
  Extend(&transformed_, std::move(batch));
  if (robustness_.quarantine_sink != nullptr) {
    robustness_.quarantine_sink->Merge(batch_report.quarantine);
  }
  report_.quarantine.Merge(batch_report.quarantine);
  report_.input_rows += batch_report.input_rows;
  report_.output_rows += batch_report.output_rows;
  span.SetAttribute("fact_rows", warehouse_->fact().num_rows());
  DDGMS_METRIC_INC("ddgms.core.durable_acquisitions");
  return Status::OK();
}

Status DdDgms::AttachDurableStorage(const std::string& dir,
                                    warehouse::DurabilityOptions options) {
  if (store_ != nullptr) {
    return Status::FailedPrecondition(
        "durable storage is already attached (" + store_->dir() + ")");
  }
  DDGMS_ASSIGN_OR_RETURN(warehouse::DurableWarehouseStore store,
                         warehouse::DurableWarehouseStore::Open(dir, options));
  DDGMS_RETURN_IF_ERROR(store.CommitSnapshot(*warehouse_));
  store_ = std::make_unique<warehouse::DurableWarehouseStore>(
      std::move(store));
  return Status::OK();
}

Status DdDgms::Checkpoint() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("no durable storage attached");
  }
  return store_->CommitSnapshot(*warehouse_);
}

DdDgms DdDgms::FromDurable(warehouse::Warehouse wh,
                           warehouse::DurableWarehouseStore store,
                           const etl::TransformPipeline& pipeline,
                           RobustnessOptions robustness) {
  DdDgms dgms(Table(), pipeline, wh.def(), std::move(robustness),
              QuarantineReport{});
  dgms.warehouse_ = std::make_unique<warehouse::Warehouse>(std::move(wh));
  dgms.store_ = std::make_unique<warehouse::DurableWarehouseStore>(
      std::move(store));
  return dgms;
}

Result<DdDgms> DdDgms::LoadDurable(const std::string& dir,
                                   const etl::TransformPipeline& pipeline,
                                   RobustnessOptions robustness,
                                   warehouse::DurabilityOptions options) {
  DDGMS_ASSIGN_OR_RETURN(warehouse::DurableWarehouseStore store,
                         warehouse::DurableWarehouseStore::Open(dir, options));
  DDGMS_ASSIGN_OR_RETURN(warehouse::Warehouse wh, store.Load());
  return FromDurable(std::move(wh), std::move(store), pipeline,
                     std::move(robustness));
}

Result<DdDgms> DdDgms::RecoverDurable(const std::string& dir,
                                      const etl::TransformPipeline& pipeline,
                                      warehouse::RecoveryReport* report,
                                      RobustnessOptions robustness,
                                      warehouse::DurabilityOptions options) {
  DDGMS_ASSIGN_OR_RETURN(warehouse::DurableWarehouseStore store,
                         warehouse::DurableWarehouseStore::Open(dir, options));
  DDGMS_ASSIGN_OR_RETURN(warehouse::Warehouse wh, store.Recover(report));
  return FromDurable(std::move(wh), std::move(store), pipeline,
                     std::move(robustness));
}

}  // namespace ddgms::core

#ifndef DDGMS_CORE_DD_DGMS_H_
#define DDGMS_CORE_DD_DGMS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/quarantine.h"
#include "common/result.h"
#include "etl/pipeline.h"
#include "kb/knowledge_base.h"
#include "mdx/executor.h"
#include "olap/cube.h"
#include "table/table.h"
#include "warehouse/persist.h"
#include "warehouse/telemetry.h"
#include "warehouse/warehouse.h"

namespace ddgms::core {

/// End-to-end robustness configuration for a DD-DGMS build: one knob
/// threaded through ingestion (CSV parse), the transform pipeline and
/// the star-schema build.
struct RobustnessOptions {
  /// kStrict (default): fail fast on the first bad row anywhere, the
  /// historical behaviour. kLenient: quarantine bad rows at every
  /// stage and keep loading; the merged QuarantineReport is surfaced
  /// in transform_report().quarantine (and its ToString()).
  ErrorMode error_mode = ErrorMode::kStrict;
  /// Optional external accumulator, so monitoring can watch quality
  /// across loads: the build appends every row it quarantined (the
  /// ingest quarantine handed to Build included), and each AcquireData
  /// appends the rows it quarantined, once. Must outlive the DdDgms.
  QuarantineReport* quarantine_sink = nullptr;
};

/// The integrated Data-Driven Decision Guidance Management System
/// (paper Fig 2): raw clinical extracts flow through the transformation
/// pipeline into a star-schema warehouse; reporting (OLTP/OLAP/MDX),
/// prediction, analytics and optimisation all read from the warehouse;
/// derived findings accumulate in the knowledge base, and accepted
/// findings can be folded back into the warehouse as feedback
/// dimensions — closing the loop.
class DdDgms {
 public:
  /// Builds the platform: runs `pipeline` over a copy of `raw`, then
  /// populates the warehouse per `schema_def`. Strict error handling.
  static Result<DdDgms> Build(Table raw,
                              const etl::TransformPipeline& pipeline,
                              warehouse::StarSchemaDef schema_def) {
    return Build(std::move(raw), pipeline, std::move(schema_def),
                 RobustnessOptions{});
  }

  /// Build with explicit robustness semantics. A caller that loaded
  /// `raw` in lenient mode (Table::FromCsv or FromCsvFile with
  /// CsvReadOptions::quarantine set) hands over that ingestion-stage
  /// quarantine as `ingest_quarantine`, so the surfaced report and the
  /// sink cover the whole load.
  static Result<DdDgms> Build(Table raw,
                              const etl::TransformPipeline& pipeline,
                              warehouse::StarSchemaDef schema_def,
                              RobustnessOptions robustness,
                              QuarantineReport ingest_quarantine = {});

  DdDgms(DdDgms&&) = default;
  DdDgms& operator=(DdDgms&&) = default;
  DdDgms(const DdDgms&) = delete;
  DdDgms& operator=(const DdDgms&) = delete;

  /// The transformed flat extract (post-pipeline).
  const Table& transformed() const { return transformed_; }
  const etl::TransformReport& transform_report() const { return report_; }

  const warehouse::Warehouse& warehouse() const { return *warehouse_; }

  /// OLAP entry point.
  Result<olap::Cube> Query(const olap::CubeQuery& query) const;

  /// MDX entry point. Queries addressing the medical cube run against
  /// the clinical warehouse; `SELECT ... FROM [Telemetry]` runs against
  /// a warehouse built from the telemetry sampler's history, so the
  /// platform analyses its own observability data with the same engine.
  Result<mdx::MdxResult> QueryMdx(const std::string& mdx_text) const;

  /// EXPLAIN ANALYZE: executes `mdx_text` and returns the per-operator
  /// plan tree (times, cardinalities, cube-cache hit/miss, resource
  /// bytes). The query genuinely runs — cardinalities and timings are
  /// measured, not estimated.
  Result<olap::PlanNode> ExplainMdx(const std::string& mdx_text) const;

  /// The flight recorder's telemetry sampler (lazily created). Call
  /// telemetry().Sample() to snapshot metrics and drain spans/events;
  /// QueryMdx over [Telemetry] then sees the accumulated history.
  warehouse::TelemetrySampler& telemetry() const;

  /// SQL entry point over the OLTP layer: the transformed extract is
  /// registered as `extract`, the fact table as `fact`, and each
  /// dimension table under its (lower-cased) dimension name.
  Result<Table> QuerySql(const std::string& sql) const;

  /// Materializes a joined fact+attribute view for the analytics layer.
  Result<Table> IsolateSubset(
      const std::vector<std::string>& attributes) const;

  /// Knowledge base (shared across features).
  kb::KnowledgeBase& knowledge_base() { return kb_; }
  const kb::KnowledgeBase& knowledge_base() const { return kb_; }

  /// Feedback loop (paper §IV Data Warehouse: "further dimensions are
  /// introduced to capture user feedback"): labels every fact row and
  /// registers the labels as a new dimension for future analyses.
  Status AddFeedbackDimension(
      const std::string& dimension_name, const std::string& attribute,
      const std::function<Value(const warehouse::Warehouse&, size_t)>&
          labeler);

  /// Closed-loop data acquisition: appends newly collected raw rows.
  /// Without durable storage this re-runs the pipeline over the full
  /// extract and rebuilds the warehouse (the knowledge base is
  /// preserved); a batch the rebuild rejects is not kept, so no later
  /// acquisition builds it in. With durable storage attached it
  /// switches to the incremental path, in O(batch): the batch alone is
  /// transformed, checked, written to the write-ahead journal (durable
  /// before it is acknowledged), then appended to the warehouse in
  /// place — so acknowledged acquisitions survive a crash without
  /// waiting for the next Checkpoint(). Everything that can reject the
  /// batch runs before the journal write: the pipeline,
  /// Warehouse::PrepareAppend (keys and types of every row), and the
  /// schema match with the accumulated raw and transformed extracts. A
  /// rejected batch is neither journaled nor applied; nothing after the
  /// write can fail. In lenient mode both paths quarantine the rows a
  /// rebuild would (warehouse::QuarantineUnreferencedRows), the journal
  /// holds only the rows applied, and the quarantine sink gets each
  /// quarantined row once.
  Status AcquireData(const Table& new_raw_rows);

  /// -----------------------------------------------------------------
  /// Durable storage (crash-safe snapshots + write-ahead journal; see
  /// warehouse/persist.h for the on-disk protocol).
  /// -----------------------------------------------------------------

  /// Attaches `dir` (must exist) as this platform's durable home and
  /// commits an initial snapshot of the current warehouse. From then
  /// on AcquireData journals batches; call Checkpoint() after
  /// non-journaled mutations (AddFeedbackDimension) or to compact the
  /// journal into a fresh snapshot.
  Status AttachDurableStorage(const std::string& dir,
                              warehouse::DurabilityOptions options = {});

  /// Commits a new snapshot generation of the current warehouse state
  /// and starts a fresh journal.
  Status Checkpoint();

  bool durable() const { return store_ != nullptr; }
  const warehouse::DurableWarehouseStore* durable_store() const {
    return store_.get();
  }

  /// Strict load from a durable store: MANIFEST, snapshot and journal
  /// must all verify — corruption is an error (use RecoverDurable).
  /// The pipeline is needed so subsequent AcquireData calls can
  /// transform new batches; the schema comes from the snapshot.
  static Result<DdDgms> LoadDurable(const std::string& dir,
                                    const etl::TransformPipeline& pipeline,
                                    RobustnessOptions robustness = {},
                                    warehouse::DurabilityOptions options = {});

  /// Crash recovery: salvages the newest intact state (falling back
  /// across snapshot generations, truncating a torn journal tail) and
  /// reports exactly what was recovered via `report` (required).
  static Result<DdDgms> RecoverDurable(
      const std::string& dir, const etl::TransformPipeline& pipeline,
      warehouse::RecoveryReport* report, RobustnessOptions robustness = {},
      warehouse::DurabilityOptions options = {});

  /// The robustness configuration this instance was built with
  /// (reused by AcquireData rebuilds).
  const RobustnessOptions& robustness() const { return robustness_; }

  /// Point-in-time view of the process-wide metrics registry (all
  /// ddgms.* counters, gauges and latency histograms). Empty unless
  /// MetricsRegistry::Enable() was called before the instrumented
  /// work ran.
  static ::ddgms::MetricsSnapshot MetricsSnapshot() {
    return MetricsRegistry::Global().Snapshot();
  }

 private:
  DdDgms(Table raw, etl::TransformPipeline pipeline,
         warehouse::StarSchemaDef schema_def,
         RobustnessOptions robustness,
         QuarantineReport ingest_quarantine)
      : raw_(std::move(raw)),
        pipeline_(std::move(pipeline)),
        schema_def_(std::move(schema_def)),
        robustness_(std::move(robustness)),
        ingest_quarantine_(std::move(ingest_quarantine)) {}

  /// Runs the pipeline and the star-schema build over the raw extract
  /// plus `batch` (when not null), on copies: only a run that succeeds
  /// takes the batch into the extract and replaces the transformed
  /// extract, the report and the warehouse. The sink gets the rows the
  /// surfaced report gained.
  Status Rebuild(const Table* batch);

  /// Builds a facade around an already-materialized warehouse (the
  /// durable load/recover paths, which have no raw extract).
  static DdDgms FromDurable(warehouse::Warehouse wh,
                            warehouse::DurableWarehouseStore store,
                            const etl::TransformPipeline& pipeline,
                            RobustnessOptions robustness);

  /// The incremental, journaled AcquireData path.
  Status AcquireDataDurable(const Table& new_raw_rows);

  Table raw_;  // untouched accumulated extract
  etl::TransformPipeline pipeline_;
  warehouse::StarSchemaDef schema_def_;
  RobustnessOptions robustness_;
  /// Ingestion-stage quarantine captured at load time; re-merged into
  /// the surfaced report on every rebuild.
  QuarantineReport ingest_quarantine_;
  Table transformed_;
  etl::TransformReport report_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  /// Lazily created by telemetry(); mutable so const query paths can
  /// sample and (re)build the self-observation warehouse.
  mutable std::unique_ptr<warehouse::TelemetrySampler> telemetry_;
  /// Rebuilt in place on every [Telemetry] query so pointers held by
  /// in-flight executors stay valid, mirroring warehouse_.
  mutable std::unique_ptr<warehouse::Warehouse> telemetry_warehouse_;
  /// Created by the first QueryMdx, for clinical-cube queries. Safe across
  /// AcquireData rebuilds because Rebuild assigns the warehouse in
  /// place (pointer stable) and the cache checks each entry against the
  /// warehouse's lineage and fact-row count.
  mutable std::unique_ptr<olap::CachingCubeEngine> cube_cache_;
  /// Non-null once durable storage is attached/loaded.
  std::unique_ptr<warehouse::DurableWarehouseStore> store_;
  kb::KnowledgeBase kb_;
};

}  // namespace ddgms::core

#endif  // DDGMS_CORE_DD_DGMS_H_

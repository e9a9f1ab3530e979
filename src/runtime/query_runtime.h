// BlinkDB runtime (paper §4): given a parsed query with error or time bounds,
// select a sample family (§4.1), build an Error-Latency Profile by probing
// the family's smallest resolutions (§4.2), pick the resolution that meets
// the bounds, and execute — reusing the probe's scanned blocks (§4.4).
//
// Execution is plan-based: the runtime's job is planning and policy, and
// every query becomes a physical QueryPlan (src/plan/query_plan.h) driven by
// the one plan driver. A conjunctive query is a 1-pipeline plan over its
// chosen dataset, a disjunctive WHERE is rewritten into an N-pipeline union
// plan with one pipeline per DNF disjunct (§4.1.2) whose pipelines stream
// together under a joint error bound, the EXACT fallback is a 1-pipeline
// plan over the base table, and a live table adds one pipeline per pinned
// ingest run. One entry path (ExecuteLeveled) plans them all.
#ifndef BLINKDB_RUNTIME_QUERY_RUNTIME_H_
#define BLINKDB_RUNTIME_QUERY_RUNTIME_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/answer_cache.h"
#include "src/cluster/cluster_model.h"
#include "src/exec/executor.h"
#include "src/exec/incremental.h"
#include "src/plan/query_plan.h"
#include "src/sample/sample_store.h"
#include "src/sql/ast.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace blink {

// Fixed parameters of bounded execution, shared by the runtime and the
// distributed coordinator so both stop a query on the same rule.
//
// Confidence for queries that name none (time-bounded and unbounded ones).
inline constexpr double kDefaultConfidence = 0.95;
// Minimum matched rows a probe must see before its selectivity estimate is
// trusted; smaller probes escalate to the next resolution ("runs a few
// smaller samples", §4.2). Twice this many matched rows is the guard of the
// resolution choice and of every error stop.
inline constexpr uint64_t kMinProbeMatches = 30;
// Minimum blocks a streamed plan must consume (across its pipelines) before
// an error stop may fire; guards against spurious stops on tiny, noisy
// prefixes.
inline constexpr uint64_t kMinStopBlocks = 4;
// Cap on disjuncts produced by the DNF rewrite before falling back to
// single-family execution of the whole disjunctive predicate (reported as
// ExecutionReport::rewrite_fallback).
inline constexpr size_t kMaxDisjuncts = 16;

struct RuntimeConfig {
  // Reuse the probe's scanned blocks when running the final resolution of the
  // same family (§4.4): the final scan is charged only for the delta bytes.
  // false is the paper's no-reuse baseline (runtime_test's §4.4 comparison).
  bool reuse_intermediate = true;
  // Worker threads for the morsel-driven scan engine. > 1 creates a
  // ThreadPool that also fans out the §4.1.1 family-selection probes.
  // Results are identical for every value (deterministic merge order).
  size_t exec_threads = 1;
  // Target morsel size: the block unit of scans, latency accounting, and
  // §4.4 delta-byte charging.
  uint32_t morsel_rows = kDefaultMorselRows;
  // --- Online incremental execution ---------------------------------------
  // Stream bounded queries through the plan driver: each pipeline's blocks
  // are consumed in prefix order, per-round partials fold into running
  // estimates (combined across pipelines for union plans), and the plan
  // stops the moment every group's error at the query's confidence is inside
  // the bound (ERROR WITHIN) or the time bound's per-pipeline block budgets
  // are exhausted (WITHIN .. SECONDS). The cluster model is charged only for
  // blocks actually consumed. false reproduces the paper's one-shot §4.2
  // projection path exactly: the baseline bench_incremental and
  // bench_disjunctive measure against, and the never-stop oracle of the
  // incremental and fuzz-differential tests.
  bool streaming = true;
  // Blocks each pipeline consumes between stopping-rule evaluations (the
  // round-robin share of the streamed plan). Smaller = finer stops, more
  // re-finalization overhead.
  uint32_t stream_batch_blocks = 16;
  // How streamed multi-pipeline union plans spread blocks across their
  // pipelines (src/plan/scheduler.h). kAdaptive awards each round to the
  // pipeline dominating the joint union error (once every pipeline clears
  // the fairness floor) and drains WITHIN n SECONDS bounds from one shared
  // block-budget pool; kUniform reproduces the fixed round-robin — and its
  // exact block-consumption trace — with static per-pipeline time budgets.
  // Answers under a never-stop drive are bit-identical in both modes.
  // kUniform is bench_adaptive's baseline and the fuzz-differential oracle.
  ScheduleMode schedule_mode = ScheduleMode::kAdaptive;
  // Scan compressed block storage on tables that carry it (see
  // BlinkDB::CompressStorage); false forces raw column scans. Answers and
  // block-consumption traces are bit-identical either way; false is the raw
  // arm of the fuzz-differential test and of bench_scan_throughput.
  bool compressed_scan = true;
  // On compressed scans, evaluate predicates directly over encoded views
  // (dict indices / RLE runs) of filter-only columns instead of decoding
  // them; false forces the decode path. Answers and block-consumption traces
  // are bit-identical either way; false is the decode-then-filter arm of the
  // fuzz-differential test and of bench_scan_throughput.
  bool filter_encoded_views = true;
};

// One point of the Error-Latency Profile.
struct ElpPoint {
  size_t resolution = 0;          // family resolution index (0 = largest)
  uint64_t rows = 0;              // logical sample rows
  uint64_t blocks = 0;            // modeled scan blocks, at paper scale
  double projected_error = 0.0;   // relative (or absolute) error projection
  double projected_latency = 0.0; // modeled seconds
  double projected_matched = 0.0; // rows the query is expected to select
};

// Diagnostics describing how the runtime answered a query.
struct ExecutionReport {
  std::string family;             // "exact", "uniform", "{c1,c2}", or "union"
  size_t resolution = 0;
  uint64_t cap = 0;
  uint64_t rows_read = 0;
  uint64_t blocks_read = 0;       // blocks of the final scan
  uint64_t blocks_reused = 0;     // probe blocks not re-read (§4.4)
  // Streamed executions: engine blocks the plan actually consumed before the
  // stopping rule (or block budgets) ended it. Equals blocks_read for
  // non-streamed paths.
  uint64_t blocks_consumed = 0;
  // Storage bytes the final scan read (encoded bytes of the consumed blocks'
  // touched columns when the table is compressed) and the logical bytes they
  // decoded to — summed across pipelines. Equal on raw storage; the ratio is
  // the realized compression win at the wire layer.
  double bytes_scanned = 0.0;
  double bytes_decoded = 0.0;
  bool stopped_early = false;     // the streamed plan returned before its last block
  // The caller's cancel flag ended the plan at a round boundary; the answer
  // is the partial over the consumed prefixes and — like any early stop —
  // only consumed blocks were charged to the cluster model (§4.4).
  bool cancelled = false;
  double probe_latency = 0.0;     // simulated seconds spent building the ELP
  double execution_latency = 0.0; // simulated seconds of the final run
  double total_latency = 0.0;
  // Real (wall-clock) seconds the query waited in the server's admission
  // queue before a runtime picked it up; 0 for in-process execution. Kept
  // separate from execution_latency so bench numbers decompose into queueing
  // vs work.
  double queue_latency = 0.0;
  // The error bound this execution actually honored: the query's own bound,
  // or the widened rung the server's load-shedding ladder substituted under
  // pressure. 0 for non-error-bounded queries. achieved_error <= this bound
  // whenever stopping succeeded.
  double effective_error_bound = 0.0;
  // Answer-cache outcome: "hit" (stored FINAL served, zero blocks), "resume"
  // (streaming continued from a cached prefix), "miss" (cold execution), or
  // "" when no cache is configured.
  std::string cache;
  double projected_error = 0.0;
  double achieved_error = 0.0;    // self-reported relative error of the answer
  std::vector<ElpPoint> elp;
  size_t num_subqueries = 1;      // union-plan pipelines (>1 when the rewrite fired)
  // The WHERE was disjunctive but the DNF expansion overflowed kMaxDisjuncts,
  // so the query ran as a single scan of the whole disjunctive predicate
  // instead of a union plan (§4.1.2 rewrite abandoned, not silently hidden).
  bool rewrite_fallback = false;
  // Scheduling mode the plan was driven under (RuntimeConfig::schedule_mode).
  ScheduleMode schedule = ScheduleMode::kUniform;
  // Per-pipeline outcomes, index-aligned with the plan's pipelines (a single
  // entry for conjunctive/exact plans): consumed blocks, §4.4 probe reuse,
  // rounds the scheduler granted, and each pipeline's normalized share of the
  // joint error at return. blocks_consumed above is their exact sum.
  std::vector<PipelineOutcome> pipeline_outcomes;
};

struct ApproxAnswer {
  QueryResult result;
  ExecutionReport report;
};

// Optional answer-cache hookup for one Execute call. Null `cache` (the
// default) is exactly the pre-cache code path — no key is built, no lookup
// happens, the block-consumption trace is untouched. `table_generation` is
// the fact table's catalog generation; it keys the cache so mutated tables
// never serve stale snapshots.
struct CacheContext {
  AnswerCache* cache = nullptr;
  uint64_t table_generation = 0;
  // Extra key material appended (after a '|') to the answer-cache key of a
  // query with pinned levels: the snapshot's fingerprint (version + run ids),
  // so two different level sets can never share an entry, even across the
  // window between a publication and its generation bump becoming visible.
  // Flat queries ignore it.
  std::string key_suffix;
};

// One immutable ingest run a leveled query scans in addition to the base
// table: its row store plus whatever sample families the merge built over it
// (empty = the run is scanned exactly — every L0 write buffer, and any merged
// run below the sampling threshold). Pointers borrow from a pinned
// LeveledStore::Snapshot the caller must keep alive across Execute.
struct LevelScan {
  const Table* rows = nullptr;
  std::vector<const SampleFamily*> families;
  std::string label;  // e.g. "run3@L1", for per-pipeline reporting
};

class QueryRuntime {
 public:
  QueryRuntime(const SampleStore* store, const ClusterModel* cluster,
               RuntimeConfig config = {})
      : store_(store), cluster_(cluster), config_(config) {
    if (config_.exec_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(config_.exec_threads);
    }
  }

  // Answers `stmt` over a flat table: ExecuteLeveled with no pinned levels.
  Result<ApproxAnswer> Execute(const SelectStatement& stmt, const std::string& table_name,
                               const Table& fact, double scale_factor,
                               const Table* dim = nullptr,
                               ProgressCallback progress = {},
                               const std::atomic<bool>* cancel = nullptr,
                               const CacheContext& cache_ctx = {},
                               uint32_t batch_blocks_override = 0) const;

  // The one entry path. Answers `stmt` over table `table_name` whose base
  // contents are `fact` plus, on a live table, the pinned ingest runs
  // `levels` (borrowed from a LeveledStore::Snapshot the caller keeps alive;
  // empty for a flat table). Every query takes the same steps:
  //  1. Cache lookup, before any planning (`cache_ctx` carries a cache): a
  //     hit whose achieved error meets the bound — or whose scan is
  //     complete — returns the stored FINAL with zero blocks consumed, a
  //     resumable near-miss streams on from the cached prefix, anything
  //     else is a miss.
  //  2. Sub-statements: on a flat table the distinct DNF disjuncts of a
  //     disjunctive WHERE no single family covers (§4.1.2), else the
  //     statement itself. A live table is never rewritten: a disjunctive
  //     WHERE runs as one scan per pipeline (reported rewrite_fallback), and
  //     quantiles are rejected (t-digests don't merge across level pipelines
  //     with run-local weights).
  //  3. Pipelines: each sub-statement chooses a family (§4.1.1) and plans
  //     its ELP and resolution (§4.2); each pinned run adds one pipeline.
  //     The set runs as one plan under the joint stopping rule.
  // Level pipelines are final-only: their families live in the snapshot,
  // not the SampleStore, so their answers are cached without a resumable
  // prefix and a tighter bound re-runs cold.
  // `scale_factor` maps in-memory bytes to paper-scale bytes for the latency
  // model (a 5M-row stand-in for a 5.5B-row table has scale 1100). `dim` is
  // the joined dimension table, exact and unsampled (§2.1). `progress`, when
  // set, receives the partial answer after every streamed round — for union
  // plans, the combined partial answer across all pipelines — and ends with
  // exactly one final_batch call. `cancel`, when non-null, is a cooperative
  // cancellation flag checked at round boundaries: once true, the plan
  // returns its best partial answer with ExecutionReport::cancelled set, and
  // the cluster model is charged only for the blocks actually consumed (the
  // §4.4 early-stopping rule). `batch_blocks_override`, when nonzero,
  // replaces RuntimeConfig::stream_batch_blocks for this call alone — the
  // per-round block share of streamed pipelines. Distributed workers use it
  // so the coordinator's round size controls the worker's round cadence (and
  // hence where pause points land) without reconfiguring the shared runtime
  // pool.
  Result<ApproxAnswer> ExecuteLeveled(const SelectStatement& stmt,
                                      const std::string& table_name, const Table& fact,
                                      double scale_factor,
                                      const std::vector<LevelScan>& levels,
                                      const Table* dim = nullptr,
                                      ProgressCallback progress = {},
                                      const std::atomic<bool>* cancel = nullptr,
                                      const CacheContext& cache_ctx = {},
                                      uint32_t batch_blocks_override = 0) const;

 private:
  struct FamilyChoice {
    const SampleFamily* family = nullptr;  // null = exact execution
    double selection_probe_latency = 0.0;  // makespan of the parallel probes
    // §4.4: the winning family's escalated probe answer, handed to
    // PlanOnFamily so the probe is neither re-executed nor re-charged.
    std::optional<QueryResult> probe_result;
    size_t probe_resolution = 0;
  };

  // The planned execution of one pipeline plus everything the runtime needs
  // to account for it afterwards (§4.4 reuse, cluster charging, report).
  struct PipelinePlan {
    PipelineSpec spec;             // what the driver scans
    Dataset dataset;               // copy of spec.dataset, for charging
    std::string family_name;
    size_t resolution = 0;         // chosen resolution (0 for exact)
    // The LogicalSample index spec.dataset actually is (streamed error-bound
    // scans run resolution 0 regardless of the chosen/reported resolution);
    // what a cache entry must record to rebuild the dataset at resume.
    size_t scan_resolution = 0;
    // Family identity for cache entries (re-looked-up in the store at
    // resume): uniform flag + the stratified family's column set.
    bool family_uniform = false;
    std::vector<std::string> family_columns;
    uint64_t cap = 0;
    std::vector<ElpPoint> elp;
    double probe_latency = 0.0;    // selection share + own escalation chain
    double projected_error = 0.0;
    uint64_t probe_rows = 0;       // §4.4 prefix already scanned (0 = none)
    uint64_t probe_prefix_blocks = 0;
    bool streamed = false;         // a stop (error or budget) may end the scan
    // Block budget a WITHIN n SECONDS bound affords this pipeline alone
    // (TimeBudgetBlocks); 0 = unbounded. Under uniform scheduling it is the
    // pipeline's static spec.max_blocks cap; under adaptive scheduling the
    // union's budgets merge into one shared pool the scheduler drains.
    uint64_t budget_blocks = 0;
    // Scale the cluster model charges this pipeline's consumed blocks at;
    // 0 = the query's scale_factor. Base pipelines scan samples standing in
    // for a table scale_factor times larger, but an ingest run's rows ARE
    // the data — PlanLevel pins their charge to 1 so the modeled latency
    // matches the estimator's weight-1 semantics.
    double model_scale = 0.0;
    // An ingest run's pipeline (PlanLevel). Its family lives in the pinned
    // snapshot, not the SampleStore, so no later query can re-bind its
    // prefix: a plan holding one is cached as a final answer only — no
    // resume material, family "leveled" — and its exact runs do not keep
    // the answer out of the cache.
    bool final_only = false;
    // Cross-query resume (answer cache): the prefix the pipeline was seeded
    // with via PipelineSpec::resume. The pipeline's outcome still covers the
    // FULL consumed prefix (that is what makes resumed answers bit-identical
    // to cold ones); RunPlan subtracts these so the report charges — and
    // counts — only this run's delta, crediting the prefix as reused blocks.
    uint64_t resume_blocks = 0;
    uint64_t resume_rows = 0;
    double resume_bytes_scanned = 0.0;
    double resume_bytes_decoded = 0.0;
  };

  // How RunPlan talks to the answer cache for one execution: the outcome to
  // stamp into the report, and — for miss/resume outcomes — the key under
  // which to insert the run's answer afterwards. A null `cache` is the
  // cache-free path.
  struct CacheRequest {
    AnswerCache* cache = nullptr;
    std::string key;
    CacheOutcome outcome = CacheOutcome::kMiss;
    // Report flag of the execution, which the entry reproduces on a hit (the
    // plan ran the abandoned-rewrite path).
    bool rewrite_fallback = false;
  };

  // §4.1.2: the sub-statements a flat query's plan scans — its distinct DNF
  // disjuncts when the WHERE is disjunctive, no single family covers it and
  // it asks no quantile; otherwise the statement itself (with the lone
  // disjunct when every disjunct was the same). A DNF overflowing
  // kMaxDisjuncts also runs whole and sets `*rewrite_fallback`.
  std::vector<SelectStatement> SubStatements(const SelectStatement& stmt,
                                             const std::string& table_name,
                                             bool* rewrite_fallback) const;

  // One sub-statement's pipeline: ChooseFamily, then PlanOnFamily on the
  // chosen family or PlanExact when the table has none.
  Result<PipelinePlan> PlanPipeline(const SelectStatement& stmt,
                                    const std::string& table_name, const Table& fact,
                                    double scale_factor, const Table* dim) const;

  // §4.1.1: pick a family for a conjunctive column set. Probes every
  // family's smallest useful resolution concurrently on the thread pool;
  // the selection charge is the makespan (max), not the sum.
  Result<FamilyChoice> ChooseFamily(const SelectStatement& stmt,
                                    const std::string& table_name,
                                    double scale_factor, const Table* dim) const;

  // §4.2: probe + ELP + resolution choice on one family, producing the
  // pipeline the plan driver will scan (streamed with stops when the bounds
  // and config allow, precomputed when §4.4 reuses the probe answer).
  Result<PipelinePlan> PlanOnFamily(const SelectStatement& stmt,
                                    const SampleFamily& family, FamilyChoice choice,
                                    double scale_factor, const Table* dim) const;
  // Exact fallback pipeline over the base table.
  PipelinePlan PlanExact(const SelectStatement& stmt, const Table& fact,
                         const Table* dim) const;

  // One ingest run's final-only pipeline: the run's best covering family at
  // resolution 0 (stratified covering the predicate columns, else uniform,
  // else exact scan of the run's rows), streamed/budgeted the same way the
  // base pipeline is. `sub` is the union-prepared statement.
  PipelinePlan PlanLevel(const SelectStatement& sub, const SelectStatement& stmt,
                         const LevelScan& level, const Table* dim) const;

  // Drives a planned pipeline set and assembles the ExecutionReport:
  // per-pipeline consumed blocks are charged to the cluster model (minus the
  // §4.4 probe prefixes) with makespan latency across pipelines. A fired
  // `cancel` flag ends the drive at a round boundary; the charges then cover
  // exactly the consumed prefixes, never the planned totals. With a cache
  // in `cache_req`, the answer is inserted afterwards.
  Result<ApproxAnswer> RunPlan(const SelectStatement& stmt,
                               std::vector<PipelinePlan> plans, double scale_factor,
                               const ProgressCallback& progress,
                               const std::atomic<bool>* cancel,
                               const CacheRequest& cache_req,
                               uint32_t batch_blocks_override) const;

  // Rebuilds the pipeline plans of a cached entry so RunPlan resumes
  // streaming from the snapshots instead of block 0. Nullopt when the entry
  // no longer matches the store (family dropped or rebuilt with a different
  // decomposition) — the caller then falls back to cold execution.
  std::optional<std::vector<PipelinePlan>> PlanResumeFromCache(
      const SelectStatement& stmt, const std::string& table_name,
      const CacheEntry& entry) const;

  // Serves a FINAL straight from a cache entry: zero blocks consumed, the
  // entry's consumed blocks credited as reused.
  ApproxAnswer ServeCacheHit(const SelectStatement& stmt,
                             const std::shared_ptr<const CacheEntry>& entry,
                             double achieved_error) const;

  // Workload of scanning `ds` minus its first `skip_prefix_rows` rows
  // (a sample-prefix boundary, so the skip is whole blocks). Bytes and block
  // counts are at paper scale.
  QueryWorkload WorkloadForScan(const Dataset& ds, double scale_factor,
                                uint64_t skip_prefix_rows = 0) const;
  // Workload of a consumed block prefix given directly as engine rows/blocks
  // (what a streamed scan reports); bytes and blocks at paper scale.
  QueryWorkload WorkloadForConsumed(const Dataset& ds, double scale_factor,
                                    uint64_t rows, uint64_t blocks) const;
  double LatencyForDataset(const Dataset& ds, double scale_factor) const;
  // §4.4: latency of scanning resolution `larger` given the blocks of
  // resolution `already_scanned` are already in hand. Zero when every block
  // of `larger` was scanned before.
  double DeltaLatency(const SampleFamily& family, size_t larger,
                      size_t already_scanned, double scale_factor) const;
  // Largest block prefix of `ds` whose modeled latency fits in
  // `remaining_seconds`, charging nothing for the first `reused_prefix_rows`
  // rows (the probe's §4.4 prefix). The streamed time-bound budget.
  uint64_t TimeBudgetBlocks(const Dataset& ds, double scale_factor,
                            double remaining_seconds,
                            uint64_t reused_prefix_rows) const;
  // Shared block-budget pool for an adaptively scheduled time-bounded union:
  // the largest total block count, across the union's streamed pipelines,
  // whose combined workload fits in `remaining_seconds` when the pipelines
  // share the cluster's capacity as one scan (§4.4 probe prefixes are free).
  // Conservative next to the per-pipeline concurrent budgets — a pool-sized
  // plan always fits the window under makespan charging too.
  uint64_t PoolBudgetBlocks(const std::vector<PipelinePlan>& plans,
                            double scale_factor, double remaining_seconds) const;

  // Scan-engine options for executions issued from the caller's thread.
  ExecutionOptions ExecOpts() const {
    ExecutionOptions options;
    options.num_threads = std::max<size_t>(1, config_.exec_threads);
    options.morsel_rows = config_.morsel_rows;
    options.pool = pool_.get();
    options.compressed_scan = config_.compressed_scan;
    options.filter_encoded_views = config_.filter_encoded_views;
    return options;
  }

  const SampleStore* store_;
  const ClusterModel* cluster_;
  RuntimeConfig config_;
  // Shared by the scan fan-out and the §4.1.1 probe fan-out. Never used from
  // inside one of its own tasks (tasks run serial scans), so Submit+Wait
  // cannot deadlock.
  std::unique_ptr<ThreadPool> pool_;
};

// Converts a predicate to disjunctive normal form: a list of conjunctive
// predicates whose OR is equivalent. Returns nullopt if the expansion would
// exceed `max_disjuncts`. Exposed for tests.
std::optional<std::vector<Predicate>> ToDnf(const Predicate& pred, size_t max_disjuncts);

// Removes duplicate disjuncts (by canonical rendering, so `x=1 AND y=2`
// equals `y=2 AND x=1`), keeping first occurrences in order. Duplicates —
// e.g. from `x = 1 OR x = 1` — would double-count the union. Exposed for
// tests.
void DedupDisjuncts(std::vector<Predicate>& disjuncts);

// The error metric ExecutionReport::achieved_error reports: the max over
// every group's and aggregate's error at `confidence` — relative by default,
// absolute when the bounds request an absolute target. Zero-valued estimates
// (no meaningful relative error) are excluded from a relative max rather
// than collapsing the whole metric. Exposed for tests.
double ReportedError(const QueryResult& result, const QueryBounds& bounds,
                     double confidence);

// The confidence a query's errors are evaluated at: its own under ERROR
// WITHIN, kDefaultConfidence otherwise.
double ConfidenceFor(const QueryBounds& bounds);

// The joint stopping rule of a streamed plan (or a distributed gather)
// answering under `bounds`: the error target with the kMinStopBlocks and
// 2 x kMinProbeMatches guards under ERROR WITHIN; otherwise a rule that
// never stops on error (a time bound's block budgets end the scan instead).
StopPolicy StopPolicyFor(const QueryBounds& bounds);

// The terminal progress event (final_batch) for `answer`, for executions
// that return without ExecutePlan firing one: cache hits. It carries the
// report's totals — blocks
// consumed out of every pipeline's total, rows read, bytes, achieved error
// — and whether that error meets an ERROR WITHIN bound.
StreamProgress TerminalProgress(const ApproxAnswer& answer, const QueryBounds& bounds);

}  // namespace blink

#endif  // BLINKDB_RUNTIME_QUERY_RUNTIME_H_

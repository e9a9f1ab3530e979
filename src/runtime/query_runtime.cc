#include "src/runtime/query_runtime.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "src/stats/stopping.h"
#include "src/util/string_util.h"

namespace blink {
namespace {

// Renders a family for reports: "uniform" or "{a,b}".
std::string FamilyName(const SampleFamily& family) {
  if (family.kind() == SampleFamily::Kind::kUniform) {
    return "uniform";
  }
  return "{" + Join(family.columns(), ",") + "}";
}

bool HasQuantile(const SelectStatement& stmt) {
  return std::any_of(stmt.items.begin(), stmt.items.end(), [](const SelectItem& item) {
    return item.is_aggregate && item.agg.func == AggFunc::kQuantile;
  });
}

}  // namespace

double ConfidenceFor(const QueryBounds& bounds) {
  return bounds.kind == QueryBounds::Kind::kError ? bounds.confidence
                                                  : kDefaultConfidence;
}

StopPolicy StopPolicyFor(const QueryBounds& bounds) {
  StopPolicy policy;
  policy.confidence = ConfidenceFor(bounds);
  if (bounds.kind == QueryBounds::Kind::kError) {
    policy.target_error = bounds.error;
    policy.relative = bounds.relative;
    policy.min_blocks = kMinStopBlocks;
    // Mirrors the 2x min-matches guard the resolution choice applies.
    policy.min_matched = 2.0 * static_cast<double>(kMinProbeMatches);
  }
  return policy;
}

StreamProgress TerminalProgress(const ApproxAnswer& answer, const QueryBounds& bounds) {
  const ExecutionReport& report = answer.report;
  StreamProgress p;
  p.blocks_consumed = report.blocks_consumed;
  for (const PipelineOutcome& outcome : report.pipeline_outcomes) {
    p.blocks_total += outcome.blocks_total;
  }
  p.rows_consumed = report.rows_read;
  p.rows_total = report.rows_read;
  p.bytes_scanned = report.bytes_scanned;
  p.bytes_decoded = report.bytes_decoded;
  p.achieved_error = report.achieved_error;
  p.bound_met = bounds.kind == QueryBounds::Kind::kError &&
                report.achieved_error <= bounds.error;
  p.final_batch = true;
  p.cache = report.cache;
  return p;
}

double ReportedError(const QueryResult& result, const QueryBounds& bounds,
                     double confidence) {
  // Relative unless the bound asked for an absolute target. The max runs over
  // every group and aggregate; earlier code let one zero-valued group's
  // infinite relative error collapse the whole metric to 0.
  const bool relative = bounds.kind != QueryBounds::Kind::kError || bounds.relative;
  return MaxEstimateError(FlattenEstimates(result), relative, confidence);
}

std::optional<std::vector<Predicate>> ToDnf(const Predicate& pred, size_t max_disjuncts) {
  switch (pred.kind) {
    case Predicate::Kind::kCompare:
      return std::vector<Predicate>{pred};
    case Predicate::Kind::kOr: {
      std::vector<Predicate> out;
      for (const auto& child : pred.children) {
        auto sub = ToDnf(child, max_disjuncts);
        if (!sub.has_value()) {
          return std::nullopt;
        }
        for (auto& p : *sub) {
          out.push_back(std::move(p));
          if (out.size() > max_disjuncts) {
            return std::nullopt;
          }
        }
      }
      return out;
    }
    case Predicate::Kind::kAnd: {
      // Cross product of children DNFs.
      std::vector<Predicate> acc = {Predicate::And({})};
      for (const auto& child : pred.children) {
        auto sub = ToDnf(child, max_disjuncts);
        if (!sub.has_value()) {
          return std::nullopt;
        }
        std::vector<Predicate> next;
        for (const auto& partial : acc) {
          for (const auto& term : *sub) {
            Predicate merged = partial;  // kAnd node
            if (term.kind == Predicate::Kind::kAnd) {
              for (const auto& t : term.children) {
                merged.children.push_back(t);
              }
            } else {
              merged.children.push_back(term);
            }
            next.push_back(std::move(merged));
            if (next.size() > max_disjuncts) {
              return std::nullopt;
            }
          }
        }
        acc = std::move(next);
      }
      // Unwrap single-leaf ANDs for cleanliness.
      for (auto& p : acc) {
        if (p.children.size() == 1) {
          p = p.children[0];
        }
      }
      return acc;
    }
  }
  return std::nullopt;
}

void DedupDisjuncts(std::vector<Predicate>& disjuncts) {
  std::unordered_set<std::string> seen;
  std::vector<Predicate> unique;
  unique.reserve(disjuncts.size());
  for (auto& d : disjuncts) {
    if (seen.insert(d.CanonicalString()).second) {
      unique.push_back(std::move(d));
    }
  }
  disjuncts = std::move(unique);
}

QueryWorkload QueryRuntime::WorkloadForConsumed(const Dataset& ds, double scale_factor,
                                                uint64_t rows, uint64_t blocks) const {
  QueryWorkload workload;
  const double bytes_per_row = ds.table->EstimatedBytesPerRow() * scale_factor;
  workload.input_bytes = static_cast<double>(rows) * bytes_per_row;
  // Blocks, like bytes, are at paper scale: the in-memory stand-in's morsels
  // each represent scale_factor times as much data, so the block count grows
  // by the same factor (keeping avg block bytes = one in-memory morsel).
  workload.input_blocks =
      blocks == 0 ? 0
                  : static_cast<uint64_t>(std::max(
                        1.0, std::ceil(static_cast<double>(blocks) * scale_factor)));
  // Aggregation shuffles a tiny digest per group; negligible next to scans.
  workload.shuffle_bytes = 0.0;
  workload.want_cached = true;
  return workload;
}

QueryWorkload QueryRuntime::WorkloadForScan(const Dataset& ds, double scale_factor,
                                            uint64_t skip_prefix_rows) const {
  // Carving cuts at sample-prefix boundaries, so a skipped prefix is whole
  // blocks: its block count subtracts out exactly, no plan materialization
  // needed.
  const uint64_t total = ds.NumRows();
  const uint64_t skip = std::min(skip_prefix_rows, total);
  const uint64_t blocks =
      CountMorsels(total, config_.morsel_rows, ds.prefix_boundaries) -
      CountMorsels(skip, config_.morsel_rows, ds.prefix_boundaries);
  return WorkloadForConsumed(ds, scale_factor, total - skip, blocks);
}

double QueryRuntime::LatencyForDataset(const Dataset& ds, double scale_factor) const {
  return cluster_->EstimateLatency(WorkloadForScan(ds, scale_factor));
}

uint64_t QueryRuntime::TimeBudgetBlocks(const Dataset& ds, double scale_factor,
                                        double remaining_seconds,
                                        uint64_t reused_prefix_rows) const {
  const MorselPlan plan = ds.PlanMorsels(config_.morsel_rows);
  const uint64_t total = plan.num_blocks();
  if (total == 0) {
    return 0;
  }
  const uint64_t reused_blocks =
      CountMorsels(std::min<uint64_t>(reused_prefix_rows, ds.NumRows()),
                   config_.morsel_rows, ds.prefix_boundaries);
  // Charged latency of consuming the first `blocks` blocks (monotone).
  auto cost = [&](uint64_t blocks) {
    const uint64_t rows = plan.morsels[blocks - 1].end;
    const uint64_t charge_blocks = blocks > reused_blocks ? blocks - reused_blocks : 0;
    if (rows <= reused_prefix_rows || charge_blocks == 0) {
      return 0.0;  // entirely inside the probe's already-scanned prefix
    }
    return cluster_->EstimateLatency(WorkloadForConsumed(
        ds, scale_factor, rows - reused_prefix_rows, charge_blocks));
  };
  if (cost(total) <= remaining_seconds) {
    return total;
  }
  // The reused prefix is free, so at least that much (and never 0 blocks) is
  // always affordable; binary search the boundary above it.
  uint64_t lo = std::max<uint64_t>(1, std::min(reused_blocks, total));
  if (cost(lo) > remaining_seconds) {
    return lo;  // no time left at all: return the minimum meaningful prefix
  }
  uint64_t hi = total;  // invariant: cost(lo) <= remaining < cost(hi)
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (cost(mid) <= remaining_seconds) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint64_t QueryRuntime::PoolBudgetBlocks(const std::vector<PipelinePlan>& plans,
                                        double scale_factor,
                                        double remaining_seconds) const {
  // Pooled pipelines all scan samples of the same fact table, so blocks cost
  // the same everywhere and the pool reduces to "how many morsel-sized blocks
  // fit in the window as one combined scan". The first pooled dataset stands
  // in for the per-block byte cost.
  const Dataset* representative = nullptr;
  uint64_t total = 0;
  uint64_t reused = 0;
  for (const PipelinePlan& p : plans) {
    if (!p.streamed || p.budget_blocks == 0) {
      continue;
    }
    const uint64_t blocks = CountMorsels(p.dataset.NumRows(), config_.morsel_rows,
                                         p.dataset.prefix_boundaries);
    total += blocks;
    if (config_.reuse_intermediate) {
      reused += std::min(blocks, p.probe_prefix_blocks);
    }
    if (representative == nullptr) {
      representative = &p.dataset;
    }
  }
  if (representative == nullptr || total == 0) {
    return 0;
  }
  auto cost = [&](uint64_t blocks) {
    if (blocks <= reused) {
      return 0.0;  // entirely inside the probes' already-scanned prefixes
    }
    const uint64_t charge = blocks - reused;
    return cluster_->EstimateLatency(WorkloadForConsumed(
        *representative, scale_factor, charge * config_.morsel_rows, charge));
  };
  if (cost(total) <= remaining_seconds) {
    return total;
  }
  uint64_t lo = 1;
  if (cost(lo) > remaining_seconds) {
    return lo;  // no time at all: the scheduler's floors still apply
  }
  uint64_t hi = total;  // invariant: cost(lo) <= remaining < cost(hi)
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (cost(mid) <= remaining_seconds) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double QueryRuntime::DeltaLatency(const SampleFamily& family, size_t larger,
                                  size_t already_scanned, double scale_factor) const {
  const QueryWorkload delta =
      WorkloadForScan(family.LogicalSample(larger), scale_factor,
                      family.resolution(already_scanned).rows);
  if (delta.input_blocks == 0) {
    return 0.0;  // every block was read during probing
  }
  return cluster_->EstimateLatency(delta);
}

Result<QueryRuntime::FamilyChoice> QueryRuntime::ChooseFamily(
    const SelectStatement& stmt, const std::string& table_name, double scale_factor,
    const Table* dim) const {
  FamilyChoice choice;
  const std::vector<std::string> phi = stmt.TemplateColumns();

  // §4.1.1 case 1: a stratified family on a superset of phi; fewest columns.
  if (!phi.empty()) {
    const auto covering = store_->CoveringFamilies(table_name, phi);
    if (!covering.empty()) {
      choice.family = covering.front();
      return choice;
    }
  }

  // §4.1.1 case 2: probe the smallest sample of every family in parallel and
  // keep the one with the highest (rows selected / rows read) ratio.
  const auto families = store_->FamiliesFor(table_name);
  if (families.empty()) {
    return choice;  // exact fallback
  }
  if (phi.empty()) {
    // No filtering/grouping columns: the uniform family is the right answer
    // (every stratified sample is biased for no benefit).
    const SampleFamily* uniform = store_->UniformFamily(table_name);
    choice.family = uniform != nullptr ? uniform : families.front();
    return choice;
  }

  // Probe every family's smallest useful resolution. Probes are independent
  // read-only scans, so they fan out on the thread pool (§4.1.1 runs them in
  // parallel); each probe chain escalates while the match count is too small
  // to estimate selectivity (rare slices would otherwise produce pure-noise
  // ratios). Levels are prefixes, so a chain costs one scan of the largest
  // level reached. The reduction below walks families in declaration order,
  // so the outcome does not depend on probe completion order.
  struct ProbeOutcome {
    Status status = Status::Ok();
    QueryResult result;
    size_t resolution = 0;
    double latency = 0.0;
  };
  std::vector<ProbeOutcome> probes(families.size());
  // Results are identical either way (deterministic merge order), and both
  // paths use the configured morsel size so the winning probe's answer —
  // reused verbatim as the final run — carries consistent block accounting.
  auto run_probe = [&](size_t f, const ExecutionOptions& options) {
    const SampleFamily* family = families[f];
    ProbeOutcome& out = probes[f];
    size_t idx = family->smallest_resolution();
    for (;;) {
      auto result = ExecuteQuery(stmt, family->LogicalSample(idx), dim, options);
      if (!result.ok()) {
        out.status = result.status();
        return;
      }
      out.result = std::move(result.value());
      if (out.result.stats.rows_matched >= kMinProbeMatches || idx == 0) {
        break;
      }
      --idx;
    }
    out.resolution = idx;
    out.latency = LatencyForDataset(family->LogicalSample(idx), scale_factor);
  };
  if (pool_ != nullptr && families.size() > 1) {
    // Fan probes out across families; each probe's scan stays serial because
    // a pool task must not Wait() on its own pool.
    ExecutionOptions serial;
    serial.num_threads = 1;
    serial.morsel_rows = config_.morsel_rows;
    for (size_t f = 0; f < families.size(); ++f) {
      pool_->Submit([&run_probe, &serial, f] { run_probe(f, serial); });
    }
    pool_->Wait();
  } else {
    // Single family (or no pool): probes run on the caller's thread, so each
    // scan can parallelize its morsels instead.
    for (size_t f = 0; f < families.size(); ++f) {
      run_probe(f, ExecOpts());
    }
  }

  double best_ratio = -1.0;
  double best_projected_error = std::numeric_limits<double>::infinity();
  double max_probe_latency = 0.0;
  size_t winner = families.size();
  for (size_t f = 0; f < families.size(); ++f) {
    const SampleFamily* family = families[f];
    ProbeOutcome& out = probes[f];
    if (!out.status.ok()) {
      return out.status;
    }
    // Probes run concurrently, so the selection charge is the makespan (the
    // slowest probe), never the sum of per-family scans.
    max_probe_latency = std::max(max_probe_latency, out.latency);
    const QueryResult& result = out.result;
    const uint64_t probe_rows = family->resolution(out.resolution).rows;
    const double ratio =
        result.stats.rows_scanned == 0
            ? 0.0
            : static_cast<double>(result.stats.rows_matched) /
                  static_cast<double>(result.stats.rows_scanned);
    // Error this family could reach at its largest resolution, projected from
    // the probe with the 1/sqrt(n) law. Captures both selectivity and the
    // weight dispersion a mismatched stratification induces. A probe that
    // matched nothing gives no information: treat as unboundedly bad.
    const double probe_error = ReportedError(result, stmt.bounds, kDefaultConfidence);
    const double projected =
        result.stats.rows_matched == 0
            ? std::numeric_limits<double>::infinity()
            : probe_error * std::sqrt(static_cast<double>(probe_rows) /
                                      static_cast<double>(family->resolution(0).rows));
    // Highest selected/read ratio wins (§4.1.1). Escalated probes make the
    // ratio reliable, but families whose ratios land within ~30% of each
    // other are effectively tied; among ties, pick the family whose largest
    // resolution projects the tightest error (this also captures the weight
    // dispersion a mismatched stratification induces, which the ratio alone
    // cannot see).
    const bool in_band = choice.family != nullptr && ratio > best_ratio * 0.7;
    const bool clearly_better = ratio > best_ratio * 1.3;
    bool tied_but_better = false;
    if (in_band && !clearly_better) {
      const bool candidate_uniform = family->kind() == SampleFamily::Kind::kUniform;
      const bool current_uniform =
          choice.family->kind() == SampleFamily::Kind::kUniform;
      if (candidate_uniform != current_uniform) {
        // A mismatched stratification only adds weight dispersion; at equal
        // selectivity the uniform family dominates.
        tied_but_better = candidate_uniform;
      } else {
        tied_but_better = projected < best_projected_error;
      }
    }
    if (choice.family == nullptr || clearly_better || tied_but_better) {
      best_ratio = std::max(ratio, best_ratio);
      best_projected_error = projected;
      choice.family = family;
      winner = f;
    }
  }
  // Probes run in parallel across families (§4.1.1), so charge the max.
  choice.selection_probe_latency = max_probe_latency;
  // §4.4: hand the winner's probe to PlanOnFamily so it is not re-executed.
  if (winner < families.size()) {
    choice.probe_result = std::move(probes[winner].result);
    choice.probe_resolution = probes[winner].resolution;
  }
  return choice;
}

QueryRuntime::PipelinePlan QueryRuntime::PlanExact(const SelectStatement& stmt,
                                                   const Table& fact,
                                                   const Table* dim) const {
  PipelinePlan plan;
  plan.family_name = "exact";
  plan.spec.stmt = stmt;
  plan.spec.dataset = Dataset::Exact(fact);
  plan.spec.dim = dim;
  plan.dataset = plan.spec.dataset;
  return plan;
}

Result<QueryRuntime::PipelinePlan> QueryRuntime::PlanOnFamily(
    const SelectStatement& stmt, const SampleFamily& family, FamilyChoice choice,
    double scale_factor, const Table* dim) const {
  PipelinePlan plan;
  plan.family_name = FamilyName(family);
  plan.family_uniform = family.kind() == SampleFamily::Kind::kUniform;
  plan.family_columns = family.columns();
  plan.probe_latency = choice.selection_probe_latency;

  // --- Probe: smallest resolution, escalating while too few rows match -----
  // Logical samples are prefixes of one another (§4.4), so an escalation
  // chain costs one scan of the largest level reached, not the sum of levels.
  // When family selection already probed this family, its answer is reused
  // verbatim (§4.4) — no re-execution, and its latency is already inside the
  // selection makespan.
  size_t probe_idx;
  QueryResult probe_result;
  if (choice.probe_result.has_value()) {
    probe_idx = choice.probe_resolution;
    probe_result = std::move(*choice.probe_result);
  } else {
    probe_idx = family.smallest_resolution();
    for (;;) {
      const Dataset probe = family.LogicalSample(probe_idx);
      auto result = ExecuteQuery(stmt, probe, dim, ExecOpts());
      if (!result.ok()) {
        return result.status();
      }
      probe_result = std::move(result.value());
      if (probe_result.stats.rows_matched >= kMinProbeMatches || probe_idx == 0) {
        plan.probe_latency += LatencyForDataset(probe, scale_factor);
        break;
      }
      --probe_idx;  // escalate to the next larger resolution
    }
  }
  const uint64_t probe_rows = family.resolution(probe_idx).rows;
  const double confidence = ConfidenceFor(stmt.bounds);
  const double probe_matched =
      std::max<double>(1.0, static_cast<double>(probe_result.stats.rows_matched));
  const double probe_error = ReportedError(probe_result, stmt.bounds, confidence);

  // --- ELP: project error and latency per resolution (§4.2) ----------------
  // Error ~ 1/sqrt(matched rows); matched rows scale with sample rows at
  // fixed selectivity. Latency is modeled over the prefix-aligned block
  // decomposition of each resolution.
  for (size_t i = 0; i < family.num_resolutions(); ++i) {
    ElpPoint point;
    point.resolution = i;
    point.rows = family.resolution(i).rows;
    point.projected_matched =
        probe_matched * static_cast<double>(point.rows) / static_cast<double>(probe_rows);
    point.projected_error =
        probe_error * std::sqrt(probe_matched / std::max(1.0, point.projected_matched));
    const QueryWorkload workload =
        WorkloadForScan(family.LogicalSample(i), scale_factor);
    point.blocks = workload.input_blocks;
    point.projected_latency = cluster_->EstimateLatency(workload);
    plan.elp.push_back(point);
  }

  // --- Resolution choice ----------------------------------------------------
  size_t chosen = 0;  // default: largest (most accurate)
  switch (stmt.bounds.kind) {
    case QueryBounds::Kind::kError: {
      // Smallest sample whose projected error meets the target AND whose
      // expected selected-row count is large enough for the normal-theory
      // intervals to be meaningful (tiny samples under-cover).
      chosen = 0;
      for (size_t i = family.num_resolutions(); i-- > 0;) {
        if (plan.elp[i].projected_error <= stmt.bounds.error &&
            plan.elp[i].projected_matched >= 2.0 * kMinProbeMatches) {
          chosen = i;
          break;
        }
      }
      break;
    }
    case QueryBounds::Kind::kTime: {
      // Largest sample fitting in the remaining time budget. The paper fits a
      // linear latency model from the probe runs; our cost model is already
      // linear in bytes, so the projections coincide.
      const double remaining = stmt.bounds.time_seconds - plan.probe_latency;
      chosen = family.smallest_resolution();
      for (size_t i = 0; i < family.num_resolutions(); ++i) {
        double cost = plan.elp[i].projected_latency;
        if (config_.reuse_intermediate) {
          // §4.4: blocks scanned during probing are not re-read; charge only
          // the delta blocks beyond the probe prefix.
          cost = DeltaLatency(family, i, probe_idx, scale_factor);
        }
        if (cost <= remaining) {
          chosen = i;
          break;  // resolutions are ordered largest-first
        }
      }
      break;
    }
    case QueryBounds::Kind::kNone:
      chosen = 0;
      break;
  }
  plan.resolution = chosen;
  plan.cap = family.resolution(chosen).cap;
  plan.projected_error = plan.elp[chosen].projected_error;
  plan.probe_rows = probe_rows;
  plan.probe_prefix_blocks =
      CountMorsels(probe_rows, config_.morsel_rows, &family.prefix_rows());

  // --- Pipeline construction -------------------------------------------------
  // Streamed bounded queries: consume blocks in prefix order and stop at the
  // bound (or the time budget). The one-shot projection path remains
  // available via RuntimeConfig::streaming = false.
  const bool stream_error = config_.streaming &&
                            stmt.bounds.kind == QueryBounds::Kind::kError &&
                            chosen != probe_idx;
  const bool stream_time = config_.streaming &&
                           stmt.bounds.kind == QueryBounds::Kind::kTime &&
                           chosen != probe_idx;
  plan.spec.stmt = stmt;
  plan.spec.dim = dim;
  if (chosen == probe_idx) {
    // §4.4: the probe answer is the answer; the pipeline is born complete.
    plan.spec.dataset = family.LogicalSample(chosen);
    plan.spec.precomputed = std::move(probe_result);
    plan.scan_resolution = chosen;
  } else if (stream_error) {
    // Stream the LARGEST resolution: prefix order passes through every
    // smaller resolution on the way, so the scan lands exactly where the
    // bound is met — below the projected resolution when the ELP overshot,
    // beyond it (automatic escalation) when it undershot.
    plan.spec.dataset = family.LogicalSample(0);
    plan.scan_resolution = 0;
    plan.streamed = true;
  } else if (stream_time) {
    // Stream the chosen resolution under the block budget the remaining time
    // buys for this pipeline. RunPlan merges union pipelines' budgets into
    // one shared pool under adaptive scheduling; the static per-pipeline cap
    // is the uniform-schedule (pre-pool) behavior.
    plan.spec.dataset = family.LogicalSample(chosen);
    plan.budget_blocks = TimeBudgetBlocks(
        plan.spec.dataset, scale_factor,
        stmt.bounds.time_seconds - plan.probe_latency,
        config_.reuse_intermediate ? probe_rows : 0);
    plan.spec.max_blocks = plan.budget_blocks;
    plan.scan_resolution = chosen;
    plan.streamed = true;
  } else {
    plan.spec.dataset = family.LogicalSample(chosen);
    plan.scan_resolution = chosen;
  }
  plan.dataset = plan.spec.dataset;
  return plan;
}

Result<ApproxAnswer> QueryRuntime::RunPlan(const SelectStatement& stmt,
                                           std::vector<PipelinePlan> plans,
                                           double scale_factor,
                                           const ProgressCallback& progress,
                                           const std::atomic<bool>* cancel,
                                           const CacheRequest& cache_req,
                                           uint32_t batch_blocks_override) const {
  const double confidence = ConfidenceFor(stmt.bounds);
  bool any_streamed = false;
  bool final_only = false;
  double max_probe_latency = 0.0;
  for (const auto& p : plans) {
    any_streamed = any_streamed || p.streamed;
    final_only = final_only || p.final_only;
    max_probe_latency = std::max(max_probe_latency, p.probe_latency);
  }

  // What can be cached: the caller only asks for streamed-capable answers
  // that are not time-bounded (block budgets depend on the clock, not the
  // data). A resumable entry excludes exact pipelines (prefixes of
  // unshuffled tables don't resume); a final-only entry resumes nothing.
  bool cacheable = cache_req.cache != nullptr;
  for (const auto& p : plans) {
    cacheable = cacheable && (final_only || !p.spec.dataset.is_exact());
  }
  const bool resumable = cacheable && !final_only;
  // Capture what the entry needs before the specs are moved into the plan.
  std::vector<CachedPipeline> cached_pipes;
  if (resumable) {
    cached_pipes.reserve(plans.size());
    for (const auto& p : plans) {
      CachedPipeline cp;
      cp.stmt = p.spec.stmt;
      cp.is_uniform = p.family_uniform;
      cp.family_columns = p.family_columns;
      cp.family_name = p.family_name;
      cp.resolution = p.scan_resolution;
      if (p.spec.precomputed.has_value()) {
        cp.precomputed = std::make_shared<QueryResult>(*p.spec.precomputed);
      }
      cached_pipes.push_back(std::move(cp));
    }
  }

  PlanOptions options;
  options.exec = ExecOpts();
  // Non-streamed plans drive each pipeline as one maximal batch: the
  // never-stop one-shot fast path (and exactly one progress callback).
  options.batch_blocks = any_streamed ? (batch_blocks_override > 0
                                             ? batch_blocks_override
                                             : config_.stream_batch_blocks)
                                      : 0;
  // A plan with no streamed pipeline never stops; its progress errors are
  // still evaluated at the report's confidence.
  options.policy = any_streamed ? StopPolicyFor(stmt.bounds) : StopPolicy{};
  options.policy.confidence = confidence;
  options.progress = progress;
  options.cancel = cancel;
  options.schedule = config_.schedule_mode;
  // Adaptive time-bounded unions drain one shared block-budget pool instead
  // of the static per-pipeline TimeBudgetBlocks caps: blocks the window
  // affords go wherever the joint error is worst. Single-pipeline plans keep
  // the per-pipeline cap (the pool degenerates to it anyway), and uniform
  // scheduling keeps the static split — and its exact consumption trace.
  if (config_.schedule_mode == ScheduleMode::kAdaptive && plans.size() > 1 &&
      stmt.bounds.kind == QueryBounds::Kind::kTime) {
    const uint64_t pool = PoolBudgetBlocks(
        plans, scale_factor, stmt.bounds.time_seconds - max_probe_latency);
    if (pool > 0) {
      options.budget_pool = pool;
      for (auto& p : plans) {
        if (p.streamed && p.budget_blocks > 0) {
          p.spec.max_blocks = 0;  // the pool gates it now
        }
      }
    }
  }

  options.export_state = resumable;

  QueryPlan plan;
  plan.pipelines.reserve(plans.size());
  for (auto& p : plans) {
    plan.pipelines.push_back(std::move(p.spec));
  }
  if (plans.size() > 1) {
    plan.combiner.emplace(stmt);
  }

  auto run = ExecutePlan(plan, options);
  if (!run.ok()) {
    return run.status();
  }

  // --- Accounting: §4.4 reuse + per-pipeline consumed-block charges ----------
  ExecutionReport report;
  report.num_subqueries = plans.size();
  report.schedule = config_.schedule_mode;
  report.cancelled = run->cancelled;
  report.effective_error_bound =
      stmt.bounds.kind == QueryBounds::Kind::kError ? stmt.bounds.error : 0.0;
  report.rewrite_fallback = cache_req.rewrite_fallback;
  if (cache_req.cache != nullptr) {
    report.cache = CacheOutcomeName(cache_req.outcome);
  }
  if (plans.size() == 1) {
    const PipelinePlan& p = plans.front();
    report.family = p.family_name;
    report.resolution = p.resolution;
    report.cap = p.cap;
    report.elp = p.elp;
    report.projected_error = p.projected_error;
  } else {
    report.family = final_only ? "leveled" : "union";
  }

  double max_pipeline_total = 0.0;
  // Full consumed-prefix totals (pre-discount): what a cache entry records,
  // since a resumed-from entry's prefix covers the earlier queries' blocks.
  uint64_t full_blocks_consumed = 0;
  uint64_t full_rows_consumed = 0;
  std::vector<QueryWorkload> charged;  // per-pipeline consumed-block workloads
  charged.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    const PipelinePlan& p = plans[i];
    PipelineOutcome& outcome = run->pipelines[i];
    report.probe_latency += p.probe_latency;
    full_blocks_consumed += outcome.blocks_consumed;
    full_rows_consumed += outcome.rows_consumed;
    // Early-stop is a property of the FULL consumed prefix, so judge it
    // before any resume discount shrinks the counts.
    report.stopped_early =
        report.stopped_early || outcome.blocks_consumed < outcome.blocks_total;
    if (p.resume_blocks > 0) {
      // Cross-query reuse: the cached prefix was scanned by an earlier query.
      // Credit it like a §4.4 probe prefix — this run consumed (and is
      // charged for) only the delta beyond the snapshot.
      const uint64_t reused = std::min(outcome.blocks_consumed, p.resume_blocks);
      report.blocks_reused += reused;
      outcome.blocks_consumed -= reused;
      outcome.rows_consumed -= std::min(outcome.rows_consumed, p.resume_rows);
      outcome.bytes_scanned = std::max(0.0, outcome.bytes_scanned - p.resume_bytes_scanned);
      outcome.bytes_decoded = std::max(0.0, outcome.bytes_decoded - p.resume_bytes_decoded);
    }
    report.rows_read += outcome.rows_consumed;
    report.blocks_read += outcome.blocks_consumed;
    report.blocks_consumed += outcome.blocks_consumed;
    report.bytes_scanned += outcome.bytes_scanned;
    report.bytes_decoded += outcome.bytes_decoded;

    double exec_latency = 0.0;
    if (outcome.reused_probe) {
      // §4.4: nothing was scanned; the probe's blocks stand in for the run.
      report.blocks_reused += outcome.blocks_consumed;
    } else {
      uint64_t charge_rows = outcome.rows_consumed;
      uint64_t charge_blocks = outcome.blocks_consumed;
      if (config_.reuse_intermediate && p.probe_rows > 0) {
        // The probe's prefix blocks were already scanned; charge only the
        // consumed blocks beyond them.
        const uint64_t reused = std::min(charge_blocks, p.probe_prefix_blocks);
        report.blocks_reused += reused;
        charge_rows -= std::min(charge_rows, p.probe_rows);
        charge_blocks -= reused;
      }
      if (charge_blocks > 0) {
        const double charge_scale =
            p.model_scale > 0.0 ? p.model_scale : scale_factor;
        charged.push_back(
            WorkloadForConsumed(p.dataset, charge_scale, charge_rows, charge_blocks));
        exec_latency = cluster_->EstimateLatency(charged.back());
      }
    }
    // Pipelines run concurrently on the cluster; a pipeline's own critical
    // path is its probe chain plus its scan.
    max_pipeline_total = std::max(max_pipeline_total, p.probe_latency + exec_latency);
  }
  // Concurrent pipelines: the execution charge is the makespan of the
  // per-pipeline consumed-block workloads, never their sum.
  report.execution_latency = cluster_->MakespanLatency(charged);
  report.total_latency = max_pipeline_total;
  report.pipeline_outcomes = std::move(run->pipelines);

  QueryResult result = std::move(run->result);
  result.confidence = confidence;
  report.achieved_error = ReportedError(result, stmt.bounds, confidence);

  // --- Cache insertion --------------------------------------------------------
  // A cancelled drive is not inserted: its report semantics (cancelled=true)
  // would leak into later hits. Resumed runs DO insert — the refreshed entry
  // supersedes the shorter prefix under the same key.
  if (cacheable && !run->cancelled) {
    // "Complete" gates the serve-regardless-of-bound hit path, so it must
    // mean "no tighter answer exists": every scan covered its family's
    // MAXIMAL logical sample end to end. A probe answer (reused_probe) or
    // full scan over a coarser resolution is complete for its own dataset,
    // but a re-execution could still tighten it by streaming resolution 0.
    bool complete = true;
    for (size_t i = 0; i < plans.size(); ++i) {
      const PipelineOutcome& outcome = report.pipeline_outcomes[i];
      complete = complete && plans[i].scan_resolution == 0 &&
                 (outcome.reused_probe ||
                  outcome.blocks_consumed + plans[i].resume_blocks >=
                      outcome.blocks_total);
    }
    // Resume material: a snapshot (or §4.4 probe answer) per pipeline. A
    // final-only plan exports none and caches just its FINAL.
    bool have_snapshot = false;
    bool consistent = !resumable || run->states.size() == cached_pipes.size();
    for (size_t i = 0; consistent && i < cached_pipes.size(); ++i) {
      cached_pipes[i].snapshot = run->states[i];
      if (cached_pipes[i].snapshot != nullptr) {
        have_snapshot = true;
      } else if (cached_pipes[i].precomputed == nullptr) {
        consistent = false;  // nothing reusable for this pipeline
      }
    }
    if (consistent) {
      auto entry = std::make_shared<CacheEntry>();
      entry->result = result;
      entry->result_confidence = confidence;
      entry->complete = complete;
      entry->resumable = have_snapshot;
      entry->blocks_consumed = full_blocks_consumed;
      entry->blocks_total = 0;
      for (const PipelineOutcome& outcome : report.pipeline_outcomes) {
        entry->blocks_total += outcome.blocks_total;
      }
      entry->rows_consumed = full_rows_consumed;
      entry->family = report.family;
      entry->resolution = report.resolution;
      entry->cap = report.cap;
      entry->projected_error = report.projected_error;
      entry->num_subqueries = report.num_subqueries;
      entry->rewrite_fallback = cache_req.rewrite_fallback;
      entry->pipelines = std::move(cached_pipes);
      cache_req.cache->Insert(cache_req.key, std::move(entry));
    }
  }
  return ApproxAnswer{std::move(result), std::move(report)};
}

std::optional<std::vector<QueryRuntime::PipelinePlan>> QueryRuntime::PlanResumeFromCache(
    const SelectStatement& stmt, const std::string& table_name,
    const CacheEntry& entry) const {
  std::vector<PipelinePlan> plans;
  plans.reserve(entry.pipelines.size());
  for (const CachedPipeline& cp : entry.pipelines) {
    const SampleFamily* family =
        cp.is_uniform ? store_->UniformFamily(table_name)
                      : store_->FindStratified(table_name, cp.family_columns);
    if (family == nullptr || cp.resolution >= family->num_resolutions()) {
      return std::nullopt;  // family dropped or reshaped since the entry
    }
    PipelinePlan plan;
    plan.family_name = cp.family_name;
    plan.family_uniform = cp.is_uniform;
    plan.family_columns = cp.family_columns;
    plan.resolution = cp.resolution;
    plan.scan_resolution = cp.resolution;
    plan.cap = family->resolution(cp.resolution).cap;
    plan.projected_error = entry.projected_error;
    plan.spec.stmt = cp.stmt;
    // The cached sub-statement's shape matches by key construction; only the
    // bound may differ — the incoming query's governs this run.
    plan.spec.stmt.bounds = stmt.bounds;
    plan.spec.dataset = family->LogicalSample(cp.resolution);
    plan.dataset = plan.spec.dataset;
    if (cp.resolution != 0) {
      // The stored scan ran a coarser resolution than the maximal sample. A
      // tighter bound must escalate past it, and only the cold planner (ELP
      // probes) knows how — run cold rather than resume into a dead end.
      return std::nullopt;
    }
    if (cp.precomputed != nullptr) {
      plan.spec.precomputed = *cp.precomputed;
    } else {
      if (cp.snapshot == nullptr ||
          cp.snapshot->rows_total != plan.spec.dataset.NumRows() ||
          cp.snapshot->morsel_rows != config_.morsel_rows) {
        return std::nullopt;  // decomposition changed: snapshot unusable
      }
      plan.spec.resume = cp.snapshot;
      plan.resume_blocks = cp.snapshot->consumed;
      plan.resume_rows = cp.snapshot->rows_consumed;
      plan.resume_bytes_scanned = cp.snapshot->bytes_scanned;
      plan.resume_bytes_decoded = cp.snapshot->bytes_decoded;
      plan.streamed =
          config_.streaming && stmt.bounds.kind == QueryBounds::Kind::kError;
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

ApproxAnswer QueryRuntime::ServeCacheHit(const SelectStatement& stmt,
                                         const std::shared_ptr<const CacheEntry>& entry,
                                         double achieved_error) const {
  ApproxAnswer answer;
  answer.result = entry->result;
  answer.result.confidence = ConfidenceFor(stmt.bounds);
  ExecutionReport& report = answer.report;
  report.family = entry->family;
  report.resolution = entry->resolution;
  report.cap = entry->cap;
  report.projected_error = entry->projected_error;
  report.num_subqueries = entry->num_subqueries;
  report.schedule = config_.schedule_mode;
  // Zero work this run: nothing read, nothing charged. The entry's consumed
  // prefix is credited as reused blocks, the cross-query form of §4.4.
  report.blocks_reused = entry->blocks_consumed;
  report.stopped_early = !entry->complete;
  report.achieved_error = achieved_error;
  report.effective_error_bound =
      stmt.bounds.kind == QueryBounds::Kind::kError ? stmt.bounds.error : 0.0;
  report.rewrite_fallback = entry->rewrite_fallback;
  report.cache = CacheOutcomeName(CacheOutcome::kHit);
  return answer;
}

std::vector<SelectStatement> QueryRuntime::SubStatements(const SelectStatement& stmt,
                                                         const std::string& table_name,
                                                         bool* rewrite_fallback) const {
  // A disjunctive WHERE with no single covering family is rewritten as a
  // union of conjunctive subqueries (§4.1.2). Quantiles cannot be recombined
  // across disjuncts, so they always run whole.
  if (!stmt.where.has_value() || stmt.where->IsConjunctive() || HasQuantile(stmt) ||
      !store_->CoveringFamilies(table_name, stmt.TemplateColumns()).empty()) {
    return {stmt};
  }
  auto disjuncts = ToDnf(*stmt.where, kMaxDisjuncts);
  if (!disjuncts.has_value()) {
    // DNF overflow: run the whole disjunctive predicate as one scan, and say
    // so instead of falling back silently.
    *rewrite_fallback = true;
    return {stmt};
  }
  // Duplicates (e.g. `x = 1 OR x = 1`) would double-count the union; when
  // every disjunct was the same, the query is really conjunctive and runs
  // the lone disjunct as a plain query.
  DedupDisjuncts(*disjuncts);
  std::vector<SelectStatement> subs;
  subs.reserve(disjuncts->size());
  for (Predicate& disjunct : *disjuncts) {
    subs.push_back(stmt);
    subs.back().where = std::move(disjunct);
  }
  return subs;
}

Result<QueryRuntime::PipelinePlan> QueryRuntime::PlanPipeline(
    const SelectStatement& stmt, const std::string& table_name, const Table& fact,
    double scale_factor, const Table* dim) const {
  auto choice = ChooseFamily(stmt, table_name, scale_factor, dim);
  if (!choice.ok()) {
    return choice.status();
  }
  if (choice->family == nullptr) {
    return PlanExact(stmt, fact, dim);
  }
  const SampleFamily* family = choice->family;
  return PlanOnFamily(stmt, *family, std::move(*choice), scale_factor, dim);
}

QueryRuntime::PipelinePlan QueryRuntime::PlanLevel(const SelectStatement& sub,
                                                   const SelectStatement& stmt,
                                                   const LevelScan& level,
                                                   const Table* dim) const {
  // Family choice mirrors §4.1.1 without probing: runs are orders of
  // magnitude smaller than the base table, so the covering-stratified /
  // uniform / exact preference order is decided structurally. Probing every
  // run would cost more than it saves.
  const std::vector<std::string> phi = sub.TemplateColumns();
  const SampleFamily* family = nullptr;
  if (!phi.empty()) {
    for (const SampleFamily* f : level.families) {
      if (f == nullptr || f->kind() != SampleFamily::Kind::kStratified) {
        continue;
      }
      if (std::includes(f->columns().begin(), f->columns().end(), phi.begin(),
                        phi.end()) &&
          (family == nullptr || f->columns().size() < family->columns().size())) {
        family = f;
      }
    }
  }
  if (family == nullptr) {
    for (const SampleFamily* f : level.families) {
      if (f != nullptr && f->kind() == SampleFamily::Kind::kUniform) {
        family = f;
        break;
      }
    }
  }
  if (family == nullptr) {
    // Exact scan of the run's rows: an L0 write buffer (or a merged run below
    // the sampling threshold) is a weight-1 stratum — a valid sample prefix
    // by construction, contributing zero variance to the union.
    PipelinePlan plan = PlanExact(sub, *level.rows, dim);
    plan.family_name = level.label + ":exact";
    plan.model_scale = 1.0;
    plan.final_only = true;
    return plan;
  }

  PipelinePlan plan;
  plan.final_only = true;
  plan.family_name = level.label + ":" + FamilyName(*family);
  plan.family_uniform = family->kind() == SampleFamily::Kind::kUniform;
  plan.family_columns = family->columns();
  plan.spec.stmt = sub;
  plan.spec.dim = dim;
  // Always the maximal logical sample, like the streamed-error flat path:
  // prefix order passes through every smaller resolution, so the joint
  // stopping rule lands the run's scan exactly where the union bound is met.
  plan.spec.dataset = family->LogicalSample(0);
  plan.resolution = 0;
  plan.scan_resolution = 0;
  plan.cap = family->resolution(0).cap;
  plan.model_scale = 1.0;
  switch (stmt.bounds.kind) {
    case QueryBounds::Kind::kError:
      plan.streamed = config_.streaming;
      break;
    case QueryBounds::Kind::kTime:
      if (config_.streaming) {
        plan.streamed = true;
        plan.budget_blocks =
            TimeBudgetBlocks(plan.spec.dataset, /*scale_factor=*/1.0,
                             stmt.bounds.time_seconds, /*reused_prefix_rows=*/0);
        plan.spec.max_blocks = plan.budget_blocks;
      }
      break;
    case QueryBounds::Kind::kNone:
      break;
  }
  plan.dataset = plan.spec.dataset;
  return plan;
}

Result<ApproxAnswer> QueryRuntime::Execute(const SelectStatement& stmt,
                                           const std::string& table_name,
                                           const Table& fact, double scale_factor,
                                           const Table* dim,
                                           ProgressCallback progress,
                                           const std::atomic<bool>* cancel,
                                           const CacheContext& cache_ctx,
                                           uint32_t batch_blocks_override) const {
  return ExecuteLeveled(stmt, table_name, fact, scale_factor, /*levels=*/{}, dim,
                        std::move(progress), cancel, cache_ctx, batch_blocks_override);
}

Result<ApproxAnswer> QueryRuntime::ExecuteLeveled(
    const SelectStatement& stmt, const std::string& table_name, const Table& fact,
    double scale_factor, const std::vector<LevelScan>& levels, const Table* dim,
    ProgressCallback progress, const std::atomic<bool>* cancel,
    const CacheContext& cache_ctx, uint32_t batch_blocks_override) const {
  if (!levels.empty() && HasQuantile(stmt)) {
    return Status::Unimplemented(
        "quantiles over a leveled table are not supported: t-digests do not "
        "recombine across level pipelines with run-local weights");
  }

  // --- Answer cache: hit / resume / miss, before any planning ---------------
  // Time-bounded queries are never cached (their budgets depend on the
  // clock); with no cache configured this block is a no-op and the code path
  // below is byte-for-byte the cache-free behavior. A leveled key carries the
  // pinned snapshot's fingerprint on top of the generation: two different
  // level sets can never share an entry.
  CacheRequest cache_req;
  if (cache_ctx.cache != nullptr && config_.streaming &&
      stmt.bounds.kind != QueryBounds::Kind::kTime) {
    cache_req.cache = cache_ctx.cache;
    cache_req.key = AnswerCacheKey(stmt, cache_ctx.table_generation,
                                   config_.morsel_rows, config_.compressed_scan,
                                   config_.filter_encoded_views);
    if (!levels.empty()) {
      cache_req.key += "|" + cache_ctx.key_suffix;
    }
  }
  // Every partial the plan streams carries the cache outcome, settled before
  // the first one fires. ExecutePlan ends every plan it runs with the
  // final_batch call itself; only a hit synthesizes one.
  ProgressCallback stamped;
  if (progress && cache_req.cache != nullptr) {
    stamped = [&progress, &cache_req](const QueryResult& partial,
                                      const StreamProgress& p) {
      StreamProgress with_cache = p;
      with_cache.cache = CacheOutcomeName(cache_req.outcome);
      progress(partial, with_cache);
    };
  }
  const ProgressCallback& on_round = stamped ? stamped : progress;
  if (cache_req.cache != nullptr) {
    if (auto entry = cache_req.cache->Lookup(cache_req.key)) {
      const double err =
          ReportedError(entry->result, stmt.bounds, ConfidenceFor(stmt.bounds));
      const bool meets = stmt.bounds.kind == QueryBounds::Kind::kError &&
                         err <= stmt.bounds.error;
      if (meets || entry->complete) {
        // The cached answer already satisfies this query — or its scan is
        // complete, so re-executing could not tighten it. Serve the stored
        // FINAL: zero blocks consumed, microsecond latency.
        cache_req.cache->RecordOutcome(CacheOutcome::kHit);
        ApproxAnswer hit = ServeCacheHit(stmt, entry, err);
        if (progress) {
          progress(hit.result, TerminalProgress(hit, stmt.bounds));
        }
        return hit;
      }
      auto resumed = entry->resumable ? PlanResumeFromCache(stmt, table_name, *entry)
                                      : std::nullopt;
      if (resumed.has_value()) {
        // Near-miss: the cached error is wider than the incoming bound. Seed
        // the pipelines with the snapshots and stream on from the cached
        // prefix — strictly fewer blocks than a cold run, same answer bits.
        // (No resume when the store changed under the entry: run cold.)
        cache_req.outcome = CacheOutcome::kResume;
        cache_req.rewrite_fallback = entry->rewrite_fallback;
        cache_req.cache->RecordOutcome(CacheOutcome::kResume);
        return RunPlan(stmt, std::move(*resumed), scale_factor, on_round, cancel,
                       cache_req, batch_blocks_override);
      }
    }
    cache_req.cache->RecordOutcome(CacheOutcome::kMiss);
  }

  // --- Sub-statements --------------------------------------------------------
  // No DNF rewrite with levels pinned: a disjunctive WHERE runs as one scan
  // of the whole predicate per pipeline (the pipeline set stays levels + 1),
  // and the report says so via rewrite_fallback — the same contract as the
  // overflow fallback of the flat path.
  std::vector<SelectStatement> subs;
  if (levels.empty()) {
    subs = SubStatements(stmt, table_name, &cache_req.rewrite_fallback);
  } else {
    cache_req.rewrite_fallback = stmt.where.has_value() && !stmt.where->IsConjunctive();
    subs.push_back(stmt);
  }

  // --- Pipelines: one per sub-statement, plus one per pinned run ------------
  // Union plans recombine AVG through a COUNT column, so every subquery gets
  // the helper before family selection probes it — the probes then carry
  // the same aggregate shape the pipelines scan.
  const UnionCombiner combiner(stmt);
  const bool is_union = subs.size() + levels.size() > 1;
  std::vector<PipelinePlan> plans;
  plans.reserve(subs.size() + levels.size());
  for (SelectStatement& sub : subs) {
    if (is_union) {
      combiner.PrepareSubquery(sub);
    }
    auto plan = PlanPipeline(sub, table_name, fact, scale_factor, dim);
    if (!plan.ok()) {
      return plan.status();
    }
    plans.push_back(std::move(plan.value()));
  }
  for (const LevelScan& level : levels) {
    plans.push_back(PlanLevel(subs.front(), stmt, level, dim));
  }
  return RunPlan(stmt, std::move(plans), scale_factor, on_round, cancel, cache_req,
                 batch_blocks_override);
}

}  // namespace blink

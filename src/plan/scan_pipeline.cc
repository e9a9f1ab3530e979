#include "src/plan/scan_pipeline.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/util/thread_pool.h"

namespace blink {

using exec_internal::BindQuery;
using exec_internal::Finalize;
using exec_internal::MorselPartial;
using exec_internal::ProcessMorsel;

Status ScanPipeline::Init(PipelineSpec spec, const ExecutionOptions& exec,
                          bool may_stop_early) {
  spec_ = std::move(spec);
  exec_ = exec;
  auto bound = BindQuery(spec_.stmt, spec_.dataset, spec_.dim);
  if (!bound.ok()) {
    return bound.status();
  }
  bound_ = std::move(bound.value());
  if (!exec_.compressed_scan) {
    bound_.encoded = nullptr;  // force the raw span path
  }
  bound_.use_encoded_views = exec_.filter_encoded_views;
  plan_ = spec_.dataset.PlanMorsels(exec_.morsel_rows);
  stats_.block_rows = plan_.target_rows;

  if (exact()) {
    // A row prefix of an exact table is not a random sample: estimates over
    // it would be biased by the table's physical row order. Never stop early.
    spec_.max_blocks = 0;
    may_stop_early = false;
  }
  // Prefix stratum counts are only meaningful (and only needed) on samples
  // whose scan may end before the last block.
  track_prefix_ = may_stop_early && !exact();

  // No stop may end this pipeline before the smallest resolution's prefix
  // boundary: it is the first row prefix guaranteed to contain rows of every
  // stratum, so stopping inside it could silently drop whole strata.
  const uint64_t n = spec_.dataset.NumRows();
  if (spec_.dataset.prefix_boundaries != nullptr) {
    for (uint64_t boundary : *spec_.dataset.prefix_boundaries) {
      if (boundary > 0 && boundary <= n) {
        min_stop_rows_ = boundary;
        break;  // boundaries ascend: the first in range is the smallest
      }
    }
  }
  if (min_stop_rows_ > 0) {
    min_stop_blocks_ = CountMorsels(min_stop_rows_, plan_.target_rows,
                                    spec_.dataset.prefix_boundaries);
  }
  if (spec_.max_blocks > 0 && min_stop_blocks_ > 0) {
    // The floor applies to block budgets too: the smallest resolution is the
    // minimum statistically meaningful answer, so a budget below it floors
    // there rather than silently dropping whole strata.
    spec_.max_blocks = std::max(spec_.max_blocks, min_stop_blocks_);
  }

  const size_t workers = std::max<size_t>(
      1, std::min<size_t>(exec_.num_threads, static_cast<size_t>(std::max<uint64_t>(
                                                 1, blocks_total()))));
  scratches_.resize(workers);

  if (spec_.resume != nullptr) {
    const PipelineSnapshot& snap = *spec_.resume;
    if (precomputed() || exact()) {
      return Status::InvalidArgument(
          "resume snapshots apply only to streamed sample scans");
    }
    if (snap.rows_total != n || snap.morsel_rows != exec_.morsel_rows) {
      return Status::InvalidArgument(
          "resume snapshot was taken over a different scan decomposition");
    }
    if (snap.consumed > blocks_total()) {
      return Status::InvalidArgument("resume snapshot exceeds the block plan");
    }
    if (track_prefix_ && !snap.track_prefix && snap.consumed != blocks_total()) {
      // A never-stop scan keeps no n_h(prefix) tallies; its partial state
      // cannot seed a scan that may stop early — unless it is complete, in
      // which case finalization uses the dataset's own counts anyway.
      return Status::InvalidArgument("resume snapshot lacks prefix tallies");
    }
    groups_ = snap.groups;
    stats_ = snap.stats;
    stats_.block_rows = plan_.target_rows;
    prefix_scanned_ = snap.prefix_scanned;
    consumed_ = snap.consumed;
    bytes_decoded_ = snap.bytes_decoded;
  }
  return Status::Ok();
}

std::shared_ptr<const PipelineSnapshot> ScanPipeline::ExportState() const {
  if (precomputed() || exact()) {
    return nullptr;
  }
  auto snap = std::make_shared<PipelineSnapshot>();
  snap->consumed = consumed_;
  snap->rows_consumed = rows_consumed();
  snap->rows_total = rows_total();
  snap->morsel_rows = exec_.morsel_rows;
  snap->track_prefix = track_prefix_;
  snap->groups = groups_;
  snap->stats = stats_;
  snap->prefix_scanned = prefix_scanned_;
  snap->bytes_scanned = bytes_scanned();
  snap->bytes_decoded = bytes_decoded_;
  return snap;
}

void ScanPipeline::Advance(uint64_t blocks) {
  if (complete() || blocks == 0) {
    return;
  }
  uint64_t end = std::min(consumed_ + blocks, blocks_total());
  if (spec_.max_blocks > 0) {
    end = std::min(end, spec_.max_blocks);
  }
  if (end <= consumed_) {
    // Unreachable today: complete() already bounds consumed_ by both
    // blocks_total() and max_blocks, and Init fixes max_blocks for good. The
    // guard makes the invariant local — a budget shrunk between rounds
    // degrades to a no-op instead of underflowing `count` below.
    return;
  }
  const size_t count = static_cast<size_t>(end - consumed_);
  std::vector<MorselPartial> partials(count);
  const size_t batch_workers = std::min(scratches_.size(), count);
  if (batch_workers <= 1) {
    for (size_t i = 0; i < count; ++i) {
      ProcessMorsel(bound_, spec_.dataset, plan_.morsels[consumed_ + i], scratches_[0],
                    partials[i], track_prefix_);
    }
  } else {
    // Morsel-driven scheduling: workers pull block indices from a shared
    // counter; any assignment of blocks to workers yields the same partials.
    std::atomic<size_t> next{0};
    std::atomic<size_t> slot{0};
    auto work = [&] {
      exec_internal::WorkerScratch& scratch = scratches_[slot.fetch_add(1)];
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= count) {
          return;
        }
        ProcessMorsel(bound_, spec_.dataset, plan_.morsels[consumed_ + i], scratch,
                      partials[i], track_prefix_);
      }
    };
    if (exec_.pool != nullptr) {
      for (size_t w = 0; w < batch_workers; ++w) {
        exec_.pool->Submit(work);
      }
      exec_.pool->Wait();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(batch_workers - 1);
      for (size_t w = 0; w + 1 < batch_workers; ++w) {
        threads.emplace_back(work);
      }
      work();
      for (auto& t : threads) {
        t.join();
      }
    }
  }
  for (const MorselPartial& partial : partials) {
    bytes_decoded_ += partial.bytes_decoded;
  }
  MergePartials(partials, bound_.aggs.size(), groups_, stats_,
                track_prefix_ ? &prefix_scanned_ : nullptr);
  consumed_ = end;
}

double ScanPipeline::bytes_decoded() const {
  if (precomputed()) {
    return 0.0;  // §4.4 reuse: the probe already paid for these blocks
  }
  return bytes_decoded_;
}

double ScanPipeline::bytes_scanned() const {
  if (precomputed()) {
    return 0.0;
  }
  if (bound_.encoded == nullptr) {
    // Raw storage: what the scan reads is exactly the logical column data.
    return bytes_decoded();
  }
  double total = 0.0;
  const uint64_t rows = rows_consumed();
  for (size_t col : bound_.fact_cols) {
    total += static_cast<double>(bound_.encoded->EncodedBytesInPrefix(col, rows));
  }
  return total;
}

PipelineOutcome ScanPipeline::Outcome() const {
  PipelineOutcome out;
  out.blocks_total = blocks_total();
  out.blocks_consumed = blocks_consumed();
  out.rows_consumed = rows_consumed();
  out.rows_matched = rows_matched();
  out.bytes_scanned = bytes_scanned();
  out.bytes_decoded = bytes_decoded();
  out.reused_probe = precomputed();
  return out;
}

Result<QueryResult> ScanPipeline::Snapshot() const {
  if (precomputed()) {
    return *spec_.precomputed;
  }
  // Finalize is read-only, so snapshots share the running accumulators. A
  // scan that consumed everything finalizes against the dataset's own counts
  // — the prefix tallies equal them, but using the dataset's keeps the
  // one-shot equivalence exact by construction.
  const bool whole = consumed_ == blocks_total();
  ScanStats stats = stats_;
  stats.rows_scanned = rows_consumed();
  stats.blocks_scanned = consumed_;
  // One accounting: the same per-column sum bytes_scanned() reports
  // everywhere else (encoded bytes on compressed storage, logical bytes on
  // raw), so PARTIAL/FINAL frames agree with StreamProgress.
  stats.bytes_scanned = bytes_scanned();
  return Finalize(spec_.stmt, spec_.dataset, bound_, groups_, stats,
                  whole || !track_prefix_ ? nullptr : &prefix_scanned_);
}

}  // namespace blink

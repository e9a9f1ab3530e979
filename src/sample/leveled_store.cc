#include "src/sample/leveled_store.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

namespace blink {
namespace {

// splitmix64 finalizer: decorrelates run-id-derived family seeds so run k and
// run k+1 never sample with adjacent xoshiro streams.
uint64_t MixSeed(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string LeveledStore::Snapshot::Fingerprint() const {
  std::string fp = "levels:v" + std::to_string(version);
  for (const auto& run : runs) {
    fp += ',';
    fp += std::to_string(run->id);
  }
  return fp;
}

LeveledStore::LeveledStore(Schema schema, std::vector<FamilyShape> shapes,
                           LeveledStoreOptions options,
                           std::function<void()> on_publish)
    : schema_(std::move(schema)),
      shapes_(std::move(shapes)),
      options_(std::move(options)),
      on_publish_(std::move(on_publish)) {
  if (options_.background_interval_ms > 0) {
    background_ = std::thread([this] { BackgroundLoop(); });
  }
}

LeveledStore::~LeveledStore() {
  if (background_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(background_mu_);
      stop_background_ = true;
    }
    background_cv_.notify_all();
    background_.join();
  }
}

Result<uint64_t> LeveledStore::Append(Table rows) {
  if (!(rows.schema() == schema_)) {
    return Status::InvalidArgument("append batch schema does not match table schema");
  }
  if (rows.num_rows() == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }
  if (options_.encode.has_value()) {
    auto st = rows.BuildEncoded(*options_.encode);
    if (!st.ok()) {
      return st;
    }
  }
  auto run = std::make_shared<Run>();
  run->level = 0;
  run->rows = std::make_shared<const Table>(std::move(rows));
  uint64_t published = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    run->id = next_id_++;
    runs_.push_back(std::move(run));
    published = ++version_;
    if (on_publish_) {
      on_publish_();
    }
  }
  if (background_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(background_mu_);
      work_hint_ = true;
    }
    background_cv_.notify_all();
  }
  return published;
}

LeveledStore::Snapshot LeveledStore::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.version = version_;
  snap.runs = runs_;
  return snap;
}

uint64_t LeveledStore::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

size_t LeveledStore::run_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size();
}

Status LeveledStore::AppendRows(Table& dst, const Table& src) {
  if (!(dst.schema() == src.schema())) {
    return Status::InvalidArgument("cannot append rows: schemas differ");
  }
  const size_t cols = src.num_columns();
  dst.Reserve(static_cast<size_t>(dst.num_rows() + src.num_rows()));
  for (uint64_t row = 0; row < src.num_rows(); ++row) {
    for (size_t col = 0; col < cols; ++col) {
      switch (src.schema().column(col).type) {
        case DataType::kInt64:
          dst.AppendInt(col, src.GetInt(col, row));
          break;
        case DataType::kDouble:
          dst.AppendDouble(col, src.GetDouble(col, row));
          break;
        case DataType::kString:
          // Intern through dst's dictionary: run dictionaries are per-run.
          dst.AppendString(col, src.GetString(col, row));
          break;
      }
    }
    dst.CommitRow();
  }
  return Status::Ok();
}

Result<std::shared_ptr<const LeveledStore::Run>> LeveledStore::BuildMergedRun(
    const std::vector<std::shared_ptr<const Run>>& inputs, uint64_t out_id,
    int out_level) const {
  Table merged(schema_);
  for (const auto& input : inputs) {
    auto st = AppendRows(merged, *input->rows);
    if (!st.ok()) {
      return st;
    }
  }

  auto run = std::make_shared<Run>();
  run->id = out_id;
  run->level = out_level;

  if (merged.num_rows() >= options_.sample_min_rows && !shapes_.empty()) {
    // Seed derives from (store seed, run id) only — replaying the same
    // append/merge sequence in a fresh store rebuilds bit-identical families,
    // which is what the differential tests' quiescent reference relies on.
    Rng base(options_.seed ^ MixSeed(out_id));
    for (const auto& shape : shapes_) {
      Rng rng = base.Split();
      auto family = BuildFamilyLike(shape.kind, shape.columns, merged,
                                    options_.sample, rng);
      if (!family.ok()) {
        return family.status();
      }
      auto owned = std::make_unique<SampleFamily>(std::move(*family));
      if (options_.encode.has_value()) {
        auto st = owned->EncodeBlocks(*options_.encode);
        if (!st.ok()) {
          return st;
        }
      }
      run->families.push_back(std::move(owned));
    }
  }

  if (options_.encode.has_value()) {
    auto st = merged.BuildEncoded(*options_.encode);
    if (!st.ok()) {
      return st;
    }
  }
  run->rows = std::make_shared<const Table>(std::move(merged));
  return std::shared_ptr<const Run>(std::move(run));
}

Result<bool> LeveledStore::MaintenanceTick() {
  // One merger at a time; appends and queries proceed concurrently.
  std::lock_guard<std::mutex> merge_lock(merge_mu_);

  std::vector<std::shared_ptr<const Run>> inputs;
  uint64_t out_id = 0;
  int out_level = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Shallowest over-full level wins; its oldest `fanout` runs merge.
    std::map<int, std::vector<const std::shared_ptr<const Run>*>> by_level;
    for (const auto& run : runs_) {
      by_level[run->level].push_back(&run);
    }
    for (const auto& [level, level_runs] : by_level) {
      if (level_runs.size() >= options_.level_fanout) {
        for (size_t i = 0; i < options_.level_fanout; ++i) {
          inputs.push_back(*level_runs[i]);
        }
        out_level = level + 1;
        break;
      }
    }
    if (inputs.empty()) {
      return false;
    }
    out_id = next_id_++;
  }

  auto merged = BuildMergedRun(inputs, out_id, out_level);
  if (!merged.ok()) {
    return merged.status();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Replace the inputs with the merged run at the first input's position,
    // keeping arrival order stable for deterministic pipeline layout.
    size_t insert_at = runs_.size();
    std::vector<std::shared_ptr<const Run>> next;
    next.reserve(runs_.size() - inputs.size() + 1);
    for (const auto& run : runs_) {
      const bool consumed =
          std::any_of(inputs.begin(), inputs.end(),
                      [&](const auto& in) { return in->id == run->id; });
      if (consumed) {
        if (insert_at == runs_.size()) {
          insert_at = next.size();
          next.push_back(*merged);
        }
        continue;
      }
      next.push_back(run);
    }
    runs_ = std::move(next);
    ++version_;
    if (on_publish_) {
      on_publish_();
    }
  }
  return true;
}

void LeveledStore::BackgroundLoop() {
  std::unique_lock<std::mutex> lock(background_mu_);
  while (!stop_background_) {
    background_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.background_interval_ms),
        [this] { return stop_background_ || work_hint_; });
    if (stop_background_) {
      return;
    }
    work_hint_ = false;
    lock.unlock();
    // Drain all due merges; errors leave the manifest unchanged and are
    // retried on the next wakeup.
    while (true) {
      auto progressed = MaintenanceTick();
      if (!progressed.ok() || !*progressed) {
        break;
      }
    }
    lock.lock();
  }
}

}  // namespace blink

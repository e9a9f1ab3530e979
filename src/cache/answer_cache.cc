#include "src/cache/answer_cache.h"

#include <algorithm>
#include <functional>

#include "src/sql/sql_render.h"

namespace blink {

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kResume:
      return "resume";
    case CacheOutcome::kHit:
      return "hit";
  }
  return "miss";
}

AnswerCache::AnswerCache(size_t capacity, size_t num_shards) {
  capacity_ = std::max<size_t>(1, capacity);
  num_shards = std::max<size_t>(1, std::min(num_shards, capacity_));
  per_shard_ = (capacity_ + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

AnswerCache::Shard& AnswerCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const CacheEntry> AnswerCache::Lookup(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void AnswerCache::Insert(const std::string& key,
                         std::shared_ptr<const CacheEntry> entry) {
  if (entry == nullptr) {
    return;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.lru.emplace_front(key, std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (shard.lru.size() > per_shard_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void AnswerCache::RecordOutcome(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kMiss:
      misses_.fetch_add(1, std::memory_order_relaxed);
      return;
    case CacheOutcome::kResume:
      resumes_.fetch_add(1, std::memory_order_relaxed);
      return;
    case CacheOutcome::kHit:
      hits_.fetch_add(1, std::memory_order_relaxed);
      return;
  }
}

AnswerCacheStats AnswerCache::stats() const {
  AnswerCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.resumes = resumes_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

size_t AnswerCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

std::string AnswerCacheKey(const SelectStatement& stmt, uint64_t table_generation,
                           uint32_t morsel_rows, bool compressed_scan,
                           bool filter_encoded_views) {
  std::string key = "g=" + std::to_string(table_generation) +
                    "|m=" + std::to_string(morsel_rows) + "|st=";
  key += compressed_scan ? '1' : '0';
  key += filter_encoded_views ? '1' : '0';
  key += '|';
  key += RenderSelect(stmt, RenderMode::kCanonical);
  if (stmt.report_error_columns) {
    key += "|e=1";
  }
  return key;
}

}  // namespace blink

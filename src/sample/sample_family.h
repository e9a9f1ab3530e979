// Multi-resolution sample families (paper §3.1, Figures 3-4).
//
// A stratified family SFam(phi) holds samples S(phi, K_i) with exponentially
// decreasing caps K_i = floor(K_1 / c^i). Physically only the largest sample
// is stored: rows are laid out smallest-resolution-first (the non-overlapping
// "delta blocks" of Fig 4), so each logical sample is a prefix of the row
// store and larger resolutions reuse the bytes of smaller ones (§4.4).
//
// A uniform family is the same machinery with a single stratum: logical
// sample i holds a uniform fraction p / c^i of the table.
#ifndef BLINKDB_SAMPLE_SAMPLE_FAMILY_H_
#define BLINKDB_SAMPLE_SAMPLE_FAMILY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/dataset.h"
#include "src/storage/table.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace blink {

// Construction parameters for a family.
struct SampleFamilyOptions {
  // K_1: frequency cap of the largest stratified sample (the paper's
  // evaluation uses 100,000).
  uint64_t largest_cap = 100'000;
  // c: cap shrink factor between consecutive resolutions (paper: successive
  // resolutions differ by 2x).
  double resolution_factor = 2.0;
  // Maximum number of resolutions m (paper: m = floor(log_c K1), but only a
  // handful are useful in practice; probing uses the smallest).
  size_t max_resolutions = 6;
  // For uniform families: the fraction of the table kept by the largest
  // resolution.
  double uniform_fraction = 0.5;
};

// One resolution's metadata.
struct ResolutionInfo {
  uint64_t cap = 0;        // K_i (stratified) or row target (uniform)
  uint64_t rows = 0;       // rows in the logical sample (prefix length)
  double bytes = 0.0;      // rows * bytes_per_row
};

class SampleFamily {
 public:
  enum class Kind { kUniform, kStratified };

  // Builds a stratified family on `phi_columns` of `source`. Rows within each
  // stratum are randomly permuted once; nested subsets then give the smaller
  // resolutions (delta-block invariant). Deterministic given `rng`.
  static Result<SampleFamily> BuildStratified(const Table& source,
                                              const std::vector<std::string>& phi_columns,
                                              const SampleFamilyOptions& options, Rng& rng);

  // Builds a uniform family over `source`.
  static Result<SampleFamily> BuildUniform(const Table& source,
                                           const SampleFamilyOptions& options, Rng& rng);

  Kind kind() const { return kind_; }
  // Stratification columns (lower-cased, sorted); empty for uniform.
  const std::vector<std::string>& columns() const { return columns_; }
  // Number of resolutions, m. Resolution 0 is the LARGEST.
  size_t num_resolutions() const { return resolutions_.size(); }
  const ResolutionInfo& resolution(size_t i) const { return resolutions_[i]; }
  // Index of the smallest resolution (= num_resolutions() - 1).
  size_t smallest_resolution() const { return resolutions_.size() - 1; }

  // Dataset view of logical sample i. Valid as long as this family lives.
  Dataset LogicalSample(size_t i) const;

  // Resolution row counts ascending (smallest resolution first): the prefix
  // boundaries morsel carving aligns blocks to (§4.4 delta blocks).
  const std::vector<uint64_t>& prefix_rows() const { return prefix_rows_; }

  // Physical storage of the family: the largest sample only (smaller ones are
  // prefixes and cost nothing extra, §3.1 "Storage overhead").
  uint64_t storage_rows() const { return physical_rows_.num_rows(); }
  double storage_bytes() const {
    return static_cast<double>(storage_rows()) * physical_rows_.EstimatedBytesPerRow();
  }

  // Rows in the original table this family was built from.
  uint64_t source_rows() const { return source_rows_; }
  // Number of strata (distinct phi values); 1 for uniform.
  size_t num_strata() const { return per_resolution_counts_.empty()
                                         ? 0
                                         : per_resolution_counts_[0].size(); }

  // Builds compressed block storage for the physical row store, with block
  // boundaries cut at the resolution prefixes — the same cut points morsel
  // carving uses, so every logical sample decodes whole blocks (§4.4 delta
  // blocks survive compression unchanged).
  Status EncodeBlocks(const BlockEncodeOptions& options);

 private:
  Kind kind_ = Kind::kUniform;
  std::vector<std::string> columns_;
  Table physical_rows_;                       // delta-block layout
  std::vector<uint32_t> row_strata_;          // stratum id per physical row
  std::vector<ResolutionInfo> resolutions_;   // index 0 = largest
  std::vector<uint64_t> prefix_rows_;         // resolution rows, ascending
  // per_resolution_counts_[i][h] = {N_h, n_h(K_i)}.
  std::vector<std::vector<StratumCounts>> per_resolution_counts_;
  uint64_t source_rows_ = 0;
};

// Computes the sequence of caps K_i = floor(K1 / c^i), largest first, with at
// most `max_resolutions` entries and all caps >= 1 and strictly decreasing.
std::vector<uint64_t> ResolutionCaps(uint64_t largest_cap, double factor,
                                     size_t max_resolutions);

}  // namespace blink

#endif  // BLINKDB_SAMPLE_SAMPLE_FAMILY_H_

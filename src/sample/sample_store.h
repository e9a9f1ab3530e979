// Registry of sample families per table — the in-memory analogue of the
// BlinkDB metastore (Fig 5), which maps logical samples to physical storage
// and lets the runtime enumerate candidate families for a query.
#ifndef BLINKDB_SAMPLE_SAMPLE_STORE_H_
#define BLINKDB_SAMPLE_SAMPLE_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sample/sample_family.h"

namespace blink {

class SampleStore {
 public:
  // Registers a family for `table_name`; returns a stable pointer to it.
  const SampleFamily* AddFamily(const std::string& table_name, SampleFamily family);

  // All families registered for the table (uniform and stratified), in
  // registration order. Empty if none.
  std::vector<const SampleFamily*> FamiliesFor(const std::string& table_name) const;

  // Mutable view of the same list, for post-build maintenance that rewrites
  // family storage in place (e.g. encoding compressed blocks).
  std::vector<SampleFamily*> MutableFamiliesFor(const std::string& table_name);

  // Stratified families whose column set is a SUPERSET of `phi` (the §4.1.1
  // candidate set), sorted by ascending column count so callers can pick the
  // family with the fewest columns first. `phi` must be lower-cased.
  std::vector<const SampleFamily*> CoveringFamilies(
      const std::string& table_name, const std::vector<std::string>& phi) const;

  // The uniform family for the table, or nullptr.
  const SampleFamily* UniformFamily(const std::string& table_name) const;

  // Exact-match stratified family on the given (lower-cased, sorted) columns.
  const SampleFamily* FindStratified(const std::string& table_name,
                                     const std::vector<std::string>& columns) const;

  // Removes the exact-match stratified family; returns whether one existed.
  bool RemoveFamily(const std::string& table_name, const std::vector<std::string>& columns);

  // Removes the uniform family; returns whether one existed.
  bool RemoveUniform(const std::string& table_name);

  // Cumulative physical storage of the table's samples, in bytes.
  double TotalStorageBytes(const std::string& table_name) const;

 private:
  std::unordered_map<std::string, std::vector<std::unique_ptr<SampleFamily>>> families_;
};

}  // namespace blink

#endif  // BLINKDB_SAMPLE_SAMPLE_STORE_H_

#include "src/sample/sample_store.h"

#include <algorithm>

namespace blink {
namespace {

// True when `sub` (sorted) is a subset of `super` (sorted).
bool IsSubsetSorted(const std::vector<std::string>& sub,
                    const std::vector<std::string>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

}  // namespace

const SampleFamily* SampleStore::AddFamily(const std::string& table_name,
                                           SampleFamily family) {
  auto& list = families_[table_name];
  list.push_back(std::make_unique<SampleFamily>(std::move(family)));
  return list.back().get();
}

std::vector<const SampleFamily*> SampleStore::FamiliesFor(
    const std::string& table_name) const {
  std::vector<const SampleFamily*> out;
  const auto it = families_.find(table_name);
  if (it == families_.end()) {
    return out;
  }
  out.reserve(it->second.size());
  for (const auto& family : it->second) {
    out.push_back(family.get());
  }
  return out;
}

std::vector<SampleFamily*> SampleStore::MutableFamiliesFor(
    const std::string& table_name) {
  std::vector<SampleFamily*> out;
  const auto it = families_.find(table_name);
  if (it == families_.end()) {
    return out;
  }
  out.reserve(it->second.size());
  for (const auto& family : it->second) {
    out.push_back(family.get());
  }
  return out;
}

std::vector<const SampleFamily*> SampleStore::CoveringFamilies(
    const std::string& table_name, const std::vector<std::string>& phi) const {
  std::vector<const SampleFamily*> out;
  const auto it = families_.find(table_name);
  if (it == families_.end()) {
    return out;
  }
  for (const auto& family : it->second) {
    if (family->kind() != SampleFamily::Kind::kStratified) {
      continue;
    }
    if (IsSubsetSorted(phi, family->columns())) {
      out.push_back(family.get());
    }
  }
  std::sort(out.begin(), out.end(), [](const SampleFamily* a, const SampleFamily* b) {
    return a->columns().size() < b->columns().size();
  });
  return out;
}

const SampleFamily* SampleStore::UniformFamily(const std::string& table_name) const {
  const auto it = families_.find(table_name);
  if (it == families_.end()) {
    return nullptr;
  }
  for (const auto& family : it->second) {
    if (family->kind() == SampleFamily::Kind::kUniform) {
      return family.get();
    }
  }
  return nullptr;
}

const SampleFamily* SampleStore::FindStratified(
    const std::string& table_name, const std::vector<std::string>& columns) const {
  const auto it = families_.find(table_name);
  if (it == families_.end()) {
    return nullptr;
  }
  for (const auto& family : it->second) {
    if (family->kind() == SampleFamily::Kind::kStratified &&
        family->columns() == columns) {
      return family.get();
    }
  }
  return nullptr;
}

bool SampleStore::RemoveFamily(const std::string& table_name,
                               const std::vector<std::string>& columns) {
  const auto it = families_.find(table_name);
  if (it == families_.end()) {
    return false;
  }
  auto& list = it->second;
  for (auto fam = list.begin(); fam != list.end(); ++fam) {
    if ((*fam)->kind() == SampleFamily::Kind::kStratified &&
        (*fam)->columns() == columns) {
      list.erase(fam);
      return true;
    }
  }
  return false;
}

bool SampleStore::RemoveUniform(const std::string& table_name) {
  const auto it = families_.find(table_name);
  if (it == families_.end()) {
    return false;
  }
  auto& list = it->second;
  for (auto fam = list.begin(); fam != list.end(); ++fam) {
    if ((*fam)->kind() == SampleFamily::Kind::kUniform) {
      list.erase(fam);
      return true;
    }
  }
  return false;
}

double SampleStore::TotalStorageBytes(const std::string& table_name) const {
  const auto it = families_.find(table_name);
  if (it == families_.end()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& family : it->second) {
    total += family->storage_bytes();
  }
  return total;
}

}  // namespace blink

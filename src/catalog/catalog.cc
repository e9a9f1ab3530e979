#include "src/catalog/catalog.h"

#include "src/util/string_util.h"

namespace blink {

Status Catalog::AddTable(std::string name, Table table, double scale_factor,
                         bool is_dimension) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  if (scale_factor <= 0.0) {
    return Status::InvalidArgument("scale factor must be positive");
  }
  const std::string key = AsciiToLower(name);
  if (tables_.count(key) != 0) {
    return Status::InvalidArgument("table '" + name + "' already exists");
  }
  auto entry = std::make_unique<TableEntry>();
  entry->name = std::move(name);
  entry->table = std::move(table);
  entry->scale_factor = scale_factor;
  entry->is_dimension = is_dimension;
  tables_.emplace(key, std::move(entry));
  return Status::Ok();
}

const TableEntry* Catalog::Find(const std::string& name) const {
  const auto it = tables_.find(AsciiToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Catalog::ReplaceTable(const std::string& name, Table table) {
  const auto it = tables_.find(AsciiToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not found");
  }
  if (!(it->second->table.schema() == table.schema())) {
    return Status::InvalidArgument("replacement schema differs for '" + name + "'");
  }
  it->second->table = std::move(table);
  if (it->second->compressed) {
    BLINK_RETURN_IF_ERROR(it->second->table.BuildEncoded(it->second->encode_options));
  }
  ++it->second->generation;
  return Status::Ok();
}

Status Catalog::CompressTable(const std::string& name,
                              const BlockEncodeOptions& options) {
  const auto it = tables_.find(AsciiToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not found");
  }
  BLINK_RETURN_IF_ERROR(it->second->table.BuildEncoded(options));
  it->second->compressed = true;
  it->second->encode_options = options;
  ++it->second->generation;
  return Status::Ok();
}

uint64_t Catalog::BumpGeneration(const std::string& name) {
  const auto it = tables_.find(AsciiToLower(name));
  if (it == tables_.end()) {
    return 0;
  }
  return ++it->second->generation;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, entry] : tables_) {
    (void)key;
    names.push_back(entry->name);
  }
  return names;
}

}  // namespace blink

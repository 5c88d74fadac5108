#include "telemetry/series.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/fs_util.hpp"
#include "common/string_util.hpp"

namespace greennfv::telemetry {

namespace series {

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

}  // namespace series

namespace {

constexpr const char* kSchema = "greennfv.series.v1";

/// "%.17g" — shortest text that round-trips every finite double exactly;
/// the same convention json.hpp and timeline_io use.
std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double parse_double(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("SeriesTable: empty CSV cell");
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    throw std::invalid_argument("SeriesTable: unparseable CSV cell '" + text +
                                "'");
  }
  return value;
}

}  // namespace

SeriesTable::SeriesTable(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  if (columns_.empty()) {
    throw std::invalid_argument("SeriesTable: needs at least one column");
  }
  for (const auto& name : columns_) {
    if (name.empty()) {
      throw std::invalid_argument("SeriesTable: empty column name");
    }
  }
}

void SeriesTable::reserve_rows(std::size_t rows) {
  if (rows > capacity_) grow(rows);
}

void SeriesTable::grow(std::size_t min_rows) {
  std::size_t next = capacity_ == 0 ? 64 : capacity_ * 2;
  if (next < min_rows) next = min_rows;
  if (!arena_) arena_ = std::make_unique<Arena>();
  const std::size_t width = num_columns();
  auto* fresh = static_cast<double*>(
      arena_->allocate(next * width * sizeof(double), alignof(double)));
  if (rows_ > 0) {
    std::memcpy(fresh, data_, rows_ * width * sizeof(double));
  }
  if (data_ != nullptr) {
    arena_->deallocate(data_, capacity_ * width * sizeof(double),
                       alignof(double));
  }
  data_ = fresh;
  capacity_ = next;
}

void SeriesTable::append_row(const double* values, std::size_t n) {
  if (n != num_columns()) {
    throw std::invalid_argument("SeriesTable: row width " + std::to_string(n) +
                                " != schema width " +
                                std::to_string(num_columns()));
  }
  if (rows_ == capacity_) grow(rows_ + 1);
  std::memcpy(data_ + rows_ * num_columns(), values, n * sizeof(double));
  ++rows_;
}

void SeriesTable::append_row(const std::vector<double>& values) {
  append_row(values.data(), values.size());
}

std::size_t SeriesTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  throw std::invalid_argument("SeriesTable: no column '" + name + "'");
}

bool SeriesTable::has_column(const std::string& name) const {
  for (const auto& column : columns_) {
    if (column == name) return true;
  }
  return false;
}

double SeriesTable::at(std::size_t row, std::size_t col) const {
  if (row >= rows_ || col >= num_columns()) {
    throw std::invalid_argument("SeriesTable: at(" + std::to_string(row) +
                                ", " + std::to_string(col) +
                                ") out of range");
  }
  return data_[row * num_columns() + col];
}

std::string SeriesTable::to_csv() const {
  std::string out;
  out.reserve((rows_ + 1) * num_columns() * 8);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out += ',';
    out += columns_[c];
  }
  out += '\n';
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_ + r * num_columns();
    for (std::size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) out += ',';
      out += format_double(row[c]);
    }
    out += '\n';
  }
  return out;
}

void SeriesTable::write_csv(const std::string& path) const {
  write_file_atomic(path, to_csv());
}

Json SeriesTable::to_json() const {
  Json json = Json::object();
  json.set("schema", kSchema);
  json.set("rows", static_cast<double>(rows_));
  Json names = Json::array();
  for (const auto& name : columns_) names.push_back(name);
  json.set("columns", std::move(names));
  Json data = Json::array();
  for (std::size_t c = 0; c < num_columns(); ++c) {
    Json column = Json::array();
    for (std::size_t r = 0; r < rows_; ++r) {
      column.push_back(data_[r * num_columns() + c]);
    }
    data.push_back(std::move(column));
  }
  json.set("data", std::move(data));
  return json;
}

void SeriesTable::write_json(const std::string& path) const {
  write_file_atomic(path, to_json().dump(1) + "\n");
}

SeriesTable SeriesTable::from_json(const Json& json) {
  if (!json.is_object() || !json.has("schema") ||
      json.at("schema").as_string() != kSchema) {
    throw std::invalid_argument("SeriesTable: not a " + std::string(kSchema) +
                                " document");
  }
  std::vector<std::string> columns;
  for (const auto& name : json.at("columns").elements()) {
    columns.push_back(name.as_string());
  }
  SeriesTable table(std::move(columns));
  const auto rows = json.at("rows").as_integer<std::size_t>();
  const Json& data = json.at("data");
  if (data.size() != table.num_columns()) {
    throw std::invalid_argument(
        "SeriesTable: data has " + std::to_string(data.size()) +
        " columns, schema has " + std::to_string(table.num_columns()));
  }
  for (std::size_t c = 0; c < data.size(); ++c) {
    if (data.at(c).size() != rows) {
      throw std::invalid_argument("SeriesTable: ragged column " +
                                  std::to_string(c));
    }
  }
  table.reserve_rows(rows);
  std::vector<double> row(table.num_columns());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      row[c] = data.at(c).at(r).as_double();
    }
    table.append_row(row);
  }
  return table;
}

SeriesTable SeriesTable::from_csv(const std::string& text) {
  const auto lines = split(text, '\n');
  if (lines.empty() || lines[0].empty()) {
    throw std::invalid_argument("SeriesTable: CSV has no header");
  }
  SeriesTable table(split(lines[0], ','));
  std::vector<double> row(table.num_columns());
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;  // trailing newline
    const auto cells = split(lines[i], ',');
    if (cells.size() != table.num_columns()) {
      throw std::invalid_argument(
          "SeriesTable: CSV line " + std::to_string(i + 1) + " has " +
          std::to_string(cells.size()) + " cells, header has " +
          std::to_string(table.num_columns()));
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      row[c] = parse_double(cells[c]);
    }
    table.append_row(row);
  }
  return table;
}

}  // namespace greennfv::telemetry

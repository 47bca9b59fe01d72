#pragma once

/// \file csv.hpp
/// Tiny CSV emitter used by the example applications so their data can
/// be re-plotted outside this repository.

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace npd {

/// Streams rows of a fixed-width CSV file.  The header is written on
/// construction; each `row(...)` call must supply exactly as many cells.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header line.
  /// Throws `std::runtime_error` if the file cannot be opened.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  /// Append one row.  Cells are formatted with maximum round-trip
  /// precision for doubles.
  void row(const std::vector<double>& cells);

  /// Append one row of preformatted strings (e.g. mixed text columns).
  void row_strings(const std::vector<std::string>& cells);

  /// Number of data rows written so far.
  [[nodiscard]] std::size_t rows_written() const { return rows_; }

  /// Flush and close early (also happens on destruction).
  void close();

 private:
  std::ofstream out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

/// Format a double with enough digits to round-trip.
[[nodiscard]] std::string format_double(double value);

}  // namespace npd

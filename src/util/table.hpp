#pragma once

/// \file table.hpp
/// Aligned console tables: how the tools and examples print their
/// summaries, so the output is human-readable directly.

#include <string>
#include <vector>

namespace npd {

/// Collects rows of strings and renders them with aligned columns.
///
/// ```
/// ConsoleTable t({"n", "p", "median m"});
/// t.add_row({"1000", "0.1", "153"});
/// std::cout << t.render();
/// ```
class ConsoleTable {
 public:
  explicit ConsoleTable(std::vector<std::string> header);

  /// Append a row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  /// Convenience: append a row of doubles (formatted compactly).
  void add_row_doubles(const std::vector<double>& cells);

  /// Render with a separator line under the header.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace npd

#pragma once

/// \file cli.hpp
/// A small command-line flag parser used by the tools and the example
/// applications.
///
/// Supports `--name value`, `--name=value` and boolean switches
/// (`--paper`).  Every flag must be registered before `parse()` so the
/// generated `--help` text is complete; unknown flags are a hard error to
/// catch typos in experiment scripts.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace npd {

/// Declarative command-line parser.
///
/// Usage:
/// ```
/// CliParser cli("my_experiment", "Runs one experiment.");
/// auto& reps  = cli.add_int("reps", 5, "repetitions per grid point");
/// auto& paper = cli.add_flag("paper", "run at full paper scale");
/// cli.parse(argc, argv);   // exits with code 0 on --help
/// ```
class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Register an integer-valued option with a default.
  /// Returns a reference valid for the lifetime of the parser.
  [[nodiscard]] const long long& add_int(std::string name, long long def,
                                         std::string help);

  /// Register a floating-point option with a default.
  [[nodiscard]] const double& add_double(std::string name, double def,
                                         std::string help);

  /// Register a string-valued option with a default.
  [[nodiscard]] const std::string& add_string(std::string name,
                                              std::string def,
                                              std::string help);

  /// Register a boolean switch (false unless given).
  [[nodiscard]] const bool& add_flag(std::string name, std::string help);

  /// Parse the arguments.  Prints help and exits on `--help`.
  /// Throws `std::invalid_argument` on unknown flags or malformed values.
  void parse(int argc, const char* const* argv);

  /// Render the --help text (exposed for tests).
  [[nodiscard]] std::string help_text() const;

 private:
  enum class Kind { Int, Double, String, Flag };

  struct Option {
    std::string name;
    std::string help;
    Kind kind;
    // Deques-of-one semantics: stable addresses via unique storage slots.
    long long int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool flag_value = false;
    std::string default_repr;
  };

  Option* find(std::string_view name);
  void set_from_string(Option& opt, std::string_view value);

  std::string program_;
  std::string description_;
  // Deque-like stability: options are stored behind unique_ptr so references
  // returned by add_* stay valid as more options are added.
  std::vector<std::unique_ptr<Option>> options_;
};

}  // namespace npd

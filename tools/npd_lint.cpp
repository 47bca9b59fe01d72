/// \file npd_lint.cpp
/// Repo-specific static checker for the two contracts the compiler cannot
/// see: the module layering DAG (docs/architecture.md) and the
/// determinism rules (docs/schemas.md) that make 1 thread = N threads =
/// N processes hold.
///
/// Deliberately token-level — a comment/string-aware scanner plus
/// regexes over single lines, no libclang — so it builds everywhere the
/// repo builds and runs in milliseconds as a ctest.  The price is that
/// it checks *textual* constructs, not semantics; every rule is chosen
/// so the textual form is the hazard (an `#include` edge, a call to
/// `std::rand`, a range-for over an unordered container in a report
/// path).  Rules and scopes are documented in docs/static_analysis.md;
/// fixture trees under tests/lint_fixtures/ pin each rule's behaviour.
///
/// Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ layering DAG
//
// Direct edges, mirroring src/CMakeLists.txt ("links against / includes
// headers of").  Includes follow the *transitive closure*: module
// libraries export their dependencies PUBLICly, so `engine` may include
// "harness/stats.hpp" and, through it, "amp/..." headers.
const std::map<std::string, std::vector<std::string>>& direct_deps() {
  static const std::map<std::string, std::vector<std::string>> deps = {
      {"util", {}},
      {"rand", {"util"}},
      {"pooling", {"rand", "util"}},
      {"noise", {"rand", "util"}},
      {"linalg", {"util"}},
      {"core", {"noise", "pooling", "util"}},
      {"amp", {"core", "linalg", "noise", "util"}},
      {"netsim", {"amp", "core", "util"}},
      {"solve", {"amp", "core", "netsim", "noise", "pooling", "util"}},
      {"harness", {"amp", "core", "noise", "pooling", "util"}},
      {"engine", {"harness", "netsim", "solve", "util"}},
      {"shard", {"engine", "util"}},
      {"serve", {"engine", "solve", "util"}},
  };
  return deps;
}

/// Transitive closure of `direct_deps` (module -> every module it may
/// include, itself included).
std::map<std::string, std::set<std::string>> allowed_includes() {
  std::map<std::string, std::set<std::string>> closure;
  for (const auto& [module, _] : direct_deps()) {
    // Iterative DFS from `module` over the direct edges.
    std::set<std::string>& reach = closure[module];
    std::vector<std::string> stack{module};
    while (!stack.empty()) {
      const std::string current = stack.back();
      stack.pop_back();
      if (!reach.insert(current).second) {
        continue;
      }
      const auto it = direct_deps().find(current);
      if (it != direct_deps().end()) {
        for (const std::string& dep : it->second) {
          stack.push_back(dep);
        }
      }
    }
  }
  return closure;
}

// ------------------------------------------------- comment/string stripping

/// One pass over a source file producing two views with identical line
/// structure (every stripped character becomes a space, newlines are
/// kept):
///   `no_comments` — comments removed, string/char literals kept
///     (used to read `#include "..."` directives), and
///   `code_only`   — comments AND literals removed (used for the token
///     rules, so a regex in a string or a commented-out `std::rand()`
///     never trips a ban).
struct StrippedSource {
  std::string no_comments;
  std::string code_only;
};

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

StrippedSource strip_source(const std::string& text) {
  StrippedSource out;
  out.no_comments.reserve(text.size());
  out.code_only.reserve(text.size());

  const auto emit = [&](char c, bool is_code, bool keep_in_no_comments) {
    const char blank = (c == '\n') ? '\n' : ' ';
    out.no_comments += keep_in_no_comments ? c : blank;
    out.code_only += is_code ? c : blank;
  };

  enum class State { Code, LineComment, BlockComment, String, Char, Raw };
  State state = State::Code;
  std::string raw_terminator;  // )delim" for the active raw string
  char prev_code = '\0';       // last significant code char (digit-separator
                               // and prefix heuristics)

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = (i + 1 < text.size()) ? text[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          emit(c, false, false);
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          emit(c, false, false);
        } else if (c == '"') {
          // R"delim( raw string?  The R directly precedes the quote.
          if (prev_code == 'R') {
            std::size_t paren = text.find('(', i + 1);
            if (paren != std::string::npos && paren - i <= 18) {
              raw_terminator =
                  ")" + text.substr(i + 1, paren - i - 1) + "\"";
              state = State::Raw;
              emit(c, false, true);
              break;
            }
          }
          state = State::String;
          emit(c, false, true);
        } else if (c == '\'' && !is_ident_char(prev_code)) {
          // A quote after an identifier/digit is a C++14 digit separator
          // (1'000'000), not a char literal.
          state = State::Char;
          emit(c, false, true);
        } else {
          emit(c, true, true);
          if (c != ' ' && c != '\t') {
            prev_code = c;
          }
        }
        break;
      case State::LineComment:
        if (c == '\n') {
          state = State::Code;
        }
        emit(c, false, false);
        break;
      case State::BlockComment:
        if (c == '/' && i > 0 && text[i - 1] == '*') {
          state = State::Code;
        }
        emit(c, false, false);
        break;
      case State::String:
        if (c == '\\') {
          emit(c, false, true);
          if (i + 1 < text.size()) {
            ++i;
            emit(text[i], false, true);
          }
          break;
        }
        if (c == '"') {
          state = State::Code;
          prev_code = '"';
        }
        emit(c, false, true);
        break;
      case State::Char:
        if (c == '\\') {
          emit(c, false, true);
          if (i + 1 < text.size()) {
            ++i;
            emit(text[i], false, true);
          }
          break;
        }
        if (c == '\'') {
          state = State::Code;
          prev_code = '\'';
        }
        emit(c, false, true);
        break;
      case State::Raw:
        emit(c, false, true);
        if (c == '"' && i + 1 >= raw_terminator.size() &&
            text.compare(i + 1 - raw_terminator.size(),
                         raw_terminator.size(), raw_terminator) == 0) {
          state = State::Code;
          prev_code = '"';
        }
        break;
    }
  }
  return out;
}

// ------------------------------------------------------------- violations

struct Violation {
  fs::path file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

/// The `src/<module>/` a path belongs to, or "" when outside src/.
std::string module_of(const fs::path& relative) {
  auto it = relative.begin();
  if (it == relative.end() || it->string() != "src") {
    return "";
  }
  ++it;
  if (it == relative.end()) {
    return "";
  }
  const std::string module = it->string();
  return direct_deps().count(module) > 0 ? module : "";
}

/// Collect names declared as std::unordered_map/_set in `code_only`,
/// handling nested template arguments by balancing the angle brackets.
std::set<std::string> unordered_declarations(const std::string& code) {
  std::set<std::string> names;
  static const std::regex decl_head(R"(unordered_(?:map|set)\s*<)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), decl_head);
       it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position()) +
                      static_cast<std::size_t>(it->length());
    int depth = 1;
    while (pos < code.size() && depth > 0) {
      if (code[pos] == '<') {
        ++depth;
      } else if (code[pos] == '>') {
        --depth;
      }
      ++pos;
    }
    while (pos < code.size() &&
           (code[pos] == ' ' || code[pos] == '\t' || code[pos] == '\n' ||
            code[pos] == '&')) {
      ++pos;
    }
    std::string name;
    while (pos < code.size() && is_ident_char(code[pos])) {
      name += code[pos++];
    }
    if (!name.empty()) {
      names.insert(name);
    }
  }
  return names;
}

struct BanRule {
  std::string rule;
  std::regex pattern;
  std::string message;
};

const std::vector<BanRule>& determinism_bans() {
  // Applied to code with comments AND literals stripped, so only real
  // code trips them.  Scope: src/ and tools/ (tests may do as they
  // like; the fixture trees under tests/lint_fixtures are never
  // scanned).
  static const std::vector<BanRule> bans = [] {
    std::vector<BanRule> rules;
    rules.push_back({"no-std-rand", std::regex(R"(std\s*::\s*rand\b)"),
                     "std::rand is unseeded global state; use rand::Rng "
                     "(src/rand) with a derived seed"});
    rules.push_back({"no-std-rand", std::regex(R"(\bsrand\s*\()"),
                     "srand seeds process-global state; use rand::Rng "
                     "(src/rand) with a derived seed"});
    rules.push_back({"no-std-rand", std::regex(R"(\brandom_device\b)"),
                     "std::random_device is nondeterministic; all entropy "
                     "must come from derived seeds (src/rand)"});
    rules.push_back({"no-wall-clock", std::regex(R"(\btime\s*\()"),
                     "time() reads the wall clock; results must be pure "
                     "functions of the seed (Timer/steady_clock is fine "
                     "for perf stamps)"});
    rules.push_back({"no-wall-clock", std::regex(R"(\bgettimeofday\b)"),
                     "gettimeofday reads the wall clock; use Timer "
                     "(steady_clock) for perf stamps"});
    rules.push_back({"no-wall-clock", std::regex(R"(\bsystem_clock\b)"),
                     "system_clock is the wall clock; use steady_clock "
                     "(util/timer.hpp) for durations"});
    return rules;
  }();
  return bans;
}

/// Files whose output feeds byte-identical reports/merges/cache indexes:
/// iterating an unordered container there would make emission order
/// depend on the hash function and allocation addresses.
bool in_deterministic_emit_path(const fs::path& relative) {
  static const std::vector<std::string> prefixes = {
      "src/engine/report", "src/engine/engine",  "src/shard/merge",
      "src/shard/shard_report", "src/shard/metrics_io",
      "src/shard/result_cache",
  };
  const std::string generic = relative.generic_string();
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& prefix) {
                       return generic.rfind(prefix, 0) == 0;
                     });
}

/// Files aggregating metric values: float accumulators lose integer
/// exactness long before int64/double do and change results with
/// association order; harness::stats is double-only by contract.
bool in_stats_path(const fs::path& relative) {
  const std::string generic = relative.generic_string();
  return generic.rfind("src/harness/stats", 0) == 0 ||
         generic.rfind("src/engine/report", 0) == 0;
}

void check_file(const fs::path& root, const fs::path& relative,
                std::vector<Violation>& out) {
  std::ifstream in(root / relative, std::ios::binary);
  if (!in) {
    out.push_back({relative, 0, "io", "cannot read file"});
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const StrippedSource stripped = strip_source(buffer.str());
  const std::vector<std::string> include_lines =
      split_lines(stripped.no_comments);
  const std::vector<std::string> code_lines =
      split_lines(stripped.code_only);

  const std::string generic = relative.generic_string();
  const bool in_src = generic.rfind("src/", 0) == 0;
  const bool in_tools = generic.rfind("tools/", 0) == 0;
  const std::string module = module_of(relative);

  // ---- layering: every quoted include from a src/ module must name a
  // module in the allowed transitive closure.
  if (!module.empty()) {
    static const std::map<std::string, std::set<std::string>> closure =
        allowed_includes();
    static const std::regex include_pattern(
        R"(^\s*#\s*include\s*\"([^\"]+)\")");
    const std::set<std::string>& allowed = closure.at(module);
    for (std::size_t i = 0; i < include_lines.size(); ++i) {
      std::smatch match;
      if (!std::regex_search(include_lines[i], match, include_pattern)) {
        continue;
      }
      const std::string header = match[1].str();
      const std::size_t slash = header.find('/');
      if (slash == std::string::npos) {
        continue;  // same-directory include
      }
      const std::string target = header.substr(0, slash);
      if (direct_deps().count(target) == 0) {
        continue;  // not a module path (e.g. sys/, third-party)
      }
      if (allowed.count(target) == 0) {
        out.push_back(
            {relative, i + 1, "layering",
             "module '" + module + "' may not include '" + target +
                 "/' (include \"" + header +
                 "\"); allowed: see the DAG in docs/architecture.md"});
      }
    }
  }

  // ---- determinism bans (src/ and tools/, except src/rand which owns
  // the repo's one sanctioned entropy/seed boundary).  The wall-clock
  // ban alone has a four-file telemetry allowlist: trace flush stamps,
  // heartbeat freshness, metrics capture times and profiler sample
  // intervals need real time, and confining every such read to these
  // TUs is exactly what keeps timestamps out of reports, cache keys
  // and fingerprints (callers go through heartbeat::now_unix_seconds
  // instead of touching a clock).
  const bool telemetry_tu = generic == "src/util/trace.cpp" ||
                            generic == "src/util/heartbeat.cpp" ||
                            generic == "src/util/metrics.cpp" ||
                            generic == "src/util/profiler.cpp";
  if ((in_src || in_tools) && generic.rfind("src/rand/", 0) != 0) {
    for (std::size_t i = 0; i < code_lines.size(); ++i) {
      for (const BanRule& ban : determinism_bans()) {
        if (telemetry_tu && ban.rule == "no-wall-clock") {
          continue;
        }
        if (std::regex_search(code_lines[i], ban.pattern)) {
          out.push_back({relative, i + 1, ban.rule, ban.message});
        }
      }
    }
  }

  // ---- unordered-container iteration in deterministic emit paths.
  if (in_deterministic_emit_path(relative)) {
    const std::set<std::string> unordered =
        unordered_declarations(stripped.code_only);
    if (!unordered.empty()) {
      static const std::regex range_for(R"(for\s*\([^;()]*:\s*(\w+)\s*\))");
      static const std::regex begin_call(R"((\w+)\s*\.\s*c?begin\s*\(\s*\))");
      for (std::size_t i = 0; i < code_lines.size(); ++i) {
        for (const std::regex& pattern : {range_for, begin_call}) {
          std::smatch match;
          std::string rest = code_lines[i];
          while (std::regex_search(rest, match, pattern)) {
            if (unordered.count(match[1].str()) > 0) {
              out.push_back(
                  {relative, i + 1, "no-unordered-iteration",
                   "iteration over unordered container '" +
                       match[1].str() +
                       "' in a report/merge/cache-index path; emission "
                       "order would depend on the hash seed — use a "
                       "sorted container or sort the keys first"});
            }
            rest = match.suffix().str();
          }
        }
      }
    }
  }

  // ---- float accumulators in stats/aggregation paths.
  if (in_stats_path(relative)) {
    static const std::regex float_token(R"(\bfloat\b)");
    for (std::size_t i = 0; i < code_lines.size(); ++i) {
      if (std::regex_search(code_lines[i], float_token)) {
        out.push_back({relative, i + 1, "no-float-accumulator",
                       "float in a stats/aggregation path; metric "
                       "aggregation is double-only (harness::stats "
                       "contract, docs/schemas.md)"});
      }
    }
  }
}

bool is_source_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [--root DIR] [--quiet]\n"
      << "\n"
      << "Checks the repo's layering DAG (#include edges between src/\n"
      << "modules) and determinism rules (no std::rand/random_device,\n"
      << "no wall-clock reads, no unordered-container iteration in\n"
      << "report/merge/cache-index paths, no float accumulators in\n"
      << "stats) over src/ tools/ tests/ bench/ examples/.\n"
      << "See docs/static_analysis.md for the rule list.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!fs::is_directory(root)) {
    std::cerr << "npd_lint: not a directory: " << root.string() << "\n";
    return 2;
  }

  // Deterministic tool, deterministic scan order: collect then sort.
  std::vector<fs::path> files;
  for (const char* top : {"src", "tools", "tests", "bench", "examples"}) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !is_source_file(entry.path())) {
        continue;
      }
      const fs::path relative = fs::relative(entry.path(), root);
      // The fixture mini-trees exist to *contain* violations.
      if (relative.generic_string().find("lint_fixtures") !=
          std::string::npos) {
        continue;
      }
      files.push_back(relative);
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Violation> violations;
  for (const fs::path& file : files) {
    check_file(root, file, violations);
  }

  for (const Violation& violation : violations) {
    std::cout << violation.file.generic_string() << ":" << violation.line
              << ": [" << violation.rule << "] " << violation.message
              << "\n";
  }
  if (!violations.empty()) {
    std::cerr << "npd_lint: " << violations.size() << " violation(s) in "
              << files.size() << " file(s) scanned\n";
    return 1;
  }
  if (!quiet) {
    std::cout << "npd_lint: OK (" << files.size() << " files scanned)\n";
  }
  return 0;
}

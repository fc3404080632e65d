// aa_lint: project-invariant static analysis for the aa codebase.
//
// The compiler cannot see the contracts this repository depends on: metric
// names must exist in the src/obs/registry.hpp table *and* in
// docs/OBSERVABILITY.md, svc error codes must stay in sync between
// src/svc/protocol.hpp, docs/SERVICE.md and the svc test suite, and solver
// code must stay deterministic (no hash-ordered iteration, no rand(), no
// float-literal equality). aa_lint scans the source tree textually —
// dependency-free, std + <filesystem> + <regex> only — and exits nonzero
// on any violated invariant, so it can gate CI and run as a ctest.
//
// Checks (select with --check NAME, repeatable; default = all):
//
//   metric-literals  string literals at obs instrumentation sites
//                    (obs::count / obs::time_sample / obs::sample /
//                    obs::instant / obs::span_ending_now /
//                    obs::ScopedPhase) anywhere under src/ or tools/ —
//                    call sites must use the obs::metric registry
//                    constants. Also bans literal error codes at
//                    make_error_reply / ProtocolError sites.
//   metric-registry  src/obs/registry.hpp is internally consistent (no
//                    duplicate names, every constant listed in its kAll*
//                    array), every registered name is documented in
//                    docs/OBSERVABILITY.md, every documented name is
//                    registered, and every constant is referenced from
//                    code (no dead metrics).
//   error-codes      every error_code constant in src/svc/protocol.hpp is
//                    documented in docs/SERVICE.md's code table, every
//                    documented code is declared, and every code is
//                    exercised by tests/svc_*_test.cpp.
//   determinism      in solver code (src/aa, src/alloc,
//                    src/svc/warm_start.*): bans ==/!= against
//                    floating-point literals, rand()/srand(), unordered
//                    containers, and naked new.
//   include-style    project includes are quoted root-relative paths that
//                    resolve under src/ (no "../", no <aa/...>, no
//                    <bits/...>), and every header starts with
//                    #pragma once.
//   doc-links        every docs/*.md page is reachable from README.md by
//                    following markdown links (a page mentioning another
//                    page's path or filename counts as a link, root-level
//                    *.md pages may serve as intermediate hops), so no
//                    documentation page can silently orphan.
//   concurrency      locking discipline around src/support/sync.hpp: bans
//                    naked std::mutex / std::lock_guard / std::unique_lock
//                    / std::condition_variable (and friends) outside the
//                    sync layer itself, requires a "Lock order:" comment
//                    on every Mutex/SharedMutex/PhantomMutex declaration,
//                    requires AA_REQUIRES(...) on every `*_locked`
//                    function declared in a header, and requires a direct
//                    include of support/sync.hpp in any file that uses
//                    the AA_* annotation macros.
//   oracle-use       the reference allocators of src/alloc/oracle.hpp
//                    (allocate_greedy, allocate_bisection,
//                    allocate_dp_exact) are test and benchmark oracles:
//                    src/ and tools/ may neither call them nor include
//                    that header (the oracle's own sources excepted).
//
// A violation on a specific line can be waived by appending the comment
//   // aa-lint: allow(<check>)
// to that line; use sparingly and say why. Diagnostics are printed as
// "file:line: [check] message". Exit status: 0 clean, 1 violations,
// 2 usage or I/O error.
//
// String literals and comments are masked before pattern matching (the
// masked text keeps quotes and offsets, blanks contents), so banned
// constructs quoted in comments, docs, or this tool's own pattern strings
// never trip the checks.

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string check;
  std::string message;
};

struct SourceFile {
  std::string rel;     ///< Root-relative path with '/' separators.
  std::string raw;     ///< File contents verbatim.
  std::string masked;  ///< Comments and literal contents blanked (same
                       ///< length as raw, so offsets and lines agree).
  std::vector<std::size_t> line_starts;
};

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Blanks comments entirely and the contents of string/char literals
/// (keeping the delimiting quotes) without changing the text length or
/// line structure.
std::string mask_source(const std::string& raw) {
  std::string out = raw;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delim;  // ")delim" terminator of a raw string literal.
  const std::size_t n = raw.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = raw[i];
    const char next = i + 1 < n ? raw[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          // R"delim( ... )delim" — blank everything up to the terminator.
          if (i > 0 && raw[i - 1] == 'R' &&
              (i < 2 || !is_ident_char(raw[i - 2]))) {
            std::size_t open = raw.find('(', i + 1);
            if (open == std::string::npos) break;  // Malformed; give up.
            raw_delim = std::string(")")
                            .append(raw, i + 1, open - i - 1)
                            .append("\"");
            state = State::kRawString;
          } else {
            state = State::kString;
          }
        } else if (c == '\'' && i > 0 && is_ident_char(raw[i - 1])) {
          // Digit separator (1'000) or suffix context — not a char literal.
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (raw.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::size_t> index_lines(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

std::size_t line_of(const SourceFile& file, std::size_t offset) {
  const auto it = std::upper_bound(file.line_starts.begin(),
                                   file.line_starts.end(), offset);
  return static_cast<std::size_t>(it - file.line_starts.begin());
}

std::string line_text(const SourceFile& file, std::size_t line) {
  if (line == 0 || line > file.line_starts.size()) return "";
  const std::size_t begin = file.line_starts[line - 1];
  const std::size_t end = line < file.line_starts.size()
                              ? file.line_starts[line] - 1
                              : file.raw.size();
  return file.raw.substr(begin, end - begin);
}

/// True when the raw line carries an `aa-lint: allow(<check>)` waiver.
bool waived(const SourceFile& file, std::size_t line, std::string_view check) {
  const std::string text = line_text(file, line);
  const std::string needle = "aa-lint: allow(" + std::string(check) + ")";
  return text.find(needle) != std::string::npos;
}

class Linter {
 public:
  Linter(fs::path root, bool verbose) : root_(std::move(root)),
                                        verbose_(verbose) {}

  bool io_failed() const { return io_failed_; }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  void report(const SourceFile& file, std::size_t line,
              std::string_view check, std::string message) {
    if (line != 0 && waived(file, line, check)) return;
    diagnostics_.push_back(
        Diagnostic{file.rel, line, std::string(check), std::move(message)});
  }

  void report_global(std::string_view where, std::string_view check,
                     std::string message) {
    diagnostics_.push_back(
        Diagnostic{std::string(where), 0, std::string(check),
                   std::move(message)});
  }

  bool load() {
    for (const char* dir : {"src", "tools", "tests", "docs"}) {
      const fs::path base = root_ / dir;
      if (!fs::exists(base)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file()) continue;
        const std::string rel =
            fs::relative(entry.path(), root_).generic_string();
        // Lint self-test fixtures are deliberately bad code.
        if (rel.find("lint_fixtures") != std::string::npos) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".cpp" && ext != ".hpp" && ext != ".h" && ext != ".md") {
          continue;
        }
        std::ifstream in(entry.path(), std::ios::binary);
        if (!in) {
          std::cerr << "aa_lint: cannot read " << rel << "\n";
          io_failed_ = true;
          return false;
        }
        std::ostringstream text;
        text << in.rdbuf();
        SourceFile file;
        file.rel = rel;
        file.raw = text.str();
        file.masked = ext == ".md" ? file.raw : mask_source(file.raw);
        file.line_starts = index_lines(file.raw);
        files_.push_back(std::move(file));
      }
    }
    // Root-level markdown (README.md, CONTRIBUTING.md, ...): the doc-links
    // graph starts at README.md and may hop through these pages.
    for (const auto& entry : fs::directory_iterator(root_)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension().string() != ".md") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) {
        std::cerr << "aa_lint: cannot read "
                  << entry.path().filename().string() << "\n";
        io_failed_ = true;
        return false;
      }
      std::ostringstream text;
      text << in.rdbuf();
      SourceFile file;
      file.rel = fs::relative(entry.path(), root_).generic_string();
      file.raw = text.str();
      file.masked = file.raw;
      file.line_starts = index_lines(file.raw);
      files_.push_back(std::move(file));
    }
    std::sort(files_.begin(), files_.end(),
              [](const SourceFile& a, const SourceFile& b) {
                return a.rel < b.rel;
              });
    if (verbose_) {
      std::cerr << "aa_lint: loaded " << files_.size() << " files under "
                << root_.string() << "\n";
    }
    return true;
  }

  const SourceFile* find(std::string_view rel) const {
    for (const SourceFile& file : files_) {
      if (file.rel == rel) return &file;
    }
    return nullptr;
  }

  std::vector<const SourceFile*> match(const std::regex& rel_pattern) const {
    std::vector<const SourceFile*> out;
    for (const SourceFile& file : files_) {
      if (std::regex_search(file.rel, rel_pattern)) out.push_back(&file);
    }
    return out;
  }

  // -- metric-literals -----------------------------------------------------

  void check_metric_literals() {
    static const char* const kCheck = "metric-literals";
    const std::regex scope(R"(^(src|tools)/.*\.(cpp|hpp|h)$)");
    const std::regex obs_call(
        R"(obs::(count|time_sample|sample|instant|span_ending_now)\s*\(\s*")");
    const std::regex phase_ctor(
        R"(ScopedPhase\s*(\w+\s*)?[({]\s*")");
    const std::regex member_call(
        R"((->|\.)\s*(count|time|sample)\s*\(\s*")");
    const std::regex error_reply(
        R"((make_error_reply|ProtocolError)\s*\(\s*")");
    for (const SourceFile* file : match(scope)) {
      if (file->rel == "src/obs/registry.hpp") continue;
      scan_literal_calls(*file, obs_call, kCheck,
                         "metric name must come from obs::metric "
                         "(src/obs/registry.hpp), not a string literal");
      scan_literal_calls(*file, phase_ctor, kCheck,
                         "ScopedPhase name must come from obs::metric "
                         "(src/obs/registry.hpp), not a string literal");
      if (file->rel.rfind("src/obs/", 0) == 0) {
        scan_literal_calls(*file, member_call, kCheck,
                           "Session/Metrics count/time in src/obs must use "
                           "obs::metric constants, not string literals");
      }
      scan_literal_calls(*file, error_reply, kCheck,
                         "error code must come from svc::error_code "
                         "(src/svc/protocol.hpp), not a string literal");
    }
  }

  void scan_literal_calls(const SourceFile& file, const std::regex& pattern,
                          std::string_view check, std::string_view what) {
    for (auto it = std::sregex_iterator(file.masked.begin(),
                                        file.masked.end(), pattern);
         it != std::sregex_iterator(); ++it) {
      const std::size_t offset = static_cast<std::size_t>(it->position());
      const std::size_t quote =
          offset + static_cast<std::size_t>(it->length()) - 1;
      report(file, line_of(file, offset), check,
             std::string(what) + " (saw \"" + literal_at(file, quote) +
                 "\")");
    }
  }

  /// The raw string literal starting at `quote` (an opening '"').
  static std::string literal_at(const SourceFile& file, std::size_t quote) {
    std::string value;
    for (std::size_t i = quote + 1; i < file.raw.size(); ++i) {
      if (file.raw[i] == '"') break;
      if (file.raw[i] == '\\') ++i;
      value.push_back(file.raw[i]);
    }
    return value;
  }

  // -- registry parsing ----------------------------------------------------

  struct RegistryEntry {
    std::string constant;
    std::string value;
    std::string section;
    std::size_t line = 0;
  };

  /// Parses `inline constexpr std::string_view kName = "value";` entries
  /// grouped by `aa-lint-section:` markers, plus the kAll* arrays.
  static std::vector<RegistryEntry> parse_registry(
      const SourceFile& file, std::map<std::string,
      std::vector<std::string>>* arrays) {
    std::vector<RegistryEntry> entries;
    const std::regex entry_re(
        R"re(std::string_view\s+(k\w+)\s*=\s*"([^"]*)";)re");
    const std::regex section_re(R"(aa-lint-section:\s*(\w+))");
    // Section markers, in file order.
    std::vector<std::pair<std::size_t, std::string>> sections;
    for (auto it = std::sregex_iterator(file.raw.begin(), file.raw.end(),
                                        section_re);
         it != std::sregex_iterator(); ++it) {
      sections.emplace_back(static_cast<std::size_t>(it->position()),
                            (*it)[1].str());
    }
    for (auto it = std::sregex_iterator(file.raw.begin(), file.raw.end(),
                                        entry_re);
         it != std::sregex_iterator(); ++it) {
      RegistryEntry entry;
      entry.constant = (*it)[1].str();
      entry.value = (*it)[2].str();
      const std::size_t offset = static_cast<std::size_t>(it->position());
      entry.line = line_of(file, offset);
      for (const auto& [pos, name] : sections) {
        if (pos < offset) entry.section = name;
      }
      if (entry.constant.rfind("kAll", 0) == 0) continue;
      entries.push_back(std::move(entry));
    }
    if (arrays != nullptr) {
      const std::regex array_re(R"((kAll\w+)\[\]\s*=\s*\{([^}]*)\})");
      const std::regex ident_re(R"(k\w+)");
      for (auto it = std::sregex_iterator(file.raw.begin(), file.raw.end(),
                                          array_re);
           it != std::sregex_iterator(); ++it) {
        const std::string body = (*it)[2].str();
        std::vector<std::string> members;
        for (auto id = std::sregex_iterator(body.begin(), body.end(),
                                            ident_re);
             id != std::sregex_iterator(); ++id) {
          members.push_back(id->str());
        }
        (*arrays)[(*it)[1].str()] = std::move(members);
      }
    }
    return entries;
  }

  /// Backticked tokens in the first cell of every table row of a markdown
  /// section ("### Title" until the next heading).
  static std::set<std::string> doc_table_names(const SourceFile& doc,
                                               std::string_view heading) {
    std::set<std::string> names;
    std::istringstream in(doc.raw);
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
      if (line.rfind("#", 0) == 0) {
        inside = line == heading;
        continue;
      }
      if (!inside || line.empty() || line[0] != '|') continue;
      const std::size_t second = line.find('|', 1);
      if (second == std::string::npos) continue;
      const std::string cell = line.substr(1, second - 1);
      if (cell.find("---") != std::string::npos) continue;
      std::size_t pos = 0;
      while (true) {
        const std::size_t open = cell.find('`', pos);
        if (open == std::string::npos) break;
        const std::size_t close = cell.find('`', open + 1);
        if (close == std::string::npos) break;
        names.insert(cell.substr(open + 1, close - open - 1));
        pos = close + 1;
      }
    }
    return names;
  }

  // -- metric-registry -----------------------------------------------------

  void check_metric_registry() {
    static const char* const kCheck = "metric-registry";
    const SourceFile* registry = find("src/obs/registry.hpp");
    if (registry == nullptr) {
      report_global("src/obs/registry.hpp", kCheck, "registry file missing");
      return;
    }
    const SourceFile* doc = find("docs/OBSERVABILITY.md");
    if (doc == nullptr) {
      report_global("docs/OBSERVABILITY.md", kCheck,
                    "metric documentation missing");
      return;
    }

    std::map<std::string, std::vector<std::string>> arrays;
    const std::vector<RegistryEntry> entries =
        parse_registry(*registry, &arrays);

    // Internal consistency: unique names, every constant in its section's
    // kAll* array and nothing extra.
    static const std::map<std::string, std::string> kSectionArray = {
        {"counters", "kAllCounters"},
        {"timers", "kAllTimers"},
        {"events", "kAllEvents"},
        {"log_events", "kAllLogEvents"},
    };
    std::map<std::string, const RegistryEntry*> by_value;
    for (const RegistryEntry& entry : entries) {
      if (const auto [it, inserted] = by_value.emplace(entry.value, &entry);
          !inserted) {
        report(*registry, entry.line, kCheck,
               "duplicate metric name \"" + entry.value + "\" (also " +
                   it->second->constant + ")");
      }
      const auto section = kSectionArray.find(entry.section);
      if (section == kSectionArray.end()) {
        report(*registry, entry.line, kCheck,
               entry.constant + " is outside any aa-lint-section block");
        continue;
      }
      const std::vector<std::string>& members = arrays[section->second];
      if (std::find(members.begin(), members.end(), entry.constant) ==
          members.end()) {
        report(*registry, entry.line, kCheck,
               entry.constant + " is missing from " + section->second);
      }
    }
    for (const auto& [array_name, members] : arrays) {
      for (const std::string& member : members) {
        const bool known =
            std::any_of(entries.begin(), entries.end(),
                        [&](const RegistryEntry& entry) {
                          return entry.constant == member;
                        });
        if (!known) {
          report(*registry, 0, kCheck,
                 array_name + " lists undeclared constant " + member);
        }
      }
    }

    // Registry <-> docs, both directions, per section.
    static const std::map<std::string, std::string> kSectionHeading = {
        {"counters", "### Counters"},
        {"timers", "### Phase timers"},
        {"events", "### Trace events"},
    };
    std::set<std::string> documented_all;
    for (const auto& [section, heading] : kSectionHeading) {
      const std::set<std::string> documented = doc_table_names(*doc, heading);
      documented_all.insert(documented.begin(), documented.end());
      if (documented.empty()) {
        report(*doc, 0, kCheck,
               std::string("docs/OBSERVABILITY.md has no \"") + heading +
                   "\" table (required by the metric registry)");
      }
      for (const RegistryEntry& entry : entries) {
        if (entry.section == section &&
            documented.find(entry.value) == documented.end()) {
          report(*registry, entry.line, kCheck,
                 "\"" + entry.value + "\" (" + entry.constant +
                     ") is registered but not documented under \"" + heading +
                     "\" in docs/OBSERVABILITY.md");
        }
      }
    }
    for (const std::string& name : documented_all) {
      if (by_value.find(name) == by_value.end()) {
        report(*doc, 0, kCheck,
               "\"" + name +
                   "\" is documented in docs/OBSERVABILITY.md but not "
                   "registered in src/obs/registry.hpp");
      }
    }

    // Dead metrics: every constant must be referenced from src/ or tools/.
    const std::regex scope(R"(^(src|tools)/.*\.(cpp|hpp|h)$)");
    const std::vector<const SourceFile*> code = match(scope);
    for (const RegistryEntry& entry : entries) {
      const std::string needle = "metric::" + entry.constant;
      const bool used = std::any_of(
          code.begin(), code.end(), [&](const SourceFile* file) {
            return file->rel != "src/obs/registry.hpp" &&
                   file->masked.find(needle) != std::string::npos;
          });
      if (!used) {
        report(*registry, entry.line, kCheck,
               entry.constant + " (\"" + entry.value +
                   "\") is registered but never used from src/ or tools/");
      }
    }
  }

  // -- error-codes ---------------------------------------------------------

  void check_error_codes() {
    static const char* const kCheck = "error-codes";
    const SourceFile* protocol = find("src/svc/protocol.hpp");
    if (protocol == nullptr) {
      report_global("src/svc/protocol.hpp", kCheck, "protocol header missing");
      return;
    }
    const SourceFile* doc = find("docs/SERVICE.md");
    if (doc == nullptr) {
      report_global("docs/SERVICE.md", kCheck, "service documentation missing");
      return;
    }

    // Declared codes: constants inside `namespace error_code { ... }`.
    const std::size_t begin = protocol->raw.find("namespace error_code {");
    const std::size_t end =
        begin == std::string::npos ? std::string::npos
                                   : protocol->raw.find("}", begin);
    if (begin == std::string::npos || end == std::string::npos) {
      report(*protocol, 0, kCheck, "namespace error_code block not found");
      return;
    }
    const std::string block = protocol->raw.substr(begin, end - begin);
    const std::regex entry_re(
        R"re(std::string_view\s+(k\w+)\s*=\s*"([^"]*)";)re");
    std::map<std::string, std::string> declared;  // value -> constant.
    for (auto it = std::sregex_iterator(block.begin(), block.end(), entry_re);
         it != std::sregex_iterator(); ++it) {
      declared[(*it)[2].str()] = (*it)[1].str();
    }
    if (declared.empty()) {
      report(*protocol, 0, kCheck, "no error_code constants found");
      return;
    }

    // Documented codes: first-cell backticks of the `| code |` table.
    std::set<std::string> documented;
    {
      std::istringstream in(doc->raw);
      std::string line;
      bool inside = false;
      while (std::getline(in, line)) {
        const bool is_row = !line.empty() && line[0] == '|';
        if (!is_row) {
          inside = false;
          continue;
        }
        if (line.find("| code |") != std::string::npos ||
            line.find("| code ") == 0) {
          inside = true;
          continue;
        }
        if (!inside || line.find("---") != std::string::npos) continue;
        const std::size_t open = line.find('`');
        const std::size_t close =
            open == std::string::npos ? open : line.find('`', open + 1);
        if (close != std::string::npos) {
          documented.insert(line.substr(open + 1, close - open - 1));
        }
      }
    }
    if (documented.empty()) {
      report(*doc, 0, kCheck, "no `| code | meaning |` table found");
    }

    // Tests that pin the protocol surface.
    const std::regex test_scope(R"(^tests/svc_\w*test\.cpp$)");
    const std::vector<const SourceFile*> tests = match(test_scope);
    if (tests.empty()) {
      report_global("tests", kCheck, "no svc_*_test.cpp files found");
    }

    for (const auto& [value, constant] : declared) {
      if (documented.find(value) == documented.end()) {
        report(*protocol, 0, kCheck,
               "error code \"" + value + "\" (" + constant +
                   ") is declared but missing from the docs/SERVICE.md "
                   "code table");
      }
      const bool exercised = std::any_of(
          tests.begin(), tests.end(), [&](const SourceFile* file) {
            return file->masked.find("error_code::" + constant) !=
                       std::string::npos ||
                   file->raw.find("\"" + value + "\"") != std::string::npos;
          });
      if (!exercised && !tests.empty()) {
        report(*protocol, 0, kCheck,
               "error code \"" + value + "\" (" + constant +
                   ") is never exercised by tests/svc_*_test.cpp");
      }
    }
    for (const std::string& value : documented) {
      if (declared.find(value) == declared.end()) {
        report(*doc, 0, kCheck,
               "error code \"" + value +
                   "\" is documented in docs/SERVICE.md but not declared "
                   "in src/svc/protocol.hpp");
      }
    }
  }

  // -- determinism ---------------------------------------------------------

  void check_determinism() {
    static const char* const kCheck = "determinism";
    const std::regex scope(
        R"(^(src/aa/|src/alloc/|src/svc/warm_start\.).*)");
    struct Ban {
      std::regex pattern;
      const char* message;
    };
    static const std::vector<Ban> kBans = [] {
      std::vector<Ban> bans;
      bans.push_back(
          {std::regex(R"([=!]=\s*(\d+\.\d*|\.\d+|\d+\.?\d*[eE][-+]?\d+)[fF]?)"),
           "floating-point literal compared with ==/!= (use an explicit "
           "tolerance or integer state)"});
      bans.push_back(
          {std::regex(R"((\d+\.\d*|\.\d+|\d+\.?\d*[eE][-+]?\d+)[fF]?\s*[=!]=)"),
           "floating-point literal compared with ==/!= (use an explicit "
           "tolerance or integer state)"});
      bans.push_back({std::regex(R"(\b(std::)?s?rand\s*\()"),
                      "rand()/srand() is banned in solver code (use "
                      "support::Prng)"});
      bans.push_back({std::regex(R"(\bstd::unordered_(map|set|multimap|multiset)\b)"),
                      "unordered containers are banned in solver code "
                      "(iteration order is hash-seeded; use std::map / "
                      "std::set / sorted vectors)"});
      bans.push_back({std::regex(R"(\bnew\s+[A-Za-z_(])"),
                      "naked new is banned in solver code (use containers "
                      "or std::make_unique)"});
      return bans;
    }();
    for (const SourceFile* file : match(scope)) {
      for (const Ban& ban : kBans) {
        for (auto it = std::sregex_iterator(file->masked.begin(),
                                            file->masked.end(), ban.pattern);
             it != std::sregex_iterator(); ++it) {
          const std::size_t offset = static_cast<std::size_t>(it->position());
          report(*file, line_of(*file, offset), kCheck, ban.message);
        }
      }
    }
  }

  // -- oracle-use ----------------------------------------------------------

  void check_oracle_use() {
    static const char* const kCheck = "oracle-use";
    const std::regex scope(R"(^(src|tools)/.*\.(cpp|hpp|h)$)");
    const std::regex call_re(
        R"(\ballocate_(greedy|bisection|dp_exact)\b)");
    const std::regex include_re(
        R"re(^\s*#\s*include\s*"alloc/oracle\.hpp")re");
    for (const SourceFile* file : match(scope)) {
      if (file->rel.rfind("src/alloc/oracle.", 0) == 0) continue;
      for (auto it = std::sregex_iterator(file->masked.begin(),
                                          file->masked.end(), call_re);
           it != std::sregex_iterator(); ++it) {
        const std::size_t offset = static_cast<std::size_t>(it->position());
        report(*file, line_of(*file, offset), kCheck,
               (*it)[0].str() +
                   " is a test oracle (src/alloc/oracle.hpp); production "
                   "code uses alloc::allocate_bisection_soa");
      }
      for (std::size_t line = 1; line <= file->line_starts.size(); ++line) {
        if (std::regex_search(line_text(*file, line), include_re)) {
          report(*file, line, kCheck,
                 "alloc/oracle.hpp is linked by tests/ and bench/ only");
        }
      }
    }
  }

  // -- include-style -------------------------------------------------------

  void check_include_style() {
    static const char* const kCheck = "include-style";
    const std::regex scope(R"(^(src|tools)/.*\.(cpp|hpp|h)$)");
    const std::regex quoted_re(R"(^\s*#\s*include\s*")");
    const std::regex angled_re(R"(^\s*#\s*include\s*<([^>]+)>)");
    for (const SourceFile* file : match(scope)) {
      std::istringstream masked(file->masked);
      std::string masked_line;
      std::size_t line_number = 0;
      bool pragma_checked = false;
      while (std::getline(masked, masked_line)) {
        ++line_number;
        const bool header = file->rel.size() > 4 &&
                            file->rel.substr(file->rel.size() - 4) == ".hpp";
        if (header && !pragma_checked) {
          // First non-blank masked line must be #pragma once (comments
          // mask to blanks, so license/doc headers are fine).
          const bool blank = masked_line.find_first_not_of(" \t\r") ==
                             std::string::npos;
          if (!blank) {
            pragma_checked = true;
            if (masked_line.rfind("#pragma once", 0) != 0) {
              report(*file, line_number, kCheck,
                     "header does not start with #pragma once");
            }
          }
        }
        if (std::regex_search(masked_line, quoted_re)) {
          const std::string raw_line = line_text(*file, line_number);
          const std::size_t open = raw_line.find('"');
          const std::size_t close = open == std::string::npos
                                        ? open
                                        : raw_line.find('"', open + 1);
          if (open == std::string::npos || close == std::string::npos) {
            continue;
          }
          const std::string path =
              raw_line.substr(open + 1, close - open - 1);
          if (path.rfind("./", 0) == 0 ||
              path.find("../") != std::string::npos) {
            report(*file, line_number, kCheck,
                   "relative include \"" + path +
                       "\" (project includes are root-relative under src/)");
          } else if (!fs::is_regular_file(root_ / "src" / path)) {
            report(*file, line_number, kCheck,
                   "quoted include \"" + path +
                       "\" does not resolve under src/ (use <...> for "
                       "system headers)");
          }
        }
        std::smatch angled;
        if (std::regex_search(masked_line, angled, angled_re)) {
          const std::string path = angled[1].str();
          if (path.rfind("bits/", 0) == 0) {
            report(*file, line_number, kCheck,
                   "<bits/...> is not a portable header");
          } else if (fs::is_regular_file(root_ / "src" / path)) {
            report(*file, line_number, kCheck,
                   "project header <" + path + "> must use quotes");
          }
        }
      }
    }
  }

  // -- concurrency ---------------------------------------------------------

  void check_concurrency() {
    static const char* const kCheck = "concurrency";
    const std::regex scope(R"(^(src|tools)/.*\.(cpp|hpp|h)$)");
    // (a) Naked standard synchronization primitives. The annotated
    // wrappers in src/support/sync.hpp are the only sanctioned spelling:
    // they are what Clang's thread-safety analysis can see.
    const std::regex naked_re(
        R"(\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex)"
        R"(|shared_mutex|shared_timed_mutex|lock_guard|unique_lock)"
        R"(|scoped_lock|shared_lock|condition_variable)"
        R"(|condition_variable_any)\b)");
    // (b) Every lockable declaration states its place in the hierarchy.
    const std::regex lockable_decl_re(
        R"(^\s*(mutable\s+)?((aa::)?support::)?)"
        R"((Mutex|SharedMutex|PhantomMutex)\s+[A-Za-z_]\w*)");
    // (c) Functions named `*_locked` in headers carry AA_REQUIRES.
    const std::regex locked_fn_re(R"(\b[A-Za-z_]\w*_locked\s*\()");
    // (d) AA_* macro users include the defining header directly.
    const std::regex macro_re(
        R"(\bAA_(CAPABILITY|SCOPED_CAPABILITY|GUARDED_BY|PT_GUARDED_BY)"
        R"(|REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED|RELEASE)"
        R"(|RELEASE_SHARED|TRY_ACQUIRE|EXCLUDES|ACQUIRED_AFTER)"
        R"(|ACQUIRED_BEFORE|ASSERT_CAPABILITY|RETURN_CAPABILITY)"
        R"(|NO_THREAD_SAFETY_ANALYSIS)\b)");
    for (const SourceFile* file : match(scope)) {
      if (file->rel == "src/support/sync.hpp") continue;
      for (auto it = std::sregex_iterator(file->masked.begin(),
                                          file->masked.end(), naked_re);
           it != std::sregex_iterator(); ++it) {
        const std::size_t offset = static_cast<std::size_t>(it->position());
        report(*file, line_of(*file, offset), kCheck,
               "naked " + it->str() +
                   " — use the annotated wrappers in src/support/sync.hpp "
                   "(Mutex / MutexLock / CondVar)");
      }
      check_lock_order_comments(*file, lockable_decl_re, kCheck);
      if (file->rel.size() > 4 &&
          file->rel.substr(file->rel.size() - 4) == ".hpp") {
        check_locked_requires(*file, locked_fn_re, kCheck);
      }
      // The include path is a string literal (blanked in masked text), so
      // this one lookup goes against the raw bytes.
      std::smatch macro_use;
      if (std::regex_search(file->masked, macro_use, macro_re) &&
          file->raw.find("#include \"support/sync.hpp\"") ==
              std::string::npos) {
        const std::size_t offset =
            static_cast<std::size_t>(macro_use.position());
        report(*file, line_of(*file, offset), kCheck,
               "uses thread-safety annotation macros but does not include "
               "\"support/sync.hpp\" directly");
      }
    }
  }

  /// (b) A Mutex/SharedMutex/PhantomMutex declaration must say where it
  /// sits in the lock hierarchy: a "Lock order:" note on the declaration
  /// line itself or in the contiguous `//` comment block directly above.
  void check_lock_order_comments(const SourceFile& file,
                                 const std::regex& decl_re,
                                 std::string_view check) {
    std::istringstream masked(file.masked);
    std::string masked_line;
    std::size_t line_number = 0;
    while (std::getline(masked, masked_line)) {
      ++line_number;
      if (!std::regex_search(masked_line, decl_re)) continue;
      bool documented =
          line_text(file, line_number).find("Lock order:") !=
          std::string::npos;
      for (std::size_t above = line_number; !documented && above > 1;) {
        --above;
        const std::string text = line_text(file, above);
        const std::size_t first = text.find_first_not_of(" \t");
        if (first == std::string::npos ||
            text.compare(first, 2, "//") != 0) {
          break;  // End of the contiguous comment block.
        }
        documented = text.find("Lock order:") != std::string::npos;
      }
      if (!documented) {
        report(file, line_number, check,
               "lockable member needs a \"Lock order:\" comment (same line "
               "or the // block directly above) stating its place in the "
               "hierarchy — see docs/ARCHITECTURE.md");
      }
    }
  }

  /// (c) A function whose name ends in `_locked` encodes a caller-holds-
  /// the-lock contract; in a header that contract must be machine-checked
  /// with AA_REQUIRES(...), not prose. Calls are told apart from
  /// declarations by the statement prefix: a call site's prefix (text
  /// since the last `;`/`{`/`}`/`#`) is empty or carries `=`, `return`,
  /// `(`, `,`, `.` or `->`, a declaration's carries the return type.
  void check_locked_requires(const SourceFile& file, const std::regex& fn_re,
                             std::string_view check) {
    const std::string& masked = file.masked;
    for (auto it = std::sregex_iterator(masked.begin(), masked.end(), fn_re);
         it != std::sregex_iterator(); ++it) {
      const std::size_t offset = static_cast<std::size_t>(it->position());
      const std::size_t stmt =
          masked.find_last_of(";{}#", offset == 0 ? 0 : offset - 1);
      const std::string prefix = masked.substr(
          stmt == std::string::npos ? 0 : stmt + 1,
          offset - (stmt == std::string::npos ? 0 : stmt + 1));
      const bool call_like =
          prefix.find_first_not_of(" \t\r\n") == std::string::npos ||
          prefix.find('=') != std::string::npos ||
          prefix.find('(') != std::string::npos ||
          prefix.find(',') != std::string::npos ||
          prefix.find('.') != std::string::npos ||
          prefix.find("->") != std::string::npos ||
          prefix.find("return") != std::string::npos;
      if (call_like) continue;
      // Span from the parameter list's close paren to the declaration's
      // `;` or `{` is where trailing attributes live.
      std::size_t open = masked.find('(', offset);
      if (open == std::string::npos) continue;
      int depth = 0;
      std::size_t close = open;
      for (; close < masked.size(); ++close) {
        if (masked[close] == '(') ++depth;
        if (masked[close] == ')' && --depth == 0) break;
      }
      const std::size_t terminator = masked.find_first_of(";{", close);
      const std::string trailer = masked.substr(
          close, (terminator == std::string::npos ? masked.size()
                                                  : terminator) -
                     close);
      if (trailer.find("AA_REQUIRES") == std::string::npos) {
        report(file, line_of(file, offset), check,
               "`*_locked` function declared without AA_REQUIRES(...) — "
               "the caller-holds-the-lock contract must be machine-checked "
               "(src/support/sync.hpp)");
      }
    }
  }

  // -- log-registry --------------------------------------------------------

  /// Structured-log event names (obs::log_event, src/obs/log.hpp) follow
  /// the same discipline as metric names: the name passed at an emission
  /// site must be an obs::metric constant from the registry's log_events
  /// section, and that section is cross-checked against the "### Log
  /// events" table in docs/OBSERVABILITY.md in both directions.
  void check_log_registry() {
    static const char* const kCheck = "log-registry";
    const std::regex scope(R"(^(src|tools)/.*\.(cpp|hpp|h)$)");
    // First argument is the LogLevel, second the event name; a quote in
    // second position is a banned literal.
    const std::regex log_call(R"(log_event\s*\(\s*[\w:]+\s*,\s*")");
    for (const SourceFile* file : match(scope)) {
      if (file->rel == "src/obs/registry.hpp") continue;
      scan_literal_calls(*file, log_call, kCheck,
                         "log event name must come from obs::metric "
                         "(src/obs/registry.hpp, log_events section), not a "
                         "string literal");
    }

    const SourceFile* registry = find("src/obs/registry.hpp");
    if (registry == nullptr) {
      report_global("src/obs/registry.hpp", kCheck, "registry file missing");
      return;
    }
    const SourceFile* doc = find("docs/OBSERVABILITY.md");
    if (doc == nullptr) {
      report_global("docs/OBSERVABILITY.md", kCheck,
                    "metric documentation missing");
      return;
    }
    const std::vector<RegistryEntry> entries =
        parse_registry(*registry, nullptr);
    static const char* const kHeading = "### Log events";
    const std::set<std::string> documented = doc_table_names(*doc, kHeading);
    std::set<std::string> registered;
    for (const RegistryEntry& entry : entries) {
      if (entry.section != "log_events") continue;
      registered.insert(entry.value);
      if (documented.find(entry.value) == documented.end()) {
        report(*registry, entry.line, kCheck,
               "\"" + entry.value + "\" (" + entry.constant +
                   ") is registered but not documented under \"" + kHeading +
                   "\" in docs/OBSERVABILITY.md");
      }
    }
    if (!registered.empty() && documented.empty()) {
      report(*doc, 0, kCheck,
             std::string("docs/OBSERVABILITY.md has no \"") + kHeading +
                 "\" table (required by the log_events registry section)");
    }
    for (const std::string& name : documented) {
      if (registered.find(name) == registered.end()) {
        report(*doc, 0, kCheck,
               "\"" + name + "\" is documented under \"" + kHeading +
                   "\" but not registered in src/obs/registry.hpp");
      }
    }
  }

  // -- doc-links -----------------------------------------------------------

  void check_doc_links() {
    static const char* const kCheck = "doc-links";
    std::vector<const SourceFile*> pages;
    bool have_docs = false;
    for (const SourceFile& file : files_) {
      if (file.rel.size() < 3 ||
          file.rel.substr(file.rel.size() - 3) != ".md") {
        continue;
      }
      pages.push_back(&file);
      have_docs = have_docs || file.rel.rfind("docs/", 0) == 0;
    }
    if (!have_docs) return;  // Nothing that needs to be reachable.

    const SourceFile* readme = find("README.md");
    if (readme == nullptr) {
      report_global("README.md", kCheck,
                    "docs/*.md pages exist but there is no README.md to "
                    "anchor the link graph");
      return;
    }

    /// A page links another when it mentions its root-relative path or, for
    /// docs/ pages, its bare filename (relative links within docs/).
    const auto links_to = [](const SourceFile& from, const SourceFile& to) {
      if (from.raw.find(to.rel) != std::string::npos) return true;
      const std::size_t slash = to.rel.rfind('/');
      if (slash == std::string::npos) return false;
      return from.raw.find(to.rel.substr(slash + 1)) != std::string::npos;
    };

    std::set<const SourceFile*> reachable{readme};
    std::vector<const SourceFile*> frontier{readme};
    while (!frontier.empty()) {
      const SourceFile* from = frontier.back();
      frontier.pop_back();
      for (const SourceFile* to : pages) {
        if (reachable.count(to) != 0 || !links_to(*from, *to)) continue;
        reachable.insert(to);
        frontier.push_back(to);
      }
    }

    for (const SourceFile* page : pages) {
      if (page->rel.rfind("docs/", 0) != 0) continue;  // Only docs/ must link.
      if (reachable.count(page) != 0) continue;
      report(*page, 0, kCheck,
             "not reachable from README.md via markdown links — link it "
             "from README.md or another reachable page");
    }
  }

 private:
  fs::path root_;
  bool verbose_ = false;
  bool io_failed_ = false;
  std::vector<SourceFile> files_;
  std::vector<Diagnostic> diagnostics_;
};

constexpr std::string_view kKnownChecks[] = {
    "metric-literals", "metric-registry", "error-codes", "determinism",
    "include-style", "doc-links", "concurrency", "log-registry",
    "oracle-use",
};

int usage(int status) {
  std::ostream& out = status == 0 ? std::cout : std::cerr;
  out << "usage: aa_lint --root DIR [--check NAME]... [--verbose]\n"
         "Project-invariant static analysis (docs/STATIC_ANALYSIS.md).\n"
         "Checks:";
  for (const std::string_view check : kKnownChecks) out << " " << check;
  out << "\nExit: 0 clean, 1 violations, 2 usage/I/O error.\n";
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root;
  std::set<std::string> checks;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      const std::string_view name = argv[++i];
      const bool known =
          std::find(std::begin(kKnownChecks), std::end(kKnownChecks), name) !=
          std::end(kKnownChecks);
      if (!known) {
        std::cerr << "aa_lint: unknown check '" << name << "'\n";
        return usage(2);
      }
      checks.emplace(name);
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::cerr << "aa_lint: unknown argument '" << arg << "'\n";
      return usage(2);
    }
  }
  if (root.empty()) {
    std::cerr << "aa_lint: --root is required\n";
    return usage(2);
  }
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::cerr << "aa_lint: not a directory: " << root.string() << "\n";
    return 2;
  }
  if (checks.empty()) {
    for (const std::string_view check : kKnownChecks) checks.emplace(check);
  }

  Linter linter(root, verbose);
  if (!linter.load()) return 2;
  if (checks.count("metric-literals") != 0) linter.check_metric_literals();
  if (checks.count("metric-registry") != 0) linter.check_metric_registry();
  if (checks.count("error-codes") != 0) linter.check_error_codes();
  if (checks.count("determinism") != 0) linter.check_determinism();
  if (checks.count("include-style") != 0) linter.check_include_style();
  if (checks.count("doc-links") != 0) linter.check_doc_links();
  if (checks.count("concurrency") != 0) linter.check_concurrency();
  if (checks.count("log-registry") != 0) linter.check_log_registry();
  if (checks.count("oracle-use") != 0) linter.check_oracle_use();

  std::vector<Diagnostic> diagnostics = linter.diagnostics();
  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.check, a.message) <
                     std::tie(b.file, b.line, b.check, b.message);
            });
  for (const Diagnostic& diagnostic : diagnostics) {
    std::cout << diagnostic.file << ":" << diagnostic.line << ": ["
              << diagnostic.check << "] " << diagnostic.message << "\n";
  }
  if (!diagnostics.empty()) {
    std::cout << "aa_lint: " << diagnostics.size() << " violation"
              << (diagnostics.size() == 1 ? "" : "s") << "\n";
    return 1;
  }
  if (verbose) std::cout << "aa_lint: clean\n";
  return 0;
}

// salient_lint: token-level concurrency/determinism linter for src/.
//
// The clang thread-safety analysis (see docs/STATIC_ANALYSIS.md) proves
// locking contracts, but only for code that uses the annotated primitives in
// util/thread_annotations.h — a naked std::mutex is invisible to it. This
// linter closes that hole, plus a few repo-specific discipline rules that
// need no semantic analysis, so they run everywhere (any compiler, any
// platform, < 100 ms) as the ctest `salient_lint_check`:
//
//   naked-mutex      std::mutex / std::lock_guard / std::unique_lock /
//                    std::condition_variable & friends outside src/util —
//                    use salient::Mutex/LockGuard/UniqueLock/CondVar so the
//                    capability analysis can see the lock.
//   nondeterminism   rand() / srand() / std::random_device / time(nullptr)
//                    seeds — the repro pipeline must be deterministic
//                    (paper §5.3 exact-result requirement); use
//                    salient::Xoshiro256ss with an explicit seed.
//   stdout-logging   std::cout / std::cerr / printf / fprintf / puts in
//                    library code — report through obs/ metrics or return
//                    errors; stdout belongs to tools and examples.
//   sleep            sleep_for / sleep_until outside src/fault — sleeping
//                    hides missing synchronization; wait on a CondVar with
//                    a deadline. (fault/ injects stalls by design.)
//   scalar-half-loop float_to_half / half_to_float calls outside src/util —
//                    per-element scalar conversion on the feature pipeline
//                    forfeits the vectorized (F16C/NEON) bulk converters;
//                    use float_to_half_n / half_to_float_n on whole runs.
//
// Matching is token-boundary-aware on comment- and string-scrubbed source,
// so `snprintf(` does not trip `printf(`, `bounded_rand(` does not trip
// `rand(`, and a rule named in a comment is not a finding.
//
// Usage:
//   salient_lint --root <dir> [--allowlist <file>] [--fix-suggestions]
//                [--list-rules]
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
//
// Allowlist file: one `<rule> <path> # reason` per line, where <path> is
// relative to --root with forward slashes. An entry suppresses every finding
// of <rule> in that file; unused entries are reported (stderr) so the list
// cannot rot. Policy in docs/STATIC_ANALYSIS.md: every entry needs a reason.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Pattern {
  std::string text;       // the token sequence to find
  bool call_only = false;  // require '(' (after spaces) following the match
};

struct Finding {
  std::string rule;
  std::string file;  // relative to root
  std::size_t line = 0;
  std::string token;
  std::string line_text;
};

struct Rule;

/// Rules beyond pattern matching implement one of these: `raw` is the file
/// as read, `code` the comment/string-scrubbed version (same offsets).
using CustomCheck = void (*)(const std::string& rel, const std::string& raw,
                             const std::string& code, const Rule& rule,
                             std::vector<Finding>& findings);

struct Rule {
  std::string name;
  std::string summary;
  std::string fix;                    // printed under --fix-suggestions
  std::vector<Pattern> patterns;
  std::vector<std::string> exempt_dirs;  // path prefixes relative to root
  CustomCheck custom = nullptr;          // runs instead of pattern matching
};

void check_memory_order(const std::string& rel, const std::string& raw,
                        const std::string& code, const Rule& rule,
                        std::vector<Finding>& findings);
void check_guarded_by(const std::string& rel, const std::string& raw,
                      const std::string& code, const Rule& rule,
                      std::vector<Finding>& findings);

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"naked-mutex",
       "raw standard-library synchronization primitive outside src/util",
       "use salient::Mutex / LockGuard / UniqueLock / CondVar from "
       "util/thread_annotations.h so -Wthread-safety can check the lock",
       {{"std::mutex"},
        {"std::recursive_mutex"},
        {"std::timed_mutex"},
        {"std::recursive_timed_mutex"},
        {"std::shared_mutex"},
        {"std::lock_guard"},
        {"std::unique_lock"},
        {"std::scoped_lock"},
        {"std::shared_lock"},
        {"std::condition_variable"},
        {"std::condition_variable_any"}},
       {"util/", "check/"}},
      {"nondeterminism",
       "unseeded / wall-clock randomness in a deterministic pipeline",
       "use salient::Xoshiro256ss (util/rng.h) with an explicit seed; derive "
       "per-worker seeds from the run seed",
       {{"rand", true},
        {"srand", true},
        {"random_device"},
        {"time()"},
        {"time(nullptr)"},
        {"time(NULL)"},
        {"time(0)"}},
       {}},
      {"stdout-logging",
       "direct console output from library code",
       "report through obs/ (metrics, trace) or return the error to the "
       "caller; console output belongs to tools/ and examples/",
       {{"std::cout"},
        {"std::cerr"},
        {"printf", true},
        {"fprintf", true},
        {"puts", true},
        {"putchar", true}},
       {}},
      {"sleep",
       "thread sleep outside the fault-injection subsystem",
       "wait on a salient::CondVar with a deadline (wait_until) — a sleep "
       "that makes code correct is a missing synchronization",
       {{"sleep_for", true}, {"sleep_until", true}, {"usleep", true}},
       {"fault/"}},
      {"scalar-half-loop",
       "scalar f16 conversion call outside src/util",
       "convert whole runs with float_to_half_n / half_to_float_n "
       "(util/half.h): the bulk converters vectorize (F16C/NEON) with exact "
       "round-to-nearest-even parity, and a per-element scalar call on a "
       "feature-pipeline path forfeits that bandwidth",
       {{"float_to_half", true}, {"half_to_float", true}},
       {"util/"}},
      {"explicit-memory-order",
       "atomic operation without an explicit std::memory_order argument",
       "state the ordering deliberately (relaxed / acquire / release / "
       "acq_rel / seq_cst) — a defaulted seq_cst hides whether the cost was "
       "chosen or forgotten; the model checker (docs/STATIC_ANALYSIS.md) "
       "explores SC interleavings either way, so the annotation is the only "
       "record of the intended contract",
       {},
       {"util/", "check/"},
       check_memory_order},
      {"guarded-by-coverage",
       "field of a Mutex-holding class lacks GUARDED_BY or an `unguarded:` "
       "note",
       "annotate the field with GUARDED_BY(mu_); fields deliberately outside "
       "the lock (immutable after construction, self-synchronizing atomics, "
       "published by a protocol the comment explains) get a "
       "`// unguarded: <why>` comment on or above the declaration",
       {},
       {"check/"},
       check_guarded_by},
  };
  return kRules;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Replace comments, string literals (incl. raw strings), and char literals
/// with spaces, preserving byte offsets and newlines.
std::string scrub(const std::string& src) {
  std::string out = src;
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;  // the )delim" terminator of the active raw string
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char n = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || !ident_char(src[i - 1]))) {
          // R"delim( ... )delim"
          std::size_t p = i + 2;
          while (p < src.size() && src[p] != '(') ++p;
          raw_delim.assign(1, ')');
          raw_delim.append(src, i + 2, p - (i + 2));
          raw_delim.push_back('"');
          for (std::size_t k = i; k <= p && k < src.size(); ++k) {
            if (out[k] != '\n') out[k] = ' ';
          }
          i = p;
          st = St::kRaw;
        } else if (c == '"') {
          st = St::kStr;
          out[i] = ' ';
        } else if (c == '\'') {
          st = St::kChar;
          out[i] = ' ';
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\0' && n != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          out[i] = ' ';
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\0' && n != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          out[i] = ' ';
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

/// True when `text[pos .. pos+pat)` is a token-boundary match of `pat`.
/// A preceding `::` is deliberately a match (std::this_thread::sleep_for
/// must trip the sleep rule); a preceding identifier char is not
/// (snprintf must not trip printf, bounded_rand must not trip rand).
bool bounded_match(const std::string& text, std::size_t pos,
                   const Pattern& pat) {
  if (pos > 0 && ident_char(text[pos - 1])) return false;
  std::size_t end = pos + pat.text.size();
  if (!pat.text.empty() && ident_char(pat.text.back())) {
    if (end < text.size() && ident_char(text[end])) return false;
  }
  if (pat.call_only) {
    while (end < text.size() &&
           (text[end] == ' ' || text[end] == '\t' || text[end] == '\n')) {
      ++end;
    }
    if (end >= text.size() || text[end] != '(') return false;
  }
  return true;
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(pos),
                            '\n'));
}

std::string line_text_at(const std::string& text, std::size_t pos) {
  std::size_t b = text.rfind('\n', pos);
  b = (b == std::string::npos) ? 0 : b + 1;
  std::size_t e = text.find('\n', pos);
  if (e == std::string::npos) e = text.size();
  std::string s = text.substr(b, e - b);
  const std::size_t first = s.find_first_not_of(" \t");
  return first == std::string::npos ? std::string() : s.substr(first);
}

bool path_exempt(const std::string& rel, const Rule& rule) {
  for (const auto& dir : rule.exempt_dirs) {
    if (rel.rfind(dir, 0) == 0) return true;
    if (rel.find("/" + dir) != std::string::npos) return true;
  }
  return false;
}

/// explicit-memory-order: every `.op(args)` / `->op(args)` atomic call must
/// name a std::memory_order inside its argument list. Token-level like the
/// rest of the linter: the receiver's type is unknown, but no non-atomic
/// type in this repository exposes these method names, and a false positive
/// is one allowlist line away.
void check_memory_order(const std::string& rel, const std::string& raw,
                        const std::string& code, const Rule& rule,
                        std::vector<Finding>& findings) {
  static const char* kOps[] = {
      "load",      "store",    "exchange",
      "fetch_add", "fetch_sub", "fetch_or",
      "fetch_and", "fetch_xor", "compare_exchange_weak",
      "compare_exchange_strong"};
  for (const char* op : kOps) {
    const std::string tok = op;
    std::size_t pos = 0;
    while ((pos = code.find(tok, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += tok.size();
      // Member-call boundary: preceded by `.` or `->`, followed by `(`.
      if (start == 0 ||
          !(code[start - 1] == '.' ||
            (code[start - 1] == '>' && start >= 2 && code[start - 2] == '-'))) {
        continue;
      }
      std::size_t open = start + tok.size();
      while (open < code.size() &&
             (code[open] == ' ' || code[open] == '\t' || code[open] == '\n')) {
        ++open;
      }
      if (open >= code.size() || code[open] != '(') continue;
      // Span the argument list (scrubbed text: parens never hide in
      // strings/comments).
      std::size_t close = open;
      int depth = 0;
      for (; close < code.size(); ++close) {
        if (code[close] == '(') ++depth;
        if (code[close] == ')' && --depth == 0) break;
      }
      const std::string args = code.substr(open, close - open + 1);
      if (args.find("memory_order") == std::string::npos) {
        findings.push_back({rule.name, rel, line_of(code, start), tok,
                            line_text_at(raw, start)});
      }
    }
  }
}

/// guarded-by-coverage: inside any brace scope that declares a Mutex member,
/// every other plain data member (trailing-underscore name, no GUARDED_BY /
/// REQUIRES, not itself a synchronization object, not a function/alias/
/// static) needs either the annotation or an `unguarded: <why>` comment on
/// its own or the preceding raw line. Heuristic by design — see
/// docs/STATIC_ANALYSIS.md for the audit policy.
void check_guarded_by(const std::string& rel, const std::string& raw,
                      const std::string& code, const Rule& rule,
                      std::vector<Finding>& findings) {
  const auto has_token = [](const std::string& text, const std::string& tok) {
    std::size_t pos = 0;
    while ((pos = text.find(tok, pos)) != std::string::npos) {
      const bool lb = pos == 0 || !ident_char(text[pos - 1]);
      const std::size_t end = pos + tok.size();
      const bool rb = end >= text.size() || !ident_char(text[end]);
      if (lb && rb) return true;
      pos = end;
    }
    return false;
  };

  struct Chunk {
    std::string text;
    std::size_t end = 0;  // offset of the terminating ';'
  };
  struct Scope {
    std::vector<Chunk> chunks;
    std::string pending;
    std::string saved_parent_pending;
  };
  std::vector<Scope> stack(1);

  const auto evaluate = [&](const Scope& sc) {
    bool holds_mutex = false;
    for (const Chunk& ch : sc.chunks) {
      if (has_token(ch.text, "Mutex") &&
          ch.text.find('(') == std::string::npos &&
          ch.text.find('&') == std::string::npos &&
          ch.text.find('*') == std::string::npos) {
        holds_mutex = true;
        break;
      }
    }
    if (!holds_mutex) return;
    static const char* kSkip[] = {
        "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "Mutex",
        "CondVar",    "atomic",        "static",   "constexpr",
        "using",      "typedef",       "friend",   "enum",
        "class",      "struct",        "template", "operator",
        "NO_THREAD_SAFETY_ANALYSIS",   "TS_NO_ANALYSIS"};
    for (const Chunk& ch : sc.chunks) {
      if (ch.text.find('(') != std::string::npos) continue;  // functions
      if (ch.text.find('#') != std::string::npos) continue;  // preprocessor
      bool skip = false;
      for (const char* t : kSkip) {
        if (has_token(ch.text, t)) {
          skip = true;
          break;
        }
      }
      if (skip) continue;
      // Declared name: last identifier before any initializer.
      std::string head = ch.text.substr(0, ch.text.find('='));
      std::string name;
      for (std::size_t i = 0; i < head.size();) {
        if (ident_char(head[i]) &&
            !std::isdigit(static_cast<unsigned char>(head[i]))) {
          std::size_t j = i;
          while (j < head.size() && ident_char(head[j])) ++j;
          name = head.substr(i, j - i);
          i = j;
        } else {
          ++i;
        }
      }
      if (name.empty() || name.back() != '_') continue;  // not a member
      // `unguarded:` note on the declaration's raw line or the line above.
      const std::size_t lineno = line_of(code, ch.end);
      std::size_t line_start = raw.rfind('\n', ch.end);
      line_start = line_start == std::string::npos ? 0 : line_start + 1;
      std::size_t line_end = raw.find('\n', ch.end);
      if (line_end == std::string::npos) line_end = raw.size();
      std::size_t prev_start = line_start >= 2
                                   ? raw.rfind('\n', line_start - 2)
                                   : std::string::npos;
      prev_start = prev_start == std::string::npos && line_start > 0
                       ? 0
                       : (prev_start == std::string::npos ? line_start
                                                          : prev_start + 1);
      const std::string context =
          raw.substr(prev_start, line_end - prev_start);
      if (context.find("unguarded:") != std::string::npos) continue;
      findings.push_back(
          {rule.name, rel, lineno, name, line_text_at(raw, ch.end)});
    }
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '{') {
      Scope sc;
      sc.saved_parent_pending = stack.back().pending;
      stack.back().pending.clear();
      stack.push_back(std::move(sc));
    } else if (c == '}') {
      if (stack.size() > 1) {
        Scope done = std::move(stack.back());
        stack.pop_back();
        evaluate(done);
        // Restore the header so `struct X {...} x_;` still declares x_ and
        // `Foo x_{0};` keeps its name through the brace-init — but an inline
        // function definition (header contains '(') is complete at its '}',
        // and must not bleed into the next member's chunk.
        if (done.saved_parent_pending.find('(') != std::string::npos) {
          stack.back().pending.clear();
        } else {
          stack.back().pending = std::move(done.saved_parent_pending);
        }
      }
    } else if (c == ';') {
      stack.back().chunks.push_back({std::move(stack.back().pending), i});
      stack.back().pending.clear();
    } else {
      stack.back().pending += c;
    }
  }
  evaluate(stack.front());
}

void lint_file(const std::string& rel, const std::string& raw,
               std::vector<Finding>& findings) {
  const std::string code = scrub(raw);
  for (const Rule& rule : rules()) {
    if (path_exempt(rel, rule)) continue;
    if (rule.custom != nullptr) {
      rule.custom(rel, raw, code, rule, findings);
      continue;
    }
    for (const Pattern& pat : rule.patterns) {
      std::size_t pos = 0;
      while ((pos = code.find(pat.text, pos)) != std::string::npos) {
        if (bounded_match(code, pos, pat)) {
          findings.push_back({rule.name, rel, line_of(code, pos), pat.text,
                              line_text_at(raw, pos)});
        }
        pos += pat.text.size();
      }
    }
  }
}

struct Allow {
  std::string rule;
  std::string path;
  bool used = false;
};

// Parses `<rule> <path> [# reason]` lines; returns false on malformed input.
bool load_allowlist(const std::string& file, std::vector<Allow>& out) {
  std::ifstream in(file);
  if (!in) return false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ss(line);
    Allow a;
    if (!(ss >> a.rule)) continue;  // blank / comment-only line
    if (!(ss >> a.path)) {
      std::cerr << "salient_lint: " << file << ":" << lineno
                << ": expected '<rule> <path> # reason'\n";
      return false;
    }
    const auto& rs = rules();
    const bool known =
        std::any_of(rs.begin(), rs.end(),
                    [&](const Rule& r) { return r.name == a.rule; });
    if (!known) {
      std::cerr << "salient_lint: " << file << ":" << lineno
                << ": unknown rule '" << a.rule << "'\n";
      return false;
    }
    out.push_back(a);
  }
  return true;
}

void list_rules() {
  for (const Rule& r : rules()) {
    std::cout << r.name << ": " << r.summary << "\n";
    if (!r.exempt_dirs.empty()) {
      std::cout << "  exempt:";
      for (const auto& d : r.exempt_dirs) std::cout << " " << d;
      std::cout << "\n";
    }
    std::cout << "  fix: " << r.fix << "\n";
  }
}

const Rule* rule_by_name(const std::string& name) {
  for (const Rule& r : rules()) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

int usage() {
  std::cerr << "usage: salient_lint --root <dir> [--allowlist <file>]\n"
               "                    [--fix-suggestions] [--list-rules]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string allowlist_file;
  bool fix_suggestions = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--allowlist" && i + 1 < argc) {
      allowlist_file = argv[++i];
    } else if (arg == "--fix-suggestions") {
      fix_suggestions = true;
    } else if (arg == "--list-rules") {
      list_rules();
      return 0;
    } else {
      return usage();
    }
  }
  if (root.empty()) return usage();

  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::cerr << "salient_lint: not a directory: " << root << "\n";
    return 2;
  }

  std::vector<Allow> allows;
  if (!allowlist_file.empty() && !load_allowlist(allowlist_file, allows)) {
    return 2;
  }

  // Deterministic order: collect, then sort by relative path.
  std::vector<std::string> files;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc") {
      files.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const auto& rel : files) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      std::cerr << "salient_lint: cannot read " << rel << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    lint_file(rel, ss.str(), findings);
  }

  // Apply the allowlist (every entry suppresses one rule in one file).
  std::vector<Finding> reported;
  for (const auto& f : findings) {
    bool suppressed = false;
    for (auto& a : allows) {
      if (a.rule == f.rule && a.path == f.file) {
        a.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) reported.push_back(f);
  }
  for (const auto& a : allows) {
    if (!a.used) {
      std::cerr << "salient_lint: warning: unused allowlist entry: " << a.rule
                << " " << a.path << "\n";
    }
  }

  for (const auto& f : reported) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] `" << f.token
              << "`: " << f.line_text << "\n";
    if (fix_suggestions) {
      const Rule* r = rule_by_name(f.rule);
      if (r != nullptr) std::cout << "  fix: " << r->fix << "\n";
    }
  }
  if (!reported.empty()) {
    std::cout << reported.size() << " finding"
              << (reported.size() == 1 ? "" : "s") << " in " << files.size()
              << " files\n";
    return 1;
  }
  std::cout << "clean: " << files.size() << " files\n";
  return 0;
}

// ampc_lint implementation: a tokenizing scanner with include-graph
// awareness. See ampc_lint.h for the rule catalogue.
//
// Design notes. The scanner works in two passes:
//
//   1. Lex every file: strip comments (keeping their text per line for
//      suppressions and doc-comment checks), strings (kept as opaque
//      string tokens so rule patterns never match inside literals),
//      and preprocessor lines (keeping #include targets). Collect the
//      type aliases the whole tree defines (`using X =
//      kv::ShardedStore<...>` etc.) so rules recognize aliased types
//      across files.
//   2. Resolve the include graph, compute the output-affecting file
//      set (src/core|graph|baselines plus src/ headers reachable only
//      from them), and run every rule over each file's token stream.
//
// Everything is flow-insensitive and name-based on purpose: the rules
// target repo conventions with distinctive spellings, and a tokenizer
// keeps the tool dependency-free, fast, and easy to extend. Known
// blind spots (macro-generated code, type inference through function
// returns) are accepted; the dynamic determinism matrix still backstops
// them.
#include "ampc_lint.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ampc::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule catalogue.

constexpr const char* kDetRand = "det-rand";
constexpr const char* kDetWallclock = "det-wallclock";
constexpr const char* kDetUnorderedIter = "det-unordered-iter";
constexpr const char* kDetPtrKey = "det-ptr-key";
constexpr const char* kCoreStoreDirect = "core-store-direct";
constexpr const char* kCoreMakeStore = "core-make-store";
constexpr const char* kMetricZeroGuard = "metric-zero-guard";
constexpr const char* kConfigOffDoc = "config-off-doc";
constexpr const char* kConfigDump = "config-dump";
constexpr const char* kBenchGate = "bench-gate";
constexpr const char* kBadSuppression = "bad-suppression";

const std::vector<RuleInfo> kRules = {
    {kDetRand,
     "banned nondeterminism primitive; use seeded common/random.h"},
    {kDetWallclock,
     "std::chrono outside common/timer.h and bench/; use WallTimer"},
    {kDetUnorderedIter,
     "range-iteration over an unordered container in an output-affecting "
     "path"},
    {kDetPtrKey, "pointer-keyed ordered container: order follows the "
                 "allocator"},
    {kCoreStoreDirect,
     "direct ShardedStore/kv::Store data access or query-cache handout "
     "bypassing the charged MachineContext entrypoints"},
    {kCoreMakeStore,
     "Placement/ShardMap/ShardedStore built outside Cluster::MakeStore"},
    {kMetricZeroGuard,
     "new Metrics counter written without a zero-rate guard"},
    {kConfigOffDoc,
     "ClusterConfig knob without a documented off-state"},
    {kConfigDump,
     "ClusterConfig knob missing from the ampc_cli --lint-config dump"},
    {kBenchGate, "bench/micro_*.cc without a failing gate (return 1 path)"},
    {kBadSuppression,
     "malformed ampc-lint annotation or missing justification"},
};

bool KnownRule(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lexer.

enum class Tok : uint8_t { kIdent, kNumber, kString, kPunct };

struct Token {
  Tok kind;
  std::string text;
  int line;
};

struct Suppression {
  std::string rule;
  std::string justification;
  bool valid = false;  // well-formed with a non-empty justification
  int line = 0;
};

struct IncludeRef {
  std::string target;  // as written
  bool system = false;
  int line = 0;
};

struct SourceFile {
  std::string rel;  // path relative to the scan root, '/'-separated
  std::vector<Token> toks;
  std::map<int, std::string> comments;  // line -> accumulated text
  std::set<int> code_lines;             // lines carrying at least one token
  std::vector<Suppression> supps;
  std::vector<IncludeRef> includes;
  bool output_affecting = false;
};

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Parses allow annotations (the ampc-lint directive followed by
// `allow(rule): justification`) out of one comment's text. Malformed
// annotations are recorded with valid=false so the caller can turn them
// into bad-suppression diagnostics.
void ParseSuppressions(const std::string& comment, int line,
                       std::vector<Suppression>* out) {
  const std::string tag = "ampc-lint:";
  size_t pos = 0;
  while ((pos = comment.find(tag, pos)) != std::string::npos) {
    pos += tag.size();
    Suppression s;
    s.line = line;
    size_t p = comment.find_first_not_of(" \t", pos);
    const std::string allow = "allow(";
    if (p == std::string::npos || comment.compare(p, allow.size(), allow) != 0) {
      out->push_back(s);  // invalid: not an allow(...) form
      continue;
    }
    p += allow.size();
    const size_t close = comment.find(')', p);
    if (close == std::string::npos) {
      out->push_back(s);
      continue;
    }
    s.rule = comment.substr(p, close - p);
    p = close + 1;
    p = comment.find_first_not_of(" \t", p);
    if (p == std::string::npos || comment[p] != ':') {
      out->push_back(s);  // justification separator missing
      continue;
    }
    std::string just = comment.substr(p + 1);
    // Trim.
    const size_t b = just.find_first_not_of(" \t");
    const size_t e = just.find_last_not_of(" \t\r\n");
    just = b == std::string::npos ? "" : just.substr(b, e - b + 1);
    s.justification = just;
    s.valid = !s.rule.empty() && !just.empty() && KnownRule(s.rule);
    out->push_back(s);
    pos = p;
  }
}

// Lexes one file: tokens, per-line comment text, includes, suppressions.
// Preprocessor lines other than #include are dropped wholesale (macros
// are out of scope for a tokenizing scanner).
SourceFile LexFile(const fs::path& path, std::string rel) {
  SourceFile f;
  f.rel = std::move(rel);
  std::ifstream in(path);
  if (!in) return f;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string src = buffer.str();

  auto add_comment = [&f](int line, const std::string& text) {
    std::string& slot = f.comments[line];
    if (!slot.empty()) slot += " ";
    slot += text;
  };

  size_t i = 0;
  int line = 1;
  bool at_line_start = true;
  const size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    // Preprocessor line: record #include, skip the rest (with \-joins).
    if (c == '#' && at_line_start) {
      size_t j = i;
      std::string pp;
      while (j < n) {
        if (src[j] == '\\' && j + 1 < n && src[j + 1] == '\n') {
          j += 2;
          ++line;
          continue;
        }
        if (src[j] == '\n') break;
        pp += src[j++];
      }
      size_t p = pp.find_first_not_of(" \t", 1);
      if (p != std::string::npos && pp.compare(p, 7, "include") == 0) {
        p = pp.find_first_not_of(" \t", p + 7);
        if (p != std::string::npos && (pp[p] == '"' || pp[p] == '<')) {
          const char end = pp[p] == '"' ? '"' : '>';
          const size_t close = pp.find(end, p + 1);
          if (close != std::string::npos) {
            f.includes.push_back(
                {pp.substr(p + 1, close - p - 1), pp[p] == '<', line});
            // Includes can carry diagnostics (det-wallclock), so their
            // line must be a valid anchor for standalone suppressions.
            f.code_lines.insert(line);
          }
        }
      }
      i = j;
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t j = i + 2;
      std::string text;
      while (j < n && src[j] != '\n') text += src[j++];
      add_comment(line, text);
      ParseSuppressions(text, line, &f.supps);
      i = j;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t j = i + 2;
      std::string text;
      int start_line = line;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') {
          add_comment(start_line, text);
          ParseSuppressions(text, start_line, &f.supps);
          text.clear();
          ++line;
          start_line = line;
        } else {
          text += src[j];
        }
        ++j;
      }
      add_comment(start_line, text);
      ParseSuppressions(text, start_line, &f.supps);
      i = j + 2;
      continue;
    }
    // Raw strings.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim += src[j++];
      const std::string close = ")" + delim + "\"";
      const size_t end = src.find(close, j);
      std::string inner =
          end == std::string::npos ? "" : src.substr(j + 1, end - j - 1);
      f.toks.push_back({Tok::kString, inner, line});
      f.code_lines.insert(line);
      line += static_cast<int>(std::count(inner.begin(), inner.end(), '\n'));
      i = end == std::string::npos ? n : end + close.size();
      continue;
    }
    // Strings and char literals.
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t j = i + 1;
      std::string inner;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) {
          inner += src[j];
          inner += src[j + 1];
          j += 2;
          continue;
        }
        if (src[j] == '\n') break;  // unterminated; resync
        inner += src[j++];
      }
      f.toks.push_back({Tok::kString, inner, line});
      f.code_lines.insert(line);
      i = j < n ? j + 1 : n;
      continue;
    }
    // Identifiers.
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      f.toks.push_back({Tok::kIdent, src.substr(i, j - i), line});
      f.code_lines.insert(line);
      i = j;
      continue;
    }
    // Numbers (incl. digit separators and suffixes).
    if (IsDigit(c)) {
      size_t j = i;
      while (j < n && (IsIdentChar(src[j]) || src[j] == '.' || src[j] == '\'')) {
        ++j;
      }
      f.toks.push_back({Tok::kNumber, src.substr(i, j - i), line});
      f.code_lines.insert(line);
      i = j;
      continue;
    }
    // Punctuation; '::' and '->' kept as single tokens so scope
    // resolution and member access are one-token patterns.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      f.toks.push_back({Tok::kPunct, "::", line});
      f.code_lines.insert(line);
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      f.toks.push_back({Tok::kPunct, "->", line});
      f.code_lines.insert(line);
      i += 2;
      continue;
    }
    f.toks.push_back({Tok::kPunct, std::string(1, c), line});
    f.code_lines.insert(line);
    ++i;
  }
  return f;
}

// ---------------------------------------------------------------------------
// Token-stream helpers.

bool IsIdent(const SourceFile& f, size_t i, const char* text) {
  return i < f.toks.size() && f.toks[i].kind == Tok::kIdent &&
         f.toks[i].text == text;
}

bool IsPunct(const SourceFile& f, size_t i, const char* text) {
  return i < f.toks.size() && f.toks[i].kind == Tok::kPunct &&
         f.toks[i].text == text;
}

// Index just past a balanced <...> starting at `i` (which must point at
// '<'); returns `i` unchanged if the angle run never closes (expression
// less-than — callers treat that as "not a template").
size_t SkipAngles(const SourceFile& f, size_t i) {
  if (!IsPunct(f, i, "<")) return i;
  int depth = 0;
  size_t j = i;
  // Bounded scan: template argument lists in this tree are short; a
  // dangling comparison operator gives up quickly instead of eating the
  // file.
  const size_t limit = std::min(f.toks.size(), i + 256);
  for (; j < limit; ++j) {
    const std::string& t = f.toks[j].text;
    if (f.toks[j].kind != Tok::kPunct) continue;
    if (t == "<") ++depth;
    if (t == ">") {
      if (--depth == 0) return j + 1;
    }
    if (t == ";" || t == "{") break;  // statement ended: not a template
  }
  return i;
}

// Index just past a balanced (...) starting at `i` (pointing at '(').
size_t SkipParens(const SourceFile& f, size_t i) {
  if (!IsPunct(f, i, "(")) return i;
  int depth = 0;
  for (size_t j = i; j < f.toks.size(); ++j) {
    if (f.toks[j].kind != Tok::kPunct) continue;
    if (f.toks[j].text == "(") ++depth;
    if (f.toks[j].text == ")") {
      if (--depth == 0) return j + 1;
    }
  }
  return f.toks.size();
}

// The contiguous comment block attached to code line `line`: a trailing
// comment on the line itself plus the run of comment-only lines directly
// above it.
std::string CommentAbove(const SourceFile& f, int line) {
  std::string text;
  auto it = f.comments.find(line);
  if (it != f.comments.end()) text = it->second;
  for (int l = line - 1; l >= 1; --l) {
    auto c = f.comments.find(l);
    if (c == f.comments.end() || f.code_lines.count(l)) break;
    text = c->second + " " + text;
  }
  return text;
}

std::string Lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

// ---------------------------------------------------------------------------
// Diagnostics sink with suppression handling.

class Sink {
 public:
  explicit Sink(std::vector<Diagnostic>* out) : out_(out) {}

  void SetFile(const SourceFile* f) {
    file_ = f;
    by_line_.clear();
    for (const Suppression& s : f->supps) {
      if (!s.valid) continue;
      // A trailing annotation covers its own line; a standalone comment
      // annotation anchors to the next code line (so a multi-line
      // justification block above the offending statement still lands).
      by_line_[s.line].push_back(&s);
      auto next_code = f->code_lines.lower_bound(s.line);
      if (next_code != f->code_lines.end()) {
        by_line_[*next_code].push_back(&s);
      }
    }
  }

  // Emits one finding, resolving suppressions: an `allow(rule)` trailing
  // on the finding's line, or in the comment block directly above it,
  // silences it (the finding is still reported, marked suppressed).
  void Report(const char* rule, int line, std::string message) {
    Diagnostic d;
    d.file = file_->rel;
    d.line = line;
    d.rule = rule;
    d.message = std::move(message);
    auto it = by_line_.find(line);
    if (it != by_line_.end()) {
      for (const Suppression* s : it->second) {
        if (s->rule == rule) {
          d.suppressed = true;
          d.justification = s->justification;
        }
      }
    }
    out_->push_back(std::move(d));
  }

 private:
  std::vector<Diagnostic>* out_;
  const SourceFile* file_ = nullptr;
  std::map<int, std::vector<const Suppression*>> by_line_;
};

// ---------------------------------------------------------------------------
// Global context shared by the rules.

struct Context {
  std::vector<SourceFile> files;
  // Type aliases collected across the whole tree, so `using AdjStore =
  // kv::ShardedStore<...>` in one file is recognized in another.
  std::set<std::string> unordered_aliases;
  std::set<std::string> store_aliases;
  const SourceFile* cluster_header = nullptr;  // src/sim/cluster.h
  const SourceFile* cli_source = nullptr;      // tools/ampc_cli.cc
};

void CollectAliases(const SourceFile& f, Context* ctx) {
  for (size_t i = 0; i + 2 < f.toks.size(); ++i) {
    if (!IsIdent(f, i, "using") && !IsIdent(f, i, "typedef")) continue;
    // `using NAME = ... unordered_map/ShardedStore ... ;`
    if (!IsIdent(f, i, "using") || f.toks[i + 1].kind != Tok::kIdent ||
        !IsPunct(f, i + 2, "=")) {
      continue;
    }
    const std::string& name = f.toks[i + 1].text;
    for (size_t j = i + 3; j < f.toks.size(); ++j) {
      if (IsPunct(f, j, ";")) break;
      const std::string& t = f.toks[j].text;
      if (t == "unordered_map" || t == "unordered_set") {
        ctx->unordered_aliases.insert(name);
        break;
      }
      if (t == "ShardedStore") {
        ctx->store_aliases.insert(name);
        break;
      }
    }
  }
}

// Variable names declared in `f` with any of the types in `type_names`
// (aliases included; templates skipped). Flow-insensitive: a name is
// tracked for the whole file.
std::set<std::string> TrackVariables(const SourceFile& f,
                                     const std::set<std::string>& type_names) {
  std::set<std::string> vars;
  for (size_t i = 0; i < f.toks.size(); ++i) {
    if (f.toks[i].kind != Tok::kIdent || !type_names.count(f.toks[i].text)) {
      continue;
    }
    size_t j = i + 1;
    j = SkipAngles(f, j);
    // Skip cv/ref/pointer decoration between type and name.
    while (IsPunct(f, j, "&") || IsPunct(f, j, "*") || IsIdent(f, j, "const")) {
      ++j;
    }
    if (j >= f.toks.size() || f.toks[j].kind != Tok::kIdent) continue;
    const std::string& name = f.toks[j].text;
    // Declarator must be followed by an initializer/terminator, so type
    // mentions inside expressions or nested templates don't register.
    if (IsPunct(f, j + 1, ";") || IsPunct(f, j + 1, "=") ||
        IsPunct(f, j + 1, "(") || IsPunct(f, j + 1, "{") ||
        IsPunct(f, j + 1, ",") || IsPunct(f, j + 1, ")")) {
      vars.insert(name);
    }
  }
  return vars;
}

// Names in `names` that `f` declares as a variable, parameter or lambda:
// `const auto time = [&](bool b) {...};`, `double clock = 0;`,
// `Clock time)`. Flow-insensitive, like TrackVariables. A declarator
// after `&`, `*` or `>` counts only with an initializer, so products and
// comparisons such as `rate * time)` do not.
std::set<std::string> DeclaredLocals(const SourceFile& f,
                                     const std::set<std::string>& names) {
  static const std::set<std::string> kNotAType = {
      "return", "case",   "else",      "do",       "throw",  "goto",
      "new",    "delete", "co_return", "co_yield", "sizeof",
  };
  std::set<std::string> declared;
  for (size_t i = 1; i < f.toks.size(); ++i) {
    if (f.toks[i].kind != Tok::kIdent || !names.count(f.toks[i].text)) {
      continue;
    }
    const Token& prev = f.toks[i - 1];
    const bool initialized = (IsPunct(f, i + 1, "=") &&
                              !IsPunct(f, i + 2, "=")) ||
                             IsPunct(f, i + 1, "{");
    const bool after_type =
        prev.kind == Tok::kIdent && !kNotAType.count(prev.text);
    const bool after_declarator_punct =
        prev.kind == Tok::kPunct &&
        (prev.text == "&" || prev.text == "*" || prev.text == ">");
    const bool terminated = initialized || IsPunct(f, i + 1, ";") ||
                            IsPunct(f, i + 1, ",") || IsPunct(f, i + 1, ")");
    if ((after_type && terminated) || (after_declarator_punct && initialized)) {
      declared.insert(f.toks[i].text);
    }
  }
  return declared;
}

// ---------------------------------------------------------------------------
// Determinism rules.

void RuleDetRand(const SourceFile& f, Sink* sink) {
  static const std::set<std::string> kTypeBanned = {
      "random_device", "mt19937",      "mt19937_64", "default_random_engine",
      "minstd_rand",   "minstd_rand0", "ranlux24",   "ranlux48",
  };
  static const std::set<std::string> kCallBanned = {
      "rand",  "srand",        "drand48",   "lrand48", "srand48",
      "time",  "gettimeofday", "localtime", "gmtime",  "ctime",
      "clock",
  };
  const std::set<std::string> locals = DeclaredLocals(f, kCallBanned);
  for (size_t i = 0; i < f.toks.size(); ++i) {
    if (f.toks[i].kind != Tok::kIdent) continue;
    const std::string& t = f.toks[i].text;
    if (kTypeBanned.count(t)) {
      sink->Report(kDetRand, f.toks[i].line,
                   "std::" + t +
                       " is nondeterministic across runs/platforms; derive "
                       "randomness from the seeded common/random.h "
                       "primitives");
      continue;
    }
    if (!kCallBanned.count(t) || !IsPunct(f, i + 1, "(")) continue;
    // Member calls (`x.time(...)`), non-std qualified names and calls to
    // a variable or lambda the file declares are other functions;
    // `std::time` and other unqualified calls are the libc entrypoints
    // being banned.
    const bool std_qualified =
        i >= 2 && f.toks[i - 1].text == "::" && f.toks[i - 2].text == "std";
    if (i > 0 && !std_qualified) {
      const std::string& prev = f.toks[i - 1].text;
      if (prev == "." || prev == "->" || prev == "::") continue;
      if (locals.count(t)) continue;
    }
    sink->Report(kDetRand, f.toks[i].line,
                 t + "() reads ambient entropy or wall-clock state; outputs "
                     "must be pure functions of (input, seed, config)");
  }
}

void RuleDetWallclock(const SourceFile& f, Sink* sink) {
  // common/timer.h is the one blessed wrapper; bench mains measure real
  // wall time by design (their wall_* fields are excluded from the
  // byte-identical BENCH comparisons).
  if (f.rel == "src/common/timer.h" || f.rel.rfind("bench/", 0) == 0) return;
  for (const IncludeRef& inc : f.includes) {
    if (inc.system && inc.target == "chrono") {
      sink->Report(kDetWallclock, inc.line,
                   "#include <chrono> outside common/timer.h; wall time must "
                   "flow through ampc::WallTimer, simulated time through the "
                   "cost model");
    }
  }
  static const std::set<std::string> kClockIdents = {
      "chrono", "steady_clock", "system_clock", "high_resolution_clock"};
  for (size_t i = 0; i < f.toks.size(); ++i) {
    if (f.toks[i].kind != Tok::kIdent || !kClockIdents.count(f.toks[i].text)) {
      continue;
    }
    sink->Report(kDetWallclock, f.toks[i].line,
                 "wall-clock read (" + f.toks[i].text +
                     ") outside common/timer.h; a stray clock read makes "
                     "simulated costs machine-dependent");
  }
}

void RuleDetUnorderedIter(const SourceFile& f, const Context& ctx,
                          Sink* sink) {
  if (!f.output_affecting) return;
  std::set<std::string> types = ctx.unordered_aliases;
  types.insert("unordered_map");
  types.insert("unordered_set");
  const std::set<std::string> vars = TrackVariables(f, types);
  if (vars.empty()) return;
  for (size_t i = 0; i + 2 < f.toks.size(); ++i) {
    if (!IsIdent(f, i, "for") || !IsPunct(f, i + 1, "(")) continue;
    // Find the range-for ':' at parenthesis depth 1.
    int depth = 0;
    size_t colon = 0, close = 0;
    for (size_t j = i + 1; j < f.toks.size(); ++j) {
      if (f.toks[j].kind != Tok::kPunct) continue;
      const std::string& t = f.toks[j].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") {
        if (--depth == 0) {
          close = j;
          break;
        }
      }
      if (t == ":" && depth == 1 && colon == 0) colon = j;
      if (t == ";") break;  // classic for loop
    }
    if (colon == 0 || close == 0) continue;
    // The range expression must be a plain variable / member chain (no
    // calls — rvalues and accessor results are someone else's problem).
    std::string last_ident;
    bool simple = true;
    for (size_t j = colon + 1; j < close; ++j) {
      const Token& t = f.toks[j];
      if (t.kind == Tok::kIdent) {
        last_ident = t.text;
      } else if (t.text != "." && t.text != "->" && t.text != "::" &&
                 t.text != "*" && t.text != "&") {
        simple = false;
        break;
      }
    }
    if (!simple || last_ident.empty() || !vars.count(last_ident)) continue;
    sink->Report(
        kDetUnorderedIter, f.toks[i].line,
        "range-iteration over unordered container '" + last_ident +
            "' in an output-affecting path: hash-table order varies by "
            "libstdc++ version and load factor; sort first or iterate a "
            "deterministic index");
  }
}

void RuleDetPtrKey(const SourceFile& f, Sink* sink) {
  for (size_t i = 2; i < f.toks.size(); ++i) {
    if (f.toks[i].kind != Tok::kIdent ||
        (f.toks[i].text != "map" && f.toks[i].text != "set")) {
      continue;
    }
    if (!IsPunct(f, i - 1, "::") || !IsIdent(f, i - 2, "std")) continue;
    if (!IsPunct(f, i + 1, "<")) continue;
    // Inspect the first template argument: if its last token is '*', the
    // key is a pointer and iteration order follows the allocator.
    int depth = 0;
    std::string last;
    for (size_t j = i + 1; j < std::min(f.toks.size(), i + 64); ++j) {
      const std::string& t = f.toks[j].text;
      if (f.toks[j].kind == Tok::kPunct) {
        if (t == "<" || t == "(") ++depth;
        if (t == ">" || t == ")") {
          if (--depth == 0) break;
        }
        if (t == "," && depth == 1) break;
        if (t == ";") break;
      }
      if (depth >= 1) last = t;
    }
    if (last == "*") {
      sink->Report(kDetPtrKey, f.toks[i].line,
                   "std::" + f.toks[i].text +
                       " keyed by a pointer: addresses differ per run, so "
                       "iteration order is nondeterministic; key by a stable "
                       "id instead");
    }
  }
}

// ---------------------------------------------------------------------------
// Cost-model purity rules.

// Adds to `vars` every `name = ...factory...` declaration, e.g. `auto x =
// cluster.MakeStore<...>(...)`: the factory's return type is not
// written out, so TrackVariables cannot see it.
void TrackAssignedFrom(const SourceFile& f, const char* factory,
                       std::set<std::string>* vars) {
  for (size_t i = 2; i < f.toks.size(); ++i) {
    if (!IsIdent(f, i, factory)) continue;
    for (size_t j = i; j-- > 0;) {
      const Token& t = f.toks[j];
      if (t.text == ";" || t.text == "{" || t.text == "}") break;
      if (t.text == "=" && j > 0 && f.toks[j - 1].kind == Tok::kIdent) {
        vars->insert(f.toks[j - 1].text);
        break;
      }
    }
  }
}

void RuleCoreStoreDirect(const SourceFile& f, const Context& ctx,
                         Sink* sink) {
  if (!f.output_affecting) return;
  std::set<std::string> types = ctx.store_aliases;
  types.insert("ShardedStore");
  types.insert("Store");
  std::set<std::string> stores = TrackVariables(f, types);
  TrackAssignedFrom(f, "MakeStore", &stores);
  // Per-machine query caches: a store's read-through set and the
  // derived-fact sets Cluster::MakeMachineCaches mints.
  std::set<std::string> cache_sets = TrackVariables(f, {"MachineCaches"});
  TrackAssignedFrom(f, "MakeMachineCaches", &cache_sets);
  if (stores.empty() && cache_sets.empty()) return;
  // The data-plane methods; metadata (capacity/ShardOf/version/...) is
  // free to read because it never represents remote traffic.
  static const std::set<std::string> kDataMethods = {"Lookup", "Put",
                                                     "Contains", "RecordBytes"};
  for (size_t i = 0; i + 3 < f.toks.size(); ++i) {
    if (f.toks[i].kind != Tok::kIdent) continue;
    if (!IsPunct(f, i + 1, ".") && !IsPunct(f, i + 1, "->")) continue;
    if (f.toks[i + 2].kind != Tok::kIdent || !IsPunct(f, i + 3, "(")) {
      continue;
    }
    const std::string& var = f.toks[i].text;
    const std::string& method = f.toks[i + 2].text;
    const char* why = nullptr;
    if (stores.count(var) && kDataMethods.count(method)) {
      why = "bypasses cost charging; route reads through "
            "MachineContext::Lookup/LookupManyAsync (or "
            "sim::DriveLookupPipelined) and writes through "
            "Cluster::RunKvWritePhase";
    } else if ((stores.count(var) && method == "QueryCacheFor") ||
               (cache_sets.count(var) && method == "ForMachine")) {
      why = "hands out a machine's lock-free query cache outside the "
            "round that owns it; read through "
            "MachineContext::Lookup/LookupManyAsync and take derived "
            "caches from MachineContext::DerivedCache, which give none "
            "in a pull round";
    } else {
      continue;
    }
    sink->Report(kCoreStoreDirect, f.toks[i].line,
                 "direct " + var + "." + method + "() " + why);
  }
}

void RuleCoreMakeStore(const SourceFile& f, Sink* sink) {
  if (!f.output_affecting) return;
  for (size_t i = 0; i < f.toks.size(); ++i) {
    if (f.toks[i].kind != Tok::kIdent) continue;
    const std::string& t = f.toks[i].text;
    if (t == "Placement" || t == "ShardMap") {
      sink->Report(kCoreMakeStore, f.toks[i].line,
                   t + " handled directly in an output-affecting path; key "
                       "placement must come from Cluster::MakeStore / "
                       "Cluster::MachineOf so cost charging and the shard "
                       "map stay consistent");
      continue;
    }
    // Direct construction `ShardedStore<V> name(...)` / `...name{...}`;
    // declarations initialized via MakeStore (`= cluster.MakeStore<...>`)
    // don't match because '=' follows the name.
    if (t == "ShardedStore") {
      size_t j = SkipAngles(f, i + 1);
      if (j == i + 1) continue;  // not a template use
      if (j < f.toks.size() && f.toks[j].kind == Tok::kIdent &&
          (IsPunct(f, j + 1, "(") || IsPunct(f, j + 1, "{"))) {
        sink->Report(kCoreMakeStore, f.toks[i].line,
                     "ShardedStore constructed directly; mint stores with "
                     "Cluster::MakeStore so caches, replicas and the shared "
                     "shard map are attached");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Convention rules.

// Counters that predate the zero-guard convention: they are charged on
// every code path (or pinned by the seed benches), so their presence in
// metric output is already part of every BENCH baseline.
const std::set<std::string>& GrandfatheredMetrics() {
  static const std::set<std::string> kSet = {
      "rounds",
      "shuffles",
      "shuffle_bytes",
      "shuffle_hot_machine_bytes",
      "kv_reads",
      "kv_writes",
      "kv_read_bytes",
      "kv_write_bytes",
      "kv_hot_machine_read_bytes",
      "kv_hot_machine_write_bytes",
      "kv_lookup_trips",
      "kv_batches",
      "kv_queries",
      "map_items",
      "cache_hits",
      "cache_misses",
  };
  return kSet;
}

void RuleMetricZeroGuard(const SourceFile& f, Sink* sink) {
  // The convention binds the library itself; tests and benches read
  // metrics far more than they write them.
  if (f.rel.rfind("src/", 0) != 0) return;
  // Lexical conditional tracking: a brace scope opened by if/else/switch
  // is "guarded"; so is the single statement of a braceless if. Loops
  // and plain blocks are not guards — they don't make the write
  // conditional on the feature being exercised.
  std::vector<uint8_t> scope_guarded;
  bool pending_guard = false;   // next '{' opens a guarded scope
  bool stmt_guard = false;      // inside a braceless-if statement
  for (size_t i = 0; i < f.toks.size(); ++i) {
    const Token& t = f.toks[i];
    if (t.kind == Tok::kIdent) {
      if (t.text == "if" || t.text == "switch") {
        const size_t after = SkipParens(f, i + 1);
        if (after > i + 1) {
          if (IsPunct(f, after, "{")) {
            pending_guard = true;
          } else {
            stmt_guard = true;
          }
        }
        continue;
      }
      if (t.text == "else") {
        if (IsPunct(f, i + 1, "{")) {
          pending_guard = true;
        } else if (!IsIdent(f, i + 1, "if")) {
          stmt_guard = true;  // braceless else branch
        }
        continue;
      }
    }
    if (t.kind == Tok::kPunct) {
      if (t.text == "{") {
        scope_guarded.push_back(pending_guard || stmt_guard ? 1 : 0);
        pending_guard = false;
        continue;
      }
      if (t.text == "}") {
        if (!scope_guarded.empty()) scope_guarded.pop_back();
        continue;
      }
      if (t.text == ";") {
        stmt_guard = false;
        continue;
      }
    }
    // `<receiver>.Add("name", ...)` — Metrics writes by convention.
    if (t.kind == Tok::kIdent && t.text == "Add" && i >= 1 &&
        (IsPunct(f, i - 1, ".") || IsPunct(f, i - 1, "->")) &&
        IsPunct(f, i + 1, "(") && i + 2 < f.toks.size() &&
        f.toks[i + 2].kind == Tok::kString) {
      const std::string& name = f.toks[i + 2].text;
      if (GrandfatheredMetrics().count(name)) continue;
      const bool guarded =
          stmt_guard || std::any_of(scope_guarded.begin(), scope_guarded.end(),
                                    [](uint8_t g) { return g != 0; });
      if (!guarded) {
        sink->Report(
            kMetricZeroGuard, t.line,
            "Metrics counter \"" + name +
                "\" written unconditionally: new counters must be zero-rate-"
                "guarded (if (delta != 0) ...) so an off-config's metric "
                "output stays byte-identical to a build without the feature");
      }
    }
  }
}

// Off-state vocabulary a knob's doc comment must use: the words PRs 4-9
// standardized for "this knob's off/default value reproduces the prior
// cost model".
bool HasOffStateMarker(const std::string& comment) {
  static const std::vector<std::string> kMarkers = {
      "bit-identical", "byte-identical", "bit-identically", "byte-identically",
      "identical",     "unchanged",      "disable",         "historical",
      "baseline",      "0 =",            "<= 0",            "cost-only",
      "ablation",      "default",        "inert",           "neutral",
  };
  const std::string low = Lower(comment);
  for (const std::string& m : kMarkers) {
    if (low.find(m) != std::string::npos) return true;
  }
  // "off" must stand alone as a word — substrings like "off-state",
  // "offset" or "trade-off" are not an off-state statement.
  for (size_t p = low.find("off"); p != std::string::npos;
       p = low.find("off", p + 1)) {
    const bool left_ok = p == 0 || !(IsIdentChar(low[p - 1]) ||
                                     low[p - 1] == '-');
    const size_t after = p + 3;
    const bool right_ok = after >= low.size() ||
                          !(IsIdentChar(low[after]) || low[after] == '-');
    if (left_ok && right_ok) return true;
  }
  return false;
}

struct ConfigKnob {
  std::string name;  // dotted for nested struct members
  int line = 0;      // declaration line in the config header
  bool documented = false;
};

// Parses `struct ClusterConfig { ... }` from the cluster header: every
// data member becomes a knob; members of locally defined nested structs
// (FaultConfig etc.) become dotted knobs under the outer field's name.
struct ParsedConfig {
  std::vector<ConfigKnob> knobs;
  bool found = false;
};

// Parses one struct body starting just past its '{'. Returns the index
// past the closing '};'. Nested struct definitions are parsed into
// `local_structs` keyed by type name; fields typed by a local struct
// expand into dotted knobs.
size_t ParseStructBody(
    const SourceFile& f, size_t i, const std::string& prefix,
    std::map<std::string, std::vector<ConfigKnob>>* local_structs,
    std::vector<ConfigKnob>* out) {
  while (i < f.toks.size() && !IsPunct(f, i, "}")) {
    // Nested struct definition.
    if (IsIdent(f, i, "struct") && i + 2 < f.toks.size() &&
        f.toks[i + 1].kind == Tok::kIdent && IsPunct(f, i + 2, "{")) {
      const std::string nested = f.toks[i + 1].text;
      std::vector<ConfigKnob> fields;
      i = ParseStructBody(f, i + 3, "", local_structs, &fields);
      (*local_structs)[nested] = std::move(fields);
      if (IsPunct(f, i, "}")) ++i;
      if (IsPunct(f, i, ";")) ++i;
      continue;
    }
    // One member declaration: scan to ';' at depth 0, find the name
    // (identifier before the first top-level '=' or before ';').
    size_t start = i;
    int depth = 0;
    size_t eq = 0, semi = 0;
    // Angle brackets are ignored on purpose: member declarations never
    // carry a ';' inside template arguments, while shift/comparison
    // operators in default initializers (`1 << 16`) would desync an
    // angle-depth count.
    for (size_t j = i; j < f.toks.size(); ++j) {
      const std::string& t = f.toks[j].text;
      if (f.toks[j].kind == Tok::kPunct) {
        if (t == "(" || t == "{") ++depth;
        if (t == ")" || t == "}") --depth;
        if (t == "=" && depth == 0 && eq == 0) eq = j;
        if (t == ";" && depth <= 0) {
          semi = j;
          break;
        }
      }
    }
    if (semi == 0) break;  // malformed; stop
    const size_t name_at = (eq != 0 ? eq : semi);
    if (name_at > start && f.toks[name_at - 1].kind == Tok::kIdent &&
        !IsIdent(f, start, "using") && !IsIdent(f, start, "static") &&
        !IsIdent(f, start, "friend")) {
      const std::string name = f.toks[name_at - 1].text;
      const std::string type = f.toks[start].text;
      const int line = f.toks[start].line;
      auto nested = local_structs->find(type);
      if (nested != local_structs->end()) {
        // Expand the nested struct's members as dotted knobs.
        for (const ConfigKnob& k : nested->second) {
          out->push_back({name + "." + k.name, k.line, k.documented});
        }
      } else {
        ConfigKnob knob;
        knob.name = prefix.empty() ? name : prefix + "." + name;
        knob.line = line;
        knob.documented = HasOffStateMarker(CommentAbove(f, line));
        out->push_back(knob);
      }
    }
    i = semi + 1;
  }
  return i;
}

ParsedConfig ParseClusterConfig(const SourceFile& f) {
  ParsedConfig parsed;
  for (size_t i = 0; i + 2 < f.toks.size(); ++i) {
    if (IsIdent(f, i, "struct") && IsIdent(f, i + 1, "ClusterConfig") &&
        IsPunct(f, i + 2, "{")) {
      std::map<std::string, std::vector<ConfigKnob>> local_structs;
      ParseStructBody(f, i + 3, "", &local_structs, &parsed.knobs);
      parsed.found = true;
      break;
    }
  }
  return parsed;
}

void RuleConfig(const Context& ctx, Sink* sink) {
  if (ctx.cluster_header == nullptr) return;
  const SourceFile& f = *ctx.cluster_header;
  const ParsedConfig parsed = ParseClusterConfig(f);
  if (!parsed.found) return;
  // The CLI dump's knob inventory: every string literal in ampc_cli.cc.
  std::set<std::string> dumped;
  if (ctx.cli_source != nullptr) {
    for (const Token& t : ctx.cli_source->toks) {
      if (t.kind == Tok::kString) dumped.insert(t.text);
    }
  }
  sink->SetFile(&f);
  for (const ConfigKnob& knob : parsed.knobs) {
    if (!knob.documented) {
      sink->Report(kConfigOffDoc, knob.line,
                   "ClusterConfig knob '" + knob.name +
                       "' has no documented off-state: say which value "
                       "reproduces the prior cost model bit-identically (or "
                       "mark the knob cost-only)");
    }
    if (ctx.cli_source != nullptr && !dumped.count(knob.name)) {
      sink->Report(kConfigDump, knob.line,
                   "ClusterConfig knob '" + knob.name +
                       "' missing from the ampc_cli --lint-config dump; add "
                       "it so config/doc drift stays mechanically checkable");
    }
  }
}

void RuleBenchGate(const SourceFile& f, Sink* sink) {
  if (f.rel.rfind("bench/micro_", 0) != 0 ||
      f.rel.size() < 3 || f.rel.substr(f.rel.size() - 3) != ".cc") {
    return;
  }
  for (size_t i = 0; i + 1 < f.toks.size(); ++i) {
    if (IsIdent(f, i, "return") && f.toks[i + 1].kind == Tok::kNumber &&
        f.toks[i + 1].text == "1") {
      return;
    }
    if (IsIdent(f, i, "exit") && IsPunct(f, i + 1, "(") &&
        i + 2 < f.toks.size() && f.toks[i + 2].kind == Tok::kNumber &&
        f.toks[i + 2].text != "0") {
      return;
    }
  }
  sink->Report(kBenchGate, 1,
               "microbench has no failing gate: every bench/micro_*.cc must "
               "have a `return 1` path so CI fails when its invariant "
               "regresses");
}

// Malformed annotations (and annotations naming unknown rules) are
// errors themselves: a suppression that silently fails to parse would
// look like a clean file.
void RuleBadSuppression(const SourceFile& f, Sink* sink) {
  for (const Suppression& s : f.supps) {
    if (s.valid) continue;
    std::string why;
    if (s.rule.empty()) {
      why = "annotation must be `ampc-lint: allow(rule-id): justification`";
    } else if (!KnownRule(s.rule)) {
      why = "unknown rule id '" + s.rule + "'";
    } else {
      why = "suppression of '" + s.rule +
            "' is missing its mandatory justification";
    }
    sink->Report(kBadSuppression, s.line, why);
  }
}

// ---------------------------------------------------------------------------
// File gathering and the include graph.

bool ScannableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".hpp" || ext == ".cpp";
}

bool SkippedDir(const std::string& name) {
  return name == "lint_fixtures" || name.rfind("build", 0) == 0 ||
         name == ".git" || name == "third_party";
}

std::vector<std::string> GatherFiles(const Options& options) {
  std::vector<std::string> rels;
  const fs::path root(options.root);
  std::vector<std::string> seeds = options.paths;
  if (seeds.empty()) seeds = {"src", "tools", "bench", "tests"};
  for (const std::string& seed : seeds) {
    const fs::path p = root / seed;
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
      rels.push_back(seed);
      continue;
    }
    if (!fs::is_directory(p, ec)) continue;
    for (fs::recursive_directory_iterator it(p, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_directory() && SkippedDir(it->path().filename().string())) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file() || !ScannableExtension(it->path())) continue;
      rels.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  return rels;
}

// Resolves the in-tree include graph and marks output-affecting files:
// src/core|graph|baselines by path, plus src/ headers whose every
// (transitive) includer is output-affecting — a helper header used only
// by the algorithm layer inherits its determinism obligations.
int ResolveIncludeGraph(Context* ctx) {
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < ctx->files.size(); ++i) {
    index[ctx->files[i].rel] = i;
  }
  std::vector<std::vector<size_t>> includers(ctx->files.size());
  int edges = 0;
  for (size_t i = 0; i < ctx->files.size(); ++i) {
    const SourceFile& f = ctx->files[i];
    const std::string dir = f.rel.find('/') == std::string::npos
                                ? ""
                                : f.rel.substr(0, f.rel.rfind('/'));
    for (const IncludeRef& inc : f.includes) {
      if (inc.system) continue;
      // Project convention: quoted includes are relative to src/ (or to
      // the including file's own directory for bench/tests helpers).
      size_t target = SIZE_MAX;
      for (const std::string& candidate :
           {"src/" + inc.target, dir.empty() ? inc.target : dir + "/" + inc.target,
            inc.target}) {
        auto it = index.find(candidate);
        if (it != index.end()) {
          target = it->second;
          break;
        }
      }
      if (target == SIZE_MAX) continue;
      includers[target].push_back(i);
      ++edges;
    }
  }
  auto by_path = [](const std::string& rel) {
    return rel.rfind("src/core/", 0) == 0 || rel.rfind("src/graph/", 0) == 0 ||
           rel.rfind("src/baselines/", 0) == 0;
  };
  for (SourceFile& f : ctx->files) f.output_affecting = by_path(f.rel);
  // Fixpoint: a src/ header with includers, all of them output-affecting,
  // becomes output-affecting itself.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < ctx->files.size(); ++i) {
      SourceFile& f = ctx->files[i];
      if (f.output_affecting || f.rel.rfind("src/", 0) != 0) continue;
      if (includers[i].empty()) continue;
      bool all = true;
      for (size_t inc : includers[i]) {
        if (!ctx->files[inc].output_affecting) {
          all = false;
          break;
        }
      }
      if (all) {
        f.output_affecting = true;
        changed = true;
      }
    }
  }
  return edges;
}

// ---------------------------------------------------------------------------
// JSON rendering.

void JsonEscape(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string Diagnostic::ToString() const {
  std::string out = file + ":" + std::to_string(line) + ": ";
  out += suppressed ? "allowed" : "error";
  out += "[" + rule + "]: " + message;
  if (suppressed) out += " (justification: " + justification + ")";
  return out;
}

const std::vector<RuleInfo>& Rules() { return kRules; }

int Report::errors() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) n += d.suppressed ? 0 : 1;
  return n;
}

std::string Report::ToJson() const {
  std::map<std::string, int> violations, suppressed_count;
  for (const Diagnostic& d : diagnostics) {
    (d.suppressed ? suppressed_count : violations)[d.rule]++;
  }
  std::string out = "{\n";
  out += "  \"files_scanned\": " + std::to_string(files_scanned) + ",\n";
  out += "  \"include_edges\": " + std::to_string(include_edges) + ",\n";
  out += "  \"errors\": " + std::to_string(errors()) + ",\n";
  out += "  \"suppressed\": " +
         std::to_string(static_cast<int>(diagnostics.size()) - errors()) +
         ",\n";
  out += "  \"rules\": [\n";
  for (size_t i = 0; i < kRules.size(); ++i) {
    const RuleInfo& r = kRules[i];
    out += "    {\"id\": \"";
    JsonEscape(r.id, &out);
    out += "\", \"summary\": \"";
    JsonEscape(r.summary, &out);
    out += "\", \"violations\": " + std::to_string(violations[r.id]) +
           ", \"suppressed\": " + std::to_string(suppressed_count[r.id]) + "}";
    out += i + 1 < kRules.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"diagnostics\": [\n";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out += "    {\"file\": \"";
    JsonEscape(d.file, &out);
    out += "\", \"line\": " + std::to_string(d.line) + ", \"rule\": \"";
    JsonEscape(d.rule, &out);
    out += "\", \"suppressed\": ";
    out += d.suppressed ? "true" : "false";
    out += ", \"message\": \"";
    JsonEscape(d.message, &out);
    out += "\"";
    if (d.suppressed) {
      out += ", \"justification\": \"";
      JsonEscape(d.justification, &out);
      out += "\"";
    }
    out += "}";
    out += i + 1 < diagnostics.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

Report Run(const Options& options) {
  Report report;
  Context ctx;
  const fs::path root(options.root);
  for (const std::string& rel : GatherFiles(options)) {
    ctx.files.push_back(LexFile(root / rel, rel));
  }
  report.files_scanned = static_cast<int>(ctx.files.size());
  report.include_edges = ResolveIncludeGraph(&ctx);
  for (const SourceFile& f : ctx.files) {
    CollectAliases(f, &ctx);
    if (f.rel == "src/sim/cluster.h") ctx.cluster_header = &f;
    if (f.rel == "tools/ampc_cli.cc") ctx.cli_source = &f;
  }

  Sink sink(&report.diagnostics);
  for (const SourceFile& f : ctx.files) {
    sink.SetFile(&f);
    RuleDetRand(f, &sink);
    RuleDetWallclock(f, &sink);
    RuleDetUnorderedIter(f, ctx, &sink);
    RuleDetPtrKey(f, &sink);
    RuleCoreStoreDirect(f, ctx, &sink);
    RuleCoreMakeStore(f, &sink);
    RuleMetricZeroGuard(f, &sink);
    RuleBenchGate(f, &sink);
    RuleBadSuppression(f, &sink);
  }
  RuleConfig(ctx, &sink);

  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

}  // namespace ampc::lint

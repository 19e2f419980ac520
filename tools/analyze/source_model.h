// Shared source model for every apollo-analyze pass: a dependency-free,
// string/comment/raw-string aware C++ tokenizer plus the
// `// lint:allow(rule)` suppression machinery.
//
// The analyzer is deliberately self-contained (no link against the apollo
// libraries — it must build and run even when the library is broken), so
// this layer depends on the standard library only.
//
// A SourceFile carries three synchronized views of one file:
//   raw    — the original lines, untouched;
//   code   — the same lines with comments and string/char literal *contents*
//            blanked to spaces (quotes kept), so naive substring scans never
//            match inside a literal;
//   tokens — a lexed stream over the code view: identifiers, numbers,
//            punctuation (maximal-munch C++ operators), string/char literals
//            (carrying their raw literal text), and `#include` header names
//            as a single token. Every token knows its 1-based line.
//
// Rules written against `tokens` get word-boundary and literal awareness for
// free; the line views stay available for the few checks that are genuinely
// line-shaped (e.g. "does this header contain #pragma once").
#pragma once

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace srcmodel {

enum class TokKind {
  kIdent,       // identifiers and keywords
  kNumber,      // numeric literals (incl. digit separators)
  kString,      // string literal; text = raw body between the quotes
  kChar,        // char literal; text = raw body between the quotes
  kPunct,       // operator / punctuator, maximal munch ("::", "+=", ...)
  kHeaderName,  // the target of an #include; text = path without delimiters
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;             // 1-based
  bool system_header = false;  // kHeaderName only: <...> vs "..."
};

struct SourceFile {
  std::string display_path;  // root-relative, forward slashes
  bool is_header = false;

  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<Token> tokens;

  // Suppressions: (line, rule) pairs and file-wide rules collected from
  // `lint:allow(rule[,rule...])` / `lint:allow-file(...)` comments. A line
  // directive covers its own line and the next.
  std::set<std::pair<int, std::string>> line_allows;
  std::set<std::string> file_allows;

  bool allowed(int line, const std::string& rule) const {
    return file_allows.count(rule) != 0 ||
           line_allows.count({line, rule}) != 0;
  }
  bool path_starts_with(std::string_view prefix) const {
    return display_path.rfind(prefix, 0) == 0;
  }
  bool path_contains(std::string_view needle) const {
    return display_path.find(needle) != std::string::npos;
  }
};

// Lexes `text` into `out` (display_path/is_header are the caller's job).
void lex(const std::string& text, SourceFile& out);

// Loads and lexes one file; returns false (and leaves `out` empty) on I/O
// error. `display_path` is stored as given.
bool load_file(const std::filesystem::path& file,
               const std::string& display_path, SourceFile& out);

// Collects the C++ sources (.h/.hpp/.cpp/.cc) under `root/<dir>` for each
// dir, skipping any path with a `build` component, sorted by display path.
std::vector<std::filesystem::path> collect_sources(
    const std::filesystem::path& root, const std::vector<std::string>& dirs);

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

// Index of the next token with the given kind+text at or after `from`;
// npos (= tokens.size()) when absent.
size_t find_token(const std::vector<Token>& toks, TokKind kind,
                  std::string_view text, size_t from = 0);

// True when tokens [i, i+n) are identifiers/puncts matching `seq` exactly
// (each element matched against the token's text, any kind).
bool match_seq(const std::vector<Token>& toks, size_t i,
               std::initializer_list<std::string_view> seq);

// Matching closer for the opener at index `open` (one of ( { [ );
// tokens.size() when unbalanced.
size_t match_forward(const std::vector<Token>& toks, size_t open);

// Matching `>` for the `<` at index `open`, treating ">>" as two closers and
// giving up at a top-level `;`. tokens.size() when unmatched.
size_t match_angle(const std::vector<Token>& toks, size_t open);

bool is_ident(const Token& t, std::string_view text);
bool is_punct(const Token& t, std::string_view text);

}  // namespace srcmodel

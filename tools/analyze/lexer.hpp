// Shared lexing layer for the project's static analyzer (pp_analyze).
//
// This is deliberately not a C++ parser: the analyzers favour simple,
// reviewable token rules with an escape-hatch comment over full semantic
// analysis.  The lexer gives every rule the same three views of a file:
//
//   raw        the bytes on disk (for allow-comment lookup and reporting)
//   code       comment- and string-stripped text, same length/line
//              structure as raw, so positions map 1:1
//   strings    every string literal with its position and contents (the
//              stripped view blanks them; rules that care about names —
//              obs metric strings, include paths — read them from here)
//
// plus small positional helpers (token_at, skip_ws, balanced-group
// matching, line_of) that the rules build on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pp::analyze {

// One string literal as written in the source ("..." contents, without the
// quotes; escape sequences are preserved verbatim).
struct StringLit {
  std::size_t pos = 0;  // offset of the opening quote in raw/code
  std::string text;
};

struct FileScan {
  std::string path;      // as given to load()
  std::string rel;       // path relative to the scan root ("src/sim/rng.cpp")
  std::string raw;       // file bytes
  std::string code;      // comment/string-stripped, same length as raw
  std::vector<std::string> raw_lines;
  std::vector<std::size_t> line_starts;
  std::vector<StringLit> strings;
};

bool ident_char(char c);

// Replace comments and string/char literal contents with spaces, keeping
// line structure intact; records each string literal in `strings` when
// non-null.  Raw strings are handled well enough for this codebase (no raw
// strings containing quotes).
std::string strip_comments_and_strings(const std::string& in,
                                       std::vector<StringLit>* strings);

// True when text[pos..] starts the exact identifier `word` on a token
// boundary.
bool token_at(const std::string& text, std::size_t pos,
              const std::string& word);

std::size_t skip_ws(const std::string& t, std::size_t i);

// Given `open` at an opening '(' / '{' / '[' / '<', return the position of
// the matching closer, or npos when unbalanced.
std::size_t match_group(const std::string& t, std::size_t open);

// 1-indexed line number of a byte offset.
int line_of(const std::vector<std::size_t>& line_starts, std::size_t pos);

// `// pp-lint: allow(<rule>): <justification>` on the given or preceding
// raw line, with a non-empty justification.
bool allowlisted(const std::vector<std::string>& raw_lines, int line,
                 const std::string& rule);

// Load and pre-lex one file.  `rel` is stored verbatim as the report path.
FileScan load_file(const std::string& path, const std::string& rel);

}  // namespace pp::analyze

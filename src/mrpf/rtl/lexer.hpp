// Tokenizer for the emitted-Verilog subset: identifiers, decimal numbers,
// sized literals (12'sd0), punctuation, the operators + - <<< >>> <= and
// comments (// to end of line).
#pragma once

#include <string>
#include <vector>

#include "mrpf/common/bits.hpp"

namespace mrpf::rtl {

enum class TokenKind {
  kIdentifier,
  kNumber,       // plain decimal
  kSizedLiteral, // N'sdV — value carries V, width carries N
  kSymbol,       // single/multi-char operator or punctuation, in `text`
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  i64 value = 0;
  int width = 0;   // kSizedLiteral only
  int line = 0;
};

/// Tokenizes the whole input; throws mrpf::Error on malformed characters,
/// numbers that do not fit i64 and sized-literal widths outside [1, 64].
std::vector<Token> tokenize(const std::string& source);

}  // namespace mrpf::rtl

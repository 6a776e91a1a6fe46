#include "mrpf/rtl/lexer.hpp"

#include <cctype>
#include <charconv>

#include "mrpf/common/error.hpp"
#include "mrpf/common/format.hpp"

namespace mrpf::rtl {

namespace {

/// The decimal digits source[begin, end) as an i64.
i64 parse_decimal(const std::string& source, std::size_t begin,
                  std::size_t end, int line) {
  i64 value = 0;
  const auto [ptr, ec] =
      std::from_chars(source.data() + begin, source.data() + end, value);
  if (ec != std::errc() || ptr != source.data() + end) {
    throw Error(str_format("rtl lexer: number out of range at line %d",
                           line));
  }
  return value;
}

}  // namespace

std::vector<Token> tokenize(const std::string& source) {
  std::vector<Token> tokens;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  const auto peek = [&](std::size_t off = 0) -> char {
    return i + off < n ? source[i + off] : '\0';
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(source[i])) ||
                       source[i] == '_')) {
        ++i;
      }
      tokens.push_back({TokenKind::kIdentifier,
                        source.substr(start, i - start), 0, 0, line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      while (i < n && std::isdigit(static_cast<unsigned char>(source[i]))) {
        ++i;
      }
      const i64 number = parse_decimal(source, start, i, line);
      if (peek() == '\'') {
        // Sized literal: N'sdV (only signed decimal is emitted).
        MRPF_CHECK(peek(1) == 's' && peek(2) == 'd',
                   "rtl lexer: unsupported literal base");
        i += 3;
        std::size_t vstart = i;
        while (i < n &&
               std::isdigit(static_cast<unsigned char>(source[i]))) {
          ++i;
        }
        MRPF_CHECK(i > vstart, "rtl lexer: sized literal missing value");
        MRPF_CHECK(number >= 1 && number <= 64,
                   "rtl lexer: sized literal width outside [1, 64]");
        Token t;
        t.kind = TokenKind::kSizedLiteral;
        t.value = parse_decimal(source, vstart, i, line);
        t.width = static_cast<int>(number);
        t.line = line;
        tokens.push_back(std::move(t));
      } else {
        tokens.push_back({TokenKind::kNumber, "", number, 0, line});
      }
      continue;
    }
    // Multi-character operators first.
    const auto starts_with = [&](const char* s) {
      const std::size_t len = std::char_traits<char>::length(s);
      return source.compare(i, len, s) == 0;
    };
    const char* multi[] = {"<<<", ">>>", "<="};
    bool matched = false;
    for (const char* op : multi) {
      if (starts_with(op)) {
        tokens.push_back({TokenKind::kSymbol, op, 0, 0, line});
        i += std::char_traits<char>::length(op);
        matched = true;
        break;
      }
    }
    if (matched) continue;
    const std::string single = "()[],;:+-=@.";
    if (single.find(c) != std::string::npos) {
      tokens.push_back({TokenKind::kSymbol, std::string(1, c), 0, 0, line});
      ++i;
      continue;
    }
    throw Error(str_format("rtl lexer: unexpected character '%c' at line %d",
                           c, line));
  }
  tokens.push_back({TokenKind::kEnd, "", 0, 0, line});
  return tokens;
}

}  // namespace mrpf::rtl

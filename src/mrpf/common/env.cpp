#include "mrpf/common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <set>

#include "mrpf/common/error.hpp"
#include "mrpf/common/format.hpp"

namespace mrpf::env {

namespace {

std::mutex& warn_mutex() {
  static std::mutex mu;
  return mu;
}

std::set<std::string>& warned_keys() {
  static std::set<std::string> keys;
  return keys;
}

/// The value of `p` when all of it is one or more decimal digits
/// (saturating at LLONG_MAX, so no digit string can overflow), else
/// nullopt.
std::optional<long long> parse_digits(const char* p) {
  if (p == nullptr || *p == '\0') return std::nullopt;
  constexpr long long kMax = std::numeric_limits<long long>::max();
  long long parsed = 0;
  for (; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    const int digit = *p - '0';
    parsed = parsed > (kMax - digit) / 10 ? kMax : parsed * 10 + digit;
  }
  return parsed;
}

}  // namespace

ParsedInt parse_positive_int(const char* value, long long clamp_max) {
  ParsedInt out;
  const std::optional<long long> parsed = parse_digits(value);
  if (!parsed.has_value() || *parsed < 1) return out;
  out.well_formed = true;
  out.value = std::min(*parsed, clamp_max);
  return out;
}

ParsedInt parse_int_in_range(const char* value, long long lo, long long hi) {
  ParsedInt out;
  if (value == nullptr) return out;
  const bool negative = value[0] == '-';
  const std::optional<long long> magnitude =
      parse_digits(negative ? value + 1 : value);
  if (!magnitude.has_value()) return out;
  const long long parsed = negative ? -*magnitude : *magnitude;
  if (parsed < lo || parsed > hi) return out;
  out.well_formed = true;
  out.value = parsed;
  return out;
}

ParsedDouble parse_double_in_range(const char* value, double lo, double hi) {
  ParsedDouble out;
  if (value == nullptr || value[0] == '\0' ||
      std::isspace(static_cast<unsigned char>(value[0])) != 0) {
    return out;
  }
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (*end != '\0' || !std::isfinite(parsed) || parsed < lo || parsed > hi) {
    return out;
  }
  out.well_formed = true;
  out.value = parsed;
  return out;
}

ParsedExecMode parse_exec_mode(const char* value) {
  ParsedExecMode out;
  const char* const words[] = {"off", "interp", "vector"};  // mode numbers
  for (int mode = 0; mode < 3; ++mode) {
    if (equals_ignore_case(value, words[mode])) {
      out.well_formed = true;
      out.mode = mode;
    }
  }
  return out;
}

long long int_flag(const std::string& flag, const std::string& text,
                   long long lo, long long hi) {
  const ParsedInt p = parse_int_in_range(text.c_str(), lo, hi);
  if (!p.well_formed) {
    throw Error(str_format("%s expects an integer in [%lld, %lld], got \"%s\"",
                           flag.c_str(), lo, hi, text.c_str()));
  }
  return p.value;
}

double double_flag(const std::string& flag, const std::string& text,
                   double lo, double hi) {
  const ParsedDouble p = parse_double_in_range(text.c_str(), lo, hi);
  if (!p.well_formed) {
    throw Error(str_format("%s expects a number in [%g, %g], got \"%s\"",
                           flag.c_str(), lo, hi, text.c_str()));
  }
  return p.value;
}

bool equals_ignore_case(const char* value, const char* lower) {
  if (value == nullptr) return false;
  std::size_t i = 0;
  for (; value[i] != '\0' && lower[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(value[i])) != lower[i]) {
      return false;
    }
  }
  return value[i] == '\0' && lower[i] == '\0';
}

ParsedCacheKnob parse_cache_knob(const char* value) {
  ParsedCacheKnob out;
  if (value == nullptr || value[0] == '\0') return out;
  if (std::string(value) == "0" || equals_ignore_case(value, "off")) {
    out.disabled = true;
    return out;
  }
  // Capacity clamps to [1 MiB, 64 GiB] — absurd values are almost
  // certainly typos but a clamp keeps the knob forgiving.
  const ParsedInt mib = parse_positive_int(value, 65536);
  if (!mib.well_formed) {
    out.well_formed = false;
    return out;
  }
  out.max_bytes = static_cast<std::size_t>(mib.value) << 20;
  return out;
}

long long budget_knob(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return 0;
  // Clamp mirrors core::kMaxOptBudget / kMaxXformBudget (common/ stays
  // free of core types).
  const ParsedInt p = parse_positive_int(v, 1'000'000'000'000);
  if (!p.well_formed) {
    warn_once(name, "mrpf: ignoring malformed " + std::string(name) + "=\"" +
                        v + "\" — expected a decimal integer >= 1; using "
                        "the built-in budget");
  }
  return p.value;
}

KnobSnapshot snapshot_knobs() {
  KnobSnapshot s;
  if (const char* v = std::getenv("MRPF_THREADS")) {
    const ParsedInt p = parse_positive_int(v, 512);
    if (p.well_formed) {
      s.threads = static_cast<int>(p.value);
    } else {
      warn_once("MRPF_THREADS",
                "mrpf: ignoring malformed MRPF_THREADS=\"" + std::string(v) +
                    "\" — expected a decimal integer >= 1; using the "
                    "hardware default");
    }
  }
  if (const char* v = std::getenv("MRPF_CACHE")) {
    const ParsedCacheKnob c = parse_cache_knob(v);
    if (c.well_formed) {
      s.cache_disabled = c.disabled;
      s.cache_max_bytes = c.max_bytes;
    } else {
      warn_once("MRPF_CACHE",
                "mrpf: ignoring malformed MRPF_CACHE value \"" +
                    std::string(v) +
                    "\" (expected \"off\", \"0\", or a capacity in MiB)");
    }
  }
  s.opt_budget = budget_knob("MRPF_OPT_BUDGET");
  s.xform_budget = budget_knob("MRPF_XFORM_BUDGET");
  return s;
}

void warn_once(const char* key, const std::string& message) {
  {
    std::lock_guard<std::mutex> lk(warn_mutex());
    if (!warned_keys().insert(key).second) return;
  }
  std::fprintf(stderr, "%s\n", message.c_str());
}

bool warning_fired(const char* key) {
  std::lock_guard<std::mutex> lk(warn_mutex());
  return warned_keys().count(key) != 0;
}

}  // namespace mrpf::env

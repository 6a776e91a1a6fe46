#pragma once

#include <cstddef>
#include <string>

namespace mrpf::env {

/// Result of parsing an environment knob with the shared strict grammar.
struct ParsedInt {
  bool well_formed = false;  ///< Value matched the grammar.
  long long value = 0;       ///< Parsed (and clamped) value when well-formed.
};

/// Shared grammar for MRPF_* integer knobs: one or more decimal digits,
/// value >= 1. No sign, no whitespace, no suffix. Values above `clamp_max`
/// clamp to `clamp_max`. A null/empty/garbage string is not well-formed.
ParsedInt parse_positive_int(const char* value, long long clamp_max);

/// The same digit grammar for command-line flags, with an optional leading
/// '-' and a range check in place of the clamp: well-formed iff the whole
/// string is [-]digits and its value lies in [lo, hi] (hi < LLONG_MAX).
/// "257" for a [0, 8] flag is rejected, never wrapped or clamped.
ParsedInt parse_int_in_range(const char* value, long long lo, long long hi);

/// Result of parse_double_in_range.
struct ParsedDouble {
  bool well_formed = false;
  double value = 0.0;
};

/// Whole-string decimal number for command-line flags: strtod syntax with
/// no leading whitespace and nothing after the number ("0.5x" is not
/// well-formed), finite, within [lo, hi].
ParsedDouble parse_double_in_range(const char* value, double lo, double hi);

/// Command-line values over the two grammars above: the parsed value, or
/// mrpf::Error naming the flag ("--beta expects a number in [0, 1], got
/// \"abc\"").
long long int_flag(const std::string& flag, const std::string& text,
                   long long lo, long long hi);
double double_flag(const std::string& flag, const std::string& text,
                   double lo, double hi);

/// Case-insensitive comparison against an all-lowercase literal — used for
/// the "off" spelling of disable knobs.
bool equals_ignore_case(const char* value, const char* lower);

/// Result of parsing the MRPF_EXEC execution-mode knob. `mode` is kept as
/// a plain int so common/ stays free of exec/ types; exec::ExecMode mirrors
/// the numbering.
struct ParsedExecMode {
  bool well_formed = false;  ///< Value matched the grammar below.
  int mode = 2;              ///< 0 = off, 1 = interp, 2 = vector.
};

/// Strict grammar for MRPF_EXEC: exactly "off", "interp" or "vector"
/// (case-insensitive). Anything else ("fast", "vector:8", trailing
/// whitespace) is not well-formed; callers warn_once and fall back to the
/// default so a typo can never silently change the engine.
ParsedExecMode parse_exec_mode(const char* value);

/// Result of parsing the MRPF_CACHE knob with the shared grammar:
/// "0"/"off" (case-insensitive) disable, a positive decimal integer is a
/// capacity in MiB (clamped to [1, 65536]), null/empty means "defaults".
/// Anything else is not well-formed (callers warn_once and keep defaults).
struct ParsedCacheKnob {
  bool well_formed = true;     ///< False only for a malformed value.
  bool disabled = false;       ///< "0" or "off".
  std::size_t max_bytes = 0;   ///< Capacity override in bytes; 0 = default.
};

ParsedCacheKnob parse_cache_knob(const char* value);

/// One-shot snapshot of every MRPF_* runtime knob, taken with a single
/// getenv pass per key. Long-running processes (the mrpf_serve daemon)
/// snapshot once at startup and pass the struct down explicitly — the
/// one-shot CLIs' pattern of re-reading the environment per solve is a
/// latent bug in a server, where mid-run setenv from another thread is
/// undefined behavior and per-request getenv races the warn-once state.
struct KnobSnapshot {
  /// MRPF_THREADS when set and well-formed; 0 = unset/malformed (resolve
  /// to the hardware default at the use site).
  int threads = 0;
  /// MRPF_CACHE: disabled / capacity override (0 = keep default).
  bool cache_disabled = false;
  std::size_t cache_max_bytes = 0;
  /// MRPF_OPT_BUDGET / MRPF_XFORM_BUDGET (budget_knob); 0 = unset or
  /// malformed, resolved to the core defaults at the use site.
  long long opt_budget = 0;
  long long xform_budget = 0;
};

/// A step-budget knob (MRPF_OPT_BUDGET, MRPF_XFORM_BUDGET): the
/// parse_positive_int grammar clamped to 10^12 steps; 0 when unset or
/// malformed (a malformed value warns once under the knob's name).
long long budget_knob(const char* name);

/// Reads MRPF_THREADS, MRPF_CACHE, MRPF_OPT_BUDGET and MRPF_XFORM_BUDGET
/// once each, applying the shared strict grammars. Malformed values
/// warn_once (same keys as the lazy per-call readers, so a process never
/// warns twice for one knob) and leave the corresponding field at its
/// default. Thread-safe: concurrent first calls are race-free.
KnobSnapshot snapshot_knobs();

/// Emits `message` on stderr at most once per process per `key`.
/// Subsequent calls for the same key are silent, so a knob misspelled in the
/// environment warns once rather than once per solve.
void warn_once(const char* key, const std::string& message);

/// True once warn_once() has fired for `key` — lets tests assert the
/// one-time-warning semantics without capturing stderr.
bool warning_fired(const char* key);

}  // namespace mrpf::env

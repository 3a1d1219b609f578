// The one text and hash toolkit shared by every grammar in the repo (chaos
// scenarios, adversary and workload specs, the CLIs' numeric flags) and by
// every fingerprint of the §6.7 merged log; ReadTextFile and WriteTextFile
// move corpora, reports and traces to and from disk.  Every token reader
// here consumes the whole token or fails: a value the writer could not have
// printed is an error, never a silent truncation.
#ifndef SRC_COMMON_TEXT_H_
#define SRC_COMMON_TEXT_H_

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "src/common/event_log.h"
#include "src/common/time.h"

namespace autonet {

// Whitespace-separated tokens; a '#' starts a comment that runs to the end.
std::vector<std::string> Tokenize(std::string_view line);

// The shortest exact time literal: "3s", "250ms", "40us", "7ns" ("0ns").
std::string FormatTick(Tick t);

// Reads <number><ns|us|ms|s>, e.g. "250ms" or "1.5s"; integer literals are
// exact.  False when malformed, negative, or outside the Tick range.
bool ParseTick(std::string_view tok, Tick* out);

// Reads the whole token as a decimal integer of type Int: no sign for an
// unsigned type, no '+', no trailing garbage, nothing out of Int's range.
template <typename Int>
bool ParseInt(std::string_view tok, Int* out) {
  Int value{};
  const char* end = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(tok.data(), end, value);
  if (tok.empty() || ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

// Reads the whole token as a finite double (NaN and inf are rejected).
bool ParseDouble(std::string_view tok, double* out);
// The shortest text that ParseDouble reads back to exactly `v`.
std::string FormatDouble(double v);

// Walks tokens[start..] as `key value` pairs, handing each to `visit`, which
// returns "" to accept it or the reason to reject it.  Returns "" or the
// first reason: visit's, a key with no value, or a key given twice.
std::string ReadKeyValues(
    const std::vector<std::string>& tokens, std::size_t start,
    const std::function<std::string(const std::string& key,
                                    const std::string& value)>& visit);

// 64-bit FNV-1a, the hash every run fingerprint is built from: fold `bytes`
// into `h`, which starts at a basis.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
std::uint64_t Fnv1a(std::uint64_t h, std::string_view bytes);
// The basis of every pinned fingerprint (log, metrics and adversary hashes,
// the chaos victim seed): kFnvOffset's decimal form with its last digit
// dropped.  The committed reports were recorded with it, so it stays.
inline constexpr std::uint64_t kFingerprintBasis = 1469598103934665603ull;
// FNV-1a from kFingerprintBasis over a merged log: each entry's time (native
// bytes), node and message.
std::uint64_t HashLog(const std::vector<LogEntry>& log);
// 16 lowercase hex digits.
std::string HexU64(std::uint64_t v);

// Reads the whole file at `path` into *text; false on any I/O error.
bool ReadTextFile(const std::string& path, std::string* text);
// Writes `text` to the file at `path`, replacing it; false on any I/O error.
bool WriteTextFile(const std::string& path, std::string_view text);

}  // namespace autonet

#endif  // SRC_COMMON_TEXT_H_

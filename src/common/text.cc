#include "src/common/text.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>

namespace autonet {

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : line) {
    if (c == '#') {
      break;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) {
        tokens.push_back(std::move(cur));
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    tokens.push_back(std::move(cur));
  }
  return tokens;
}

std::string FormatTick(Tick t) {
  static constexpr struct {
    Tick unit;
    const char* suffix;
  } kUnits[] = {{kSecond, "s"}, {kMillisecond, "ms"}, {kMicrosecond, "us"}};
  for (const auto& u : kUnits) {
    if (t != 0 && t % u.unit == 0) {
      return std::to_string(t / u.unit) + u.suffix;
    }
  }
  return std::to_string(t) + "ns";
}

bool ParseTick(std::string_view tok, Tick* out) {
  std::size_t digits = tok.find_first_not_of("0123456789.");
  if (digits == 0 || digits == std::string_view::npos) {
    return false;
  }
  std::string_view number = tok.substr(0, digits);
  std::string_view unit = tok.substr(digits);
  Tick scale;
  if (unit == "ns") {
    scale = 1;
  } else if (unit == "us") {
    scale = kMicrosecond;
  } else if (unit == "ms") {
    scale = kMillisecond;
  } else if (unit == "s") {
    scale = kSecond;
  } else {
    return false;
  }
  if (number.find('.') == std::string_view::npos) {
    Tick whole;
    if (!ParseInt(number, &whole) ||
        whole > std::numeric_limits<Tick>::max() / scale) {
      return false;
    }
    *out = whole * scale;
    return true;
  }
  double value;
  if (!ParseDouble(number, &value)) {
    return false;
  }
  double ticks = std::round(value * static_cast<double>(scale));
  if (ticks >= 0x1p63) {  // 2^63: the first value past the Tick range
    return false;
  }
  *out = static_cast<Tick>(ticks);
  return true;
}

bool ParseDouble(std::string_view tok, double* out) {
  if (tok.empty()) {
    return false;
  }
  double value = 0;
  const char* end = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(tok.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

std::string FormatDouble(double v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ptr);
}

std::string ReadKeyValues(
    const std::vector<std::string>& tokens, std::size_t start,
    const std::function<std::string(const std::string& key,
                                    const std::string& value)>& visit) {
  for (std::size_t i = start; i < tokens.size(); i += 2) {
    const std::string& key = tokens[i];
    if (i + 1 >= tokens.size()) {
      return "key '" + key + "' is missing a value";
    }
    for (std::size_t j = start; j < i; j += 2) {
      if (tokens[j] == key) {
        return "key '" + key + "' is given twice";
      }
    }
    std::string why = visit(key, tokens[i + 1]);
    if (!why.empty()) {
      return why;
    }
  }
  return "";
}

std::uint64_t Fnv1a(std::uint64_t h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t HashLog(const std::vector<LogEntry>& log) {
  std::uint64_t h = kFingerprintBasis;
  for (const LogEntry& e : log) {
    h = Fnv1a(h, std::string_view(reinterpret_cast<const char*>(&e.time),
                                  sizeof e.time));
    h = Fnv1a(h, e.node);
    h = Fnv1a(h, e.message);
  }
  return h;
}

std::string HexU64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ReadTextFile(const std::string& path, std::string* text) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  text->clear();
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text->append(buf, n);
  }
  bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

bool WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace autonet

#include "src/workload/spec.h"

#include <map>
#include <set>
#include <sstream>

#include "src/common/text.h"

namespace autonet {
namespace workload {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kRpc:
      return "rpc";
    case Kind::kAllreduce:
      return "allreduce";
    case Kind::kStreams:
      return "streams";
  }
  return "none";
}

std::string Spec::ToText() const {
  std::ostringstream out;
  out << KindName(kind);
  if (kind == Kind::kNone) {
    return out.str();
  }
  out << " bytes " << data_bytes;
  switch (kind) {
    case Kind::kRpc:
      out << " response " << response_bytes << " window " << window
          << " timeout " << FormatTick(timeout);
      break;
    case Kind::kAllreduce:
      out << " timeout " << FormatTick(timeout);
      break;
    case Kind::kStreams:
      out << " period " << FormatTick(period) << " deadline "
          << FormatTick(deadline);
      break;
    case Kind::kNone:
      break;
  }
  return out.str();
}

bool ParseSpec(const std::vector<std::string>& tokens, std::size_t start,
               Spec* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  if (start >= tokens.size()) {
    return fail("expected a workload kind (rpc|allreduce|streams)");
  }
  Spec spec;
  const std::string& kind = tokens[start];
  // Look the name up by walking the enum, kNone through kStreams.
  while (kind != KindName(spec.kind)) {
    if (spec.kind == Kind::kStreams) {
      return fail("unknown workload kind '" + kind + "'");
    }
    spec.kind = static_cast<Kind>(static_cast<int>(spec.kind) + 1);
  }
  // The kinds that use each kind-specific knob; bytes is for every kind.
  static const std::map<std::string, std::set<Kind>> kUsers = {
      {"response", {Kind::kRpc}},
      {"window", {Kind::kRpc}},
      {"timeout", {Kind::kRpc, Kind::kAllreduce}},
      {"period", {Kind::kStreams}},
      {"deadline", {Kind::kStreams}}};
  // Every count and time is at least 1.
  std::string why = ReadKeyValues(
      tokens, start + 1,
      [&](const std::string& key, const std::string& value) -> std::string {
        auto users = kUsers.find(key);
        if (spec.kind == Kind::kNone ||
            (users != kUsers.end() && users->second.count(spec.kind) == 0)) {
          return "workload " + kind + " does not use knob '" + key + "'";
        }
        if (key == "bytes") {
          if (!ParseInt(value, &spec.data_bytes) || spec.data_bytes < 1) {
            return "bad bytes '" + value + "'";
          }
        } else if (key == "response") {
          if (!ParseInt(value, &spec.response_bytes) ||
              spec.response_bytes < 1) {
            return "bad response '" + value + "'";
          }
        } else if (key == "window") {
          if (!ParseInt(value, &spec.window) || spec.window < 1 ||
              spec.window > 64) {
            return "bad window '" + value + "' (1..64)";
          }
        } else if (key == "period") {
          if (!ParseTick(value, &spec.period) || spec.period <= 0) {
            return "bad period '" + value + "'";
          }
        } else if (key == "deadline") {
          if (!ParseTick(value, &spec.deadline) || spec.deadline <= 0) {
            return "bad deadline '" + value + "'";
          }
        } else if (key == "timeout") {
          if (!ParseTick(value, &spec.timeout) || spec.timeout <= 0) {
            return "bad timeout '" + value + "'";
          }
        } else {
          return "unknown workload key '" + key + "'";
        }
        return "";
      });
  if (!why.empty()) {
    return fail(why);
  }
  if (error != nullptr) {
    error->clear();
  }
  *out = spec;
  return true;
}

bool ParseSpecText(const std::string& text, Spec* out, std::string* error) {
  return ParseSpec(Tokenize(text), 0, out, error);
}

}  // namespace workload
}  // namespace autonet

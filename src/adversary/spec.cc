#include "src/adversary/spec.h"

#include <map>
#include <sstream>

#include "src/common/text.h"

namespace autonet {
namespace adversary {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kNone:
      return "none";
    case Strategy::kRootChase:
      return "root-chase";
    case Strategy::kPhaseSnipe:
      return "phase-snipe";
    case Strategy::kStorm:
      return "storm";
    case Strategy::kFlapResonance:
      return "flap-resonance";
    case Strategy::kCorruptTable:
      return "corrupt-table";
    case Strategy::kCorruptSkeptic:
      return "corrupt-skeptic";
    case Strategy::kCorruptPort:
      return "corrupt-port";
    case Strategy::kCorruptEpoch:
      return "corrupt-epoch";
  }
  return "none";
}

Tick Spec::effective_period() const {
  if (period > 0) {
    return period;
  }
  switch (strategy) {
    case Strategy::kPhaseSnipe:
      return 2 * kMillisecond;   // phases last single-digit milliseconds
    case Strategy::kFlapResonance:
      return 10 * kMillisecond;  // must catch the re-admit edge promptly
    default:
      return 100 * kMillisecond;
  }
}

std::string Spec::ToText() const {
  std::ostringstream out;
  out << StrategyName(strategy);
  if (strategy == Strategy::kNone) {
    return out.str();
  }
  out << " moves " << moves << " duration " << FormatTick(duration);
  if (period > 0) {
    out << " period " << FormatTick(period);
  }
  switch (strategy) {
    case Strategy::kPhaseSnipe:
      out << " phase " << obs::PhaseName(phase);
      break;
    case Strategy::kStorm:
      out << " burst " << burst;
      break;
    case Strategy::kCorruptEpoch:
      out << " amount " << amount;
      break;
    default:
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
    return fail(
        "expected an adversary strategy (root-chase|phase-snipe|storm|"
        "flap-resonance|corrupt-table|corrupt-skeptic|corrupt-port|"
        "corrupt-epoch)");
  }
  Spec spec;
  const std::string& strategy = tokens[start];
  // Look the name up by walking the enum, kNone through kCorruptEpoch.
  while (strategy != StrategyName(spec.strategy)) {
    if (spec.strategy == Strategy::kCorruptEpoch) {
      return fail("unknown adversary strategy '" + strategy + "'");
    }
    spec.strategy = static_cast<Strategy>(static_cast<int>(spec.strategy) + 1);
  }
  // The one strategy that uses each strategy-specific knob.
  static const std::map<std::string, Strategy> kOwner = {
      {"phase", Strategy::kPhaseSnipe},
      {"burst", Strategy::kStorm},
      {"amount", Strategy::kCorruptEpoch}};
  // Every count but `amount` is at least 1: amount 0 selects the runaway
  // epoch jump.
  std::string why = ReadKeyValues(
      tokens, start + 1,
      [&](const std::string& key, const std::string& value) -> std::string {
        if (spec.strategy == Strategy::kNone) {
          return "adversary none takes no knobs, got '" + key + "'";
        }
        auto owner = kOwner.find(key);
        if (owner != kOwner.end() && owner->second != spec.strategy) {
          return "knob '" + key + "' is for " + StrategyName(owner->second) +
                 " only, not " + StrategyName(spec.strategy);
        }
        if (key == "moves") {
          if (!ParseInt(value, &spec.moves) || spec.moves < 1 ||
              spec.moves > 1000) {
            return "bad moves '" + value + "' (1..1000)";
          }
        } else if (key == "duration") {
          if (!ParseTick(value, &spec.duration) || spec.duration <= 0) {
            return "bad duration '" + value + "'";
          }
        } else if (key == "period") {
          if (!ParseTick(value, &spec.period) || spec.period <= 0) {
            return "bad period '" + value + "'";
          }
        } else if (key == "phase") {
          if (!obs::ParsePhase(value, &spec.phase)) {
            return "bad phase '" + value +
                   "' (monitor|tree|fanin|compute|install)";
          }
        } else if (key == "burst") {
          if (!ParseInt(value, &spec.burst) || spec.burst < 1 ||
              spec.burst > 64) {
            return "bad burst '" + value + "' (1..64)";
          }
        } else if (key == "amount") {
          if (!ParseInt(value, &spec.amount)) {
            return "bad amount '" + value + "'";
          }
        } else {
          return "unknown adversary key '" + key + "'";
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

}  // namespace adversary
}  // namespace autonet

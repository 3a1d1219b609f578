#include "src/chaos/scenario.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/common/text.h"

namespace autonet {
namespace chaos {

namespace {

Action MakeAction(Action::Kind kind, Tick at, int target,
                  const std::string& pick) {
  Action a;
  a.kind = kind;
  a.at = at;
  a.target = target;
  a.pick = pick;
  return a;
}

}  // namespace

Scenario& Scenario::CutCable(Tick at, int cable, const std::string& pick) {
  actions.push_back(MakeAction(Action::Kind::kCutCable, at, cable, pick));
  return *this;
}

Scenario& Scenario::RestoreCable(Tick at, int cable, const std::string& pick) {
  actions.push_back(MakeAction(Action::Kind::kRestoreCable, at, cable, pick));
  return *this;
}

Scenario& Scenario::CrashSwitch(Tick at, int sw, const std::string& pick) {
  actions.push_back(MakeAction(Action::Kind::kCrashSwitch, at, sw, pick));
  return *this;
}

Scenario& Scenario::RestartSwitch(Tick at, int sw, const std::string& pick) {
  actions.push_back(MakeAction(Action::Kind::kRestartSwitch, at, sw, pick));
  return *this;
}

Scenario& Scenario::CutHostLink(Tick at, int host, int which) {
  Action a = MakeAction(Action::Kind::kCutHostLink, at, host, "");
  a.which = which;
  actions.push_back(a);
  return *this;
}

Scenario& Scenario::RestoreHostLink(Tick at, int host, int which) {
  Action a = MakeAction(Action::Kind::kRestoreHostLink, at, host, "");
  a.which = which;
  actions.push_back(a);
  return *this;
}

Scenario& Scenario::CorruptCable(Tick at, int cable, double rate,
                                 const std::string& pick) {
  Action a = MakeAction(Action::Kind::kCorruptCable, at, cable, pick);
  a.rate = rate;
  actions.push_back(a);
  return *this;
}

Scenario& Scenario::ReflectCable(Tick at, int cable, int side,
                                 const std::string& pick) {
  Action a = MakeAction(Action::Kind::kReflectCable, at, cable, pick);
  a.which = side;
  actions.push_back(a);
  return *this;
}

Scenario& Scenario::FlapCable(Tick from, Tick until, Tick period, int cable,
                              const std::string& pick) {
  Action a = MakeAction(Action::Kind::kFlapCable, from, cable, pick);
  a.period = period;
  a.until = until;
  actions.push_back(a);
  return *this;
}

Scenario& Scenario::BurstCables(Tick at, int count, Tick restore_at) {
  Action a = MakeAction(Action::Kind::kBurstCables, at, kRandomTarget, "");
  a.count = count;
  a.until = restore_at;
  actions.push_back(a);
  return *this;
}

Scenario& Scenario::BurstSwitches(Tick at, int count, Tick restart_at) {
  Action a = MakeAction(Action::Kind::kBurstSwitches, at, kRandomTarget, "");
  a.count = count;
  a.until = restart_at;
  actions.push_back(a);
  return *this;
}

Tick Scenario::ScriptEnd() const {
  Tick end = 0;
  for (const Action& a : actions) {
    end = std::max(end, a.at);
    if (a.kind == Action::Kind::kFlapCable ||
        a.kind == Action::Kind::kBurstCables ||
        a.kind == Action::Kind::kBurstSwitches) {
      end = std::max(end, a.until);
    }
  }
  return end;
}

namespace {

std::string FormatTarget(const Action& a) {
  if (!a.pick.empty()) {
    return "?" + a.pick;
  }
  return a.target == kRandomTarget ? "random" : std::to_string(a.target);
}

}  // namespace

std::string Scenario::ToText() const {
  std::ostringstream out;
  out << "scenario " << name << "\n";
  if (workload.enabled()) {
    out << "  workload " << workload.ToText() << "\n";
  }
  if (adversary.enabled()) {
    out << "  adversary " << adversary.ToText() << "\n";
  }
  for (const Action& a : actions) {
    out << "  ";
    if (a.kind != Action::Kind::kFlapCable) {
      out << "at " << FormatTick(a.at) << " ";
    }
    switch (a.kind) {
      case Action::Kind::kCutCable:
        out << "cut cable " << FormatTarget(a);
        break;
      case Action::Kind::kRestoreCable:
        out << "restore cable " << FormatTarget(a);
        break;
      case Action::Kind::kCrashSwitch:
        out << "crash switch " << FormatTarget(a);
        break;
      case Action::Kind::kRestartSwitch:
        out << "restart switch " << FormatTarget(a);
        break;
      case Action::Kind::kCutHostLink:
        out << "cut hostlink " << FormatTarget(a)
            << (a.which == 0 ? " primary" : " alternate");
        break;
      case Action::Kind::kRestoreHostLink:
        out << "restore hostlink " << FormatTarget(a)
            << (a.which == 0 ? " primary" : " alternate");
        break;
      case Action::Kind::kCorruptCable:
        out << "corrupt cable " << FormatTarget(a) << " rate "
            << FormatDouble(a.rate);
        break;
      case Action::Kind::kReflectCable:
        out << "reflect cable " << FormatTarget(a) << " side "
            << (a.which == 0 ? "a" : "b");
        break;
      case Action::Kind::kFlapCable:
        out << "flap cable " << FormatTarget(a) << " period "
            << FormatTick(a.period) << " from " << FormatTick(a.at)
            << " until " << FormatTick(a.until);
        break;
      case Action::Kind::kBurstCables:
        out << "burst cables " << a.count << " until " << FormatTick(a.until);
        break;
      case Action::Kind::kBurstSwitches:
        out << "burst switches " << a.count;
        if (a.until >= a.at) {
          out << " until " << FormatTick(a.until);
        }
        break;
    }
    out << "\n";
  }
  return out.str();
}

// --- parser ---

namespace {

// `random`, `?name`, or a non-negative index.
bool ParseTarget(const std::string& tok, int* target, std::string* pick) {
  *target = kRandomTarget;
  pick->clear();
  if (tok == "random") {
    return true;
  }
  if (tok.size() > 1 && tok[0] == '?') {
    *pick = tok.substr(1);
    return true;
  }
  return ParseInt(tok, target) && *target >= 0;
}

bool ParseBurstCount(const std::string& tok, int* count) {
  return ParseInt(tok, count) && *count >= 1;
}

}  // namespace

std::vector<Scenario> ParseScenarios(const std::string& text,
                                     std::string* error) {
  std::vector<Scenario> scenarios;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  // Statements a scenario carries at most once.
  std::set<std::string> once;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return std::vector<Scenario>();
  };

  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string> t = Tokenize(line);
    if (t.empty()) {
      continue;
    }
    if (t[0] == "scenario") {
      if (t.size() != 2) {
        return fail("expected: scenario <name>");
      }
      scenarios.push_back(Scenario{t[1], {}, {}, {}});
      once.clear();
      continue;
    }
    if (scenarios.empty()) {
      return fail("statement before any 'scenario' header");
    }
    Scenario& s = scenarios.back();
    if ((t[0] == "workload" || t[0] == "adversary") &&
        !once.insert(t[0]).second) {
      return fail("second '" + t[0] + "' line in scenario " + s.name);
    }

    if (t[0] == "workload") {
      std::string why;
      if (!workload::ParseSpec(t, 1, &s.workload, &why)) {
        return fail(why);
      }
      continue;
    }

    if (t[0] == "adversary") {
      std::string why;
      if (!adversary::ParseSpec(t, 1, &s.adversary, &why)) {
        return fail(why);
      }
      continue;
    }

    if (t[0] == "flap") {
      // flap cable <target> period <time> from <time> until <time>
      Action a;
      a.kind = Action::Kind::kFlapCable;
      if (t.size() != 9 || t[1] != "cable" || t[3] != "period" ||
          t[5] != "from" || t[7] != "until" ||
          !ParseTarget(t[2], &a.target, &a.pick) ||
          !ParseTick(t[4], &a.period) || !ParseTick(t[6], &a.at) ||
          !ParseTick(t[8], &a.until)) {
        return fail(
            "expected: flap cable <target> period <t> from <t> until <t>");
      }
      if (a.period <= 0) {
        return fail("flap period must be positive");
      }
      s.actions.push_back(a);
      continue;
    }

    if (t[0] != "at" || t.size() < 3) {
      return fail("expected: at <time> <action> ...");
    }
    Action a;
    if (!ParseTick(t[1], &a.at)) {
      return fail("bad time literal '" + t[1] + "'");
    }
    const std::string& verb = t[2];

    if ((verb == "cut" || verb == "restore") && t.size() >= 4 &&
        t[3] == "cable") {
      a.kind = verb == "cut" ? Action::Kind::kCutCable
                             : Action::Kind::kRestoreCable;
      if (t.size() != 5 || !ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("expected: at <time> " + verb + " cable <target>");
      }
    } else if ((verb == "crash" || verb == "restart") && t.size() == 5 &&
               t[3] == "switch") {
      a.kind = verb == "crash" ? Action::Kind::kCrashSwitch
                               : Action::Kind::kRestartSwitch;
      if (!ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("bad switch target '" + t[4] + "'");
      }
    } else if ((verb == "cut" || verb == "restore") && t.size() == 6 &&
               t[3] == "hostlink") {
      a.kind = verb == "cut" ? Action::Kind::kCutHostLink
                             : Action::Kind::kRestoreHostLink;
      if (!ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("bad host target '" + t[4] + "'");
      }
      if (t[5] == "primary") {
        a.which = 0;
      } else if (t[5] == "alternate") {
        a.which = 1;
      } else {
        return fail("expected 'primary' or 'alternate'");
      }
    } else if (verb == "corrupt" && t.size() == 7 && t[3] == "cable" &&
               t[5] == "rate") {
      a.kind = Action::Kind::kCorruptCable;
      if (!ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("bad cable target '" + t[4] + "'");
      }
      if (!ParseDouble(t[6], &a.rate)) {
        return fail("bad corruption rate '" + t[6] + "'");
      }
      if (a.rate < 0.0 || a.rate > 1.0) {
        return fail("corruption rate must be in [0, 1]");
      }
    } else if (verb == "reflect" && t.size() == 7 && t[3] == "cable" &&
               t[5] == "side") {
      a.kind = Action::Kind::kReflectCable;
      if (!ParseTarget(t[4], &a.target, &a.pick)) {
        return fail("bad cable target '" + t[4] + "'");
      }
      if (t[6] == "a") {
        a.which = 0;
      } else if (t[6] == "b") {
        a.which = 1;
      } else {
        return fail("expected side 'a' or 'b'");
      }
    } else if (verb == "burst" && t.size() >= 5 && t[3] == "cables") {
      a.kind = Action::Kind::kBurstCables;
      if (t.size() != 7 || t[5] != "until" || !ParseTick(t[6], &a.until)) {
        return fail("expected: at <time> burst cables <count> until <time>");
      }
      if (!ParseBurstCount(t[4], &a.count)) {
        return fail("bad burst count '" + t[4] + "' (>= 1)");
      }
    } else if (verb == "burst" && t.size() >= 5 && t[3] == "switches") {
      a.kind = Action::Kind::kBurstSwitches;
      a.until = -1;  // never restart by default
      if (t.size() == 7 && t[5] == "until") {
        if (!ParseTick(t[6], &a.until)) {
          return fail("bad time literal '" + t[6] + "'");
        }
      } else if (t.size() != 5) {
        return fail(
            "expected: at <time> burst switches <count> [until <time>]");
      }
      if (!ParseBurstCount(t[4], &a.count)) {
        return fail("bad burst count '" + t[4] + "' (>= 1)");
      }
    } else {
      return fail("unrecognized action '" + verb + "'");
    }
    s.actions.push_back(a);
  }
  if (error != nullptr) {
    error->clear();
  }
  return scenarios;
}

}  // namespace chaos
}  // namespace autonet

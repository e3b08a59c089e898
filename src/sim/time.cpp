#include "sim/time.hpp"

#include <array>
#include <cstdio>

namespace emc::sim {

std::string format_time(Time t) {
  struct Unit {
    Time scale;
    const char* suffix;
  };
  static constexpr std::array<Unit, 6> units{{{kSecond, "s"},
                                              {kMillisecond, "ms"},
                                              {kMicrosecond, "us"},
                                              {kNanosecond, "ns"},
                                              {kPicosecond, "ps"},
                                              {kFemtosecond, "fs"}}};
  for (const auto& u : units) {
    if (t >= u.scale) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.3f %s",
                    static_cast<double>(t) / static_cast<double>(u.scale),
                    u.suffix);
      return buf;
    }
  }
  return "0 fs";
}

}  // namespace emc::sim

// Zero-cost observability hook.
//
// Instrumented components hold an obs::Hook by value (two raw pointers)
// and wrap every instrumentation statement in PP_OBS(...).  Two layers of
// "off":
//
//  * Runtime: a default-constructed Hook points nowhere; call sites guard
//    on cached handles, so the disabled cost is one predictable branch.
//  * Compile time: building with -DPP_OBS_DISABLED turns PP_OBS(...) into
//    nothing and Hook into an empty type, removing even the branch.  The
//    two Hook variants live in distinct inline namespaces so object files
//    compiled in different modes never violate the ODR.
//
// bench/micro_obs_overhead.cpp measures all three states against the proxy
// burst hot loop.
#pragma once

#include <cstdint>

#if defined(PP_OBS_DISABLED)
#define PP_OBS_ENABLED 0
#else
#define PP_OBS_ENABLED 1
#endif

namespace pp::obs {

class MetricsRegistry;
class Timeline;
class Counter;
class TimeWeightedGauge;
class Histogram;

#if PP_OBS_ENABLED

inline namespace obs_on {

class Hook {
 public:
  constexpr Hook() = default;
  constexpr Hook(MetricsRegistry* metrics, Timeline* timeline)
      : metrics_{metrics}, timeline_{timeline} {}

  constexpr explicit operator bool() const {
    return metrics_ != nullptr || timeline_ != nullptr;
  }
  constexpr MetricsRegistry* metrics() const { return metrics_; }
  constexpr Timeline* timeline() const { return timeline_; }

 private:
  MetricsRegistry* metrics_ = nullptr;
  Timeline* timeline_ = nullptr;
};

}  // namespace obs_on

#define PP_OBS(...) \
  do {              \
    __VA_ARGS__;    \
  } while (0)

#else  // PP_OBS_ENABLED

inline namespace obs_off {

class Hook {
 public:
  constexpr Hook() = default;
  constexpr Hook(MetricsRegistry*, Timeline*) {}

  constexpr explicit operator bool() const { return false; }
  constexpr MetricsRegistry* metrics() const { return nullptr; }
  constexpr Timeline* timeline() const { return nullptr; }
};

}  // namespace obs_off

#define PP_OBS(...) \
  do {              \
  } while (0)

#endif  // PP_OBS_ENABLED

}  // namespace pp::obs

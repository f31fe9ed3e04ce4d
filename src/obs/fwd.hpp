// Forward declarations for headers that name observability types only by
// pointer or reference (set_obs, publish).  Include obs/observer.hpp where
// the members are used.
#pragma once

namespace pp::obs {

class MetricsRegistry;
class Timeline;
class Counter;
class TimeWeightedGauge;
class Histogram;
struct Observer;

}  // namespace pp::obs

// Observer: the registry + timeline pair a testbed hands to every
// instrumented component.  A component holds the Observer* it reports to;
// null means detached, so every instrumentation site costs one predictable
// branch when nothing is attached.  Held by shared_ptr so results can
// outlive the topology that produced them (ScenarioResult keeps the
// observer after the Testbed is torn down).
#pragma once

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace pp::obs {

struct Observer {
  MetricsRegistry metrics;
  Timeline timeline;
};

}  // namespace pp::obs

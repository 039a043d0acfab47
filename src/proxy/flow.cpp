#include "proxy/flow.h"

namespace panoptes::proxy {

std::string_view TrafficOriginName(TrafficOrigin origin) {
  switch (origin) {
    case TrafficOrigin::kUnknown: return "unknown";
    case TrafficOrigin::kEngine: return "engine";
    case TrafficOrigin::kNative: return "native";
  }
  return "?";
}

}  // namespace panoptes::proxy

// Positive fixture for dynamic-cast: two casts in src/.  A dynamic_cast
// named in a comment or a "dynamic_cast" string does not count.
#include <memory>
struct Message {
  virtual ~Message() = default;
};
struct Beacon : Message {
  int seq = 0;
};
int on_message(const std::shared_ptr<const Message>& m) {
  const char* why = "dynamic_cast";
  (void)why;
  if (const auto* b = dynamic_cast<const Beacon*>(m.get())) return b->seq;
  if (auto b = std::dynamic_pointer_cast<const Beacon>(m)) return b->seq;
  return 0;
}

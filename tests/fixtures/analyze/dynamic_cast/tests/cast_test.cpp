// Negative fixture for dynamic-cast: tests may recover a type at run time.
struct Base {
  virtual ~Base() = default;
};
struct Derived : Base {};
bool is_derived(const Base& b) {
  return dynamic_cast<const Derived*>(&b) != nullptr;
}

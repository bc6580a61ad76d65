// LINT-PATH: src/lintfix/bad_downcast.cc
// Fixture: downcasts must be flagged under src/ — callers program against
// the interface they hold.
#include "lintfix/bad_downcast.h"

namespace mube {

struct Shape {
  virtual ~Shape() = default;
  virtual double Area() const = 0;
};

struct Square : Shape {
  double side = 1.0;
  double Area() const override { return side * side; }
};

double Side(const Shape& shape) {
  const auto* square = dynamic_cast<const Square*>(&shape);  // LINT-EXPECT: downcast
  return square != nullptr ? square->side : 0.0;
}

double SideRef(Shape& shape) {
  return dynamic_cast<Square&>(shape).side;  // LINT-EXPECT: downcast
}

// A mention of dynamic_cast<Square*> in a comment must NOT be flagged.
double Area(const Shape& shape) { return shape.Area(); }

}  // namespace mube

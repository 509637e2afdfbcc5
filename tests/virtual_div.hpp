// Scalar reference for the DIV kernel tests: a Process that forwards every
// call to a DivProcess.  run() sends a DivProcess itself through the
// one-lane batch kernel; this wrapper is not a DivProcess, so run() steps
// it through the virtual Process loop, one step() call at a time.  That
// loop is the oracle the kernel's bit-identity suites compare against.
#pragma once

#include <string>

#include "core/div_process.hpp"
#include "core/process.hpp"

namespace divlib {

class VirtualDiv final : public Process {
 public:
  VirtualDiv(const Graph& graph, SelectionScheme scheme)
      : inner_(graph, scheme) {}

  void begin_run(const OpinionState& state) override {
    inner_.begin_run(state);
  }
  void step(OpinionState& state, Rng& rng) override { inner_.step(state, rng); }
  std::string name() const override { return inner_.name(); }

 private:
  DivProcess inner_;
};

}  // namespace divlib

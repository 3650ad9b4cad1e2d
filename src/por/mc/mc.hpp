// por/mc/mc.hpp — umbrella header for the por::mc model checker.
// por-lint: allow(orphan-header) the model checker is a build-time tool,
// built only under POR_MC for tests/mc; no workload links it.
//
// Pulls in the whole checker surface (DESIGN.md §13):
//   fiber.hpp    — cooperative virtual-thread contexts
//   model.hpp    — the operational weak-memory model (Execution)
//   atomic.hpp   — mc::atomic<T>, the instrumented std::atomic
//   checker.hpp  — Env / Options / Result / explore()
//
// Test code includes this one header and instantiates production
// templates with por::mc::atomic through their POR_MC hook.
#pragma once

#include "por/mc/atomic.hpp"
#include "por/mc/checker.hpp"
#include "por/mc/fiber.hpp"
#include "por/mc/model.hpp"

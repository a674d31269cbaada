#pragma once

#include <vector>

#include "core/session.h"

namespace choreo::core {

/// The pre-runtime single-tenant session loop, kept verbatim (modulo the typed
/// SessionEvent payloads) as the differential oracle for the discrete-event
/// SessionRuntime — the same role ExhaustiveGreedyPlacer plays for the
/// placement engine. test_runtime_differential pins SessionRuntime over a
/// VectorArrivalStream bit-identical (events, outcomes, accounting) to this loop on a
/// randomized single-tenant corpus. Do not "improve" this function; fix the
/// runtime instead.
SessionLog run_session_reference(const cloud::Cloud& cloud,
                                 const std::vector<cloud::VmId>& vms,
                                 const ControllerConfig& config,
                                 const std::vector<place::Application>& apps);

}  // namespace choreo::core

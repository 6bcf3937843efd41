// Fixture generation: the 1M-core synthetic catalog written as a snapshot,
// the durable data directory with seeded session journals, and the expected
// output of every scripted command, computed in-process with a
// dsl::ShellEngine over a layer booted from that same snapshot.
#pragma once

#include <cstddef>
#include <string>

namespace e2e {

/// Builds the fixture under `dir`: catalog.snap, data/ (catalog.snap plus
/// sessions/), expected.tsv and fixture.txt. Returns 0 on success.
int make_fixture(const std::string& dir, std::size_t cores);

}  // namespace e2e

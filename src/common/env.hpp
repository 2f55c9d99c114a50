// Lenient environment readers for test knobs and NVC_FULL=1 (run
// paper-scale problem sizes; defaults are scaled down). Runtime knobs go
// through RuntimeConfig::from_env and bench-scale knobs (NVC_THREADS,
// NVC_SEED, …) through bench::bench_knob, which both refuse bad values.
#pragma once

#include <cstdint>
#include <string>

namespace nvc {

/// Read an integer environment variable, or `fallback` if unset/invalid.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Read a string environment variable, or `fallback` if unset.
std::string env_str(const char* name, const std::string& fallback);

/// True when NVC_FULL is set to a nonzero value: run paper-scale inputs.
bool full_scale();

/// Scale a problem size: full-scale value when NVC_FULL=1, else the default.
std::int64_t scaled(std::int64_t quick, std::int64_t full);

}  // namespace nvc

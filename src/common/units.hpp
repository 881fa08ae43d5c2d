// Typed byte and time units used throughout the library.
//
// Sizes are plain 64-bit byte counts (the paper works in MB-sized chunks, so
// overflow is not a concern below exabytes). Virtual time is a double in
// seconds, matching the flow-level simulator's continuous clock.
#pragma once

#include <cstdint>
#include <string>

namespace opass {

/// Data size in bytes.
using Bytes = std::uint64_t;

/// Virtual (simulated) time or duration in seconds.
using Seconds = double;

/// Transfer or service rate in bytes per second.
using BytesPerSec = double;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// The HDFS default chunk (block) size used across the paper: 64 MB.
inline constexpr Bytes kDefaultChunkSize = 64 * kMiB;

/// Convert bytes to (fractional) MiB, for reporting.
constexpr double to_mib(Bytes b) { return static_cast<double>(b) / static_cast<double>(kMiB); }

/// Convert bytes to (fractional) GiB, for reporting.
constexpr double to_gib(Bytes b) { return static_cast<double>(b) / static_cast<double>(kGiB); }

/// Human-readable size, e.g. "64.0 MiB", "1.5 GiB".
std::string format_bytes(Bytes b);

}  // namespace opass

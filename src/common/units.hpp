#pragma once

#include <cstdint>

/// \file units.hpp
/// Unit conventions and conversion helpers.
///
/// GreenNFV internally uses:
///   * time          — seconds (double) for model math, nanoseconds (int64)
///                     for the virtual clock
///   * data rate     — bits per second (double); helpers take Gbps
///   * packet rate   — packets per second (double)
///   * energy        — joules (double)
///   * power         — watts (double)
///   * frequency     — hertz (double); helpers take GHz
///   * memory        — bytes (std::uint64_t); helpers expose MiB
///
/// Keeping everything in SI base units and converting only at API edges
/// avoids the classic Gbps-vs-GBps / MB-vs-MiB mistakes.

namespace greennfv::units {

inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kGiga = 1e9;

inline constexpr std::uint64_t kKiB = 1024ull;
inline constexpr std::uint64_t kMiB = 1024ull * 1024ull;
inline constexpr std::uint64_t kGiB = 1024ull * 1024ull * 1024ull;

/// Converts gigabits per second to bits per second.
[[nodiscard]] constexpr double gbps_to_bps(double gbps) { return gbps * kGiga; }

/// Converts GHz to Hz.
[[nodiscard]] constexpr double ghz_to_hz(double ghz) { return ghz * kGiga; }

/// Converts mebibytes to bytes.
[[nodiscard]] constexpr std::uint64_t mib_to_bytes(double mib) {
  return static_cast<std::uint64_t>(mib * static_cast<double>(kMiB));
}

/// Converts bytes to mebibytes.
[[nodiscard]] constexpr double bytes_to_mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kMiB);
}

/// Bits on the wire for one Ethernet frame of `payload_bytes` (adds the
/// 20-byte inter-frame gap + preamble that MoonGen accounts for at line rate).
[[nodiscard]] constexpr double wire_bits_per_frame(std::uint32_t frame_bytes) {
  constexpr std::uint32_t kEthOverheadBytes = 20;  // preamble(8) + IFG(12)
  return static_cast<double>(frame_bytes + kEthOverheadBytes) * 8.0;
}

/// Throughput in Gbps for `pps` packets per second of `frame_bytes` frames
/// (payload bits only, matching how the paper reports Gbps).
[[nodiscard]] constexpr double pps_to_gbps(double pps,
                                           std::uint32_t frame_bytes) {
  return pps * static_cast<double>(frame_bytes) * 8.0 / kGiga;
}

/// Inverse of pps_to_gbps.
[[nodiscard]] constexpr double gbps_to_pps(double gbps,
                                           std::uint32_t frame_bytes) {
  return gbps * kGiga / (static_cast<double>(frame_bytes) * 8.0);
}

}  // namespace greennfv::units

// Runtime-dispatched word-array kernels — the one home for every word loop.
//
// All set algebra in this codebase (hypercontext unions, changeover deltas,
// sparse-table row builds, streaming appends) bottoms out in loops over
// arrays of 64-bit words.  This header centralises those loops behind a
// function-pointer table selected ONCE per process from the CPU's feature
// bits: a portable scalar flavour, an AVX2 flavour, and an AVX-512 flavour
// (F+BW+VPOPCNTDQ).  Consumers call the free inline wrappers below, never a
// table directly, so every call site gets two things for free:
//
//   * a small-universe fast path: for n <= kInlineWords the wrapper runs a
//     fully inlined scalar loop (most workload families live at universe
//     <= 64, i.e. n == 1, where an indirect call would cost more than the
//     op itself);
//   * one dispatch decision for larger arrays, made at first use via cpuid
//     and overridable with the HYPERREC_FORCE_SCALAR environment variable
//     (any non-empty value other than "0") for differential testing.
//
// All flavours are bit-identical by contract — tests/support/
// test_bitset_kernels.cpp proves it per kernel across tail-word seams —
// so forcing scalar can never change solver output, only speed.
//
// Aliasing: the combining kernels tolerate dst == a and/or dst == b
// (every flavour loads both inputs before storing); distinct-but-
// overlapping ranges are not supported.
//
// tools/lint.py (rule `word-kernel`) bans raw __builtin_popcount*/
// std::popcount outside this layer so hot-loop word algebra cannot quietly
// fork from the dispatched kernels again.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace hyperrec::kernels {

using Word = std::uint64_t;

/// One ISA flavour's kernels.  `n` is always a count of 64-bit words; all
/// pointers must be valid for `n` words (no alignment requirement).
struct KernelTable {
  const char* name;  ///< "scalar", "avx2", "avx512"

  /// dst[i] = a[i] | b[i]
  void (*or_words)(Word* dst, const Word* a, const Word* b, std::size_t n);
  /// dst[i] = a[i] & b[i]
  void (*and_words)(Word* dst, const Word* a, const Word* b, std::size_t n);
  /// dst[i] = a[i] & ~b[i]
  void (*andnot_words)(Word* dst, const Word* a, const Word* b, std::size_t n);
  /// dst[i] = a[i] ^ b[i]
  void (*xor_words)(Word* dst, const Word* a, const Word* b, std::size_t n);

  /// Σ popcount(a[i])
  std::size_t (*popcount)(const Word* a, std::size_t n);
  /// Σ popcount(a[i] | b[i]) — |A ∪ B| without materialising the union.
  std::size_t (*or_popcount)(const Word* a, const Word* b, std::size_t n);
  /// Σ popcount(a[i] | b[i] | c[i]) — the fused greedy window score.
  std::size_t (*or3_popcount)(const Word* a, const Word* b, const Word* c,
                              std::size_t n);
  /// Σ popcount(a[i] ^ b[i]) — |A Δ B|, the §4.1 changeover cost.
  std::size_t (*xor_popcount)(const Word* a, const Word* b, std::size_t n);
  /// Σ popcount(a[i] & ~b[i]) — |A \ B|.
  std::size_t (*andnot_popcount)(const Word* a, const Word* b, std::size_t n);

  /// (a[i] & ~b[i]) == 0 for all i — A ⊆ B.
  bool (*subset)(const Word* a, const Word* b, std::size_t n);
  /// (a[i] & b[i]) != 0 for some i.
  bool (*intersects)(const Word* a, const Word* b, std::size_t n);

  /// dst[i] |= src[i]; returns Σ popcount(src[i] & ~old dst[i]) — the
  /// "newly added bits" count interval DPs maintain incrementally.
  std::size_t (*or_merge_count)(Word* dst, const Word* src, std::size_t n);
};

/// The portable scalar flavour — always available, the differential oracle.
[[nodiscard]] const KernelTable& scalar_table() noexcept;

/// Best SIMD flavour compiled in AND supported by this CPU, or nullptr when
/// the build/host has none.  Ignores HYPERREC_FORCE_SCALAR — differential
/// tests use this to pit scalar against SIMD inside one process.
[[nodiscard]] const KernelTable* simd_table() noexcept;

/// The dispatched flavour: scalar when HYPERREC_FORCE_SCALAR is set (to a
/// non-empty value other than "0") at first use, else the best SIMD
/// flavour, else scalar.  Selected once; stable for the process lifetime.
[[nodiscard]] const KernelTable& active_table() noexcept;

/// Name of the dispatched flavour ("scalar"/"avx2"/"avx512") for /statz,
/// bench labels and logs.
[[nodiscard]] const char* active_isa() noexcept;

/// True when the HYPERREC_FORCE_SCALAR override pinned dispatch to scalar.
[[nodiscard]] bool force_scalar_requested() noexcept;

/// True when the dispatched flavour is a SIMD one — every such CPU has a
/// hardware popcount.  A hot loop built on the inline wrappers below can
/// keep a second copy compiled with HYPERREC_TARGET_POPCNT and call it when
/// this holds: the wrappers' single-word path then inlines to one popcnt
/// instruction instead of a library call.  Forcing scalar selects the
/// portable copy, so the scalar test leg still covers it.
[[nodiscard]] bool hardware_popcount() noexcept;

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HYPERREC_TARGET_POPCNT __attribute__((target("popcnt")))
#else
#define HYPERREC_TARGET_POPCNT
#endif

// --- inline wrappers: the only calling convention consumers use -----------

/// Word counts at or below this run the inlined scalar path (bit-identical
/// to scalar_table()); larger arrays take one indirect call into the
/// dispatched table.  2 words = universe 128, past which SIMD starts to pay
/// for the call.
inline constexpr std::size_t kInlineWords = 2;

/// Single-word popcount — the kernel layer's spelling for one-off word
/// counts (SHyRA config deltas, decoders) so the lint rule has no
/// exceptions list.
[[nodiscard]] inline std::size_t popcount_word(Word w) noexcept {
  return static_cast<std::size_t>(std::popcount(w));
}

inline void or_words(Word* dst, const Word* a, const Word* b, std::size_t n) {
  if (n <= kInlineWords) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
    return;
  }
  active_table().or_words(dst, a, b, n);
}

inline void and_words(Word* dst, const Word* a, const Word* b, std::size_t n) {
  if (n <= kInlineWords) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
    return;
  }
  active_table().and_words(dst, a, b, n);
}

inline void andnot_words(Word* dst, const Word* a, const Word* b,
                         std::size_t n) {
  if (n <= kInlineWords) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
    return;
  }
  active_table().andnot_words(dst, a, b, n);
}

inline void xor_words(Word* dst, const Word* a, const Word* b, std::size_t n) {
  if (n <= kInlineWords) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] ^ b[i];
    return;
  }
  active_table().xor_words(dst, a, b, n);
}

[[nodiscard]] inline std::size_t popcount(const Word* a, std::size_t n) {
  if (n <= kInlineWords) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i]);
    return total;
  }
  return active_table().popcount(a, n);
}

[[nodiscard]] inline std::size_t or_popcount(const Word* a, const Word* b,
                                             std::size_t n) {
  if (n <= kInlineWords) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i] | b[i]);
    return total;
  }
  return active_table().or_popcount(a, b, n);
}

[[nodiscard]] inline std::size_t or3_popcount(const Word* a, const Word* b,
                                              const Word* c, std::size_t n) {
  if (n <= kInlineWords) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += popcount_word(a[i] | b[i] | c[i]);
    }
    return total;
  }
  return active_table().or3_popcount(a, b, c, n);
}

[[nodiscard]] inline std::size_t xor_popcount(const Word* a, const Word* b,
                                              std::size_t n) {
  if (n <= kInlineWords) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i] ^ b[i]);
    return total;
  }
  return active_table().xor_popcount(a, b, n);
}

[[nodiscard]] inline std::size_t andnot_popcount(const Word* a, const Word* b,
                                                 std::size_t n) {
  if (n <= kInlineWords) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i] & ~b[i]);
    return total;
  }
  return active_table().andnot_popcount(a, b, n);
}

[[nodiscard]] inline bool subset(const Word* a, const Word* b, std::size_t n) {
  if (n <= kInlineWords) {
    for (std::size_t i = 0; i < n; ++i) {
      if ((a[i] & ~b[i]) != 0) return false;
    }
    return true;
  }
  return active_table().subset(a, b, n);
}

[[nodiscard]] inline bool intersects(const Word* a, const Word* b,
                                     std::size_t n) {
  if (n <= kInlineWords) {
    for (std::size_t i = 0; i < n; ++i) {
      if ((a[i] & b[i]) != 0) return true;
    }
    return false;
  }
  return active_table().intersects(a, b, n);
}

inline std::size_t or_merge_count(Word* dst, const Word* src, std::size_t n) {
  if (n <= kInlineWords) {
    std::size_t added = 0;
    for (std::size_t i = 0; i < n; ++i) {
      added += popcount_word(src[i] & ~dst[i]);
      dst[i] |= src[i];
    }
    return added;
  }
  return active_table().or_merge_count(dst, src, n);
}

}  // namespace hyperrec::kernels

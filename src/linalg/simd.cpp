#include "linalg/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

// Compiled with -ffp-contract=off (see src/CMakeLists.txt): fused
// multiply-adds would let one dispatch level contract a*b+c where another
// does not, breaking the bit-identity contract between levels.
//
// Codegen rule: never build a vector lane by lane inside a hot loop.  Splat
// a scalar with GCC's vector-scalar operators (`xv - cen[j]`) and step index
// vectors with `+= 1`.  gcc 12 at -O2 folds a lane-by-lane splat
// into one broadcast, but -O3 (Release) turned each one into 8 masked
// vbroadcastsd inside the innermost loop and made the k-means kernels ~3x
// slower.  Vector-scalar forms give the same loop at both levels.

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define JAAL_SIMD_X86 1
#endif

namespace jaal::linalg::simd {
namespace {

#ifdef JAAL_SIMD_X86
typedef double v4d __attribute__((vector_size(32)));
typedef double v8d __attribute__((vector_size(64)));
typedef double v16d __attribute__((vector_size(128)));
typedef float v8f __attribute__((vector_size(32)));
typedef float v16f __attribute__((vector_size(64)));
#endif

// ---------------------------------------------------------------------------
// nearest_centroids: lanes are points (float SoA batch), reduction over
// fields is serial per lane, so every level is bit-identical to the scalar
// scan.  The runner-up is a pure selection among the same sums: a closer
// centroid demotes the old best to second, otherwise a smaller sum replaces
// second.

[[gnu::always_inline]] inline float sq_dist_lane(const float* x,
                                                 std::size_t stride,
                                                 std::size_t d, const float* c,
                                                 std::size_t i) noexcept {
  float acc = 0.0f;
  for (std::size_t j = 0; j < d; ++j) {
    const float diff = x[j * stride + i] - c[j];
    acc += diff * diff;
  }
  return acc;
}

[[gnu::always_inline]] inline void nearest_one(
    const float* x, std::size_t stride, std::size_t d, const float* centroids,
    std::size_t k, std::size_t i, std::uint32_t* assignment, float* best_dist,
    float* second_dist) noexcept {
  float best = std::numeric_limits<float>::max();
  float second = best;
  std::uint32_t best_c = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const float acc = sq_dist_lane(x, stride, d, centroids + c * d, i);
    if (acc < best) {
      second = best;
      best = acc;
      best_c = static_cast<std::uint32_t>(c);
    } else if (acc < second) {
      second = acc;
    }
  }
  assignment[i] = best_c;
  best_dist[i] = best;
  second_dist[i] = second;
}

void nearest_centroids_scalar(const float* x, std::size_t stride,
                              std::size_t d, const float* centroids,
                              std::size_t k, std::size_t begin,
                              std::size_t end, std::uint32_t* assignment,
                              float* best_dist, float* second_dist) noexcept {
  for (std::size_t i = begin; i < end; ++i) {
    nearest_one(x, stride, d, centroids, k, i, assignment, best_dist,
                second_dist);
  }
}

#ifdef JAAL_SIMD_X86
template <class VF>
[[gnu::always_inline]] inline void nearest_centroids_impl(
    const float* x, std::size_t stride, std::size_t d, const float* centroids,
    std::size_t k, std::size_t begin, std::size_t end,
    std::uint32_t* assignment, float* best_dist, float* second_dist) noexcept {
  constexpr std::size_t kW = sizeof(VF) / sizeof(float);
  using VI = decltype(std::declval<VF>() < std::declval<VF>());
  std::size_t i = begin;
  for (; i + kW <= end; i += kW) {
    VF best = VF{} + std::numeric_limits<float>::max();
    VF second = best;
    VI best_c = {};
    VI ci = {};
    for (std::size_t c = 0; c < k; ++c, ci += 1) {
      const float* cen = centroids + c * d;
      VF acc = {};
      for (std::size_t j = 0; j < d; ++j) {
        VF xv;
        std::memcpy(&xv, x + j * stride + i, sizeof xv);
        const VF diff = xv - cen[j];
        acc += diff * diff;
      }
      const VI closer = acc < best;
      second = closer ? best : (acc < second ? acc : second);
      best = closer ? acc : best;
      best_c = closer ? ci : best_c;
    }
    std::memcpy(assignment + i, &best_c, sizeof best_c);
    std::memcpy(best_dist + i, &best, sizeof best);
    std::memcpy(second_dist + i, &second, sizeof second);
  }
  for (; i < end; ++i) {
    nearest_one(x, stride, d, centroids, k, i, assignment, best_dist,
                second_dist);
  }
}

__attribute__((target("avx2"))) void nearest_centroids_avx2(
    const float* x, std::size_t stride, std::size_t d, const float* centroids,
    std::size_t k, std::size_t begin, std::size_t end,
    std::uint32_t* assignment, float* best_dist, float* second_dist) noexcept {
  nearest_centroids_impl<v8f>(x, stride, d, centroids, k, begin, end,
                              assignment, best_dist, second_dist);
}

__attribute__((target("avx512f"))) void nearest_centroids_avx512(
    const float* x, std::size_t stride, std::size_t d, const float* centroids,
    std::size_t k, std::size_t begin, std::size_t end,
    std::uint32_t* assignment, float* best_dist, float* second_dist) noexcept {
  nearest_centroids_impl<v16f>(x, stride, d, centroids, k, begin, end,
                               assignment, best_dist, second_dist);
}
#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// seed_update: lanes are points; each lane is one nearest_centroids lane
// against a single centre, folded into (d2, nearest, second) with the same
// select as nearest_centroids.  The test is a strict less-than, so the
// earliest centre keeps a tie (the first-index-wins scan keeps its first
// centroid).  The scalar lane is written as selects, not an if/else chain:
// early seeds move d2 often, and the branches cost the forced-scalar path
// ~30 %.
//
// The total is 16 canonical double lanes, lane l = i % 16 in ascending i,
// folded by canonical_total().  A vector level keeps 16 / W accumulators of
// W double lanes, and the step at point i widens its d2 into the one that
// holds lanes i % 16 to i % 16 + W - 1; the points past the last whole
// vector go to lane[i % 16] one by one, as in the scalar loop.  Each lane's adds are
// the same in every level, so the totals are bit-identical.

constexpr std::size_t kTotalLanes = 16;

double canonical_total(double* lane) noexcept {
  for (std::size_t w = kTotalLanes / 2; w > 0; w /= 2) {
    for (std::size_t l = 0; l < w; ++l) lane[l] += lane[l + w];
  }
  return lane[0];
}

[[gnu::always_inline]] inline void seed_one(
    const float* x, std::size_t stride, std::size_t d, const float* c,
    std::uint32_t c_index, std::size_t i, float* d2, std::uint32_t* nearest,
    float* second) noexcept {
  const float acc = sq_dist_lane(x, stride, d, c, i);
  const float cur = d2[i];
  const float sec = second[i];
  const bool closer = acc < cur;
  second[i] = closer ? cur : (acc < sec ? acc : sec);
  d2[i] = closer ? acc : cur;
  nearest[i] = closer ? c_index : nearest[i];
}

double seed_update_scalar(const float* x, std::size_t stride, std::size_t d,
                          const float* c, std::uint32_t c_index,
                          std::size_t n, float* d2, std::uint32_t* nearest,
                          float* second) noexcept {
  double lane[kTotalLanes] = {};
  for (std::size_t i = 0; i < n; ++i) {
    seed_one(x, stride, d, c, c_index, i, d2, nearest, second);
    lane[i % kTotalLanes] += d2[i];
  }
  return canonical_total(lane);
}

#ifdef JAAL_SIMD_X86
/// Updates points [i, i + W) of one vector step and adds their new d2,
/// widened to double, into `total`'s lanes.
template <class VF, class VD>
[[gnu::always_inline]] inline void seed_step(
    const float* x, std::size_t stride, std::size_t d, const float* c,
    std::uint32_t c_index, std::size_t i, float* d2, std::uint32_t* nearest,
    float* second, VD& total) noexcept {
  using VI = decltype(std::declval<VF>() < std::declval<VF>());
  VF acc = {};
  for (std::size_t j = 0; j < d; ++j) {
    VF xv;
    std::memcpy(&xv, x + j * stride + i, sizeof xv);
    const VF diff = xv - c[j];
    acc += diff * diff;
  }
  VF cur, sec;
  VI near;
  std::memcpy(&cur, d2 + i, sizeof cur);
  std::memcpy(&sec, second + i, sizeof sec);
  std::memcpy(&near, nearest + i, sizeof near);
  const VI closer = acc < cur;
  sec = closer ? cur : (acc < sec ? acc : sec);
  cur = closer ? acc : cur;
  near = closer ? VI{} + static_cast<int>(c_index) : near;
  std::memcpy(d2 + i, &cur, sizeof cur);
  std::memcpy(second + i, &sec, sizeof sec);
  std::memcpy(nearest + i, &near, sizeof near);
  total += __builtin_convertvector(cur, VD);
}

/// VF: the float lanes of one step; VD: as many double lanes.
template <class VF, class VD>
[[gnu::always_inline]] inline double seed_update_impl(
    const float* x, std::size_t stride, std::size_t d, const float* c,
    std::uint32_t c_index, std::size_t n, float* d2, std::uint32_t* nearest,
    float* second) noexcept {
  constexpr std::size_t kW = sizeof(VF) / sizeof(float);
  constexpr std::size_t kAcc = kTotalLanes / kW;
  static_assert(kAcc * kW == kTotalLanes && sizeof(VD) == kW * sizeof(double));
  VD total[kAcc] = {};
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    seed_step<VF>(x, stride, d, c, c_index, i, d2, nearest, second,
                  total[(i / kW) % kAcc]);
  }
  double lane[kTotalLanes];
  std::memcpy(lane, total, sizeof lane);
  for (; i < n; ++i) {
    seed_one(x, stride, d, c, c_index, i, d2, nearest, second);
    lane[i % kTotalLanes] += d2[i];
  }
  return canonical_total(lane);
}

__attribute__((target("avx2"))) double seed_update_avx2(
    const float* x, std::size_t stride, std::size_t d, const float* c,
    std::uint32_t c_index, std::size_t n, float* d2, std::uint32_t* nearest,
    float* second) noexcept {
  return seed_update_impl<v8f, v8d>(x, stride, d, c, c_index, n, d2, nearest,
                                    second);
}

__attribute__((target("avx512f"))) double seed_update_avx512(
    const float* x, std::size_t stride, std::size_t d, const float* c,
    std::uint32_t c_index, std::size_t n, float* d2, std::uint32_t* nearest,
    float* second) noexcept {
  return seed_update_impl<v16f, v16d>(x, stride, d, c, c_index, n, d2,
                                      nearest, second);
}
#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// Reductions: canonical 4-accumulator order at EVERY level.  Virtual lane
// l accumulates elements i with i % 4 == l in ascending i; the final
// combine is (l0 + l1) + (l2 + l3).  The scalar body below IS the
// specification; the AVX2 body reproduces it with one vector accumulator.
// There is deliberately no 8-wide reduction: folding 8 lanes into 4 would
// regroup the partial sums and break bit-identity with this order.

double dot_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] += a[i] * b[i];
    lane[1] += a[i + 1] * b[i + 1];
    lane[2] += a[i + 2] * b[i + 2];
    lane[3] += a[i + 3] * b[i + 3];
  }
  for (std::size_t t = 0; i + t < n; ++t) lane[t] += a[i + t] * b[i + t];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

#ifdef JAAL_SIMD_X86
__attribute__((target("avx2"))) double dot_avx2(const double* a,
                                                const double* b,
                                                std::size_t n) noexcept {
  v4d acc = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4d av, bv;
    std::memcpy(&av, a + i, sizeof av);
    std::memcpy(&bv, b + i, sizeof bv);
    acc += av * bv;
  }
  double lane[4] = {acc[0], acc[1], acc[2], acc[3]};
  for (std::size_t t = 0; i + t < n; ++t) lane[t] += a[i + t] * b[i + t];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch state.

Level detect_cpu() noexcept {
#ifdef JAAL_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level clamp(Level level) noexcept {
  return level <= detected() ? level : detected();
}

Level env_level(Level best) noexcept {
  const char* env = std::getenv("JAAL_SIMD");
  if (env == nullptr) return best;
  const std::string_view v(env);
  if (v == "scalar" || v == "off" || v == "0") return Level::kScalar;
  if (v == "avx2") return clamp(Level::kAvx2);
  if (v == "avx512") return clamp(Level::kAvx512);
  return best;  // unknown value: keep the detected level
}

std::atomic<Level>& active_state() noexcept {
  static std::atomic<Level> state{env_level(detect_cpu())};
  return state;
}

}  // namespace

Level detected() noexcept {
  static const Level level = detect_cpu();
  return level;
}

Level active() noexcept {
  return active_state().load(std::memory_order_relaxed);
}

Level force_level(Level level) noexcept {
  const Level effective = clamp(level);
  active_state().store(effective, std::memory_order_relaxed);
  return effective;
}

std::string_view level_name(Level level) noexcept {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
    case Level::kScalar:
      break;
  }
  return "scalar";
}

double dot(const double* a, const double* b, std::size_t n) noexcept {
#ifdef JAAL_SIMD_X86
  // Reductions dispatch to the 4-wide body at most (determinism contract).
  if (active() != Level::kScalar) return dot_avx2(a, b, n);
#endif
  return dot_scalar(a, b, n);
}

void nearest_centroids(const float* x, std::size_t stride, std::size_t d,
                       const float* centroids, std::size_t k,
                       std::size_t begin, std::size_t end,
                       std::uint32_t* assignment, float* best_dist,
                       float* second_dist) noexcept {
#ifdef JAAL_SIMD_X86
  switch (active()) {
    case Level::kAvx512:
      return nearest_centroids_avx512(x, stride, d, centroids, k, begin, end,
                                      assignment, best_dist, second_dist);
    case Level::kAvx2:
      return nearest_centroids_avx2(x, stride, d, centroids, k, begin, end,
                                    assignment, best_dist, second_dist);
    case Level::kScalar:
      break;
  }
#endif
  nearest_centroids_scalar(x, stride, d, centroids, k, begin, end, assignment,
                           best_dist, second_dist);
}

double seed_update(const float* x, std::size_t stride, std::size_t d,
                   const float* c, std::uint32_t c_index, std::size_t n,
                   float* d2, std::uint32_t* nearest, float* second) noexcept {
#ifdef JAAL_SIMD_X86
  switch (active()) {
    case Level::kAvx512:
      return seed_update_avx512(x, stride, d, c, c_index, n, d2, nearest,
                                second);
    case Level::kAvx2:
      return seed_update_avx2(x, stride, d, c, c_index, n, d2, nearest,
                              second);
    case Level::kScalar:
      break;
  }
#endif
  return seed_update_scalar(x, stride, d, c, c_index, n, d2, nearest, second);
}

}  // namespace jaal::linalg::simd

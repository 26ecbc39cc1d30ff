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
// a scalar with GCC's vector-scalar operators (`xv - c[j]`, `cs * av`) and
// step index vectors with `+= 1`.  gcc 12 at -O2 folds a lane-by-lane splat
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
#endif

// ---------------------------------------------------------------------------
// nearest_centroids: lanes are points (SoA batch), reduction over fields is
// serial per lane, so every level is bit-identical to the scalar scan.  The
// runner-up is a pure selection among the same sums: a closer centroid
// demotes the old best to second, otherwise a smaller sum replaces second.

[[gnu::always_inline]] inline double sq_dist_lane(const double* x,
                                                  std::size_t stride,
                                                  std::size_t d,
                                                  const double* c,
                                                  std::size_t i) noexcept {
  double acc = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double diff = x[j * stride + i] - c[j];
    acc += diff * diff;
  }
  return acc;
}

[[gnu::always_inline]] inline void nearest_one(
    const double* x, std::size_t stride, std::size_t d,
    const double* centroids, std::size_t k, std::size_t i,
    std::size_t* assignment, double* best_dist, double* second_dist) noexcept {
  double best = std::numeric_limits<double>::max();
  double second = best;
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const double acc = sq_dist_lane(x, stride, d, centroids + c * d, i);
    if (acc < best) {
      second = best;
      best = acc;
      best_c = c;
    } else if (acc < second) {
      second = acc;
    }
  }
  assignment[i] = best_c;
  best_dist[i] = best;
  second_dist[i] = second;
}

void nearest_centroids_scalar(const double* x, std::size_t stride,
                              std::size_t d, const double* centroids,
                              std::size_t k, std::size_t begin,
                              std::size_t end, std::size_t* assignment,
                              double* best_dist, double* second_dist) noexcept {
  for (std::size_t i = begin; i < end; ++i) {
    nearest_one(x, stride, d, centroids, k, i, assignment, best_dist,
                second_dist);
  }
}

#ifdef JAAL_SIMD_X86
template <class VD>
[[gnu::always_inline]] inline void nearest_centroids_impl(
    const double* x, std::size_t stride, std::size_t d,
    const double* centroids, std::size_t k, std::size_t begin,
    std::size_t end, std::size_t* assignment, double* best_dist,
    double* second_dist) noexcept {
  constexpr std::size_t kW = sizeof(VD) / sizeof(double);
  using VI = decltype(std::declval<VD>() < std::declval<VD>());
  std::size_t i = begin;
  for (; i + kW <= end; i += kW) {
    VD best = VD{} + std::numeric_limits<double>::max();
    VD second = best;
    VI best_c = {};
    VI ci = {};
    for (std::size_t c = 0; c < k; ++c, ci += 1) {
      const double* cen = centroids + c * d;
      VD acc = {};
      for (std::size_t j = 0; j < d; ++j) {
        VD xv;
        std::memcpy(&xv, x + j * stride + i, sizeof xv);
        const VD diff = xv - cen[j];
        acc += diff * diff;
      }
      const VI closer = acc < best;
      second = closer ? best : (acc < second ? acc : second);
      best = closer ? acc : best;
      best_c = closer ? ci : best_c;
    }
    for (std::size_t l = 0; l < kW; ++l) {
      assignment[i + l] = static_cast<std::size_t>(best_c[l]);
      best_dist[i + l] = best[l];
      second_dist[i + l] = second[l];
    }
  }
  for (; i < end; ++i) {
    nearest_one(x, stride, d, centroids, k, i, assignment, best_dist,
                second_dist);
  }
}

__attribute__((target("avx2"))) void nearest_centroids_avx2(
    const double* x, std::size_t stride, std::size_t d,
    const double* centroids, std::size_t k, std::size_t begin,
    std::size_t end, std::size_t* assignment, double* best_dist,
    double* second_dist) noexcept {
  nearest_centroids_impl<v4d>(x, stride, d, centroids, k, begin, end,
                              assignment, best_dist, second_dist);
}

__attribute__((target("avx512f"))) void nearest_centroids_avx512(
    const double* x, std::size_t stride, std::size_t d,
    const double* centroids, std::size_t k, std::size_t begin,
    std::size_t end, std::size_t* assignment, double* best_dist,
    double* second_dist) noexcept {
  nearest_centroids_impl<v8d>(x, stride, d, centroids, k, begin, end,
                              assignment, best_dist, second_dist);
}
#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// seed_update: lanes are points; each lane is one nearest_centroids lane
// against a single centre, folded into (d2, nearest, second) with the same
// select as nearest_centroids.  The test is a strict less-than, so the
// earliest centre keeps a tie (the std::min of the scalar seeder keeps d2[i],
// and the first-index-wins scan keeps its first centroid).  The weighted
// total is a scalar chain in point order at every level.  The scalar lane is
// written as selects, not an if/else chain: early seeds move d2 often, and
// the branches cost the forced-scalar path ~30 %.

[[gnu::always_inline]] inline void seed_one(
    const double* x, std::size_t stride, std::size_t d, const double* c,
    std::size_t c_index, std::size_t i, double* d2, std::size_t* nearest,
    double* second) noexcept {
  const double acc = sq_dist_lane(x, stride, d, c, i);
  const double cur = d2[i];
  const double sec = second[i];
  const bool closer = acc < cur;
  second[i] = closer ? cur : (acc < sec ? acc : sec);
  d2[i] = closer ? acc : cur;
  nearest[i] = closer ? c_index : nearest[i];
}

double seed_update_scalar(const double* x, std::size_t stride, std::size_t d,
                          const double* c, std::size_t c_index,
                          const double* w, std::size_t n, double* d2,
                          std::size_t* nearest, double* second) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    seed_one(x, stride, d, c, c_index, i, d2, nearest, second);
    total += d2[i] * w[i];
  }
  return total;
}

#ifdef JAAL_SIMD_X86
template <class VD>
[[gnu::always_inline]] inline double seed_update_impl(
    const double* x, std::size_t stride, std::size_t d, const double* c,
    std::size_t c_index, const double* w, std::size_t n, double* d2,
    std::size_t* nearest, double* second) noexcept {
  constexpr std::size_t kW = sizeof(VD) / sizeof(double);
  using VI = decltype(std::declval<VD>() < std::declval<VD>());
  static_assert(sizeof(std::size_t) == sizeof(long long),
                "nearest[] is loaded and stored as 64-bit index lanes");
  const VI ci = VI{} + static_cast<long long>(c_index);
  double total = 0.0;
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    VD acc = {};
    for (std::size_t j = 0; j < d; ++j) {
      VD xv;
      std::memcpy(&xv, x + j * stride + i, sizeof xv);
      const VD diff = xv - c[j];
      acc += diff * diff;
    }
    VD cur, sec, wv;
    VI near;
    std::memcpy(&cur, d2 + i, sizeof cur);
    std::memcpy(&sec, second + i, sizeof sec);
    std::memcpy(&near, nearest + i, sizeof near);
    std::memcpy(&wv, w + i, sizeof wv);
    const VI closer = acc < cur;
    sec = closer ? cur : (acc < sec ? acc : sec);
    cur = closer ? acc : cur;
    near = closer ? ci : near;
    std::memcpy(d2 + i, &cur, sizeof cur);
    std::memcpy(second + i, &sec, sizeof sec);
    std::memcpy(nearest + i, &near, sizeof near);
    const VD weighted = cur * wv;
    for (std::size_t l = 0; l < kW; ++l) total += weighted[l];
  }
  for (; i < n; ++i) {
    seed_one(x, stride, d, c, c_index, i, d2, nearest, second);
    total += d2[i] * w[i];
  }
  return total;
}

__attribute__((target("avx2"))) double seed_update_avx2(
    const double* x, std::size_t stride, std::size_t d, const double* c,
    std::size_t c_index, const double* w, std::size_t n, double* d2,
    std::size_t* nearest, double* second) noexcept {
  return seed_update_impl<v4d>(x, stride, d, c, c_index, w, n, d2, nearest,
                               second);
}

__attribute__((target("avx512f"))) double seed_update_avx512(
    const double* x, std::size_t stride, std::size_t d, const double* c,
    std::size_t c_index, const double* w, std::size_t n, double* d2,
    std::size_t* nearest, double* second) noexcept {
  return seed_update_impl<v8d>(x, stride, d, c, c_index, w, n, d2, nearest,
                               second);
}
#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// nearest_point: lanes are centroids (dimension-major storage).  Each lane
// keeps its own first-index-wins minimum; the final pick takes the smallest
// sum and, among equal sums, the smallest index, which is exactly the
// centroid the scalar first-index-wins scan returns.

Nearest nearest_point_scalar(const double* dims, std::size_t stride,
                             std::size_t d, std::size_t k,
                             const double* v) noexcept {
  Nearest out;
  out.dist = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < k; ++c) {
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = v[j] - dims[j * stride + c];
      acc += diff * diff;
    }
    if (acc < out.dist) {
      out.dist = acc;
      out.index = c;
    }
  }
  return out;
}

#ifdef JAAL_SIMD_X86
template <class VD>
[[gnu::always_inline]] inline Nearest nearest_point_impl(
    const double* dims, std::size_t stride, std::size_t d, std::size_t k,
    const double* v) noexcept {
  constexpr std::size_t kW = sizeof(VD) / sizeof(double);
  using VI = decltype(std::declval<VD>() < std::declval<VD>());
  Nearest out;
  out.dist = std::numeric_limits<double>::max();
  VD best = VD{} + out.dist;
  VI best_c = {};
  VI ci = {};
  for (std::size_t l = 0; l < kW; ++l) ci[l] = static_cast<long long>(l);
  std::size_t c = 0;
  for (; c + kW <= k; c += kW, ci += static_cast<long long>(kW)) {
    VD acc = {};
    for (std::size_t j = 0; j < d; ++j) {
      VD cv;
      std::memcpy(&cv, dims + j * stride + c, sizeof cv);
      const VD diff = v[j] - cv;
      acc += diff * diff;
    }
    const VI closer = acc < best;
    best = closer ? acc : best;
    best_c = closer ? ci : best_c;
  }
  for (std::size_t l = 0; l < kW; ++l) {
    const auto index = static_cast<std::size_t>(best_c[l]);
    if (best[l] < out.dist || (best[l] == out.dist && index < out.index)) {
      out.dist = best[l];
      out.index = index;
    }
  }
  for (; c < k; ++c) {
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = v[j] - dims[j * stride + c];
      acc += diff * diff;
    }
    if (acc < out.dist) {
      out.dist = acc;
      out.index = c;
    }
  }
  return out;
}

__attribute__((target("avx2"))) Nearest nearest_point_avx2(
    const double* dims, std::size_t stride, std::size_t d, std::size_t k,
    const double* v) noexcept {
  return nearest_point_impl<v4d>(dims, stride, d, k, v);
}

__attribute__((target("avx512f"))) Nearest nearest_point_avx512(
    const double* dims, std::size_t stride, std::size_t d, std::size_t k,
    const double* v) noexcept {
  return nearest_point_impl<v8d>(dims, stride, d, k, v);
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

PairDots pair_dots_scalar(const double* a, const double* b,
                          std::size_t n) noexcept {
  double la[4] = {0.0, 0.0, 0.0, 0.0};
  double lb[4] = {0.0, 0.0, 0.0, 0.0};
  double lg[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      la[l] += a[i + l] * a[i + l];
      lb[l] += b[i + l] * b[i + l];
      lg[l] += a[i + l] * b[i + l];
    }
  }
  for (std::size_t t = 0; i + t < n; ++t) {
    la[t] += a[i + t] * a[i + t];
    lb[t] += b[i + t] * b[i + t];
    lg[t] += a[i + t] * b[i + t];
  }
  PairDots out;
  out.alpha = (la[0] + la[1]) + (la[2] + la[3]);
  out.beta = (lb[0] + lb[1]) + (lb[2] + lb[3]);
  out.gamma = (lg[0] + lg[1]) + (lg[2] + lg[3]);
  return out;
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

__attribute__((target("avx2"))) PairDots pair_dots_avx2(
    const double* a, const double* b, std::size_t n) noexcept {
  v4d aa = {}, bb = {}, ab = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4d av, bv;
    std::memcpy(&av, a + i, sizeof av);
    std::memcpy(&bv, b + i, sizeof bv);
    aa += av * av;
    bb += bv * bv;
    ab += av * bv;
  }
  double la[4] = {aa[0], aa[1], aa[2], aa[3]};
  double lb[4] = {bb[0], bb[1], bb[2], bb[3]};
  double lg[4] = {ab[0], ab[1], ab[2], ab[3]};
  for (std::size_t t = 0; i + t < n; ++t) {
    la[t] += a[i + t] * a[i + t];
    lb[t] += b[i + t] * b[i + t];
    lg[t] += a[i + t] * b[i + t];
  }
  PairDots out;
  out.alpha = (la[0] + la[1]) + (la[2] + la[3]);
  out.beta = (lb[0] + lb[1]) + (lb[2] + lb[3]);
  out.gamma = (lg[0] + lg[1]) + (lg[2] + lg[3]);
  return out;
}
#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// rotate_pair: elementwise, so any width is bit-identical.

void rotate_pair_scalar(double* a, double* b, std::size_t n, double cs,
                        double sn) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = a[i];
    a[i] = cs * ai - sn * b[i];
    b[i] = sn * ai + cs * b[i];
  }
}

#ifdef JAAL_SIMD_X86
template <class VD>
[[gnu::always_inline]] inline void rotate_pair_impl(double* a, double* b,
                                                    std::size_t n, double cs,
                                                    double sn) noexcept {
  constexpr std::size_t kW = sizeof(VD) / sizeof(double);
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    VD av, bv;
    std::memcpy(&av, a + i, sizeof av);
    std::memcpy(&bv, b + i, sizeof bv);
    const VD ar = cs * av - sn * bv;
    const VD br = sn * av + cs * bv;
    std::memcpy(a + i, &ar, sizeof ar);
    std::memcpy(b + i, &br, sizeof br);
  }
  for (; i < n; ++i) {
    const double ai = a[i];
    a[i] = cs * ai - sn * b[i];
    b[i] = sn * ai + cs * b[i];
  }
}

__attribute__((target("avx2"))) void rotate_pair_avx2(
    double* a, double* b, std::size_t n, double cs, double sn) noexcept {
  rotate_pair_impl<v4d>(a, b, n, cs, sn);
}

__attribute__((target("avx512f"))) void rotate_pair_avx512(
    double* a, double* b, std::size_t n, double cs, double sn) noexcept {
  rotate_pair_impl<v8d>(a, b, n, cs, sn);
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

PairDots pair_dots(const double* a, const double* b, std::size_t n) noexcept {
#ifdef JAAL_SIMD_X86
  if (active() != Level::kScalar) return pair_dots_avx2(a, b, n);
#endif
  return pair_dots_scalar(a, b, n);
}

void rotate_pair(double* a, double* b, std::size_t n, double cs,
                 double sn) noexcept {
#ifdef JAAL_SIMD_X86
  switch (active()) {
    case Level::kAvx512:
      return rotate_pair_avx512(a, b, n, cs, sn);
    case Level::kAvx2:
      return rotate_pair_avx2(a, b, n, cs, sn);
    case Level::kScalar:
      break;
  }
#endif
  rotate_pair_scalar(a, b, n, cs, sn);
}

void nearest_centroids(const double* x, std::size_t stride, std::size_t d,
                       const double* centroids, std::size_t k,
                       std::size_t begin, std::size_t end,
                       std::size_t* assignment, double* best_dist,
                       double* second_dist) noexcept {
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

double seed_update(const double* x, std::size_t stride, std::size_t d,
                   const double* c, std::size_t c_index, const double* w,
                   std::size_t n, double* d2, std::size_t* nearest,
                   double* second) noexcept {
#ifdef JAAL_SIMD_X86
  switch (active()) {
    case Level::kAvx512:
      return seed_update_avx512(x, stride, d, c, c_index, w, n, d2, nearest,
                                second);
    case Level::kAvx2:
      return seed_update_avx2(x, stride, d, c, c_index, w, n, d2, nearest,
                              second);
    case Level::kScalar:
      break;
  }
#endif
  return seed_update_scalar(x, stride, d, c, c_index, w, n, d2, nearest,
                            second);
}

Nearest nearest_point(const double* dims, std::size_t stride, std::size_t d,
                      std::size_t k, const double* v) noexcept {
#ifdef JAAL_SIMD_X86
  switch (active()) {
    case Level::kAvx512:
      return nearest_point_avx512(dims, stride, d, k, v);
    case Level::kAvx2:
      return nearest_point_avx2(dims, stride, d, k, v);
    case Level::kScalar:
      break;
  }
#endif
  return nearest_point_scalar(dims, stride, d, k, v);
}

}  // namespace jaal::linalg::simd

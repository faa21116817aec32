// AVX-512 tier (8 doubles per vector).
//
// Compiled with -mavx512f -mavx512dq -mavx512vl -ffp-contract=off. The
// contract pin is load-bearing here: avx512f implies FMA in the target
// feature set, and without it the compiler contracts even intrinsic
// mul+sub sequences into vfmsub — which changes bits. See kernels_avx2.cpp
// for the full FP-contract story; the same rules apply.
#include "kernels/simd/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <utility>

namespace agcm::simd::detail {

namespace {

void flux_row(int n, double scale, const double* vel, const double* h,
              const double* hn, double* out) {
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d scl = _mm512_set1_pd(scale);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(vel + i);
    const __m512d hs =
        _mm512_add_pd(_mm512_loadu_pd(h + i), _mm512_loadu_pd(hn + i));
    _mm512_storeu_pd(
        out + i,
        _mm512_mul_pd(_mm512_mul_pd(_mm512_mul_pd(v, half), hs), scl));
  }
  for (; i < n; ++i) out[i] = vel[i] * 0.5 * (h[i] + hn[i]) * scale;
}

void advect_update_row(int ni, double dt_inv_area, const double* fxr,
                       const double* fyr, const double* fys, const double* cr,
                       const double* cs, const double* cn, const double* hor,
                       const double* hnr, double* up) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d vdt = _mm512_set1_pd(dt_inv_area);
  int i = 0;
  for (; i + 8 <= ni; i += 8) {
    const __m512d fe = _mm512_loadu_pd(fxr + i);
    const __m512d fw = _mm512_loadu_pd(fxr + i - 1);
    const __m512d fn = _mm512_loadu_pd(fyr + i);
    const __m512d fs = _mm512_loadu_pd(fys + i);
    const __m512d c0 = _mm512_loadu_pd(cr + i);
    const __m512d cp = _mm512_loadu_pd(cr + i + 1);
    const __m512d cm = _mm512_loadu_pd(cr + i - 1);
    const __m512d cnv = _mm512_loadu_pd(cn + i);
    const __m512d csv = _mm512_loadu_pd(cs + i);
    // mask_blend picks its THIRD operand where the mask is set, so the
    // upwind select `f >= 0 ? a : b` is mask_blend(f >= 0, b, a).
    const __mmask8 me = _mm512_cmp_pd_mask(fe, zero, _CMP_GE_OQ);
    const __mmask8 mw = _mm512_cmp_pd_mask(fw, zero, _CMP_GE_OQ);
    const __mmask8 mn = _mm512_cmp_pd_mask(fn, zero, _CMP_GE_OQ);
    const __mmask8 ms = _mm512_cmp_pd_mask(fs, zero, _CMP_GE_OQ);
    const __m512d flux_e =
        _mm512_mul_pd(fe, _mm512_mask_blend_pd(me, cp, c0));
    const __m512d flux_w =
        _mm512_mul_pd(fw, _mm512_mask_blend_pd(mw, c0, cm));
    const __m512d flux_n =
        _mm512_mul_pd(fn, _mm512_mask_blend_pd(mn, cnv, c0));
    const __m512d flux_s =
        _mm512_mul_pd(fs, _mm512_mask_blend_pd(ms, c0, csv));
    const __m512d net = _mm512_sub_pd(
        _mm512_add_pd(_mm512_sub_pd(flux_e, flux_w), flux_n), flux_s);
    const __m512d ch =
        _mm512_sub_pd(_mm512_mul_pd(c0, _mm512_loadu_pd(hor + i)),
                      _mm512_mul_pd(vdt, net));
    _mm512_storeu_pd(up + i, _mm512_div_pd(ch, _mm512_loadu_pd(hnr + i)));
  }
  for (; i < ni; ++i) {
    const double fe = fxr[i];
    const double fw = fxr[i - 1];
    const double fn = fyr[i];
    const double fs = fys[i];
    const double flux_e = fe * (fe >= 0.0 ? cr[i] : cr[i + 1]);
    const double flux_w = fw * (fw >= 0.0 ? cr[i - 1] : cr[i]);
    const double flux_n = fn * (fn >= 0.0 ? cr[i] : cn[i]);
    const double flux_s = fs * (fs >= 0.0 ? cs[i] : cr[i]);
    const double ch = cr[i] * hor[i] -
                      dt_inv_area * (flux_e - flux_w + flux_n - flux_s);
    up[i] = ch / hnr[i];
  }
}

void stencil7_interior(int n, const double* f, const double* fjp,
                       const double* fjm, const double* fkp,
                       const double* fkm, double* out) {
  const __m512d six = _mm512_set1_pd(6.0);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d s = _mm512_add_pd(_mm512_loadu_pd(f + i + 1),
                              _mm512_loadu_pd(f + i - 1));
    s = _mm512_add_pd(s, _mm512_loadu_pd(fjp + i));
    s = _mm512_add_pd(s, _mm512_loadu_pd(fjm + i));
    s = _mm512_add_pd(s, _mm512_loadu_pd(fkp + i));
    s = _mm512_add_pd(s, _mm512_loadu_pd(fkm + i));
    s = _mm512_sub_pd(s, _mm512_mul_pd(six, _mm512_loadu_pd(f + i)));
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(out + i), s));
  }
  for (; i < n; ++i)
    out[i] += f[i + 1] + f[i - 1] + fjp[i] + fjm[i] + fkp[i] + fkm[i] -
              6.0 * f[i];
}

void pointwise_panel(std::size_t m, const double* a, const double* b,
                     double* out) {
  std::size_t q = 0;
  for (; q + 8 <= m; q += 8)
    _mm512_storeu_pd(out + q, _mm512_mul_pd(_mm512_loadu_pd(a + q),
                                            _mm512_loadu_pd(b + q)));
  for (; q < m; ++q) out[q] = a[q] * b[q];
}

void daxpy(std::size_t n, double alpha, const double* x, double* y) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d prod = _mm512_mul_pd(va, _mm512_loadu_pd(x + i));
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// One register block of conv_window: sizeof...(V) vectors of outputs
/// starting at `out`, the last one masked to `last`. The fold keeps every
/// accumulator in a register; each lane's sum runs over ascending t.
template <std::size_t... V>
void conv_block_fold(std::index_sequence<V...>, int taps, const double* a,
                     const double* wt, __mmask8 last, double* out) {
  constexpr std::size_t kVecs = sizeof...(V);
  const auto mask = [last](std::size_t v) {
    return v + 1 < kVecs ? static_cast<__mmask8>(0xFF) : last;
  };
  __m512d s[kVecs] = {(static_cast<void>(V), _mm512_setzero_pd())...};
  for (int t = 0; t < taps; ++t) {
    const __m512d x = _mm512_set1_pd(a[t]);
    const double* p = wt - t;
    ((s[V] = _mm512_add_pd(
          s[V], _mm512_mul_pd(x, _mm512_maskz_loadu_pd(mask(V), p + 8 * V)))),
     ...);
  }
  (_mm512_mask_storeu_pd(out + 8 * V, mask(V), s[V]), ...);
}

template <std::size_t kVecs>
void conv_block(int taps, const double* a, const double* wt, __mmask8 last,
                double* out) {
  conv_block_fold(std::make_index_sequence<kVecs>{}, taps, a, wt, last, out);
}

/// The closing block of conv_window, by its vector count (1..5).
constexpr void (*kFinalBlock[])(int, const double*, const double*, __mmask8,
                                double*) = {conv_block<1>, conv_block<2>,
                                            conv_block<3>, conv_block<4>,
                                            conv_block<5>};

void conv_window(int taps, int n_out, const double* a, const double* w,
                 double* out) {
  const double* wt = w + (taps - 1);  // wt[c - t]: output c, source t
  int c = 0;
  // Four-vector blocks; the last one to five vectors run as one block so a
  // short tail never pays a latency-bound pass of its own.
  for (; n_out - c > 40; c += 32)
    conv_block<4>(taps, a, wt + c, 0xFF, out + c);
  const int rem = n_out - c;
  if (rem <= 0) return;
  const int vecs = (rem + 7) / 8;
  const auto last = static_cast<__mmask8>(0xFFu >> (8 * vecs - rem));
  kFinalBlock[vecs - 1](taps, a, wt + c, last, out + c);
}

double ddot(std::size_t n, const double* x, const double* y) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  double total = _mm512_reduce_add_pd(acc);
  for (; i < n; ++i) total += x[i] * y[i];
  return total;
}

double longwave_exchange(const double* theta, int nlev, int k1,
                         const double* emis, double t1) {
  const __m512d vt1 = _mm512_set1_pd(t1);
  const __m512i rev = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  __m512d vacc = _mm512_setzero_pd();
  double acc = 0.0;
  // Below the diagonal: emis index k1 - k2 descends as k2 ascends, so the
  // emissivity load is lane-reversed.
  int p = 0;
  for (; p + 8 <= k1; p += 8) {
    const __m512d th = _mm512_loadu_pd(theta + p);
    const __m512d em =
        _mm512_permutexvar_pd(rev, _mm512_loadu_pd(emis + k1 - p - 7));
    vacc = _mm512_add_pd(vacc, _mm512_mul_pd(em, _mm512_sub_pd(th, vt1)));
  }
  for (; p < k1; ++p) acc += emis[k1 - p] * (theta[p] - t1);
  // Above the diagonal: both streams ascend.
  const int count = nlev - 1 - k1;
  int q = 0;
  for (; q + 8 <= count; q += 8) {
    const __m512d th = _mm512_loadu_pd(theta + k1 + 1 + q);
    const __m512d em = _mm512_loadu_pd(emis + 1 + q);
    vacc = _mm512_add_pd(vacc, _mm512_mul_pd(em, _mm512_sub_pd(th, vt1)));
  }
  for (; q < count; ++q) acc += emis[1 + q] * (theta[k1 + 1 + q] - t1);
  return acc + _mm512_reduce_add_pd(vacc);
}

// ---- complex helpers (interleaved [re, im] lanes) -----------------------

inline __m512d neg_even() {
  return _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
}
inline __m512d neg_odd() {
  return _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
}

/// Complex multiply, std::complex's expression order per component (see
/// kernels_avx2.cpp for the derivation; a + (-b) == a - b bitwise).
inline __m512d cmul(__m512d x, __m512d w) {
  const __m512d xre = _mm512_permute_pd(x, 0x00);  // dup even lanes
  const __m512d xim = _mm512_permute_pd(x, 0xFF);  // dup odd lanes
  const __m512d ws = _mm512_permute_pd(w, 0x55);   // swap re/im
  const __m512d t1 = _mm512_mul_pd(xre, w);
  const __m512d t2 = _mm512_mul_pd(xim, ws);
  return _mm512_add_pd(t1, _mm512_xor_pd(t2, neg_even()));
}

/// Multiply by +i: (re, im) -> (-im, re).
inline __m512d cmul_i(__m512d x) {
  return _mm512_xor_pd(_mm512_permute_pd(x, 0x55), neg_even());
}

/// Multiply by -i: (re, im) -> (im, -re).
inline __m512d cmul_negi(__m512d x) {
  return _mm512_xor_pd(_mm512_permute_pd(x, 0x55), neg_odd());
}

void fft_radix2_stage(double* a, int n, int m, const double* tw) {
  const int m2 = 2 * m;
  for (int b2 = 0; b2 < 2 * n; b2 += 2 * m2) {
    double* p0 = a + b2;
    double* p1 = p0 + m2;
    int q2 = 0;
    for (; q2 + 8 <= m2; q2 += 8) {
      const __m512d u = _mm512_loadu_pd(p0 + q2);
      const __m512d t =
          cmul(_mm512_loadu_pd(p1 + q2), _mm512_loadu_pd(tw + q2));
      _mm512_storeu_pd(p0 + q2, _mm512_add_pd(u, t));
      _mm512_storeu_pd(p1 + q2, _mm512_sub_pd(u, t));
    }
    for (; q2 < m2; q2 += 2) {
      const double ure = p0[q2], uim = p0[q2 + 1];
      const double vre = p1[q2], vim = p1[q2 + 1];
      const double wre = tw[q2], wim = tw[q2 + 1];
      const double tre = vre * wre - vim * wim;
      const double tim = vre * wim + vim * wre;
      p0[q2] = ure + tre;
      p0[q2 + 1] = uim + tim;
      p1[q2] = ure - tre;
      p1[q2 + 1] = uim - tim;
    }
  }
}

void fft_radix4_stage(double* a, int n, int m, const double* tw1,
                      const double* tw2, const double* tw3, bool inverse) {
  const int m2 = 2 * m;
  for (int b2 = 0; b2 < 2 * n; b2 += 4 * m2) {
    double* p0 = a + b2;
    double* p1 = p0 + m2;
    double* p2 = p1 + m2;
    double* p3 = p2 + m2;
    int q2 = 0;
    for (; q2 + 8 <= m2; q2 += 8) {
      const __m512d x0 = _mm512_loadu_pd(p0 + q2);
      const __m512d x1 =
          cmul(_mm512_loadu_pd(p1 + q2), _mm512_loadu_pd(tw1 + q2));
      const __m512d x2 =
          cmul(_mm512_loadu_pd(p2 + q2), _mm512_loadu_pd(tw2 + q2));
      const __m512d x3 =
          cmul(_mm512_loadu_pd(p3 + q2), _mm512_loadu_pd(tw3 + q2));
      const __m512d t0 = _mm512_add_pd(x0, x2);
      const __m512d t1 = _mm512_sub_pd(x0, x2);
      const __m512d t2 = _mm512_add_pd(x1, x3);
      const __m512d d = _mm512_sub_pd(x1, x3);
      const __m512d jd = inverse ? cmul_i(d) : cmul_negi(d);
      _mm512_storeu_pd(p0 + q2, _mm512_add_pd(t0, t2));
      _mm512_storeu_pd(p1 + q2, _mm512_add_pd(t1, jd));
      _mm512_storeu_pd(p2 + q2, _mm512_sub_pd(t0, t2));
      _mm512_storeu_pd(p3 + q2, _mm512_sub_pd(t1, jd));
    }
    for (; q2 < m2; q2 += 2) {
      const double w1re = tw1[q2], w1im = tw1[q2 + 1];
      const double w2re = tw2[q2], w2im = tw2[q2 + 1];
      const double w3re = tw3[q2], w3im = tw3[q2 + 1];
      const double x0re = p0[q2], x0im = p0[q2 + 1];
      const double x1re = p1[q2] * w1re - p1[q2 + 1] * w1im;
      const double x1im = p1[q2] * w1im + p1[q2 + 1] * w1re;
      const double x2re = p2[q2] * w2re - p2[q2 + 1] * w2im;
      const double x2im = p2[q2] * w2im + p2[q2 + 1] * w2re;
      const double x3re = p3[q2] * w3re - p3[q2 + 1] * w3im;
      const double x3im = p3[q2] * w3im + p3[q2 + 1] * w3re;
      const double t0re = x0re + x2re, t0im = x0im + x2im;
      const double t1re = x0re - x2re, t1im = x0im - x2im;
      const double t2re = x1re + x3re, t2im = x1im + x3im;
      const double dre = x1re - x3re, dim = x1im - x3im;
      const double jdre = inverse ? -dim : dim;
      const double jdim = inverse ? dre : -dre;
      p0[q2] = t0re + t2re;
      p0[q2 + 1] = t0im + t2im;
      p1[q2] = t1re + jdre;
      p1[q2 + 1] = t1im + jdim;
      p2[q2] = t0re - t2re;
      p2[q2 + 1] = t0im - t2im;
      p3[q2] = t1re - jdre;
      p3[q2 + 1] = t1im - jdim;
    }
  }
}

}  // namespace

const KernelOps* avx512_ops() {
  static const KernelOps ops{flux_row,        advect_update_row,
                             stencil7_interior, pointwise_panel,
                             daxpy,           conv_window,
                             ddot,            longwave_exchange,
                             fft_radix2_stage, fft_radix4_stage};
  return &ops;
}

}  // namespace agcm::simd::detail

#else  // no AVX-512 F+DQ+VL

namespace agcm::simd::detail {
const KernelOps* avx512_ops() { return nullptr; }
}  // namespace agcm::simd::detail

#endif

#pragma once
// Width-templated kernel bodies, included by BOTH simd.cpp (scalar, W=1) and
// simd_avx2.cpp (AVX2, W=8). One loop structure instantiated per ISA is what
// makes the bit-compatibility guarantee in simd.hpp hold: every output
// element is accumulated in the same order on every path, tails use the same
// scalar expression trees as the vector bodies, and nothing here may fuse a
// multiply-add (both TUs compile with -ffp-contract=off / -mno-fma).
//
// The policy `V` supplies: kWidth, Reg, load/store (unaligned), set1, zero,
// add/sub/mul/div, sqrt (IEEE correctly-rounded, so scalar sqrtss and vector
// vsqrtps agree bitwise), relu (max(x, 0) with NaN -> 0), and
// mask_positive(x, g) (g where x > 0, else +0).

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "pipetune/tensor/arena.hpp"
#include "simd_internal.hpp"

namespace pipetune::tensor::simd::kernels {

template <class V>
void k_axpy(std::size_t n, float alpha, const float* x, float* y) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_n = n / W * W;
    const auto va = V::set1(alpha);
    for (std::size_t i = 0; i < main_n; i += W)
        V::store(y + i, V::add(V::load(y + i), V::mul(va, V::load(x + i))));
    for (std::size_t i = main_n; i < n; ++i) y[i] = y[i] + alpha * x[i];
}

template <class V>
void k_scale(std::size_t n, float alpha, float* x) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_n = n / W * W;
    const auto va = V::set1(alpha);
    for (std::size_t i = 0; i < main_n; i += W) V::store(x + i, V::mul(va, V::load(x + i)));
    for (std::size_t i = main_n; i < n; ++i) x[i] = alpha * x[i];
}

template <class V>
void k_relu(std::size_t n, const float* x, float* y) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_n = n / W * W;
    for (std::size_t i = 0; i < main_n; i += W) V::store(y + i, V::relu(V::load(x + i)));
    for (std::size_t i = main_n; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

template <class V>
void k_relu_backward(std::size_t n, const float* x, float* g) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_n = n / W * W;
    for (std::size_t i = 0; i < main_n; i += W)
        V::store(g + i, V::mask_positive(V::load(x + i), V::load(g + i)));
    for (std::size_t i = main_n; i < n; ++i) g[i] = x[i] > 0.0f ? g[i] : 0.0f;
}

// Reduction with a FIXED accumulation geometry: 8 slots, slot l accumulating
// elements l, l+8, l+16, ... in index order, then a sequential slot sum. The
// AVX2 instantiation's vector lanes ARE those slots, so both ISAs perform
// bit-identical arithmetic (which is deliberately NOT the order a plain
// sequential loop would use).
template <class V>
float k_squared_norm(std::size_t n, const float* x) {
    constexpr std::size_t kSlots = 8;
    float slots[kSlots] = {};
    const std::size_t main_n = n / kSlots * kSlots;
    if constexpr (V::kWidth == kSlots) {
        auto acc = V::zero();
        for (std::size_t i = 0; i < main_n; i += kSlots) {
            const auto xv = V::load(x + i);
            acc = V::add(acc, V::mul(xv, xv));
        }
        V::store(slots, acc);
    } else {
        for (std::size_t i = 0; i < main_n; i += kSlots)
            for (std::size_t l = 0; l < kSlots; ++l) slots[l] = slots[l] + x[i + l] * x[i + l];
    }
    for (std::size_t i = main_n; i < n; ++i) slots[i - main_n] = slots[i - main_n] + x[i] * x[i];
    float total = 0.0f;
    for (std::size_t l = 0; l < kSlots; ++l) total += slots[l];
    return total;
}

template <class V>
void k_sgd_momentum_step(std::size_t n, float lr, float mu, float wd, float* w, float* g,
                         float* v) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_n = n / W * W;
    const auto vlr = V::set1(lr);
    const auto vmu = V::set1(mu);
    const auto vwd = V::set1(wd);
    const auto vzero = V::zero();
    for (std::size_t i = 0; i < main_n; i += W) {
        const auto grad = V::add(V::load(g + i), V::mul(vwd, V::load(w + i)));
        const auto vel = V::sub(V::mul(vmu, V::load(v + i)), V::mul(vlr, grad));
        V::store(v + i, vel);
        V::store(w + i, V::add(V::load(w + i), vel));
        V::store(g + i, vzero);
    }
    for (std::size_t i = main_n; i < n; ++i) {
        const float grad = g[i] + wd * w[i];
        v[i] = mu * v[i] - lr * grad;
        w[i] = w[i] + v[i];
        g[i] = 0.0f;
    }
}

template <class V>
void k_adam_step(std::size_t n, const AdamStep& step, float* w, float* g, float* m, float* v) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_n = n / W * W;
    const auto vlr = V::set1(step.lr);
    const auto vb1 = V::set1(step.beta1);
    const auto vb2 = V::set1(step.beta2);
    const auto vc1 = V::set1(1.0f - step.beta1);
    const auto vc2 = V::set1(1.0f - step.beta2);
    const auto veps = V::set1(step.epsilon);
    const auto vwd = V::set1(step.weight_decay);
    const auto vbias1 = V::set1(step.bias1);
    const auto vbias2 = V::set1(step.bias2);
    const auto vzero = V::zero();
    for (std::size_t i = 0; i < main_n; i += W) {
        const auto grad = V::add(V::load(g + i), V::mul(vwd, V::load(w + i)));
        const auto m1 = V::add(V::mul(vb1, V::load(m + i)), V::mul(vc1, grad));
        const auto m2 = V::add(V::mul(vb2, V::load(v + i)), V::mul(V::mul(vc2, grad), grad));
        V::store(m + i, m1);
        V::store(v + i, m2);
        const auto m_hat = V::div(m1, vbias1);
        const auto v_hat = V::div(m2, vbias2);
        const auto delta = V::div(V::mul(vlr, m_hat), V::add(V::sqrt(v_hat), veps));
        V::store(w + i, V::sub(V::load(w + i), delta));
        V::store(g + i, vzero);
    }
    for (std::size_t i = main_n; i < n; ++i) {
        const float grad = g[i] + step.weight_decay * w[i];
        m[i] = step.beta1 * m[i] + (1.0f - step.beta1) * grad;
        v[i] = step.beta2 * v[i] + ((1.0f - step.beta2) * grad) * grad;
        const float m_hat = m[i] / step.bias1;
        const float v_hat = v[i] / step.bias2;
        w[i] = w[i] - (step.lr * m_hat) / (std::sqrt(v_hat) + step.epsilon);
        g[i] = 0.0f;
    }
}

// ---- Column-wise kernels: lanes are columns, accumulation over rows runs
// in row order for every column on both ISAs. ----

template <class V>
void k_colwise_sum(std::size_t rows, std::size_t cols, const float* x, float* acc) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_c = cols / W * W;
    for (std::size_t j = 0; j < main_c; j += W) {
        auto a = V::load(acc + j);
        for (std::size_t i = 0; i < rows; ++i) a = V::add(a, V::load(x + i * cols + j));
        V::store(acc + j, a);
    }
    for (std::size_t j = main_c; j < cols; ++j) {
        float a = acc[j];
        for (std::size_t i = 0; i < rows; ++i) a = a + x[i * cols + j];
        acc[j] = a;
    }
}

template <class V>
void k_colwise_sq_dev_sum(std::size_t rows, std::size_t cols, const float* x, const float* mean,
                          float* acc) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_c = cols / W * W;
    for (std::size_t j = 0; j < main_c; j += W) {
        auto a = V::load(acc + j);
        const auto mv = V::load(mean + j);
        for (std::size_t i = 0; i < rows; ++i) {
            const auto d = V::sub(V::load(x + i * cols + j), mv);
            a = V::add(a, V::mul(d, d));
        }
        V::store(acc + j, a);
    }
    for (std::size_t j = main_c; j < cols; ++j) {
        float a = acc[j];
        for (std::size_t i = 0; i < rows; ++i) {
            const float d = x[i * cols + j] - mean[j];
            a = a + d * d;
        }
        acc[j] = a;
    }
}

template <class V>
void k_colwise_mul_sum(std::size_t rows, std::size_t cols, const float* a, const float* b,
                       float* acc) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_c = cols / W * W;
    for (std::size_t j = 0; j < main_c; j += W) {
        auto s = V::load(acc + j);
        for (std::size_t i = 0; i < rows; ++i)
            s = V::add(s, V::mul(V::load(a + i * cols + j), V::load(b + i * cols + j)));
        V::store(acc + j, s);
    }
    for (std::size_t j = main_c; j < cols; ++j) {
        float s = acc[j];
        for (std::size_t i = 0; i < rows; ++i) s = s + a[i * cols + j] * b[i * cols + j];
        acc[j] = s;
    }
}

template <class V>
void k_bn_normalize(std::size_t rows, std::size_t cols, const float* x, const float* mean,
                    const float* inv_std, const float* gamma, const float* beta, float* x_hat,
                    float* y) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_c = cols / W * W;
    for (std::size_t i = 0; i < rows; ++i) {
        const float* xr = x + i * cols;
        float* xhr = x_hat + i * cols;
        float* yr = y + i * cols;
        for (std::size_t j = 0; j < main_c; j += W) {
            const auto xh = V::mul(V::sub(V::load(xr + j), V::load(mean + j)), V::load(inv_std + j));
            V::store(xhr + j, xh);
            V::store(yr + j, V::add(V::mul(V::load(gamma + j), xh), V::load(beta + j)));
        }
        for (std::size_t j = main_c; j < cols; ++j) {
            const float xh = (xr[j] - mean[j]) * inv_std[j];
            xhr[j] = xh;
            yr[j] = gamma[j] * xh + beta[j];
        }
    }
}

template <class V>
void k_bn_backward_apply(std::size_t rows, std::size_t cols, const float* dy, const float* x_hat,
                         const float* scale, const float* sum_dy, const float* sum_dy_xhat,
                         float batch_n, float* dx) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_c = cols / W * W;
    const auto vn = V::set1(batch_n);
    for (std::size_t i = 0; i < rows; ++i) {
        const float* dyr = dy + i * cols;
        const float* xhr = x_hat + i * cols;
        float* dxr = dx + i * cols;
        for (std::size_t j = 0; j < main_c; j += W) {
            const auto t = V::sub(V::sub(V::mul(vn, V::load(dyr + j)), V::load(sum_dy + j)),
                                  V::mul(V::load(xhr + j), V::load(sum_dy_xhat + j)));
            V::store(dxr + j, V::mul(V::load(scale + j), t));
        }
        for (std::size_t j = main_c; j < cols; ++j)
            dxr[j] = scale[j] * (batch_n * dyr[j] - sum_dy[j] - xhr[j] * sum_dy_xhat[j]);
    }
}

// ---- GEMM kernels. Every C element is accumulated strictly k-sequentially
// starting from its incoming value, on both ISAs and in every tail, so a
// register accumulator, a memory round-trip, or any blocking choice all
// yield the same bits. Lanes always span columns of C (independent
// elements), never the k reduction. ----

inline constexpr std::size_t kGemmRowTile = 4;  ///< A rows sharing one B load

template <class V>
void k_gemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
            float* c) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t jw = 2 * W;  // 4 rows x 2 vectors: 8 live accumulators
    const std::size_t main_n = n / jw * jw;
    for (std::size_t i0 = 0; i0 < m; i0 += kGemmRowTile) {
        const std::size_t rows = std::min(kGemmRowTile, m - i0);
        for (std::size_t j0 = 0; j0 < main_n; j0 += jw) {
            typename V::Reg acc0[kGemmRowTile];
            typename V::Reg acc1[kGemmRowTile];
            for (std::size_t r = 0; r < rows; ++r) {
                acc0[r] = V::load(c + (i0 + r) * n + j0);
                acc1[r] = V::load(c + (i0 + r) * n + j0 + W);
            }
            for (std::size_t kk = 0; kk < k; ++kk) {
                const auto b0 = V::load(b + kk * n + j0);
                const auto b1 = V::load(b + kk * n + j0 + W);
                for (std::size_t r = 0; r < rows; ++r) {
                    const auto av = V::set1(a[(i0 + r) * k + kk]);
                    acc0[r] = V::add(acc0[r], V::mul(av, b0));
                    acc1[r] = V::add(acc1[r], V::mul(av, b1));
                }
            }
            for (std::size_t r = 0; r < rows; ++r) {
                V::store(c + (i0 + r) * n + j0, acc0[r]);
                V::store(c + (i0 + r) * n + j0 + W, acc1[r]);
            }
        }
        // One-vector block for a column remainder of at least W (the LSTM's
        // dX has n = embedding in [8, 30]), so only n mod W stays scalar.
        std::size_t tail_n = main_n;
        if (n - main_n >= W) {
            typename V::Reg acc[kGemmRowTile];
            for (std::size_t r = 0; r < rows; ++r) acc[r] = V::load(c + (i0 + r) * n + main_n);
            for (std::size_t kk = 0; kk < k; ++kk) {
                const auto bv = V::load(b + kk * n + main_n);
                for (std::size_t r = 0; r < rows; ++r)
                    acc[r] = V::add(acc[r], V::mul(V::set1(a[(i0 + r) * k + kk]), bv));
            }
            for (std::size_t r = 0; r < rows; ++r) V::store(c + (i0 + r) * n + main_n, acc[r]);
            tail_n += W;
        }
        for (std::size_t j = tail_n; j < n; ++j)
            for (std::size_t r = 0; r < rows; ++r) {
                float acc = c[(i0 + r) * n + j];
                const float* arow = a + (i0 + r) * k;
                for (std::size_t kk = 0; kk < k; ++kk) acc = acc + arow[kk] * b[kk * n + j];
                c[(i0 + r) * n + j] = acc;
            }
    }
}

template <class V>
void k_gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
               float* c) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_n = n / W * W;
    // Pack W rows of B k-interleaved (panel[kk*W + l] = b[j0+l][kk]) so the
    // vector loop reads one contiguous vector per k step and each lane's
    // accumulation stays k-sequential — a straight lane-parallel dot product
    // would reassociate the reduction and break bit-compatibility.
    ArenaScope scope;
    float* panel = main_n > 0 ? scope.alloc_floats(k * W) : nullptr;
    for (std::size_t j0 = 0; j0 < main_n; j0 += W) {
        for (std::size_t kk = 0; kk < k; ++kk)
            for (std::size_t l = 0; l < W; ++l) panel[kk * W + l] = b[(j0 + l) * k + kk];
        for (std::size_t i0 = 0; i0 < m; i0 += kGemmRowTile) {
            const std::size_t rows = std::min(kGemmRowTile, m - i0);
            typename V::Reg acc[kGemmRowTile];
            for (std::size_t r = 0; r < rows; ++r) acc[r] = V::load(c + (i0 + r) * n + j0);
            for (std::size_t kk = 0; kk < k; ++kk) {
                const auto bv = V::load(panel + kk * W);
                for (std::size_t r = 0; r < rows; ++r) {
                    const auto av = V::set1(a[(i0 + r) * k + kk]);
                    acc[r] = V::add(acc[r], V::mul(av, bv));
                }
            }
            for (std::size_t r = 0; r < rows; ++r) V::store(c + (i0 + r) * n + j0, acc[r]);
        }
    }
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = main_n; j < n; ++j) {
            float acc = c[i * n + j];
            const float* arow = a + i * k;
            const float* brow = b + j * k;
            for (std::size_t kk = 0; kk < k; ++kk) acc = acc + arow[kk] * brow[kk];
            c[i * n + j] = acc;
        }
}

template <class V>
void k_gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
               float* c) {
    constexpr std::size_t W = V::kWidth;
    const std::size_t main_n = n / W * W;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* arow = a + kk * m;
        const float* brow = b + kk * n;
        for (std::size_t i = 0; i < m; ++i) {
            const float av = arow[i];
            // Sparsity skip (gradients are often zero-heavy). The test is on
            // the shared scalar av, so both ISAs skip identical terms.
            if (av == 0.0f) continue;
            float* crow = c + i * n;
            const auto avv = V::set1(av);
            for (std::size_t j = 0; j < main_n; j += W)
                V::store(crow + j, V::add(V::load(crow + j), V::mul(avv, V::load(brow + j))));
            for (std::size_t j = main_n; j < n; ++j) crow[j] = crow[j] + av * brow[j];
        }
    }
}

template <class V>
constexpr detail::KernelTable make_kernel_table() {
    detail::KernelTable table{};
    table.axpy = &k_axpy<V>;
    table.scale = &k_scale<V>;
    table.relu = &k_relu<V>;
    table.relu_backward = &k_relu_backward<V>;
    table.squared_norm = &k_squared_norm<V>;
    table.sgd_momentum_step = &k_sgd_momentum_step<V>;
    table.adam_step = &k_adam_step<V>;
    table.colwise_sum = &k_colwise_sum<V>;
    table.colwise_sq_dev_sum = &k_colwise_sq_dev_sum<V>;
    table.colwise_mul_sum = &k_colwise_mul_sum<V>;
    table.bn_normalize = &k_bn_normalize<V>;
    table.bn_backward_apply = &k_bn_backward_apply<V>;
    table.gemm = &k_gemm<V>;
    table.gemm_bt = &k_gemm_bt<V>;
    table.gemm_at = &k_gemm_at<V>;
    return table;
}

}  // namespace pipetune::tensor::simd::kernels
